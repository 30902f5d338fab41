use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (virtual or wall) time, in microseconds since an arbitrary
/// transport-defined epoch.
///
/// Real transports report elapsed wall time since their creation; the
/// `sdso-sim` simulator reports deterministic virtual time. Protocol code is
/// written against this single type so the same code measures identically in
/// both worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

/// A span of (virtual or wall) time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(u64);

impl SimInstant {
    /// The transport epoch (time zero).
    pub const ZERO: SimInstant = SimInstant(0);

    /// Creates an instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimInstant(micros)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier` is
    /// actually later.
    pub fn saturating_since(self, earlier: SimInstant) -> SimSpan {
        SimSpan(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimInstant) -> SimInstant {
        SimInstant(self.0.max(other.0))
    }
}

impl SimSpan {
    /// The empty span.
    pub const ZERO: SimSpan = SimSpan(0);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimSpan(micros)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimSpan(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimSpan(secs * 1_000_000)
    }

    /// The span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
}

impl Add<SimSpan> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimSpan) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl AddAssign<SimSpan> for SimInstant {
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimSpan;
    /// # Panics
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimInstant) -> SimSpan {
        debug_assert!(self.0 >= rhs.0, "instant subtraction underflow");
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0 + rhs.0)
    }
}

impl AddAssign for SimSpan {
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    fn sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimSpan {
    fn sub_assign(&mut self, rhs: SimSpan) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Sum for SimSpan {
    fn sum<I: Iterator<Item = SimSpan>>(iter: I) -> SimSpan {
        iter.fold(SimSpan::ZERO, Add::add)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e3)
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimInstant::from_micros(1_000);
        let d = SimSpan::from_millis(2);
        assert_eq!((t + d).as_micros(), 3_000);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimInstant::from_micros(10);
        let late = SimInstant::from_micros(50);
        assert_eq!(early.saturating_since(late), SimSpan::ZERO);
        assert_eq!(late.saturating_since(early).as_micros(), 40);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimSpan::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimSpan::from_millis(1).as_micros(), 1_000);
        assert!((SimSpan::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn sum_of_spans() {
        let total: SimSpan = (1..=4).map(SimSpan::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(SimSpan::from_micros(1_500).to_string(), "1.500ms");
    }
}
