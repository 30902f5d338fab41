//! Monotonic wall-clock timestamping for real (non-deterministic)
//! transports.
//!
//! This module is the single place in the workspace where observability
//! code may read the host clock: the deterministic sim stamps events with
//! virtual time from its scheduler, while `ReactorEndpoint` stamps with a
//! [`MonoClock`]. `crates/obs` denies host time outside tests
//! (see `lib.rs`), and this file alone is exempt.

// MonoClock stamps flight-recorder events on the real transport (the
// reactor) only; deterministic sim runs stamp with virtual time and
// never touch it. Anything else in crates/obs (or net/sim/core/protocols) that
// reads host time is a bug, not a candidate for this exception. An
// `expect`, not an `allow`: once this file reads no host clock, the
// exception itself fails clippy.
#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the real transport's one host clock: `MonoClock` stamps reactor events"
)]

use std::time::Instant;

/// Microseconds elapsed since a fixed epoch, read from the host's
/// monotonic clock. Cheap to clone; clones share the epoch.
#[derive(Debug, Clone, Copy)]
pub struct MonoClock {
    epoch: Instant,
}

impl MonoClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        MonoClock { epoch: Instant::now() }
    }

    /// Microseconds since the epoch.
    pub fn micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Default for MonoClock {
    fn default() -> Self {
        MonoClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let clock = MonoClock::new();
        let a = clock.micros();
        let b = clock.micros();
        assert!(b >= a);
    }

    #[test]
    fn clones_share_the_epoch() {
        let clock = MonoClock::new();
        let clone = clock;
        // Both readings come from the same epoch, so they stay within the
        // time that elapsed between the two calls (generous bound).
        let a = clock.micros();
        let b = clone.micros();
        assert!(b.abs_diff(a) < 1_000_000);
    }
}
