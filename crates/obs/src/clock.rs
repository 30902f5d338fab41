//! Monotonic wall-clock timestamping for real (non-deterministic)
//! transports.
//!
//! This module is the single place in the workspace where observability
//! code may read the host clock: the deterministic sim stamps events with
//! virtual time from its scheduler, while `ReactorEndpoint`/`MemoryEndpoint`
//! stamp with a [`MonoClock`]. The `sdso-check` wall-clock lint scopes
//! `crates/obs` and allowlists exactly this file.

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
