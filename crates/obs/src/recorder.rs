//! The lock-light flight recorder.
//!
//! One [`Recorder`] per node. Recording is gated by an atomic mode flag:
//! with tracing [`TraceMode::Off`] the whole record path is a single
//! relaxed load and a branch, so instrumented code can stay instrumented
//! in production builds. [`TraceMode::Counters`] additionally bumps one
//! per-kind atomic counter; [`TraceMode::Full`] also appends the record to
//! a fixed-capacity ring buffer that drops oldest-first under pressure and
//! counts what it dropped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{EventKind, EventRecord, KIND_COUNT};

/// How much the recorder records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing; the record path is one atomic load.
    #[default]
    Off,
    /// Per-kind event counters only — no per-event storage.
    Counters,
    /// Counters plus the full event ring.
    Full,
}

const MODE_OFF: u8 = 0;
const MODE_COUNTERS: u8 = 1;
const MODE_FULL: u8 = 2;

impl TraceMode {
    fn as_u8(self) -> u8 {
        match self {
            TraceMode::Off => MODE_OFF,
            TraceMode::Counters => MODE_COUNTERS,
            TraceMode::Full => MODE_FULL,
        }
    }
}

/// Recorder configuration: mode plus ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// How much to record.
    pub mode: TraceMode,
    /// Ring capacity in events (only relevant in [`TraceMode::Full`]).
    pub capacity: usize,
}

impl TraceConfig {
    /// Tracing disabled (the production default).
    pub fn off() -> Self {
        TraceConfig { mode: TraceMode::Off, capacity: 0 }
    }

    /// Counters only, no event storage.
    pub fn counters() -> Self {
        TraceConfig { mode: TraceMode::Counters, capacity: 0 }
    }

    /// Full event recording with the default ring capacity (64 Ki events
    /// per node — 1.5 MiB — which comfortably holds a 16-process,
    /// 200-tick evaluation run).
    pub fn full() -> Self {
        TraceConfig { mode: TraceMode::Full, capacity: 64 * 1024 }
    }

    /// Full recording with an explicit ring capacity.
    pub fn full_with_capacity(capacity: usize) -> Self {
        TraceConfig { mode: TraceMode::Full, capacity: capacity.max(1) }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

#[derive(Debug)]
struct Shared {
    node: u16,
    mode: AtomicU8,
    capacity: usize,
    counts: [AtomicU64; KIND_COUNT],
    dropped: AtomicU64,
    ring: Mutex<VecDeque<EventRecord>>,
}

/// A per-node flight recorder handle. Cloning shares the underlying
/// buffers, so a recorder can be attached to an endpoint, a runtime and a
/// protocol layer at once.
#[derive(Debug, Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Recorder {
    /// Creates a recorder for `node` with the given configuration.
    pub fn new(node: u16, config: TraceConfig) -> Self {
        Recorder {
            shared: Arc::new(Shared {
                node,
                mode: AtomicU8::new(config.mode.as_u8()),
                capacity: config.capacity.max(1),
                counts: [(); KIND_COUNT].map(|()| AtomicU64::new(0)),
                dropped: AtomicU64::new(0),
                ring: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// A recorder that records nothing (mode [`TraceMode::Off`]).
    pub fn disabled() -> Self {
        Recorder::new(0, TraceConfig::off())
    }

    /// The node this recorder belongs to.
    pub fn node(&self) -> u16 {
        self.shared.node
    }

    /// Switches the recording mode at runtime.
    pub fn set_mode(&self, mode: TraceMode) {
        self.shared.mode.store(mode.as_u8(), Ordering::Relaxed);
    }

    /// True unless the mode is [`TraceMode::Off`].
    pub fn enabled(&self) -> bool {
        self.shared.mode.load(Ordering::Relaxed) != MODE_OFF
    }

    /// Records one event. With tracing off this is one relaxed atomic load
    /// — which buys nothing if the caller has already paid for `at`: a
    /// clock read costs far more than the load that then throws it away.
    /// On a path that runs per object access, check [`Recorder::enabled`]
    /// first and read the clock only when it says yes (the runtime's
    /// `read` and `write` do); paths that run a few times a tick need not
    /// bother.
    #[inline]
    pub fn record(&self, at: u64, kind: EventKind, a: u32, b: u32, c: u32) {
        let mode = self.shared.mode.load(Ordering::Relaxed);
        if mode == MODE_OFF {
            return;
        }
        self.shared.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        if mode == MODE_FULL {
            self.push(EventRecord { at, kind, a, b, c });
        }
    }

    fn push(&self, rec: EventRecord) {
        let mut ring = self.shared.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() >= self.shared.capacity {
            // Drop oldest-first so the tail of a run — usually the part
            // being debugged — survives, and account for the loss.
            ring.pop_front();
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(rec);
    }

    /// Events recorded per kind (live in all modes but `Off`).
    pub fn counts(&self) -> [u64; KIND_COUNT] {
        let mut out = [0u64; KIND_COUNT];
        for (slot, counter) in out.iter_mut().zip(&self.shared.counts) {
            *slot = counter.load(Ordering::Relaxed);
        }
        out
    }

    /// Total events recorded across all kinds.
    pub fn total_events(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the ring's current contents, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        let ring = self.shared.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_records_nothing() {
        let r = Recorder::new(3, TraceConfig::off());
        r.record(10, EventKind::Send, 1, 1, 64);
        assert_eq!(r.total_events(), 0);
        assert!(r.events().is_empty());
        assert!(!r.enabled());
    }

    #[test]
    fn counters_mode_counts_without_storing() {
        let r = Recorder::new(3, TraceConfig::counters());
        r.record(10, EventKind::Send, 1, 1, 64);
        r.record(11, EventKind::Send, 1, 0, 32);
        r.record(12, EventKind::Recv, 0, 1, 64);
        assert_eq!(r.counts()[EventKind::Send as usize], 2);
        assert_eq!(r.counts()[EventKind::Recv as usize], 1);
        assert!(r.events().is_empty(), "counters mode keeps no event bodies");
    }

    #[test]
    fn full_mode_drops_oldest_first_at_capacity_and_counts_drops() {
        let r = Recorder::new(0, TraceConfig::full_with_capacity(4));
        for i in 0..10u32 {
            r.record(u64::from(i), EventKind::DiffMerge, i, 0, 0);
        }
        let events = r.events();
        assert_eq!(events.len(), 4, "ring capped at capacity");
        // The survivors are the *newest* four, in order: 6, 7, 8, 9.
        assert_eq!(events.iter().map(|e| e.a).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(r.dropped(), 6, "evictions are accounted");
        assert_eq!(r.counts()[EventKind::DiffMerge as usize], 10, "counters see every event");
    }

    #[test]
    fn mode_can_change_at_runtime() {
        let r = Recorder::new(0, TraceConfig::off());
        r.record(1, EventKind::Resync, 0, 0, 0);
        r.set_mode(TraceMode::Full);
        r.record(2, EventKind::Resync, 1, 0, 0);
        assert_eq!(r.total_events(), 1);
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::new(7, TraceConfig::full());
        let r2 = r.clone();
        r2.record(5, EventKind::LockGrant, 42, 1, 0);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.node(), r2.node());
    }
}
