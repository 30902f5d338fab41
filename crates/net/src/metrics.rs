use std::sync::{Arc, Mutex};

use sdso_obs::{Counter, Histogram, MetricsRegistry};

use crate::message::MsgClass;
use crate::time::SimSpan;

/// The `class` operand flight-recorder Send/Recv events carry.
pub(crate) fn obs_class(class: MsgClass) -> u32 {
    match class {
        MsgClass::Control => 0,
        MsgClass::Data => 1,
    }
}

/// Message/byte counters for one [`MsgClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounters {
    /// Messages counted.
    pub msgs: u64,
    /// Modelled wire bytes counted.
    pub bytes: u64,
}

/// A point-in-time snapshot of one endpoint's traffic counters.
///
/// The evaluation harness aggregates these across nodes to regenerate the
/// paper's Figure 6 (total messages) and Figure 7 (data messages only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetMetricsSnapshot {
    /// Control messages sent.
    pub control_sent: ClassCounters,
    /// Data messages sent.
    pub data_sent: ClassCounters,
    /// Control messages received.
    pub control_recv: ClassCounters,
    /// Data messages received.
    pub data_recv: ClassCounters,
    /// Time this endpoint spent blocked inside `recv`, in microseconds.
    pub blocked_micros: u64,
    /// Messages the fault layer silently dropped (chaos testing).
    pub drops_injected: u64,
    /// Extra copies the fault layer delivered.
    pub dups_injected: u64,
    /// Messages the fault layer delayed (reorder hold-back or jitter).
    pub delays_injected: u64,
    /// Send attempts that were retried after a transport error.
    pub retries: u64,
    /// Connections re-established after a peer drop.
    pub reconnects: u64,
}

impl NetMetricsSnapshot {
    /// All messages sent, regardless of class.
    pub fn total_sent(&self) -> u64 {
        self.control_sent.msgs + self.data_sent.msgs
    }

    /// All messages received, regardless of class.
    pub fn total_recv(&self) -> u64 {
        self.control_recv.msgs + self.data_recv.msgs
    }

    /// Total modelled bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.control_sent.bytes + self.data_sent.bytes
    }

    /// Time blocked in `recv` as a [`SimSpan`].
    pub fn blocked(&self) -> SimSpan {
        SimSpan::from_micros(self.blocked_micros)
    }

    /// Element-wise sum of two snapshots (for cluster-wide aggregation).
    pub fn merged(&self, other: &NetMetricsSnapshot) -> NetMetricsSnapshot {
        fn add(a: ClassCounters, b: ClassCounters) -> ClassCounters {
            ClassCounters { msgs: a.msgs + b.msgs, bytes: a.bytes + b.bytes }
        }
        NetMetricsSnapshot {
            control_sent: add(self.control_sent, other.control_sent),
            data_sent: add(self.data_sent, other.data_sent),
            control_recv: add(self.control_recv, other.control_recv),
            data_recv: add(self.data_recv, other.data_recv),
            blocked_micros: self.blocked_micros + other.blocked_micros,
            drops_injected: self.drops_injected + other.drops_injected,
            dups_injected: self.dups_injected + other.dups_injected,
            delays_injected: self.delays_injected + other.delays_injected,
            retries: self.retries + other.retries,
            reconnects: self.reconnects + other.reconnects,
        }
    }

    /// Element-wise `self - earlier`, saturating at zero so a snapshot
    /// delta can never underflow even if the inputs are swapped.
    pub fn saturating_delta(&self, earlier: &NetMetricsSnapshot) -> NetMetricsSnapshot {
        fn sub(a: ClassCounters, b: ClassCounters) -> ClassCounters {
            ClassCounters {
                msgs: a.msgs.saturating_sub(b.msgs),
                bytes: a.bytes.saturating_sub(b.bytes),
            }
        }
        NetMetricsSnapshot {
            control_sent: sub(self.control_sent, earlier.control_sent),
            data_sent: sub(self.data_sent, earlier.data_sent),
            control_recv: sub(self.control_recv, earlier.control_recv),
            data_recv: sub(self.data_recv, earlier.data_recv),
            blocked_micros: self.blocked_micros.saturating_sub(earlier.blocked_micros),
            drops_injected: self.drops_injected.saturating_sub(earlier.drops_injected),
            dups_injected: self.dups_injected.saturating_sub(earlier.dups_injected),
            delays_injected: self.delays_injected.saturating_sub(earlier.delays_injected),
            retries: self.retries.saturating_sub(earlier.retries),
            reconnects: self.reconnects.saturating_sub(earlier.reconnects),
        }
    }
}

/// Thread-safe live traffic counters attached to an endpoint, backed by
/// the unified `sdso-obs` [`MetricsRegistry`].
///
/// Cloning shares the underlying counters; use [`NetMetrics::snapshot`]
/// (cumulative) or [`NetMetrics::snapshot_delta`] (since the previous
/// delta call) to read them. The snapshot types are thin views kept for
/// the Figure 5–8 harness; new consumers can read the registry directly.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    registry: MetricsRegistry,
    control_sent_msgs: Counter,
    control_sent_bytes: Counter,
    data_sent_msgs: Counter,
    data_sent_bytes: Counter,
    control_recv_msgs: Counter,
    control_recv_bytes: Counter,
    data_recv_msgs: Counter,
    data_recv_bytes: Counter,
    blocked_micros: Counter,
    drops_injected: Counter,
    dups_injected: Counter,
    delays_injected: Counter,
    retries: Counter,
    reconnects: Counter,
    batch_count: Counter,
    batch_msgs: Counter,
    batch_bytes: Counter,
    wire_bytes: Histogram,
    blocked_waits: Histogram,
    batch_occupancy: Histogram,
    last: Arc<Mutex<NetMetricsSnapshot>>,
}

impl Default for NetMetrics {
    fn default() -> Self {
        NetMetrics::new()
    }
}

impl NetMetrics {
    /// Creates zeroed counters backed by a fresh private registry.
    pub fn new() -> Self {
        NetMetrics::in_registry(&MetricsRegistry::new())
    }

    /// Creates counters registered under `net.*` in a shared registry, so
    /// an endpoint's traffic shows up in its node's unified snapshot.
    pub fn in_registry(registry: &MetricsRegistry) -> Self {
        NetMetrics {
            registry: registry.clone(),
            control_sent_msgs: registry.counter("net.control.sent.msgs"),
            control_sent_bytes: registry.counter("net.control.sent.bytes"),
            data_sent_msgs: registry.counter("net.data.sent.msgs"),
            data_sent_bytes: registry.counter("net.data.sent.bytes"),
            control_recv_msgs: registry.counter("net.control.recv.msgs"),
            control_recv_bytes: registry.counter("net.control.recv.bytes"),
            data_recv_msgs: registry.counter("net.data.recv.msgs"),
            data_recv_bytes: registry.counter("net.data.recv.bytes"),
            blocked_micros: registry.counter("net.blocked_micros"),
            drops_injected: registry.counter("net.faults.drops"),
            dups_injected: registry.counter("net.faults.dups"),
            delays_injected: registry.counter("net.faults.delays"),
            retries: registry.counter("net.retries"),
            reconnects: registry.counter("net.reconnects"),
            batch_count: registry.counter("net.batch.count"),
            batch_msgs: registry.counter("net.batch.msgs"),
            batch_bytes: registry.counter("net.batch.bytes"),
            wire_bytes: registry.histogram("net.wire_bytes"),
            blocked_waits: registry.histogram("net.blocked_wait_micros"),
            batch_occupancy: registry.histogram("net.batch.occupancy"),
            last: Arc::new(Mutex::new(NetMetricsSnapshot::default())),
        }
    }

    /// The registry these counters live in.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Records one sent message of `class` occupying `wire_len` bytes.
    pub fn record_send(&self, class: MsgClass, wire_len: u32) {
        let (msgs, bytes) = match class {
            MsgClass::Control => (&self.control_sent_msgs, &self.control_sent_bytes),
            MsgClass::Data => (&self.data_sent_msgs, &self.data_sent_bytes),
        };
        msgs.inc();
        bytes.add(u64::from(wire_len));
        self.wire_bytes.observe(u64::from(wire_len));
    }

    /// Records one received message of `class` occupying `wire_len` bytes.
    pub fn record_recv(&self, class: MsgClass, wire_len: u32) {
        let (msgs, bytes) = match class {
            MsgClass::Control => (&self.control_recv_msgs, &self.control_recv_bytes),
            MsgClass::Data => (&self.data_recv_msgs, &self.data_recv_bytes),
        };
        msgs.inc();
        bytes.add(u64::from(wire_len));
    }

    /// Adds `span` to the time-blocked-in-`recv` counter.
    pub fn record_blocked(&self, span: SimSpan) {
        self.blocked_micros.add(span.as_micros());
        self.blocked_waits.observe(span.as_micros());
    }

    /// Records the effects of one fault-injection verdict.
    pub fn record_fault(&self, verdict: &crate::fault::Verdict) {
        if verdict.dropped {
            self.drops_injected.inc();
        }
        if verdict.duplicated {
            self.dups_injected.inc();
        }
        if verdict.extra_delay > SimSpan::ZERO {
            self.delays_injected.inc();
        }
    }

    /// Records one batched transport flush carrying `msgs` messages and
    /// `wire_bytes` modelled bytes.
    ///
    /// Per-message send accounting still happens via
    /// [`NetMetrics::record_send`] — batch counters only live in the
    /// registry (`net.batch.*`), never in [`NetMetricsSnapshot`], so they
    /// measure write collapsing without disturbing the Figure 6/7 totals.
    pub fn record_batch(&self, msgs: usize, wire_bytes: u64) {
        self.batch_count.inc();
        self.batch_msgs.add(msgs as u64);
        self.batch_bytes.add(wire_bytes);
        self.batch_occupancy.observe(msgs as u64);
    }

    /// Records one retried send attempt.
    pub fn record_retry(&self) {
        self.retries.inc();
    }

    /// Records one re-established connection.
    pub fn record_reconnect(&self) {
        self.reconnects.inc();
    }

    /// Reads the current cumulative counter values.
    pub fn snapshot(&self) -> NetMetricsSnapshot {
        NetMetricsSnapshot {
            control_sent: ClassCounters {
                msgs: self.control_sent_msgs.get(),
                bytes: self.control_sent_bytes.get(),
            },
            data_sent: ClassCounters {
                msgs: self.data_sent_msgs.get(),
                bytes: self.data_sent_bytes.get(),
            },
            control_recv: ClassCounters {
                msgs: self.control_recv_msgs.get(),
                bytes: self.control_recv_bytes.get(),
            },
            data_recv: ClassCounters {
                msgs: self.data_recv_msgs.get(),
                bytes: self.data_recv_bytes.get(),
            },
            blocked_micros: self.blocked_micros.get(),
            drops_injected: self.drops_injected.get(),
            dups_injected: self.dups_injected.get(),
            delays_injected: self.delays_injected.get(),
            retries: self.retries.get(),
            reconnects: self.reconnects.get(),
        }
    }

    /// Reads the counters accumulated *since the previous `snapshot_delta`
    /// call* (or since creation, for the first call).
    ///
    /// Live counters are cumulative for the endpoint's lifetime, so
    /// back-to-back experiment runs over a reused mesh double-count when
    /// they read [`NetMetrics::snapshot`]; per-run accounting must use
    /// this instead. The delta baseline is shared by clones.
    pub fn snapshot_delta(&self) -> NetMetricsSnapshot {
        let now = self.snapshot();
        let mut last = crate::unpoisoned(self.last.lock());
        let delta = now.saturating_delta(&last);
        *last = now;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn send_recv_counters_split_by_class() {
        let m = NetMetrics::new();
        m.record_send(MsgClass::Control, 100);
        m.record_send(MsgClass::Data, 2048);
        m.record_send(MsgClass::Data, 2048);
        m.record_recv(MsgClass::Control, 64);
        let s = m.snapshot();
        assert_eq!(s.control_sent, ClassCounters { msgs: 1, bytes: 100 });
        assert_eq!(s.data_sent, ClassCounters { msgs: 2, bytes: 4096 });
        assert_eq!(s.control_recv.msgs, 1);
        assert_eq!(s.total_sent(), 3);
        assert_eq!(s.bytes_sent(), 4196);
    }

    #[test]
    fn clone_shares_counters() {
        let m = NetMetrics::new();
        let m2 = m.clone();
        m2.record_send(MsgClass::Data, 10);
        assert_eq!(m.snapshot().data_sent.msgs, 1);
    }

    #[test]
    fn merged_adds_elementwise() {
        let a = NetMetrics::new();
        a.record_send(MsgClass::Data, 5);
        let b = NetMetrics::new();
        b.record_send(MsgClass::Data, 7);
        b.record_blocked(SimSpan::from_micros(11));
        let merged = a.snapshot().merged(&b.snapshot());
        assert_eq!(merged.data_sent, ClassCounters { msgs: 2, bytes: 12 });
        assert_eq!(merged.blocked_micros, 11);
    }

    #[test]
    fn counters_surface_in_the_registry() {
        let registry = MetricsRegistry::new();
        let m = NetMetrics::in_registry(&registry);
        m.record_send(MsgClass::Data, 256);
        m.record_recv(MsgClass::Control, 32);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.data.sent.msgs"), 1);
        assert_eq!(snap.counter("net.data.sent.bytes"), 256);
        assert_eq!(snap.counter("net.control.recv.msgs"), 1);
        assert_eq!(snap.histograms["net.wire_bytes"].count, 1);
    }

    #[test]
    fn batch_counters_surface_in_registry_but_not_snapshot() {
        let registry = MetricsRegistry::new();
        let m = NetMetrics::in_registry(&registry);
        let before = m.snapshot();
        m.record_batch(3, 6144);
        m.record_batch(1, 2048);
        assert_eq!(m.snapshot(), before, "batching must not disturb class counters");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.batch.count"), 2);
        assert_eq!(snap.counter("net.batch.msgs"), 4);
        assert_eq!(snap.counter("net.batch.bytes"), 8192);
        assert_eq!(snap.histograms["net.batch.occupancy"].count, 2);
    }

    #[test]
    fn snapshot_delta_resets_between_reads() {
        let m = NetMetrics::new();
        m.record_send(MsgClass::Data, 10);
        m.record_send(MsgClass::Data, 10);
        let first = m.snapshot_delta();
        assert_eq!(first.data_sent.msgs, 2);
        m.record_send(MsgClass::Data, 10);
        let second = m.snapshot_delta();
        assert_eq!(second.data_sent.msgs, 1, "delta covers only the new run");
        assert_eq!(m.snapshot().data_sent.msgs, 3, "cumulative view unchanged");
        assert_eq!(m.snapshot_delta().data_sent.msgs, 0);
    }

    proptest! {
        #[test]
        fn deltas_never_underflow(
            sends in proptest::collection::vec(1u32..4096, 0..32),
            cut in 0usize..32,
        ) {
            let m = NetMetrics::new();
            for &len in sends.iter().take(cut.min(sends.len())) {
                m.record_send(MsgClass::Data, len);
            }
            let early = m.snapshot();
            for &len in sends.iter().skip(cut.min(sends.len())) {
                m.record_send(MsgClass::Data, len);
            }
            let late = m.snapshot();
            let delta = late.saturating_delta(&early);
            prop_assert_eq!(
                delta.data_sent.msgs,
                sends.len() as u64 - cut.min(sends.len()) as u64
            );
            // Swapped operands saturate to zero instead of wrapping.
            let swapped = early.saturating_delta(&late);
            prop_assert!(swapped.data_sent.msgs == 0);
            prop_assert!(swapped.data_sent.bytes == 0);
        }
    }
}
