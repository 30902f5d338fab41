use sdso_net::SimSpan;
use sdso_obs::{Counter, Histogram, MetricsRegistry};

/// Counters the S-DSO runtime maintains about its own behaviour.
///
/// These complement the transport-level counters in
/// [`sdso_net::NetMetrics`]: together they feed the paper's Figure 8
/// (protocol overhead as a fraction of execution time).
///
/// Since the `sdso-obs` migration this is a *view*: the live counters are
/// registered under `dso.*` in the node's unified
/// [`MetricsRegistry`], and the runtime materializes this struct from them
/// on demand so Figure 5–8 harness code keeps compiling unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DsoMetrics {
    /// `exchange` calls performed.
    pub exchanges: u64,
    /// Rendezvous partners summed over all exchanges.
    pub rendezvous_peers: u64,
    /// Object updates shipped (after merging).
    pub updates_sent: u64,
    /// Remote updates applied to local replicas.
    pub updates_applied: u64,
    /// Remote updates dropped because a newer version was already applied
    /// (the last-writer-wins convergence rule).
    pub updates_stale: u64,
    /// Messages that arrived stamped in the logical future and were
    /// buffered until their tick.
    pub early_buffered: u64,
    /// Link retransmission deadlines that expired and triggered the resync
    /// path (retransmission of that link's unacknowledged traffic).
    pub resyncs: u64,
    /// Individual messages retransmitted by the reliability layer.
    pub retransmits: u64,
    /// Received messages discarded as duplicates by the reliability
    /// layer's per-link sequencing.
    pub duplicates_dropped: u64,
    /// Reliability links written off because the transport reported the
    /// peer permanently disconnected mid-retransmit: the peer finished
    /// and tore its endpoint down, so its unacked queue is undeliverable.
    pub links_abandoned: u64,
    /// Owed acknowledgements that rode a sequenced frame already going the
    /// peer's way — the free ones.
    pub acks_piggybacked: u64,
    /// Acknowledgements sent as frames of their own (nothing went the
    /// peer's way within the ack delay, a duplicate or gap, a settle).
    pub acks_standalone: u64,
    /// View changes applied (join/leave barriers crossed).
    pub view_changes: u64,
    /// Rendezvous messages dropped because they were stamped with a stale
    /// membership epoch (residue from a departed peer).
    pub cross_epoch_dropped: u64,
    /// Pending slot updates compacted away when their peer left the group
    /// (the would-be leak, made visible).
    pub slots_compacted: u64,
    /// Sends suppressed because the destination is not a member of the
    /// current view.
    pub non_member_dropped: u64,
    /// Pending updates withheld from a live multicast exchange because the
    /// destination's interest set does not cover the object's region (they
    /// stay buffered and flush at the next broadcast exchange).
    pub shard_suppressed: u64,
    /// Update batches shipped in the compressed v2 wire encoding
    /// (varint/run-length, optionally XOR-delta'd against the link shadow).
    pub codec_v2_sent: u64,
    /// Rendezvous sent as one frame: a v2 data frame that is also the SYNC,
    /// so no `Sync` message followed it.
    pub rendezvous_fused: u64,
    /// Update batches that fell back to the absolute v1 encoding after v2
    /// was negotiated (oversized run, or no seedable XOR shadow).
    pub codec_v2_fallbacks: u64,
    /// Updates coalesced away by batch-level dedup before framing
    /// (overlapping same-object diffs merged into one update).
    pub batch_deduped: u64,
    /// State snapshots pushed to late joiners.
    pub snapshots_sent: u64,
    /// Encoded bytes of snapshot payloads pushed (O(objects), never
    /// O(history) — asserted by the churn integration tests).
    pub snapshot_bytes: u64,
    /// Snapshots installed by this process as a late joiner.
    pub snapshots_installed: u64,
    /// Virtual/wall time spent inside `exchange` (sending, waiting and
    /// applying) — the lookahead protocols' entire overhead.
    pub exchange_time: SimSpan,
    /// The portion of [`DsoMetrics::exchange_time`] spent blocked waiting
    /// for rendezvous partners.
    pub exchange_wait: SimSpan,
}

impl DsoMetrics {
    /// Element-wise sum (for aggregating across processes).
    pub fn merged(&self, other: &DsoMetrics) -> DsoMetrics {
        DsoMetrics {
            exchanges: self.exchanges + other.exchanges,
            rendezvous_peers: self.rendezvous_peers + other.rendezvous_peers,
            updates_sent: self.updates_sent + other.updates_sent,
            updates_applied: self.updates_applied + other.updates_applied,
            updates_stale: self.updates_stale + other.updates_stale,
            early_buffered: self.early_buffered + other.early_buffered,
            resyncs: self.resyncs + other.resyncs,
            retransmits: self.retransmits + other.retransmits,
            duplicates_dropped: self.duplicates_dropped + other.duplicates_dropped,
            links_abandoned: self.links_abandoned + other.links_abandoned,
            acks_piggybacked: self.acks_piggybacked + other.acks_piggybacked,
            acks_standalone: self.acks_standalone + other.acks_standalone,
            view_changes: self.view_changes + other.view_changes,
            cross_epoch_dropped: self.cross_epoch_dropped + other.cross_epoch_dropped,
            slots_compacted: self.slots_compacted + other.slots_compacted,
            non_member_dropped: self.non_member_dropped + other.non_member_dropped,
            shard_suppressed: self.shard_suppressed + other.shard_suppressed,
            codec_v2_sent: self.codec_v2_sent + other.codec_v2_sent,
            rendezvous_fused: self.rendezvous_fused + other.rendezvous_fused,
            codec_v2_fallbacks: self.codec_v2_fallbacks + other.codec_v2_fallbacks,
            batch_deduped: self.batch_deduped + other.batch_deduped,
            snapshots_sent: self.snapshots_sent + other.snapshots_sent,
            snapshot_bytes: self.snapshot_bytes + other.snapshot_bytes,
            snapshots_installed: self.snapshots_installed + other.snapshots_installed,
            exchange_time: self.exchange_time + other.exchange_time,
            exchange_wait: self.exchange_wait + other.exchange_wait,
        }
    }

    /// Average rendezvous group size per exchange.
    pub fn avg_rendezvous_size(&self) -> f64 {
        if self.exchanges == 0 {
            0.0
        } else {
            self.rendezvous_peers as f64 / self.exchanges as f64
        }
    }
}

/// The runtime's live counters, registered under `dso.*` in the node's
/// unified metrics registry. [`DsoCounters::view`] materializes the
/// classic [`DsoMetrics`] struct from them.
#[derive(Debug, Clone)]
pub(crate) struct DsoCounters {
    pub(crate) exchanges: Counter,
    pub(crate) rendezvous_peers: Counter,
    pub(crate) updates_sent: Counter,
    pub(crate) updates_applied: Counter,
    pub(crate) updates_stale: Counter,
    pub(crate) early_buffered: Counter,
    pub(crate) resyncs: Counter,
    pub(crate) retransmits: Counter,
    pub(crate) duplicates_dropped: Counter,
    pub(crate) links_abandoned: Counter,
    pub(crate) acks_piggybacked: Counter,
    pub(crate) acks_standalone: Counter,
    pub(crate) view_changes: Counter,
    pub(crate) cross_epoch_dropped: Counter,
    pub(crate) slots_compacted: Counter,
    pub(crate) non_member_dropped: Counter,
    pub(crate) shard_suppressed: Counter,
    pub(crate) codec_v2_sent: Counter,
    pub(crate) rendezvous_fused: Counter,
    pub(crate) codec_v2_fallbacks: Counter,
    pub(crate) batch_deduped: Counter,
    pub(crate) snapshots_sent: Counter,
    pub(crate) snapshot_bytes: Counter,
    pub(crate) snapshots_installed: Counter,
    pub(crate) exchange_time_micros: Counter,
    pub(crate) exchange_wait_micros: Counter,
    /// Per-exchange latency distribution (microseconds).
    pub(crate) exchange_latency: Histogram,
    /// Per-exchange rendezvous wait distribution (microseconds).
    pub(crate) wait_latency: Histogram,
}

impl DsoCounters {
    pub(crate) fn in_registry(registry: &MetricsRegistry) -> Self {
        DsoCounters {
            exchanges: registry.counter("dso.exchanges"),
            rendezvous_peers: registry.counter("dso.rendezvous_peers"),
            updates_sent: registry.counter("dso.updates.sent"),
            updates_applied: registry.counter("dso.updates.applied"),
            updates_stale: registry.counter("dso.updates.stale"),
            early_buffered: registry.counter("dso.early_buffered"),
            resyncs: registry.counter("dso.resyncs"),
            retransmits: registry.counter("dso.retransmits"),
            duplicates_dropped: registry.counter("dso.duplicates_dropped"),
            links_abandoned: registry.counter("dso.links_abandoned"),
            acks_piggybacked: registry.counter("dso.acks_piggybacked"),
            acks_standalone: registry.counter("dso.acks_standalone"),
            view_changes: registry.counter("dso.member.view_changes"),
            cross_epoch_dropped: registry.counter("dso.member.cross_epoch_dropped"),
            slots_compacted: registry.counter("dso.member.slots_compacted"),
            non_member_dropped: registry.counter("dso.member.non_member_dropped"),
            shard_suppressed: registry.counter("dso.shard.suppressed"),
            codec_v2_sent: registry.counter("dso.codec.v2_sent"),
            rendezvous_fused: registry.counter("dso.rendezvous_fused"),
            codec_v2_fallbacks: registry.counter("dso.codec.v2_fallbacks"),
            batch_deduped: registry.counter("dso.codec.batch_deduped"),
            snapshots_sent: registry.counter("dso.member.snapshots_sent"),
            snapshot_bytes: registry.counter("dso.member.snapshot_bytes"),
            snapshots_installed: registry.counter("dso.member.snapshots_installed"),
            exchange_time_micros: registry.counter("dso.exchange_time_micros"),
            exchange_wait_micros: registry.counter("dso.exchange_wait_micros"),
            exchange_latency: registry.histogram("dso.exchange_micros"),
            wait_latency: registry.histogram("dso.wait_micros"),
        }
    }

    /// The classic by-value metrics struct, read from the live counters.
    pub(crate) fn view(&self) -> DsoMetrics {
        DsoMetrics {
            exchanges: self.exchanges.get(),
            rendezvous_peers: self.rendezvous_peers.get(),
            updates_sent: self.updates_sent.get(),
            updates_applied: self.updates_applied.get(),
            updates_stale: self.updates_stale.get(),
            early_buffered: self.early_buffered.get(),
            resyncs: self.resyncs.get(),
            retransmits: self.retransmits.get(),
            duplicates_dropped: self.duplicates_dropped.get(),
            links_abandoned: self.links_abandoned.get(),
            acks_piggybacked: self.acks_piggybacked.get(),
            acks_standalone: self.acks_standalone.get(),
            view_changes: self.view_changes.get(),
            cross_epoch_dropped: self.cross_epoch_dropped.get(),
            slots_compacted: self.slots_compacted.get(),
            non_member_dropped: self.non_member_dropped.get(),
            shard_suppressed: self.shard_suppressed.get(),
            codec_v2_sent: self.codec_v2_sent.get(),
            rendezvous_fused: self.rendezvous_fused.get(),
            codec_v2_fallbacks: self.codec_v2_fallbacks.get(),
            batch_deduped: self.batch_deduped.get(),
            snapshots_sent: self.snapshots_sent.get(),
            snapshot_bytes: self.snapshot_bytes.get(),
            snapshots_installed: self.snapshots_installed.get(),
            exchange_time: SimSpan::from_micros(self.exchange_time_micros.get()),
            exchange_wait: SimSpan::from_micros(self.exchange_wait_micros.get()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_view_round_trips_through_the_registry() {
        let registry = MetricsRegistry::new();
        let c = DsoCounters::in_registry(&registry);
        c.exchanges.inc();
        c.rendezvous_peers.add(3);
        c.exchange_time_micros.add(250);
        let view = c.view();
        assert_eq!(view.exchanges, 1);
        assert_eq!(view.rendezvous_peers, 3);
        assert_eq!(view.exchange_time.as_micros(), 250);
        assert_eq!(registry.snapshot().counter("dso.exchanges"), 1);
    }

    #[test]
    fn merged_sums_everything() {
        let a = DsoMetrics { exchanges: 2, updates_sent: 3, ..DsoMetrics::default() };
        let b = DsoMetrics {
            exchanges: 1,
            exchange_wait: SimSpan::from_micros(5),
            ..DsoMetrics::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.exchanges, 3);
        assert_eq!(m.updates_sent, 3);
        assert_eq!(m.exchange_wait.as_micros(), 5);
    }

    #[test]
    fn avg_rendezvous_size_handles_zero() {
        assert_eq!(DsoMetrics::default().avg_rendezvous_size(), 0.0);
        let m = DsoMetrics { exchanges: 4, rendezvous_peers: 6, ..DsoMetrics::default() };
        assert!((m.avg_rendezvous_size() - 1.5).abs() < 1e-9);
    }
}
