//! `sdso-obs` — the observability substrate for the S-DSO reproduction.
//!
//! Four parts, matching the evaluation needs of the paper's §4.1:
//!
//! 1. **Flight recorder** ([`Recorder`]): per-node fixed-capacity rings of
//!    compact binary [`EventRecord`]s, gated by an atomic [`TraceMode`] so
//!    the disabled path costs one relaxed load.
//! 2. **Metrics registry** ([`MetricsRegistry`]): labeled [`Counter`]s and
//!    log₂-bucket [`Histogram`]s with mergeable snapshots; `DsoMetrics`
//!    and `NetMetrics` in the upper crates are thin views over it.
//! 3. **Exporters** ([`chrome_trace`], [`text_histogram_dump`]): a
//!    Perfetto-loadable Chrome trace of a cluster run and a plain-text
//!    histogram dump.
//! 4. The benchmark (`benchmark/`, `BENCHMARK.json`) reads the same
//!    registry and recorder to split a tick's time by layer.
//!
//! The crate is dependency-free and sits below `sdso-net` in the crate
//! graph so every layer can record into it.

#![warn(missing_docs)]
// Replay-critical: no host time outside tests. The banned calls and types
// are listed in the workspace's clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
// A replica that panics stops serving its peers: no panic outside tests.
// An exception is an `#[expect(…, reason = "…")]` naming the invariant
// that keeps it from firing.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod clock;
mod event;
mod export;
mod recorder;
mod registry;

pub use clock::MonoClock;
pub use event::{
    EventKind, EventRecord, FAULT_DELAY, FAULT_DROP, FAULT_DUP, KIND_COUNT, THREAD_ROLE_WORKER,
};
pub use export::{chrome_trace, event_log, text_histogram_dump};
pub use recorder::{Recorder, TraceConfig, TraceMode};
pub use registry::{
    bucket_upper_bound, Counter, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
    BUCKETS,
};

use std::sync::Arc;

/// One node's observability bundle: its flight recorder plus the metrics
/// registry it records into. Cheap to clone; clones share state.
#[derive(Debug, Clone)]
pub struct Obs {
    recorder: Recorder,
    registry: MetricsRegistry,
}

impl Obs {
    /// Observability for `node` with the given trace configuration and a
    /// fresh private registry.
    pub fn new(node: u16, config: TraceConfig) -> Self {
        Obs { recorder: Recorder::new(node, config), registry: MetricsRegistry::new() }
    }

    /// Observability that records nothing (the default for library users
    /// who never opt in). Counters still work — they are how the thin
    /// `DsoMetrics`/`NetMetrics` views are backed — but no events are
    /// traced.
    pub fn disabled() -> Self {
        Obs { recorder: Recorder::disabled(), registry: MetricsRegistry::new() }
    }

    /// The node's flight recorder.
    #[inline]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The node's metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Shorthand for recording into the flight recorder.
    #[inline]
    pub fn record(&self, at: u64, kind: EventKind, a: u32, b: u32, c: u32) {
        self.recorder.record(at, kind, a, b, c);
    }
}

/// Observability for a whole cluster: one [`Obs`] per node, constructed
/// up front so a harness can hand node `i` its bundle inside the spawned
/// closure and still hold the full set for export afterwards.
#[derive(Debug, Clone)]
pub struct ObsSet {
    nodes: Arc<Vec<Obs>>,
}

impl ObsSet {
    /// A set of `n` per-node bundles sharing one trace configuration.
    pub fn new(n: u16, config: TraceConfig) -> Self {
        ObsSet { nodes: Arc::new((0..n).map(|i| Obs::new(i, config)).collect()) }
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the set holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The bundle for `node`. Panics if out of range.
    pub fn node(&self, node: u16) -> Obs {
        self.nodes[node as usize].clone()
    }

    /// Per-node event rings, oldest-first, ready for [`chrome_trace`].
    pub fn events(&self) -> Vec<(u16, Vec<EventRecord>)> {
        self.nodes.iter().map(|obs| (obs.recorder().node(), obs.recorder().events())).collect()
    }

    /// A Chrome-trace JSON document covering every node in the set.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events())
    }

    /// The raw event-log JSON for `sdso-check race`: every node's ring
    /// verbatim plus its drop count.
    pub fn event_log(&self) -> String {
        let nodes: Vec<(u16, u64, Vec<EventRecord>)> = self
            .nodes
            .iter()
            .map(|obs| (obs.recorder().node(), obs.recorder().dropped(), obs.recorder().events()))
            .collect();
        event_log(&nodes)
    }

    /// The union of every node's registry snapshot.
    pub fn merged_snapshot(&self) -> RegistrySnapshot {
        self.nodes
            .iter()
            .map(|obs| obs.registry().snapshot())
            .fold(RegistrySnapshot::default(), |acc, s| acc.merged(&s))
    }

    /// Total events recorded across all nodes' recorders.
    pub fn total_events(&self) -> u64 {
        self.nodes.iter().map(|obs| obs.recorder().total_events()).sum()
    }

    /// Total events evicted across all nodes' rings.
    pub fn total_dropped(&self) -> u64 {
        self.nodes.iter().map(|obs| obs.recorder().dropped()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_set_hands_out_per_node_bundles() {
        let set = ObsSet::new(3, TraceConfig::full());
        set.node(1).record(5, EventKind::Resync, 0, 0, 0);
        assert_eq!(set.node(1).recorder().total_events(), 1);
        assert_eq!(set.node(0).recorder().total_events(), 0);
        assert_eq!(set.total_events(), 1);
        let events = set.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].0, 1);
        assert_eq!(events[1].1.len(), 1);
    }

    #[test]
    fn merged_snapshot_sums_across_nodes() {
        let set = ObsSet::new(2, TraceConfig::off());
        set.node(0).registry().counter("dso.exchanges").add(3);
        set.node(1).registry().counter("dso.exchanges").add(4);
        assert_eq!(set.merged_snapshot().counter("dso.exchanges"), 7);
    }
}
