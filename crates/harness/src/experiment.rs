//! Running one game configuration across a simulated cluster and
//! aggregating its statistics.

use sdso_core::MembershipView;
use sdso_game::{run_node_with, NodeStats, Protocol, RunPlan, Scenario};
use sdso_net::{NetError, SimSpan};
use sdso_sim::{NetworkModel, SimCluster, SimError};

/// Aggregated result of one cluster run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The protocol measured.
    pub protocol: Protocol,
    /// Number of processes.
    pub nodes: usize,
    /// Sensing range.
    pub range: u16,
    /// Per-process statistics, indexed by node id.
    pub per_node: Vec<NodeStats>,
}

impl RunSummary {
    /// Mean per-process execution time, seconds.
    pub fn avg_exec_secs(&self) -> f64 {
        self.per_node.iter().map(|s| s.exec_time.as_secs_f64()).sum::<f64>()
            / self.per_node.len() as f64
    }

    /// The paper's Figure 5 metric: mean over processes of execution time
    /// divided by that process's object-modification count, in seconds.
    pub fn avg_time_per_modification_secs(&self) -> f64 {
        self.per_node.iter().map(|s| s.time_per_modification().as_secs_f64()).sum::<f64>()
            / self.per_node.len() as f64
    }

    /// Figure 6: total messages (control + data) across the cluster.
    pub fn total_messages(&self) -> u64 {
        self.per_node.iter().map(|s| s.net.total_sent()).sum()
    }

    /// Figure 7: data messages only.
    pub fn data_messages(&self) -> u64 {
        self.per_node.iter().map(|s| s.net.data_sent.msgs).sum()
    }

    /// Control messages only.
    pub fn control_messages(&self) -> u64 {
        self.per_node.iter().map(|s| s.net.control_sent.msgs).sum()
    }

    /// Total modelled bytes on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.per_node.iter().map(|s| s.net.bytes_sent()).sum()
    }

    /// Bytes on the wire before the terminal measurement flush — the
    /// steady-state traffic a long-running deployment sustains (see
    /// [`sdso_game::NodeStats::net_live`]).
    pub fn live_bytes(&self) -> u64 {
        self.per_node.iter().map(|s| s.net_live.bytes_sent()).sum()
    }

    /// Figure 8: the share of execution time that is protocol overhead
    /// (everything that is not modelled application compute), in `[0, 1]`.
    pub fn overhead_fraction(&self) -> f64 {
        let exec: f64 = self.per_node.iter().map(|s| s.exec_time.as_secs_f64()).sum();
        let compute: f64 = self.per_node.iter().map(|s| s.compute_time.as_secs_f64()).sum();
        if exec == 0.0 {
            0.0
        } else {
            (exec - compute) / exec
        }
    }

    /// Mean per-process time blocked inside `recv` (the blocking component
    /// of the overhead; Ext. B).
    pub fn avg_blocked_secs(&self) -> f64 {
        self.per_node.iter().map(|s| s.net.blocked().as_secs_f64()).sum::<f64>()
            / self.per_node.len() as f64
    }

    /// Mean per-process EC lock-wait time, seconds (zero for non-EC runs).
    pub fn avg_lock_wait_secs(&self) -> f64 {
        let lock: SimSpan = self.per_node.iter().map(|s| s.ec.lock_wait + s.lrc.lock_wait).sum();
        lock.as_secs_f64() / self.per_node.len() as f64
    }

    /// Mean per-process EC pull time, seconds (zero for non-EC runs).
    pub fn avg_pull_secs(&self) -> f64 {
        let pull: SimSpan = self.per_node.iter().map(|s| s.ec.pull_time).sum();
        pull.as_secs_f64() / self.per_node.len() as f64
    }

    /// Mean per-process exchange time, seconds (zero for EC runs).
    pub fn avg_exchange_secs(&self) -> f64 {
        let ex: SimSpan = self.per_node.iter().map(|s| s.dso.exchange_time).sum();
        ex.as_secs_f64() / self.per_node.len() as f64
    }
}

/// Runs `scenario` under `protocol` on a simulated cluster with `model`
/// timing in the paper's setting — static group, healthy network, tracing
/// off — returning aggregated statistics.
///
/// # Errors
///
/// Returns the first node's error if any process failed (including
/// simulated distributed deadlocks).
pub fn run_experiment(
    scenario: &Scenario,
    protocol: Protocol,
    model: NetworkModel,
) -> Result<RunSummary, SimError> {
    run_planned(scenario, protocol, model, &RunPlan::default())
}

/// Runs `scenario` under `protocol` and `plan` on a simulated cluster of
/// `scenario.teams` nodes (a membership plan's empty slots block until
/// their join barrier). The plan's link faults — seeded drops,
/// duplicates, reordering, healing partitions — are injected into every
/// link when it has any, in which case the scenario's reliability layer
/// must be on (use [`Scenario::with_reliability`]) or lost rendezvous
/// traffic turns into timeouts; crashes are realised inside the nodes
/// (abrupt death, journal recovery, snapshot rejoin) over a network that
/// stays as healthy as the link faults leave it. With `plan.obs` set,
/// every node records into its bundle of that set — keep a clone to
/// export a cluster-wide Chrome trace ([`sdso_core::ObsSet::chrome_trace`])
/// or a merged metrics snapshot after the run; event timestamps are
/// virtual time, so traces are deterministic for a given scenario.
///
/// # Errors
///
/// Returns the first node's error if any process failed: an unsupported
/// plan (see [`RunPlan::views`]), retry-budget exhaustion (surfaced as a
/// timeout), a stuck view-change barrier (a deadlock or timeout).
pub fn run_planned(
    scenario: &Scenario,
    protocol: Protocol,
    model: NetworkModel,
    plan: &RunPlan,
) -> Result<RunSummary, SimError> {
    let nodes = usize::from(scenario.teams);
    let mut cluster = SimCluster::new(nodes, model);
    if let Some(faults) = plan.faults.as_ref().filter(|f| f.has_link_faults()) {
        cluster = cluster.with_faults(faults.clone());
    }
    let (scenario_for_nodes, plan_for_nodes) = (scenario.clone(), plan.clone());
    let outcome = cluster.run(move |ep| {
        run_node_with(ep, &scenario_for_nodes, protocol, &plan_for_nodes).map_err(NetError::from)
    })?;
    let per_node = outcome.into_results()?;
    Ok(RunSummary { protocol, nodes, range: scenario.range, per_node })
}

/// Whether every member of `view` holds the identical final world.
/// Processes outside it — members that left mid-run, crashers that never
/// restarted — are not expected to.
pub fn converged_in(summary: &RunSummary, view: &MembershipView) -> bool {
    let mut worlds =
        summary.per_node.iter().filter(|s| view.contains(s.node)).map(|s| &s.final_world);
    let Some(reference) = worlds.next() else {
        return true;
    };
    worlds.all(|w| w == reference)
}

/// Whether every process's final replica of the world is identical.
pub fn converged(summary: &RunSummary) -> bool {
    let nodes = summary.per_node.len();
    nodes == 0 || converged_in(summary, &MembershipView::full(nodes))
}

/// Runs the same configuration across several placement seeds and returns
/// each run (callers average the metrics they care about).
///
/// # Errors
///
/// Fails on the first failing run.
pub fn run_seeds(
    scenario: &Scenario,
    protocol: Protocol,
    model: NetworkModel,
    seeds: &[u64],
) -> Result<Vec<RunSummary>, SimError> {
    seeds
        .iter()
        .map(|&seed| run_experiment(&scenario.clone().with_seed(seed), protocol, model))
        .collect()
}

/// Arithmetic mean of `f` over runs.
pub fn mean_of(runs: &[RunSummary], f: impl Fn(&RunSummary) -> f64) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(f).sum::<f64>() / runs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_core::{ObsSet, WireConfig};
    use sdso_net::TraceConfig;

    fn tiny_on(protocol: Protocol, wire: WireConfig) -> RunSummary {
        let scenario = Scenario::paper(2, 1).with_ticks(30).with_wire(wire);
        run_experiment(&scenario, protocol, NetworkModel::paper_testbed()).unwrap()
    }

    fn tiny(protocol: Protocol) -> RunSummary {
        tiny_on(protocol, WireConfig::default())
    }

    #[test]
    fn bsync_summary_has_traffic_and_time() {
        for wire in [WireConfig::v1(), WireConfig::default()] {
            let s = tiny_on(Protocol::Bsync, wire);
            assert!(s.total_messages() > 0);
            assert!(s.avg_exec_secs() > 0.0);
            assert!(s.avg_time_per_modification_secs() > 0.0);
            // BSYNC: one SYNC per peer per tick at minimum — a control message
            // of its own on the paper's frames, on board the data frame of
            // every rendezvous a compressed link fused.
            let fused: u64 = s.per_node.iter().map(|n| n.dso.rendezvous_fused).sum();
            assert_eq!(fused > 0, wire.codec_v2, "{wire:?}");
            assert!(s.control_messages() + fused >= 2 * 30, "{wire:?}");
        }
    }

    #[test]
    fn ec_summary_reports_lock_overheads() {
        let s = tiny(Protocol::Entry);
        assert!(s.avg_lock_wait_secs() > 0.0, "EC must report lock waits");
        assert_eq!(s.avg_exchange_secs(), 0.0, "EC never exchanges");
        assert!(s.overhead_fraction() > 0.0 && s.overhead_fraction() < 1.0);
    }

    #[test]
    fn lookahead_reports_exchange_overheads() {
        let s = tiny(Protocol::Msync2);
        assert!(s.avg_exchange_secs() > 0.0);
        assert_eq!(s.avg_lock_wait_secs(), 0.0);
    }

    #[test]
    fn run_seeds_produces_one_summary_per_seed() {
        let scenario = Scenario::paper(2, 1).with_ticks(10);
        let runs = run_seeds(&scenario, Protocol::Bsync, NetworkModel::paper_testbed(), &[1, 2, 3])
            .unwrap();
        assert_eq!(runs.len(), 3);
        let m = mean_of(&runs, |r| r.total_messages() as f64);
        assert!(m > 0.0);
    }

    #[test]
    fn obs_run_produces_exchange_spans_and_counters() {
        let scenario = Scenario::paper(2, 1).with_ticks(20);
        let obs = ObsSet::new(2, TraceConfig::full());
        let plan = RunPlan::default().with_obs(obs.clone());
        let summary =
            run_planned(&scenario, Protocol::Msync2, NetworkModel::paper_testbed(), &plan).unwrap();
        assert!(summary.total_messages() > 0);
        assert!(obs.total_events() > 0, "full tracing must record events");
        let trace = obs.chrome_trace();
        assert!(trace.contains("\"name\":\"node 0\""));
        assert!(trace.contains("\"name\":\"node 1\""));
        assert!(trace.contains("\"name\":\"exchange\""));
        // The unified registry agrees with the classic counters.
        let merged = obs.merged_snapshot();
        let exchanges: u64 = summary.per_node.iter().map(|s| s.dso.exchanges).sum();
        assert_eq!(merged.counter("dso.exchanges"), exchanges);
    }

    #[test]
    fn obs_off_records_no_events_but_counters_work() {
        let scenario = Scenario::paper(2, 1).with_ticks(10);
        let obs = ObsSet::new(2, TraceConfig::off());
        let plan = RunPlan::default().with_obs(obs.clone());
        let summary =
            run_planned(&scenario, Protocol::Bsync, NetworkModel::paper_testbed(), &plan).unwrap();
        assert_eq!(obs.total_events(), 0, "off mode must not record events");
        assert!(obs.merged_snapshot().counter("dso.exchanges") > 0);
        assert!(summary.total_messages() > 0);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let scenario = Scenario::paper(3, 1).with_ticks(25);
        let a = run_experiment(&scenario, Protocol::Msync, NetworkModel::paper_testbed()).unwrap();
        let b = run_experiment(&scenario, Protocol::Msync, NetworkModel::paper_testbed()).unwrap();
        assert_eq!(a.total_messages(), b.total_messages());
        assert_eq!(a.avg_exec_secs(), b.avg_exec_secs());
        for (x, y) in a.per_node.iter().zip(&b.per_node) {
            assert_eq!(x.modifications, y.modifications);
            assert_eq!(x.score, y.score);
        }
    }
}
