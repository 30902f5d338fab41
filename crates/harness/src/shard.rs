//! Scale experiments: sharded vs. full-mesh traffic at 64 and 256 nodes.
//!
//! The paper's evaluation stops at 16 processes on a full mesh. This
//! module drives the region-sharded MSYNC2-SHARD protocol (see
//! `sdso_game::shard` and the `sdso-shard` crate) against plain MSYNC2
//! on [`Scenario::scaled`] grids, and reports the first-class scaling
//! metric: per-node live bytes per tick in a steady-state window, sharded
//! as a fraction of full-mesh. The tests below hold its contract;
//! `experiments shard` prints its numbers ([`shard_table`]).

use sdso_game::{Protocol, Scenario};
use sdso_sim::{NetworkModel, SimError};

use crate::experiment::{converged, run_experiment, RunSummary};
use crate::table::Table;

/// Result of one sharded-vs-mesh pairing at a given cluster size.
#[derive(Debug, Clone)]
pub struct ShardComparison {
    /// Cluster size (one team per node).
    pub nodes: usize,
    /// The full-mesh MSYNC2 run.
    pub mesh: RunSummary,
    /// The region-sharded MSYNC2-SHARD run.
    pub sharded: RunSummary,
}

/// Mean live exchanges each node performs per game tick.
fn exchanges_per_node_tick(summary: &RunSummary) -> f64 {
    let ticks: u64 = summary.per_node.iter().map(|s| s.ticks).sum();
    if ticks == 0 {
        return 0.0;
    }
    summary.per_node.iter().map(|s| s.dso.exchanges).sum::<u64>() as f64 / ticks as f64
}

impl ShardComparison {
    /// Sharded exchanges/tick over mesh exchanges/tick.
    pub fn exchange_ratio(&self) -> f64 {
        let mesh = exchanges_per_node_tick(&self.mesh);
        if mesh == 0.0 {
            return f64::INFINITY;
        }
        exchanges_per_node_tick(&self.sharded) / mesh
    }

    /// Total diffs the interest router held back from live exchanges.
    pub fn suppressed(&self) -> u64 {
        self.sharded.per_node.iter().map(|s| s.dso.shard_suppressed).sum()
    }

    /// Whether both runs' replicas each converged to one world.
    pub fn both_converged(&self) -> bool {
        converged(&self.mesh) && converged(&self.sharded)
    }
}

/// Runs MSYNC2 (full mesh) and MSYNC2-SHARD on the same
/// [`Scenario::scaled`] configuration and pairs the results.
///
/// # Errors
///
/// Fails if either cluster run fails.
pub fn run_shard_comparison(
    teams: u16,
    range: u16,
    ticks: u64,
    model: NetworkModel,
) -> Result<ShardComparison, SimError> {
    let scenario = Scenario::scaled(teams, range).with_ticks(ticks);
    let mesh = run_experiment(&scenario, Protocol::Msync2, model)?;
    let sharded = run_experiment(&scenario, Protocol::Msync2Shard, model)?;
    Ok(ShardComparison { nodes: usize::from(teams), mesh, sharded })
}

/// A steady-state windowed pairing: the same comparison at two run
/// lengths, so per-tick rates can be measured over the late window
/// `warmup..ticks` alone.
///
/// Cumulative short-run ratios systematically flatter the full mesh:
/// MSYNC2's far pairs exchange rarely at scale, so early in a run the
/// mesh has not yet shipped the dirty trails those pairs accumulate —
/// traffic it *always* pays eventually. Subtracting a warmup-length run
/// from a full-length run (the simulator is deterministic, so the first
/// `warmup` ticks of both are identical) isolates the steady-state
/// marginal rate, the honest estimator of the infinite-horizon ratio.
#[derive(Debug, Clone)]
pub struct ShardWindow {
    /// The `warmup`-tick cumulative pairing.
    pub warmup: ShardComparison,
    /// The `ticks`-tick cumulative pairing.
    pub full: ShardComparison,
}

/// Live bytes per node-tick accrued strictly inside the late window.
fn marginal_rate(full: &RunSummary, warmup: &RunSummary) -> f64 {
    let ticks: u64 = full.per_node.iter().map(|s| s.ticks).sum::<u64>()
        - warmup.per_node.iter().map(|s| s.ticks).sum::<u64>();
    if ticks == 0 {
        return 0.0;
    }
    full.live_bytes().saturating_sub(warmup.live_bytes()) as f64 / ticks as f64
}

impl ShardWindow {
    /// Sharded over mesh live bytes/node-tick, measured in the
    /// steady-state window only — the gated scale metric.
    pub fn steady_traffic_ratio(&self) -> f64 {
        let mesh = marginal_rate(&self.full.mesh, &self.warmup.mesh);
        if mesh == 0.0 {
            return f64::INFINITY;
        }
        marginal_rate(&self.full.sharded, &self.warmup.sharded) / mesh
    }

    /// Mesh live bytes/node-tick in the steady-state window.
    pub fn mesh_steady_rate(&self) -> f64 {
        marginal_rate(&self.full.mesh, &self.warmup.mesh)
    }

    /// Sharded live bytes/node-tick in the steady-state window.
    pub fn sharded_steady_rate(&self) -> f64 {
        marginal_rate(&self.full.sharded, &self.warmup.sharded)
    }
}

/// Runs the shard comparison at `warmup` and `ticks` and pairs them into
/// a steady-state window.
///
/// # Errors
///
/// Fails if any of the four cluster runs fails.
pub fn run_shard_window(
    teams: u16,
    range: u16,
    warmup: u64,
    ticks: u64,
    model: NetworkModel,
) -> Result<ShardWindow, SimError> {
    let warmup_cmp = run_shard_comparison(teams, range, warmup, model)?;
    let full_cmp = run_shard_comparison(teams, range, ticks, model)?;
    Ok(ShardWindow { warmup: warmup_cmp, full: full_cmp })
}

/// Ext. F's table: the steady-state pairing at 64 nodes (12..60 t) and at
/// 256 (48..96 t — past the transient where the mesh's far pairs have not
/// yet come due; the four 256-process runs take minutes).
///
/// # Errors
///
/// Fails if any cluster run fails.
pub fn shard_table() -> Result<Table, SimError> {
    let mut table = Table::new(
        "Sharded vs full-mesh live bytes per node-tick (steady-state window, range 1)",
        &["nodes", "window", "mesh", "sharded", "ratio", "exchange_ratio", "suppressed"],
    );
    for (nodes, warmup, ticks) in [(64, 12, 60), (256, 48, 96)] {
        let win = run_shard_window(nodes, 1, warmup, ticks, NetworkModel::paper_testbed())?;
        table.push_row(vec![
            nodes.to_string(),
            format!("{warmup}..{ticks} t"),
            format!("{:.0}", win.mesh_steady_rate()),
            format!("{:.0}", win.sharded_steady_rate()),
            format!("{:.3}", win.steady_traffic_ratio()),
            format!("{:.3}", win.full.exchange_ratio()),
            win.full.suppressed().to_string(),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four paper protocols plus the sharded extension converge at 64
    /// nodes (identical final worlds on every replica).
    #[test]
    fn all_protocols_converge_at_64_nodes() {
        let scenario = Scenario::scaled(64, 1).with_ticks(8);
        for protocol in [Protocol::Bsync, Protocol::Msync, Protocol::Msync2, Protocol::Msync2Shard]
        {
            let summary =
                run_experiment(&scenario, protocol, NetworkModel::paper_testbed()).unwrap();
            assert!(converged(&summary), "{protocol} diverged at 64 nodes");
            assert_eq!(summary.per_node.len(), 64);
        }
    }

    /// EC's lock manager reaches convergence at 64 nodes too (slower:
    /// its pulls are pairwise, so keep the run short).
    #[test]
    fn entry_consistency_converges_at_64_nodes() {
        let scenario = Scenario::scaled(64, 1).with_ticks(4);
        let summary =
            run_experiment(&scenario, Protocol::Entry, NetworkModel::paper_testbed()).unwrap();
        assert!(converged(&summary), "EC diverged at 64 nodes");
    }

    /// Interest routing must cut live traffic well below full mesh: at 64
    /// nodes the sharded steady-state rate is at most 0.55 of the mesh's
    /// (measured 0.286; 0.498 on the v1 wire). The window starts late enough for the mesh's far
    /// pairs to have come due — a cumulative short run flatters the mesh.
    #[test]
    fn sharding_cuts_traffic_at_64_nodes() {
        let win = run_shard_window(64, 1, 12, 60, NetworkModel::paper_testbed()).unwrap();
        assert!(win.full.both_converged(), "mesh and sharded runs must both converge");
        assert!(win.full.suppressed() > 0, "the router must actually suppress something");
        let ratio = win.steady_traffic_ratio();
        assert!(ratio <= 0.55, "steady sharded/mesh bytes per node-tick at 64 nodes: {ratio}");
    }

    /// The flagship scale claim: at 256 nodes, sharded steady-state
    /// bytes/node-tick at most a quarter of full-mesh (measured 0.119; 0.223
    /// on the v1 wire), and per-node load follows the interest set, not the
    /// cluster — four times the nodes, at most 2.5 times the sharded rate
    /// (measured 1.86; 1.57 on v1).
    /// Eight cluster runs, four of them 256 processes wide: seven minutes.
    #[test]
    #[ignore = "256-node pairing, minutes long: run by the CI contracts job"]
    fn contract_sharding_cuts_traffic_to_a_quarter_at_256_nodes() {
        let small = run_shard_window(64, 1, 12, 60, NetworkModel::paper_testbed()).unwrap();
        let win = run_shard_window(256, 1, 48, 96, NetworkModel::paper_testbed()).unwrap();
        assert!(win.full.both_converged());
        assert!(win.full.suppressed() > 0, "the router must actually suppress something");
        let ratio = win.steady_traffic_ratio();
        assert!(ratio <= 0.25, "steady sharded/mesh bytes per node-tick at 256 nodes: {ratio}");
        let growth = win.sharded_steady_rate() / small.sharded_steady_rate();
        assert!(growth <= 2.5, "sharded per-node traffic grew {growth:.2}x from 64 to 256 nodes");
        println!("256 nodes: ratio {ratio:.3}, 64 -> 256 sharded growth {growth:.2}x");
    }
}
