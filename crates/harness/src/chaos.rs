//! Chaos experiments: games on a faulty network.
//!
//! The paper's testbed network never lost messages, so its protocols could
//! block on rendezvous forever. This module runs the same evaluation games
//! under a deterministic [`FaultPlan`] — seeded drops, duplication,
//! reordering and healing partitions — with the runtime's reliability
//! layer switched on, and reports per-protocol recovery statistics: how
//! often the resync path fired, how much was retransmitted, and whether
//! every replica still converged to the identical final world.

use sdso_core::RetryConfig;
use sdso_game::{NodeStats, Protocol, RunPlan, Scenario};
use sdso_net::{FaultPlan, SimSpan};
use sdso_sim::{NetworkModel, SimError};

use crate::experiment::{converged, run_planned};
use crate::table::Table;

/// A retransmission tuning that recovers briskly on the simulated testbed:
/// the timeout is a few node-to-node latencies, and the retry budget rides
/// out a multi-millisecond partition.
pub fn chaos_retry_config() -> RetryConfig {
    RetryConfig { rto: SimSpan::from_millis(5), max_retries: 2_000 }
}

/// The default chaos fault plan for `seed`: 5% drops, 2% duplicates, 25%
/// of messages held back by up to 2 ms (reordering), and one partition
/// that isolates node 0 for `[2 ms, 8 ms)` and then heals.
pub fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drop(0.05)
        .with_dup(0.02)
        .with_reorder(0.25, SimSpan::from_millis(2))
        .with_partition(
            vec![0],
            sdso_net::SimInstant::from_micros(2_000),
            sdso_net::SimInstant::from_micros(8_000),
        )
}

/// Runs the chaos scenario for each protocol in `protocols` and renders
/// the per-protocol recovery statistics as a table: faults injected,
/// resyncs triggered, messages retransmitted, duplicates discarded, acks
/// that rode a frame for free against acks that cost a frame of their own,
/// stale updates dropped by last-writer-wins, and whether the replicas
/// converged.
///
/// # Errors
///
/// Fails on the first protocol whose run fails outright.
pub fn chaos_table(
    scenario: &Scenario,
    model: NetworkModel,
    plan: &FaultPlan,
    protocols: &[Protocol],
) -> Result<Table, SimError> {
    let mut table = Table::new(
        format!(
            "Chaos ({} nodes, drop {:.0}%, seed {:#x})",
            scenario.teams,
            plan.drop_prob * 100.0,
            plan.seed
        ),
        &[
            "protocol",
            "drops",
            "dups",
            "resyncs",
            "retransmits",
            "dup_dropped",
            "acks_piggy",
            "acks_alone",
            "stale",
            "converged",
        ],
    );
    for &protocol in protocols {
        let summary =
            run_planned(scenario, protocol, model, &RunPlan::default().with_faults(plan.clone()))?;
        let sum = |of: fn(&NodeStats) -> u64| summary.per_node.iter().map(of).sum::<u64>();
        table.push_row(vec![
            protocol.name().to_owned(),
            sum(|s| s.net.drops_injected).to_string(),
            sum(|s| s.net.dups_injected).to_string(),
            sum(|s| s.dso.resyncs).to_string(),
            sum(|s| s.dso.retransmits).to_string(),
            sum(|s| s.dso.duplicates_dropped).to_string(),
            sum(|s| s.dso.acks_piggybacked).to_string(),
            sum(|s| s.dso.acks_standalone).to_string(),
            sum(|s| s.dso.updates_stale).to_string(),
            if converged(&summary) { "yes".to_owned() } else { "NO".to_owned() },
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_run_converges_and_reports_recovery() {
        let scenario = Scenario::paper(3, 1).with_ticks(40).with_reliability(chaos_retry_config());
        let plan = RunPlan::default().with_faults(chaos_plan(0xC1A05));
        let summary =
            run_planned(&scenario, Protocol::Bsync, NetworkModel::paper_testbed(), &plan).unwrap();
        assert!(converged(&summary), "replicas must agree despite faults");
        let drops: u64 = summary.per_node.iter().map(|s| s.net.drops_injected).sum();
        assert!(drops > 0, "the plan must actually inject drops");
        let resyncs: u64 = summary.per_node.iter().map(|s| s.dso.resyncs).sum();
        assert!(resyncs > 0, "drops must trigger the resync path");
    }

    #[test]
    fn chaos_table_lists_each_protocol() {
        let scenario = Scenario::paper(2, 1).with_ticks(25).with_reliability(chaos_retry_config());
        let plan = FaultPlan::new(11).with_drop(0.05);
        let table = chaos_table(
            &scenario,
            NetworkModel::paper_testbed(),
            &plan,
            &[Protocol::Bsync, Protocol::Msync2],
        )
        .unwrap();
        assert_eq!(table.rows.len(), 2);
        let text = table.to_string();
        assert!(text.contains("BSYNC") && text.contains("MSYNC2"));
        assert!(text.contains("yes"), "both runs converge:\n{text}");
    }
}
