//! Crash experiments: games under planned fail-stop crashes and
//! WAL-backed recovery.
//!
//! Extension G over the paper's evaluation: processes crash abruptly at
//! seeded trigger ticks, survivors excise them through the membership
//! machinery, and scheduled restarts recover from the write-ahead log and
//! rejoin with their pre-crash identity. The experiment reports the
//! recovery statistics the durability layer is gated on — recovery count,
//! WAL records replayed, and the summed virtual absence (downtime) per
//! process — alongside the usual convergence check over the final view.

use sdso_game::{Protocol, RunPlan, Scenario};
use sdso_net::{FaultPlan, NetError, SimSpan};
use sdso_sim::{NetworkModel, SimError};

use crate::experiment::{converged_in, run_planned};
use crate::table::Table;

/// The default crash plan for an `n`-team run over `ticks` ticks: one
/// crash-and-restart in the first half of the run and one unrecovered
/// crash in the second half, both seeded from `seed` (node 0, the
/// perennial snapshot donor, never crashes).
///
/// # Panics
///
/// Panics if `n < 4` (needs a donor, two crashers, and a bystander) or
/// `ticks < 8` (room for crash, restart, and a tail of live play).
pub fn default_crash_plan(seed: u64, n: usize, ticks: u64) -> FaultPlan {
    assert!(n >= 4, "crash runs need at least 4 teams");
    assert!(ticks >= 8, "crash runs need room for a crash, a restart, and a tail");
    FaultPlan::new(seed).with_crash(1, ticks / 4, Some(ticks / 2)).with_crash(
        (n - 1) as sdso_net::NodeId,
        3 * ticks / 4,
        None,
    )
}

/// Runs the crash scenario for each protocol in `protocols` and renders
/// the recovery statistics as an Extension G table.
///
/// # Errors
///
/// Fails on the first protocol whose run fails outright.
pub fn crash_table(
    scenario: &Scenario,
    model: NetworkModel,
    faults: &FaultPlan,
    protocols: &[Protocol],
) -> Result<Table, SimError> {
    let mut table = Table::new(
        format!("Crash recovery ({} teams, {} crash(es))", scenario.teams, faults.crashes.len()),
        &[
            "protocol",
            "recoveries",
            "wal_replayed",
            "downtime_ms",
            "cross_epoch",
            "snapshots",
            "converged",
        ],
    );
    let run = RunPlan::default().with_faults(faults.clone());
    for &protocol in protocols {
        let summary = run_planned(scenario, protocol, model, &run)?;
        let final_view = run.views(scenario, protocol).map_err(NetError::from)?.final_view();
        let recoveries: u64 = summary.per_node.iter().map(|s| s.recoveries).sum();
        let wal_replayed: u64 = summary.per_node.iter().map(|s| s.wal_replayed).sum();
        let downtime: SimSpan =
            summary.per_node.iter().fold(SimSpan::ZERO, |acc, s| acc + s.recovery_time);
        let cross_epoch: u64 = summary.per_node.iter().map(|s| s.dso.cross_epoch_dropped).sum();
        let snapshots: u64 = summary.per_node.iter().map(|s| s.dso.snapshots_sent).sum();
        table.push_row(vec![
            protocol.name().to_owned(),
            recoveries.to_string(),
            wal_replayed.to_string(),
            format!("{:.2}", downtime.as_micros() as f64 / 1000.0),
            cross_epoch.to_string(),
            snapshots.to_string(),
            if converged_in(&summary, &final_view) { "yes".to_owned() } else { "NO".to_owned() },
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_has_one_restart_and_one_permanent_crash() {
        let plan = default_crash_plan(7, 8, 16);
        assert_eq!(plan.crashes.len(), 2);
        assert!(plan.crash_of(1).is_some_and(|c| c.restart_tick.is_some()));
        assert!(plan.crash_of(7).is_some_and(|c| c.restart_tick.is_none()));
        assert!(plan.crash_of(0).is_none(), "the donor never crashes");
    }

    #[test]
    fn crash_experiment_recovers_and_converges() {
        let scenario = Scenario::paper(4, 1).with_ticks(12);
        let plan = RunPlan::default().with_faults(default_crash_plan(3, 4, 12));
        let summary =
            run_planned(&scenario, Protocol::Bsync, NetworkModel::paper_testbed(), &plan).unwrap();
        let final_view = plan.views(&scenario, Protocol::Bsync).unwrap().final_view();
        assert!(converged_in(&summary, &final_view));
        let recoveries: u64 = summary.per_node.iter().map(|s| s.recoveries).sum();
        assert_eq!(recoveries, 1, "one process came back");
        let replayed: u64 = summary.per_node.iter().map(|s| s.wal_replayed).sum();
        assert!(replayed > 0, "the WAL carried state across the crash");
    }

    #[test]
    fn crash_table_lists_each_protocol() {
        let scenario = Scenario::paper(4, 1).with_ticks(12);
        let faults = default_crash_plan(5, 4, 12);
        let table = crash_table(
            &scenario,
            NetworkModel::paper_testbed(),
            &faults,
            &[Protocol::Bsync, Protocol::Entry],
        )
        .unwrap();
        assert_eq!(table.rows.len(), 2);
        let text = table.to_string();
        assert!(text.contains("BSYNC") && text.contains("EC"));
        assert!(text.contains("yes"), "both runs converge:\n{text}");
    }
}
