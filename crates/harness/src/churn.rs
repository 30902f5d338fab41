//! Churn experiments: games under planned membership changes.
//!
//! The paper's evaluation held the process group fixed for a run's whole
//! lifetime. This module replays the same games while players leave and
//! join at planned trigger ticks — optionally on a faulty network — and
//! reports per-protocol membership statistics: view changes applied,
//! cross-epoch traffic rejected, diff slots compacted on departure,
//! snapshot traffic to late joiners, and whether every *remaining* member
//! still converged to the identical final world.

use sdso_core::{MembershipPlan, ViewChange};
use sdso_game::{Protocol, RunPlan, Scenario};
use sdso_net::{FaultPlan, NodeId};
use sdso_sim::{NetworkModel, SimError};

use crate::experiment::{converged_in, run_planned};
use crate::table::Table;

/// The default churn plan for a `capacity`-slot cluster: the two
/// highest-numbered slots start empty, the two lowest-numbered non-donor
/// members leave at staggered barriers, and the spare slots join at those
/// same barriers. `ticks` must leave room for the last trigger.
///
/// # Panics
///
/// Panics if `capacity < 4` (needs a donor, two leavers, and a spare
/// slot) or if `ticks < 5` (the triggers land at `ticks / 3` and
/// `2 * ticks / 3`).
pub fn default_churn_plan(capacity: usize, ticks: u64) -> MembershipPlan {
    assert!(capacity >= 4, "churn needs at least 4 capacity slots");
    assert!(ticks >= 5, "churn needs room for two staggered triggers");
    let joiners = [capacity as NodeId - 2, capacity as NodeId - 1];
    let plan = MembershipPlan::new(capacity, 0..capacity as NodeId - 2);
    plan.with_change(ticks / 3, ViewChange::new([joiners[0]], [1]))
        .with_change(2 * ticks / 3, ViewChange::new([joiners[1]], [2]))
}

/// Runs the churn scenario for each protocol in `protocols` and renders
/// the per-protocol membership statistics as a table.
///
/// # Errors
///
/// Fails on the first protocol whose run fails outright.
pub fn churn_table(
    scenario: &Scenario,
    model: NetworkModel,
    plan: &MembershipPlan,
    faults: Option<&FaultPlan>,
    protocols: &[Protocol],
) -> Result<Table, SimError> {
    let mut table = Table::new(
        format!(
            "Churn ({} slots, {} change(s){})",
            plan.capacity(),
            plan.changes().len(),
            if faults.is_some() { ", faulty network" } else { "" }
        ),
        &[
            "protocol",
            "view_changes",
            "cross_epoch",
            "slots_compacted",
            "snapshots",
            "snapshot_bytes",
            "converged",
        ],
    );
    let run = RunPlan { membership: Some(plan.clone()), faults: faults.cloned(), obs: None };
    for &protocol in protocols {
        let summary = run_planned(scenario, protocol, model, &run)?;
        let view_changes: u64 = summary.per_node.iter().map(|s| s.dso.view_changes).sum();
        let cross_epoch: u64 = summary.per_node.iter().map(|s| s.dso.cross_epoch_dropped).sum();
        let compacted: u64 = summary.per_node.iter().map(|s| s.dso.slots_compacted).sum();
        let snapshots: u64 = summary.per_node.iter().map(|s| s.dso.snapshots_sent).sum();
        let snapshot_bytes: u64 = summary.per_node.iter().map(|s| s.dso.snapshot_bytes).sum();
        table.push_row(vec![
            protocol.name().to_owned(),
            view_changes.to_string(),
            cross_epoch.to_string(),
            compacted.to_string(),
            snapshots.to_string(),
            snapshot_bytes.to_string(),
            if converged_in(&summary, &plan.final_view()) {
                "yes".to_owned()
            } else {
                "NO".to_owned()
            },
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_staggers_two_changes() {
        let plan = default_churn_plan(6, 12);
        assert_eq!(plan.capacity(), 6);
        assert_eq!(plan.changes().len(), 2);
        assert_eq!(plan.changes()[0].0, 4);
        assert_eq!(plan.changes()[1].0, 8);
        let final_view = plan.final_view();
        assert!(final_view.members().contains(&4) && final_view.members().contains(&5));
        assert!(!final_view.members().contains(&1) && !final_view.members().contains(&2));
    }

    #[test]
    fn churn_experiment_converges_and_counts_membership_traffic() {
        let scenario = Scenario::paper(5, 1).with_ticks(9);
        let plan = default_churn_plan(5, 9);
        let summary = run_planned(
            &scenario,
            Protocol::Bsync,
            NetworkModel::paper_testbed(),
            &RunPlan::default().with_membership(plan.clone()),
        )
        .unwrap();
        assert!(converged_in(&summary, &plan.final_view()), "final view must agree");
        let snapshots: u64 = summary.per_node.iter().map(|s| s.dso.snapshots_sent).sum();
        assert_eq!(snapshots, 2, "one snapshot per joiner");
        let view_changes: u64 = summary.per_node.iter().map(|s| s.dso.view_changes).sum();
        assert!(view_changes > 0, "continuers count their epoch turns");
    }

    #[test]
    fn churn_table_lists_each_protocol() {
        let scenario = Scenario::paper(4, 1).with_ticks(8);
        let plan = default_churn_plan(4, 8);
        let table = churn_table(
            &scenario,
            NetworkModel::paper_testbed(),
            &plan,
            None,
            &[Protocol::Bsync, Protocol::Msync2],
        )
        .unwrap();
        assert_eq!(table.rows.len(), 2);
        let text = table.to_string();
        assert!(text.contains("BSYNC") && text.contains("MSYNC2"));
        assert!(text.contains("yes"), "both runs converge:\n{text}");
    }
}
