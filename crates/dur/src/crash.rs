//! Bridges a [`FaultPlan`]'s crash schedule into the membership layer.
//!
//! The simulator realises a crash as an abrupt leave (the crasher stops
//! mid-protocol; survivors apply a leave-flavoured view change at the
//! crash tick) and a restart as a late join (the crashed process comes
//! back with its WAL-recovered identity and pulls a snapshot from a
//! donor). Both are exactly the membership churn machinery from the
//! dynamic-groups work — so deriving a [`MembershipPlan`] from the crash
//! events lets every existing churn-aware runner execute a crash scenario
//! unchanged.

use sdso_core::{MembershipPlan, ViewChange};
use sdso_net::{FaultPlan, NodeId};

/// Derives the [`MembershipPlan`] that realises `plan`'s crash events
/// over a group of `capacity` slots initially populated by `initial`:
/// each crash becomes a leave at its crash tick, each restart a join at
/// its restart tick, with same-tick events merged into one view change.
///
/// # Panics
///
/// Panics when the schedule is invalid for the group — a crash of a
/// non-member, a restart of a node that never left, or a change sequence
/// [`MembershipPlan::with_change`] rejects. Call [`validate_crash_plan`]
/// first for a `Result`-shaped answer.
pub fn crash_membership_plan(
    capacity: usize,
    initial: impl IntoIterator<Item = NodeId>,
    plan: &FaultPlan,
) -> MembershipPlan {
    let mut events: Vec<(u64, bool, NodeId)> = Vec::new(); // (tick, is_join, node)
    for crash in &plan.crashes {
        events.push((crash.crash_tick, false, crash.node));
        if let Some(restart) = crash.restart_tick {
            events.push((restart, true, crash.node));
        }
    }
    events.sort_by_key(|&(tick, is_join, node)| (tick, node, is_join));

    let mut membership = MembershipPlan::new(capacity, initial);
    let mut i = 0;
    while i < events.len() {
        let tick = events[i].0;
        let mut joined = Vec::new();
        let mut left = Vec::new();
        while i < events.len() && events[i].0 == tick {
            let (_, is_join, node) = events[i];
            if is_join {
                joined.push(node);
            } else {
                left.push(node);
            }
            i += 1;
        }
        membership = membership.with_change(tick, ViewChange::new(joined, left));
    }
    membership
}

/// Checks that `plan`'s crash schedule is realisable over a group of
/// `capacity` slots that starts full: every crashed node is a live member
/// when it crashes, restarts strictly follow crashes, and the group never
/// loses its last live member (someone must survive to serve as the
/// restart's snapshot donor).
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_crash_plan(plan: &FaultPlan, capacity: usize) -> Result<(), String> {
    let mut events: Vec<(u64, bool, NodeId)> = Vec::new();
    for crash in &plan.crashes {
        if usize::from(crash.node) >= capacity {
            return Err(format!("crash of node {} exceeds group capacity {capacity}", crash.node));
        }
        if let Some(restart) = crash.restart_tick {
            if restart <= crash.crash_tick {
                return Err(format!(
                    "node {} restarts at tick {restart}, not after its crash at tick {}",
                    crash.node, crash.crash_tick
                ));
            }
            events.push((restart, true, crash.node));
        }
        events.push((crash.crash_tick, false, crash.node));
    }
    events.sort_by_key(|&(tick, is_join, node)| (tick, node, is_join));

    let mut live = capacity;
    let mut down: Vec<NodeId> = Vec::new();
    for (tick, is_join, node) in events {
        if is_join {
            // Builder invariants guarantee the node is down here.
            down.retain(|&n| n != node);
            live += 1;
        } else {
            if down.contains(&node) {
                return Err(format!("node {node} crashes twice (second at tick {tick})"));
            }
            down.push(node);
            live -= 1;
            if live == 0 {
                return Err(format!(
                    "crash of node {node} at tick {tick} leaves no live member to recover from"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crashes_become_leaves_and_restarts_become_joins() {
        let plan = FaultPlan::new(1).with_crash(2, 5, Some(9)).with_crash(1, 7, None);
        let membership = crash_membership_plan(4, 0..4, &plan);

        assert_eq!(membership.leave_tick_of(2), Some(5));
        assert_eq!(membership.join_tick_of(2), Some(9));
        assert_eq!(membership.leave_tick_of(1), Some(7));
        assert_eq!(membership.join_tick_of(1), None, "no restart, no join");

        let before = membership.view_at(4);
        assert!(before.contains(2));
        let during = membership.view_at(8);
        assert!(!during.contains(2), "down between crash and restart");
        assert!(!during.contains(1));
        let after = membership.final_view();
        assert!(after.contains(2), "restarted");
        assert!(!after.contains(1), "never came back");
        assert_eq!(after.len(), 3);
    }

    #[test]
    fn same_tick_events_merge_into_one_change() {
        let plan = FaultPlan::new(1).with_crash(1, 3, Some(6)).with_crash(2, 6, Some(8));
        let membership = crash_membership_plan(3, 0..3, &plan);
        let change = membership.change_at(6).expect("merged change at tick 6");
        assert!(change.joined.contains(&1), "node 1 rejoins at 6");
        assert!(change.left.contains(&2), "node 2 crashes at 6");
    }

    #[test]
    fn seeded_plans_validate_and_derive() {
        let plan = FaultPlan::new(0xD15EA5E).with_seeded_crashes(16, 4, 4, 40);
        validate_crash_plan(&plan, 16).expect("seeded schedule is realisable");
        let membership = crash_membership_plan(16, 0..16, &plan);
        let leaves = membership.changes().iter().filter(|(_, c)| !c.left.is_empty()).count();
        let joins = membership.changes().iter().filter(|(_, c)| !c.joined.is_empty()).count();
        assert!(leaves + joins >= plan.crashes.len(), "every crash shows up in the plan");
        assert!(membership.final_view().len() >= 12, "at most 4 stay down");
    }

    #[test]
    fn validation_rejects_bad_schedules() {
        let oob = FaultPlan::new(1).with_crash(9, 2, None);
        assert!(validate_crash_plan(&oob, 4).unwrap_err().contains("capacity"));

        let mut wipeout = FaultPlan::new(1);
        wipeout = wipeout.with_crash(0, 2, None).with_crash(1, 3, None);
        assert!(validate_crash_plan(&wipeout, 2).unwrap_err().contains("no live member"));
    }
}
