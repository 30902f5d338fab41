//! End-to-end churn: a 16-slot game where four players leave and four
//! join mid-run, across every protocol with a view-change barrier.
//!
//! The acceptance bar for the membership subsystem:
//!
//! * every remaining member converges to the identical final object state
//!   under BSYNC, MSYNC, MSYNC2 and EC;
//! * the whole run — scores, traffic, virtual timing — replays
//!   bit-identically on the seeded virtual-time cluster;
//! * a late joiner's snapshot is O(objects), not O(history).

use sdso_core::{MembershipPlan, ViewChange};
use sdso_game::{Block, NodeStats, Protocol, RunPlan, Scenario};
use sdso_harness::{chaos_plan, chaos_retry_config, converged_in, default_churn_plan, run_planned};
use sdso_net::NodeId;
use sdso_sim::NetworkModel;

const CAPACITY: usize = 16;
const TICKS: u64 = 24;

/// Leavers paired with the joiner that takes over at the same barrier.
const CHANGES: [(u64, NodeId, NodeId); 4] = [(5, 1, 12), (9, 4, 13), (13, 7, 14), (17, 10, 15)];

/// Twelve initial members; one leave + one join at each of four barriers.
fn churn_plan() -> MembershipPlan {
    let mut plan = MembershipPlan::new(CAPACITY, 0..12);
    for (tick, leaver, joiner) in CHANGES {
        plan = plan.with_change(tick, ViewChange::new([joiner], [leaver]));
    }
    plan
}

fn play_under(scenario: &Scenario, protocol: Protocol, plan: MembershipPlan) -> Vec<NodeStats> {
    let plan = RunPlan::default().with_membership(plan);
    run_planned(scenario, protocol, NetworkModel::paper_testbed(), &plan).unwrap().per_node
}

fn play(scenario: &Scenario, protocol: Protocol) -> Vec<NodeStats> {
    play_under(scenario, protocol, churn_plan())
}

fn survivors() -> Vec<usize> {
    let leavers: Vec<NodeId> = CHANGES.iter().map(|&(_, l, _)| l).collect();
    (0..CAPACITY).filter(|&id| !leavers.contains(&(id as NodeId))).collect()
}

#[test]
fn every_protocol_converges_through_four_view_changes() {
    let scenario = Scenario::paper(CAPACITY as u16, 1).with_ticks(TICKS);
    for protocol in Protocol::PAPER {
        let stats = play(&scenario, protocol);
        let alive = survivors();
        let reference = &stats[alive[0]];
        for &id in &alive {
            assert_eq!(stats[id].ticks, TICKS, "{protocol}: node {id} plays to the end");
            assert_eq!(
                stats[id].final_world, reference.final_world,
                "{protocol}: node {id} diverged from node {}",
                alive[0]
            );
        }
        for (tick, leaver, _) in CHANGES {
            assert_eq!(
                stats[usize::from(leaver)].ticks,
                tick,
                "{protocol}: leaver {leaver} exits at its trigger tick"
            );
        }
        // No departed team leaves a tank on the converged board.
        let tanks: Vec<u16> = reference
            .final_world
            .iter()
            .filter_map(|b| match b {
                Block::Tank { team, .. } => Some(*team),
                _ => None,
            })
            .collect();
        for (_, leaver, _) in CHANGES {
            assert!(!tanks.contains(&leaver), "{protocol}: team {leaver}'s tank must be gone");
        }
    }
}

#[test]
fn churn_runs_replay_bit_identically() {
    let scenario = Scenario::paper(CAPACITY as u16, 1).with_ticks(TICKS);
    for protocol in [Protocol::Bsync, Protocol::Msync2, Protocol::Entry] {
        let a = play(&scenario, protocol);
        let b = play(&scenario, protocol);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.final_world, y.final_world, "{protocol}: deterministic final state");
            assert_eq!(x.score, y.score, "{protocol}: deterministic score");
            assert_eq!(x.modifications, y.modifications, "{protocol}");
            assert_eq!(x.exec_time, y.exec_time, "{protocol}: deterministic timing");
            assert_eq!(x.net.total_sent(), y.net.total_sent(), "{protocol}: deterministic traffic");
        }
    }
}

#[test]
fn every_protocol_survives_churn_on_a_faulty_network() {
    // Regression: continuers used to drop their unacknowledged frames for
    // a leaver the moment the view change applied. When every copy of a
    // barrier frame was lost to fault injection, the leaver was stranded
    // in its barrier with nobody left to retransmit and timed out after
    // exhausting its retry budget. The departing link is now settled
    // before it is pruned, so churn and packet loss compose.
    let plan = default_churn_plan(8, 40);
    let scenario = Scenario::paper(8, 1).with_ticks(40).with_reliability(chaos_retry_config());
    let run = RunPlan::default().with_membership(plan.clone()).with_faults(chaos_plan(0x5D50_1997));
    for protocol in Protocol::PAPER {
        let summary = run_planned(&scenario, protocol, NetworkModel::paper_testbed(), &run)
            .unwrap_or_else(|e| panic!("{protocol} failed under churn + faults: {e}"));
        assert!(
            converged_in(&summary, &plan.final_view()),
            "{protocol} diverged under churn + faults"
        );
    }
}

#[test]
fn snapshots_stay_o_objects_as_history_grows() {
    // One joiner, early vs late: the donor's snapshot byte count may vary
    // with how much of the board changed, but it is bounded by the object
    // count — never by the number of elapsed ticks.
    let sizes: Vec<u64> = [6u64, 18]
        .into_iter()
        .map(|join_tick| {
            let scenario = Scenario::paper(CAPACITY as u16, 1).with_ticks(join_tick + 2);
            let plan =
                MembershipPlan::new(CAPACITY, 0..15).with_change(join_tick, ViewChange::join([15]));
            play_under(&scenario, Protocol::Bsync, plan)[0].dso.snapshot_bytes
        })
        .collect();
    assert!(sizes[0] > 0, "the donor sent a snapshot");
    let scenario = Scenario::paper(CAPACITY as u16, 1);
    let bound = u64::from(scenario.grid.cells()) * (scenario.block_bytes as u64 + 32);
    assert!(
        sizes.iter().all(|&s| s <= bound),
        "snapshot sizes {sizes:?} exceed the O(objects) bound {bound}"
    );
}
