//! Features in composition: codec v2 and region sharding under membership
//! churn and crash/restart.
//!
//! Each feature was proven alone; both of these compositions were broken
//! until the game got one driver. The churn/crash runners built their
//! runtime from a copy of the static builder that dropped
//! `Scenario::wire`, so codec v2 silently never ran under either plan.
//! And MSYNC2-SHARD's s-function forgot its pair-agreed positions at every
//! view change, so a tank dying between a barrier and its pair's next
//! rendezvous desynchronised that pair's schedule — a distributed deadlock
//! at 32 nodes (which the crash runner sidestepped by rejecting the
//! protocol outright).

use sdso_core::{MembershipPlan, ViewChange, WireConfig};
use sdso_game::{Protocol, RunPlan, Scenario};
use sdso_harness::{
    chaos_retry_config, converged_in, default_churn_plan, default_crash_plan, run_planned,
    RunSummary,
};
use sdso_sim::NetworkModel;

const CRASH_SEED: u64 = 0x5D50_C4A5;

/// Plays the run and checks every member of the plan's final view holds
/// the identical world.
fn play_converged(scenario: &Scenario, protocol: Protocol, plan: &RunPlan) -> RunSummary {
    let summary = run_planned(scenario, protocol, NetworkModel::paper_testbed(), plan)
        .unwrap_or_else(|e| panic!("{protocol} failed: {e}"));
    let final_view = plan.views(scenario, protocol).expect("the run validated it").final_view();
    assert!(converged_in(&summary, &final_view), "{protocol}: the final view diverged");
    summary
}

#[test]
fn codec_v2_composes_with_churn_and_crash() {
    // 16 nodes on the bare testbed, 8 with the reliability layer on.
    let worlds = [
        Scenario::paper(16, 1).with_ticks(24),
        Scenario::paper(8, 1).with_ticks(24).with_reliability(chaos_retry_config()),
    ];
    for v1 in worlds {
        let teams = usize::from(v1.teams);
        let plans = [
            RunPlan::default().with_membership(default_churn_plan(teams, v1.ticks)),
            RunPlan::default().with_faults(default_crash_plan(CRASH_SEED, teams, v1.ticks)),
        ];
        let v2 = v1.clone().with_wire(WireConfig::compressed());
        for plan in &plans {
            for protocol in Protocol::PAPER {
                let plain = play_converged(&v1, protocol, plan);
                let packed = play_converged(&v2, protocol, plan);
                // The codec changes bytes on the wire, never the game.
                for (a, b) in plain.per_node.iter().zip(&packed.per_node) {
                    assert_eq!(
                        (a.ticks, a.modifications, a.score, &a.final_world),
                        (b.ticks, b.modifications, b.score, &b.final_world),
                        "{protocol}, {teams} teams, node {}: v2 changed the outcome",
                        a.node
                    );
                }
                // ...and it must actually have run (EC ships no exchange
                // data; the paper scenario's fixed 2 KiB frames hide the
                // byte saving, so count frames).
                let v2_frames: u64 = packed.per_node.iter().map(|s| s.dso.codec_v2_sent).sum();
                assert!(
                    v2_frames > 0 || protocol == Protocol::Entry,
                    "{protocol}, {teams} teams: codec v2 never ran"
                );
            }
        }
    }
}

#[test]
fn sharding_composes_with_churn_and_crash_at_32_nodes() {
    let scenario = Scenario::scaled(32, 1).with_ticks(24);
    // The minimal reproducer: one join off the group cadence.
    let join_at_5 = MembershipPlan::new(32, 0..31).with_change(5, ViewChange::join([31]));
    for plan in [
        RunPlan::default().with_membership(join_at_5),
        RunPlan::default().with_membership(default_churn_plan(32, 24)),
        RunPlan::default().with_faults(default_crash_plan(CRASH_SEED, 32, 24)),
    ] {
        let summary = play_converged(&scenario, Protocol::Msync2Shard, &plan);
        let suppressed: u64 = summary.per_node.iter().map(|s| s.dso.shard_suppressed).sum();
        assert!(suppressed > 0, "interest routing must actually suppress diffs");
        let restarted =
            plan.faults.iter().flat_map(|f| &f.crashes).filter(|c| c.restart_tick.is_some());
        for crash in restarted {
            let node = &summary.per_node[usize::from(crash.node)];
            assert_eq!((node.recoveries, node.ticks), (1, 24), "node {} came back", crash.node);
        }
    }
}
