//! What each part of a `RunPlan` promises of a finished run, checked by
//! the golden matrix (`golden_runs.rs`) on every row and by the soaks
//! (`soak.rs`) on every run. A file includes it with
//! `#[path = "common/plans.rs"] mod plans;`.

use sdso_core::WireConfig;
use sdso_game::{Block, NodeStats, Protocol, RunPlan, Scenario};
use sdso_harness::{converged_in, restarts_kept_their_state, RunSummary};

/// Whether `protocol` synchronises by rendezvous: its game is decided by
/// what the exchanges deliver, never by how the bytes travelled. (EC's lock
/// order follows message timing; LRC and causal memory never rendezvous.)
pub fn lookahead(protocol: Protocol) -> bool {
    use Protocol::{Bsync, Msync, Msync2, Msync2Shard};
    matches!(protocol, Bsync | Msync | Msync2 | Msync2Shard)
}

/// Asserts what each part of `plan` promises of `run`, a play of
/// `scenario` under it. These hold however a row's fingerprints are
/// re-recorded:
/// - every plan: each member of the final view plays every tick and, but
///   under LRC and causal memory, holds the same world as the others;
/// - view changes, planned or derived from crashes: one snapshot per
///   joiner, each O(objects) however late it is sent;
/// - planned view changes: each leaver stops at its trigger tick, and no
///   departed team's tank is left on the board;
/// - crashes: each restart is one recovery that kept its pre-crash game
///   state and was away — abrupt death to completed snapshot rejoin — for
///   at most 3 s of virtual time;
/// - link faults: drops were injected, and the lookahead protocols
///   recovered through resyncs and retransmits;
/// - the compressed wire: every lookahead protocol sent codec v2 frames;
/// - sharding: interest routing suppressed diffs.
pub fn check_plan(case: &str, scenario: &Scenario, plan: &RunPlan, run: &RunSummary) {
    let protocol = run.protocol;
    let case = format!("{case}, {protocol}");
    let sum = |f: fn(&NodeStats) -> u64| run.per_node.iter().map(f).sum::<u64>();
    let views = plan.views(scenario, protocol).expect("the run validated it");
    let last = views.final_view();
    // Neither LRC nor causal memory promises agreement when the run ends:
    // an LRC replica sees another's writes only when it acquires their
    // lock, and causal memory does not arbitrate concurrent writes.
    let agrees = !matches!(protocol, Protocol::Lrc | Protocol::Causal);
    assert!(!agrees || converged_in(run, &last), "{case}: the final view diverged");
    let members = run.per_node.iter().filter(|s| last.contains(s.node));
    for s in members.clone() {
        assert_eq!(s.ticks, scenario.ticks, "{case}: member {} stopped early", s.node);
    }

    if !views.changes().is_empty() {
        let joins: usize = views.changes().iter().map(|(_, c)| c.joined.len()).sum();
        assert_eq!(sum(|s| s.dso.snapshots_sent), joins as u64, "{case}: one snapshot per joiner");
        let object = scenario.block_bytes as u64 + 32;
        let bound = u64::from(scenario.grid.cells()) * object;
        for s in &run.per_node {
            let (sent, bytes) = (s.dso.snapshots_sent, s.dso.snapshot_bytes);
            assert!(
                bytes <= sent * bound,
                "{case}: {sent} snapshots of {bytes} bytes > {bound} each"
            );
        }
    }
    if let Some(churn) = &plan.membership {
        for (tick, change) in churn.changes() {
            for &leaver in &change.left {
                let played = run.per_node[usize::from(leaver)].ticks;
                assert_eq!(
                    played, *tick,
                    "{case}: leaver {leaver} did not exit at its trigger tick"
                );
            }
        }
        let board = members.map(|s| &s.final_world).next().expect("the final view is not empty");
        for block in board {
            if let Block::Tank { team, .. } = block {
                assert!(
                    last.contains(*team),
                    "{case}: departed team {team}'s tank is on the board"
                );
            }
        }
    }

    if let Some(faults) = &plan.faults {
        let restarts = faults.crashes.iter().filter(|c| c.restart_tick.is_some());
        for crash in restarts.clone() {
            let recoveries = run.per_node[usize::from(crash.node)].recoveries;
            assert_eq!(recoveries, 1, "{case}: node {} came back once", crash.node);
        }
        let restarts = restarts.count() as u64;
        assert_eq!(sum(|s| s.recoveries), restarts, "{case}: recoveries without a restart");
        if restarts > 0 {
            let kept = restarts_kept_their_state(scenario, faults, run);
            assert!(kept, "{case}: a restart lost its pre-crash state");
            let down = sum(|s| s.recovery_time.as_micros());
            assert!((1..=3_000_000 * restarts).contains(&down), "{case}: away for {down} us");
        }
        if faults.has_link_faults() {
            assert!(sum(|s| s.net.drops_injected) > 0, "{case}: the plan dropped nothing");
            if lookahead(protocol) {
                assert!(
                    sum(|s| s.dso.resyncs) > 0,
                    "{case}: dropped rendezvous traffic, no resync"
                );
                assert!(sum(|s| s.dso.retransmits) > 0, "{case}: resyncs retransmitted nothing");
            }
        }
    }

    if scenario.wire == WireConfig::compressed() && lookahead(protocol) {
        assert!(sum(|s| s.dso.codec_v2_sent) > 0, "{case}: codec v2 never ran");
    }
    if protocol == Protocol::Msync2Shard {
        assert!(sum(|s| s.dso.shard_suppressed) > 0, "{case}: interest routing suppressed nothing");
    }
}
