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

use sdso_core::{MembershipPlan, RetryConfig, ViewChange, WireConfig};
use sdso_game::{Protocol, RunPlan, Scenario};
use sdso_harness::{
    chaos_retry_config, converged_in, default_churn_plan, default_crash_plan, run_planned,
    wire_sweep, RunSummary,
};
use sdso_net::SimSpan;
use sdso_sim::NetworkModel;

const CRASH_SEED: u64 = 0x5D50_C4A5;

/// The paper's Fig. 5 metric, summed over the nodes of a run.
fn secs_per_mod(run: &RunSummary) -> f64 {
    run.per_node.iter().map(|s| s.time_per_modification().as_secs_f64()).sum()
}

/// Plays the run and checks every member of the plan's final view holds
/// the identical world.
fn play_converged(scenario: &Scenario, protocol: Protocol, plan: &RunPlan) -> RunSummary {
    let summary = run_planned(scenario, protocol, NetworkModel::paper_testbed(), plan)
        .unwrap_or_else(|e| panic!("{protocol} failed: {e}"));
    let final_view = plan.views(scenario, protocol).expect("the run validated it").final_view();
    assert!(converged_in(&summary, &final_view), "{protocol}: the final view diverged");
    summary
}

/// Asserts that two runs played the same game, node by node: the wire
/// changes bytes and frames, never what the game can see.
fn assert_same_game(case: &str, plain: &RunSummary, packed: &RunSummary) {
    for (a, b) in plain.per_node.iter().zip(&packed.per_node) {
        assert_eq!(
            (a.ticks, a.modifications, a.score, &a.final_world),
            (b.ticks, b.modifications, b.score, &b.final_world),
            "{case}, node {}: v2 changed the outcome",
            a.node
        );
    }
}

#[test]
fn codec_v2_composes_with_churn_and_crash() {
    // 16 nodes on the bare testbed, 8 with the reliability layer on.
    let worlds = [
        Scenario::paper(16, 1).with_ticks(24),
        Scenario::paper(8, 1).with_ticks(24).with_reliability(chaos_retry_config()),
    ];
    for v1 in worlds.map(|world| world.with_wire(WireConfig::v1())) {
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
                assert_same_game(&format!("{protocol}, {teams} teams"), &plain, &packed);
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
        let sum = |f: fn(&sdso_game::NodeStats) -> u64| summary.per_node.iter().map(f).sum::<u64>();
        assert!(sum(|s| s.dso.shard_suppressed) > 0, "interest routing must suppress diffs");
        // Sharded links negotiate the default wire like any other.
        assert!(sum(|s| s.dso.codec_v2_sent) > 0, "codec v2 never ran under sharding");
        assert!(sum(|s| s.dso.rendezvous_fused) > 0, "no sharded rendezvous was fused");
        let restarted =
            plan.faults.iter().flat_map(|f| &f.crashes).filter(|c| c.restart_tick.is_some());
        for crash in restarted {
            let node = &summary.per_node[usize::from(crash.node)];
            assert_eq!((node.recoveries, node.ticks), (1, 24), "node {} came back", crash.node);
        }
    }
}

/// Sharding on the default wire against its twin on the paper's frames, static
/// group: region groups and interest routing decide who exchanges what, the
/// codec only how it travels, so every node plays the same game.
#[test]
fn sharding_plays_the_same_game_on_v1_and_on_the_default_wire() {
    let scenario = Scenario::scaled(32, 1).with_ticks(24);
    let plan = RunPlan::default();
    let packed = play_converged(&scenario, Protocol::Msync2Shard, &plan);
    let plain =
        play_converged(&scenario.clone().with_wire(WireConfig::v1()), Protocol::Msync2Shard, &plan);
    assert_same_game("MSYNC2-SHARD, 32 teams", &plain, &packed);
    let fused = |run: &RunSummary| run.per_node.iter().map(|s| s.dso.rendezvous_fused).sum::<u64>();
    assert_eq!(fused(&plain), 0, "the v1 twin fused a rendezvous");
    assert!(fused(&packed) > 0, "no sharded rendezvous was fused");
}

/// The paper's own operating point with the reliability layer on and no
/// faults: 16 nodes on the 10 Mbps testbed, library-default `RetryConfig`
/// (a 20 ms `rto` inside a 42 ms tick), and the same with `rto` five times
/// as long — the result must not hang on the one number a user can set.
/// An ARQ that is free when nothing is lost must finish every protocol,
/// retransmit (next to) nothing, cost under a tenth of the run, and leave
/// the game exactly as the unreliable run played it.
#[test]
fn reliability_is_free_on_the_paper_testbed_when_nothing_is_lost() {
    let bare = Scenario::paper(16, 3);
    let plan = RunPlan::default();
    let default = RetryConfig::default();
    let patient = RetryConfig { rto: SimSpan::from_micros(5 * default.rto.as_micros()), ..default };
    for protocol in Protocol::PAPER {
        let off = play_converged(&bare, protocol, &plan);
        for retry in [default, patient] {
            let rto = retry.rto;
            let on = play_converged(&bare.clone().with_reliability(retry), protocol, &plan);
            // The lookahead family plays the same game whatever the
            // transport does underneath; EC's lock order follows message
            // timing, so it is held to completion and convergence
            // (`play_converged`).
            for (a, b) in off.per_node.iter().zip(&on.per_node) {
                assert_eq!(a.ticks, b.ticks, "{protocol}, rto {rto}, node {}: unfinished", a.node);
                assert!(
                    protocol == Protocol::Entry
                        || (a.modifications, a.score, &a.final_world)
                            == (b.modifications, b.score, &b.final_world),
                    "{protocol}, rto {rto}, node {}: reliability changed the outcome",
                    a.node
                );
            }
            let sum = |f: fn(&sdso_game::NodeStats) -> u64| on.per_node.iter().map(f).sum::<u64>();
            let (sent, retransmits) = (sum(|s| s.net.total_sent()), sum(|s| s.dso.retransmits));
            if protocol == Protocol::Bsync {
                assert_eq!(retransmits, 0, "BSYNC, rto {rto}: every ack rides the next tick");
            }
            assert!(
                retransmits * 100 <= sent,
                "{protocol}, rto {rto}: {retransmits} spurious retransmits in {sent} frames"
            );
            let (off, on) = (secs_per_mod(&off), secs_per_mod(&on));
            assert!(
                on <= off * 1.10,
                "{protocol}, rto {rto}: {on:.4} s/mod with reliability, {off:.4} without"
            );
        }
    }
}

/// A fused rendezvous in the books: on a negotiated link the SYNC rides in
/// the v2 data frame, so against the v1 twin (the same batches, undeduped,
/// in the absolute format) every node sends the same data messages and ends
/// in the same world, the run receives the twin's updates less those v2's
/// dedup folded, and its control messages are the twin's less one per fused
/// rendezvous plus its one codec offer per peer (standalone acks aside,
/// whose number follows the timing). With
/// reliability on top — the paper's operating point with everything on — the
/// run still beats the bare v1 run's time per modification and BSYNC still
/// retransmits nothing.
#[test]
fn a_fused_rendezvous_is_one_data_message_and_no_control_message() {
    let bare = Scenario::paper(16, 3).with_ticks(24).with_wire(WireConfig::v1());
    let plan = RunPlan::default();
    let peers = u64::from(bare.teams) - 1;
    for protocol in Protocol::PAPER {
        let lookahead = protocol != Protocol::Entry;
        let unreliable_v1 = play_converged(&bare, protocol, &plan);
        for v1 in [bare.clone(), bare.clone().with_reliability(RetryConfig::default())] {
            let arq = v1.reliability.is_some();
            let plain = play_converged(&v1, protocol, &plan);
            let packed = play_converged(&v1.with_wire(WireConfig::compressed()), protocol, &plan);
            for (a, b) in plain.per_node.iter().zip(&packed.per_node) {
                let case = format!("{protocol}, reliability {arq}, node {}", a.node);
                assert_eq!(a.ticks, b.ticks, "{case}: unfinished");
                // EC's lock order follows message timing, which the ARQ's
                // acks move; without it, and for the lookahead family
                // always, the codec changes nothing the game can see.
                if lookahead || !arq {
                    assert_eq!(
                        (a.modifications, a.score),
                        (b.modifications, b.score),
                        "{case}: v2 changed the outcome"
                    );
                    assert!(a.final_world == b.final_world, "{case}: v2 changed the world");
                }
                if !lookahead {
                    // EC never exchanges: nothing to offer, nothing to fuse.
                    assert_eq!((b.dso.rendezvous_fused, b.dso.codec_v2_sent), (0, 0), "{case}");
                    continue;
                }
                assert!(b.dso.rendezvous_fused > 0, "{case}: nothing was fused");
                assert_eq!(b.dso.rendezvous_fused, b.dso.codec_v2_sent, "{case}");
                let sequenced = |s: &sdso_game::NodeStats| {
                    (s.net.data_sent.msgs, s.net.control_sent.msgs - s.dso.acks_standalone)
                };
                if a.dso.retransmits + b.dso.retransmits > 0 {
                    continue; // resent frames count twice on the wire
                }
                let ((data_v1, control_v1), (data_v2, control_v2)) = (sequenced(a), sequenced(b));
                assert_eq!(data_v2, data_v1, "{case}: a fused frame is a data message");
                assert_eq!(
                    control_v2 + b.dso.rendezvous_fused,
                    control_v1 + peers,
                    "{case}: control messages are the twin's, less the fused SYNCs, plus the offers"
                );
            }
            if lookahead || !arq {
                // Updates received: whether one is applied or found stale
                // follows the order two writers' frames arrive in. Each
                // update v2's dedup folded away reaches the v1 twin's
                // receiver on its own.
                let received = |run: &RunSummary| -> u64 {
                    run.per_node.iter().map(|s| s.dso.updates_applied + s.dso.updates_stale).sum()
                };
                let folded: u64 = packed.per_node.iter().map(|s| s.dso.batch_deduped).sum();
                let case = format!("{protocol}, reliability {arq}");
                assert_eq!(received(&plain), received(&packed) + folded, "{case}: updates moved");
            }
            if arq {
                let resent: u64 = packed.per_node.iter().map(|s| s.dso.retransmits).sum();
                assert!(protocol != Protocol::Bsync || resent == 0, "BSYNC resent {resent} frames");
                if lookahead {
                    let (off, on) = (secs_per_mod(&unreliable_v1), secs_per_mod(&packed));
                    assert!(on < off, "{protocol}: {on:.4} s/mod all on, {off:.4} bare");
                }
            }
        }
    }
}

/// The wire diet's contract over the whole Ext. H sweep (four links × the
/// paper's protocols, v1 against compressed, payload-sized frames): the codec
/// decodes to exactly what v1 would have delivered, so every node plays the
/// same game; it changes the message flow in two ways only — a negotiated
/// link sends each rendezvous as one frame, and negotiating costs at most one
/// offer per directed link, none under EC, which never exchanges; MSYNC2
/// ships at least 40 % fewer bytes on its worst link (measured 84.0 %); and
/// no cell pays more than the 2 % negotiation allowance over its v1 bytes.
#[test]
fn the_wire_diet_saves_bytes_and_changes_nothing_else() {
    let cells = wire_sweep().expect("every cell runs");
    assert_eq!(cells.len(), 16, "four links x four protocols");
    let outcome = |run: &RunSummary| -> Vec<(u64, i64)> {
        run.per_node.iter().map(|s| (s.modifications, s.score)).collect()
    };
    for cell in &cells {
        let (v1, v2) = (&cell.v1, &cell.v2);
        let case = format!("{} {}", cell.link, v1.protocol);
        assert_eq!(outcome(v1), outcome(v2), "{case}: v2 changed the outcome");
        assert_eq!(v1.data_messages(), v2.data_messages(), "{case}: data messages moved");
        let fused: u64 = v2.per_node.iter().map(|s| s.dso.rendezvous_fused).sum();
        let offers = (v2.total_messages() + fused).checked_sub(v1.total_messages());
        let n = v1.nodes as u64;
        let budget = if v1.protocol == Protocol::Entry { 0 } else { n * (n - 1) };
        assert!(
            offers.is_some_and(|offers| offers <= budget),
            "{case}: {} messages on v1, {} on v2 with {fused} fused rendezvous and room for \
             {budget} offers",
            v1.total_messages(),
            v2.total_messages()
        );
        let (plain, packed) = (v1.total_bytes() as f64, v2.total_bytes() as f64);
        assert!(packed <= plain * 1.02, "{case}: {packed} bytes compressed, {plain} absolute");
        let saved = 1.0 - packed / plain;
        assert!(
            v1.protocol != Protocol::Msync2 || saved >= 0.40,
            "{case}: only {:.1} % of the bytes saved",
            saved * 100.0
        );
    }
}
