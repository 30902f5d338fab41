//! Features in composition at the paper's operating point: the
//! reliability layer when nothing is lost, and the compressed wire against
//! the paper's frames, message by message and across the Ext. H sweep.
//!
//! The compositions with a plan — codec v2 and region sharding under churn
//! and crash, reliability under crash — are rows of the golden matrix
//! (`tests/golden_runs.rs`), which checks what each part of a plan
//! promises on every row.

use sdso_core::{RetryConfig, WireConfig};
use sdso_game::{Protocol, RunPlan, Scenario};
use sdso_harness::{converged_in, run_planned, wire_sweep, RunSummary};
use sdso_net::SimSpan;
use sdso_sim::NetworkModel;

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

/// A fused rendezvous in the books: on the compressed wire the SYNC rides in
/// the v2 data frame from a link's first rendezvous, so against the v1 twin
/// (the same batches, undeduped, in the absolute format) every node sends
/// the same data messages and ends in the same world, the run receives the
/// twin's updates less those v2's dedup folded, and its control messages
/// are exactly the twin's less one per fused rendezvous (standalone acks
/// aside, whose number follows the timing). With
/// reliability on top — the paper's operating point with everything on — the
/// run still beats the bare v1 run's time per modification and BSYNC still
/// retransmits nothing.
#[test]
fn a_fused_rendezvous_is_one_data_message_and_no_control_message() {
    let bare = Scenario::paper(16, 3).with_ticks(24).with_wire(WireConfig::v1());
    let plan = RunPlan::default();
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
                    // EC never exchanges: nothing to fuse.
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
                    control_v1,
                    "{case}: control messages are the twin's, less the fused SYNCs"
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
/// same game; it changes the message flow in one way only — each rendezvous
/// with data is one frame, so v2 sends exactly v1's messages less one per
/// fused rendezvous; MSYNC2 ships at least 40 % fewer bytes on its worst
/// link (measured 95.0 %); and no cell pays more than 2 % over its v1
/// bytes.
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
        assert_eq!(
            v2.total_messages() + fused,
            v1.total_messages(),
            "{case}: messages on v2 with {fused} fused rendezvous against v1"
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
