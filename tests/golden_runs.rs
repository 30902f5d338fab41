//! Golden runs: per-run fingerprints of everything a node reports, pinned
//! across commits.
//!
//! The replay tests compare two runs of the same build. This file pins,
//! across commits, the exact per-node outcome — game result, virtual
//! timing, traffic, membership and recovery counters, final replica — of
//! static, churn, churn + chaos, crash and chaos runs on the simulated
//! testbed, so a driver refactor that claims "no behaviour change" is
//! checked bit for bit.
//!
//! The constants were recorded at commit `ba53507` from the three per-plan
//! node entry points that existed then (static, churn, crash — each on a
//! hand-built `SimCluster`). A legitimate behaviour change re-records them
//! and says so; a refactor only ever touches the call sites in `play`.
//! The four rows that turn the reliability layer on were re-recorded when
//! its ARQ became a sliding window (see `check_reliable`), and the two of
//! them that also negotiate codec v2 again when a v2 rendezvous became one
//! frame; every other row still holds its `ba53507` value.
//!
//! Those `ba53507` rows are the paper's v1 frames, and say so since codec
//! v2 became the library default: their constants did not move, which is
//! the proof that the fallback path is bit-identical. Each has a twin on
//! the default wire (see `check_wires`; the two chaos rows' twins are the
//! `*_codec_v2` rows, whose constants did not move either), recorded when
//! the default flipped, and the lookahead family must play the v1 row's
//! game there.

use sdso_core::{MembershipPlan, ViewChange, WireConfig};
use sdso_game::block::MIN_BLOCK_BYTES;
use sdso_game::{NodeStats, Protocol, RunPlan, Scenario};
use sdso_harness::{
    chaos_plan, chaos_retry_config, converged_in, default_churn_plan, default_crash_plan,
    run_planned, RunSummary,
};
use sdso_sim::NetworkModel;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a-64 over everything one node reports.
fn node_fingerprint(s: &NodeStats) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for word in [
        s.ticks,
        s.modifications,
        s.score as u64,
        s.goals,
        s.deaths,
        s.shots,
        s.exec_time.as_micros(),
        s.compute_time.as_micros(),
        s.net.total_sent(),
        s.net.bytes_sent(),
        s.net_live.bytes_sent(),
        s.dso.exchanges,
        s.dso.view_changes,
        s.recoveries,
        s.wal_replayed,
        s.recovery_time.as_micros(),
    ] {
        fnv1a(&mut hash, &word.to_le_bytes());
    }
    for block in &s.final_world {
        fnv1a(&mut hash, &block.encode(MIN_BLOCK_BYTES));
    }
    hash
}

fn play(scenario: &Scenario, protocol: Protocol, plan: &RunPlan) -> RunSummary {
    run_planned(scenario, protocol, NetworkModel::paper_testbed(), plan)
        .expect("every node finishes")
}

/// Plays each protocol and compares the fold of its per-node fingerprints
/// (node-id order) with the pinned constant; a mismatch lists every
/// protocol's actual value and the per-node fingerprints behind it.
/// Returns the runs, in `golden`'s order.
fn check(
    case: &str,
    scenario: &Scenario,
    plan: &RunPlan,
    golden: &[(Protocol, u64)],
) -> Vec<RunSummary> {
    let mut report = String::new();
    let mut ok = true;
    let mut runs = Vec::new();
    for &(protocol, expected) in golden {
        let run = play(scenario, protocol, plan);
        let per_node: Vec<u64> = run.per_node.iter().map(node_fingerprint).collect();
        runs.push(run);
        let mut run = 0xCBF2_9CE4_8422_2325u64;
        for fp in &per_node {
            fnv1a(&mut run, &fp.to_le_bytes());
        }
        ok &= run == expected;
        report.push_str(&format!("  {protocol}: {run:#018x} (pinned {expected:#018x})\n"));
        report.push_str(&format!("    per node: {per_node:x?}\n"));
    }
    assert!(ok, "{case}: fingerprints moved\n{report}");
    runs
}

/// Whether `protocol` synchronises by rendezvous: its game is decided by
/// what the exchanges deliver, never by how the bytes travelled. (EC's lock
/// order follows message timing; LRC and causal memory never rendezvous.)
fn lookahead(protocol: Protocol) -> bool {
    use Protocol::{Bsync, Msync, Msync2, Msync2Shard};
    matches!(protocol, Bsync | Msync | Msync2 | Msync2Shard)
}

/// Asserts that `run` played `twin`'s game, node by node.
fn assert_same_game(case: &str, run: &RunSummary, twin: &RunSummary, twin_is: &str) {
    for (a, b) in run.per_node.iter().zip(&twin.per_node) {
        assert_eq!(
            (a.ticks, a.modifications, a.score, &a.final_world),
            (b.ticks, b.modifications, b.score, &b.final_world),
            "{case}, {}, node {}: not the game its {twin_is} twin played",
            run.protocol,
            a.node
        );
    }
}

/// A row on the paper's v1 frames, pinned at `ba53507`, and its twin on the
/// default wire (`scenario`'s own). Beside the fingerprints, the lookahead
/// family must play the same game on both. Returns every run, the v1 ones
/// first.
fn check_wires(
    case: &str,
    scenario: &Scenario,
    plan: &RunPlan,
    v1: &[(Protocol, u64)],
    default: &[(Protocol, u64)],
) -> Vec<RunSummary> {
    assert_eq!(scenario.wire, WireConfig::default(), "{case}: the twin runs library defaults");
    let on_v1 = scenario.clone().with_wire(WireConfig::v1());
    let mut runs = check(&format!("{case}, v1 frames"), &on_v1, plan, v1);
    let twins = check(&format!("{case}, default wire"), scenario, plan, default);
    for (run, twin) in twins.iter().zip(&runs).filter(|(run, _)| lookahead(run.protocol)) {
        assert_eq!(run.protocol, twin.protocol, "{case}: the two rows list the same protocols");
        assert_same_game(case, run, twin, "v1");
    }
    runs.extend(twins);
    runs
}

/// A row with the reliability layer on (and link faults for it to repair).
/// Its fingerprints hold `exec_time` and `net.total_sent`, so they move
/// with every change to ack or retransmit traffic — they were last
/// re-recorded when acks began to ride on reverse traffic and each link
/// got its own retransmit timer. What must hold however that traffic
/// moves is asserted beside them: the plan's final view converges, and the
/// lookahead family plays exactly the game of its bare twin — the same
/// scenario and membership plan on the paper's v1 frames, reliability off,
/// no link faults. (EC's lock order follows message timing; convergence is
/// its oracle.)
fn check_reliable(case: &str, bare: &Scenario, plan: &RunPlan, golden: &[(Protocol, u64)]) {
    let reliable = bare.clone().with_reliability(chaos_retry_config());
    let runs = check(case, &reliable, plan, golden);
    let lossless = RunPlan { faults: None, ..plan.clone() };
    let bare_v1 = bare.clone().with_wire(WireConfig::v1());
    for (&(protocol, _), run) in golden.iter().zip(&runs) {
        let last = plan.views(&reliable, protocol).expect("the run validated it").final_view();
        assert!(converged_in(run, &last), "{case}, {protocol}: the final view diverged");
        if lookahead(protocol) {
            assert_same_game(case, run, &play(&bare_v1, protocol, &lossless), "bare v1");
        }
    }
}

/// The 16-slot / 4-change plan of `tests/integration_churn.rs`.
fn four_change_plan() -> MembershipPlan {
    let mut plan = MembershipPlan::new(16, 0..12);
    for (tick, leaver, joiner) in [(5, 1, 12), (9, 4, 13), (13, 7, 14), (17, 10, 15)] {
        plan = plan.with_change(tick, ViewChange::new([joiner], [leaver]));
    }
    plan
}

#[test]
fn static_range_1() {
    check_wires(
        "static, 8 nodes, range 1",
        &Scenario::paper(8, 1).with_ticks(40),
        &RunPlan::default(),
        &[
            (Protocol::Entry, 0x710D_E2D9_116B_0C2B),
            (Protocol::Bsync, 0x58FA_A6F2_02D1_3638),
            (Protocol::Msync, 0xEA9C_C108_4729_2D74),
            (Protocol::Msync2, 0xB720_4728_86A6_7859),
            (Protocol::Lrc, 0x47A3_BCF7_0995_0C70),
            (Protocol::Causal, 0xBAAD_E7BB_B9B4_4C8A),
        ],
        &[
            (Protocol::Entry, 0x710D_E2D9_116B_0C2B),
            (Protocol::Bsync, 0xFF8D_9CF4_E50D_AF68),
            (Protocol::Msync, 0xEDB5_09BA_5B36_86D8),
            (Protocol::Msync2, 0x9BDA_A3DB_9593_F837),
            (Protocol::Lrc, 0x47A3_BCF7_0995_0C70),
            (Protocol::Causal, 0xBAAD_E7BB_B9B4_4C8A),
        ],
    );
}

#[test]
fn static_range_3() {
    check_wires(
        "static, 8 nodes, range 3",
        &Scenario::paper(8, 3).with_ticks(40),
        &RunPlan::default(),
        &[
            (Protocol::Entry, 0x9B01_2377_F485_F46C),
            (Protocol::Bsync, 0x5367_C27C_136E_0350),
            (Protocol::Msync, 0xF698_1CD4_3FC5_7CAD),
            (Protocol::Msync2, 0xA4BE_D1B1_83C2_CCB4),
            (Protocol::Lrc, 0x0E79_FB32_5743_6178),
            (Protocol::Causal, 0x4721_ECD6_BCF0_3B5A),
        ],
        &[
            (Protocol::Entry, 0x9B01_2377_F485_F46C),
            (Protocol::Bsync, 0x790D_224A_2106_5DB8),
            (Protocol::Msync, 0xA24D_440C_CF36_AAB6),
            (Protocol::Msync2, 0x6C7F_469E_685C_A00F),
            (Protocol::Lrc, 0x0E79_FB32_5743_6178),
            (Protocol::Causal, 0x4721_ECD6_BCF0_3B5A),
        ],
    );
}

#[test]
fn static_sharded_64() {
    check_wires(
        "static, 64 nodes, sharded",
        &Scenario::scaled(64, 1).with_ticks(12),
        &RunPlan::default(),
        &[(Protocol::Msync2Shard, 0x1B51_5A93_261E_0739)],
        &[(Protocol::Msync2Shard, 0xDE78_BF1B_8324_C249)],
    );
}

#[test]
fn churn_16_slots_four_changes() {
    check_wires(
        "churn, 16 slots, 4 changes",
        &Scenario::paper(16, 1).with_ticks(24),
        &RunPlan::default().with_membership(four_change_plan()),
        &[
            (Protocol::Entry, 0xCA5F_77FA_7CA4_9631),
            (Protocol::Bsync, 0x0DFF_4E59_2CC2_7816),
            (Protocol::Msync, 0x0C11_61B5_DA73_E2A6),
            (Protocol::Msync2, 0xF968_1BBE_15E2_868B),
        ],
        &[
            (Protocol::Entry, 0xCA5F_77FA_7CA4_9631),
            (Protocol::Bsync, 0x3AD3_9BDA_90CB_D28B),
            (Protocol::Msync, 0x5F56_AD44_870E_E270),
            (Protocol::Msync2, 0x19F2_E585_9BCE_95DE),
        ],
    );
}

#[test]
fn churn_with_chaos_8_slots() {
    check_reliable(
        "churn + chaos, 8 slots",
        &Scenario::paper(8, 1).with_ticks(40).with_wire(WireConfig::v1()),
        &RunPlan::default()
            .with_membership(default_churn_plan(8, 40))
            .with_faults(chaos_plan(0x5D50_1997)),
        &[
            (Protocol::Entry, 0x12AA_EB9A_DFF9_3F4B),
            (Protocol::Bsync, 0x5A49_A4F4_630E_2942),
            (Protocol::Msync, 0x902D_BA55_BFBE_5BCA),
            (Protocol::Msync2, 0xF339_66E4_495B_9C7F),
        ],
    );
}

/// Beside the fingerprints, the recovery contract that holds however they
/// are re-recorded: the final view converges, the plan's one restart is the
/// one recovery, it replays a non-empty log, and the restarted process is
/// away — abrupt death to completed snapshot rejoin — for at most 3 s of
/// virtual time (its scheduled absence is 6 ticks; measured 76–976 ms).
#[test]
fn crash_16_teams() {
    let scenario = Scenario::paper(16, 1).with_ticks(24);
    let plan = RunPlan::default().with_faults(default_crash_plan(0x5D50_C4A5, 16, 24));
    let v1 = [
        (Protocol::Entry, 0x6F1F_7168_4BB2_3A3A),
        (Protocol::Bsync, 0x3224_0A2D_6FD7_3211),
        (Protocol::Msync, 0x9D9B_A465_6D6A_66D1),
        (Protocol::Msync2, 0xFBB1_BCE4_D7CE_6462),
    ];
    let default = [
        (Protocol::Entry, 0x6F1F_7168_4BB2_3A3A),
        (Protocol::Bsync, 0x54F3_2B73_1681_1EEE),
        (Protocol::Msync, 0x9F77_EEF0_EA24_23FC),
        (Protocol::Msync2, 0x5DB4_8BD2_1169_45A0),
    ];
    for run in check_wires("crash, 16 teams", &scenario, &plan, &v1, &default) {
        let protocol = run.protocol;
        let last = plan.views(&scenario, protocol).expect("the run validated it").final_view();
        assert!(converged_in(&run, &last), "{protocol}: the final view diverged");
        let sum = |f: fn(&NodeStats) -> u64| run.per_node.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.recoveries), 1, "{protocol}: one process came back");
        assert!(sum(|s| s.wal_replayed) > 0, "{protocol}: the restart replayed nothing");
        let down = sum(|s| s.recovery_time.as_micros());
        assert!((1..=3_000_000).contains(&down), "{protocol}: away for {down} us");
    }
}

#[test]
fn chaos_4_nodes() {
    check_reliable(
        "chaos, 4 nodes",
        &Scenario::paper(4, 1).with_ticks(60).with_wire(WireConfig::v1()),
        &RunPlan::default().with_faults(chaos_plan(0xBAD_CAB1E)),
        &[
            (Protocol::Entry, 0xC666_24DF_73DF_8CA3),
            (Protocol::Bsync, 0xABB9_07D9_1607_953D),
            (Protocol::Msync, 0x8F6F_B8AF_9B22_66ED),
            (Protocol::Msync2, 0x0E48_F757_E166_1F51),
        ],
    );
}

/// Everything on at once — reliability, codec v2 (XOR-delta, batch dedup)
/// and drop/dup/reorder: [`chaos_4_nodes`] on the default wire. What a
/// negotiated link puts on the wire moves this row and the next; EC never
/// exchanges, so its constants are the v1 twins'.
#[test]
fn chaos_4_nodes_codec_v2() {
    check_reliable(
        "chaos + codec v2, 4 nodes",
        &Scenario::paper(4, 1).with_ticks(60).with_wire(WireConfig::compressed()),
        &RunPlan::default().with_faults(chaos_plan(0xBAD_CAB1E)),
        &[
            (Protocol::Entry, 0xC666_24DF_73DF_8CA3),
            (Protocol::Bsync, 0xC646_FF31_D930_D2F9),
            (Protocol::Msync, 0x90C8_C337_1C99_02D1),
            (Protocol::Msync2, 0x9413_9EA8_7351_F1F5),
        ],
    );
}

/// As [`chaos_4_nodes_codec_v2`], with view changes on top.
#[test]
fn churn_with_chaos_8_slots_codec_v2() {
    check_reliable(
        "churn + chaos + codec v2, 8 slots",
        &Scenario::paper(8, 1).with_ticks(40).with_wire(WireConfig::compressed()),
        &RunPlan::default()
            .with_membership(default_churn_plan(8, 40))
            .with_faults(chaos_plan(0x5D50_1997)),
        &[
            (Protocol::Entry, 0x12AA_EB9A_DFF9_3F4B),
            (Protocol::Bsync, 0x2C92_F44B_D084_1DD7),
            (Protocol::Msync, 0x62FB_C6A0_622D_1886),
            (Protocol::Msync2, 0xCFED_8ED4_EF1D_4BDA),
        ],
    );
}

/// The wire diet alone: no faults, no reliability, 256-byte blocks on
/// payload-sized frames (fixed 2048-byte frames would pad every message to
/// the same size), so the fingerprints hold exactly the bytes and virtual
/// time codec v2 leaves on the 10 Mbps testbed.
#[test]
fn static_codec_v2_fat_blocks() {
    let mut scenario = Scenario::paper(4, 1)
        .with_ticks(120)
        .with_block_bytes(256)
        .with_wire(WireConfig::compressed());
    scenario.frame_wire_len = None;
    check(
        "static + codec v2, 4 nodes, 256-byte blocks",
        &scenario,
        &RunPlan::default(),
        &[
            (Protocol::Entry, 0x9052_2D1D_35ED_2BC2),
            (Protocol::Bsync, 0x9BA1_3B19_750D_A9D5),
            (Protocol::Msync, 0xA3F1_44E6_C7B2_CEFE),
            (Protocol::Msync2, 0x9D4A_190B_035B_2F54),
        ],
    );
}
