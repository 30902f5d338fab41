//! Golden runs: per-run fingerprints of everything a node reports, pinned
//! across commits.
//!
//! The replay tests compare two runs of the same build; the `BENCH_*`
//! baselines gate aggregate numbers within a tolerance and have no churn
//! cell. This file pins the exact per-node outcome — game result, virtual
//! timing, traffic, membership and recovery counters, final replica — of
//! static, churn, churn + chaos, crash and chaos runs on the simulated
//! testbed, so a driver refactor that claims "no behaviour change" is
//! checked bit for bit.
//!
//! The constants were recorded at commit `ba53507` from the three per-plan
//! node entry points that existed then (static, churn, crash — each on a
//! hand-built `SimCluster`). A legitimate behaviour change re-records them
//! and says so; a refactor only ever touches the call sites in `play`.

use sdso_core::{MembershipPlan, ViewChange, WireConfig};
use sdso_game::block::MIN_BLOCK_BYTES;
use sdso_game::{NodeStats, Protocol, RunPlan, Scenario};
use sdso_harness::{
    chaos_plan, chaos_retry_config, default_churn_plan, default_crash_plan, run_planned,
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

fn play(scenario: &Scenario, protocol: Protocol, plan: &RunPlan) -> Vec<NodeStats> {
    run_planned(scenario, protocol, NetworkModel::paper_testbed(), plan)
        .expect("every node finishes")
        .per_node
}

/// Plays each protocol and compares the fold of its per-node fingerprints
/// (node-id order) with the pinned constant; a mismatch lists every
/// protocol's actual value and the per-node fingerprints behind it.
fn check(case: &str, scenario: &Scenario, plan: &RunPlan, golden: &[(Protocol, u64)]) {
    let mut report = String::new();
    let mut ok = true;
    for &(protocol, expected) in golden {
        let per_node: Vec<u64> =
            play(scenario, protocol, plan).iter().map(node_fingerprint).collect();
        let mut run = 0xCBF2_9CE4_8422_2325u64;
        for fp in &per_node {
            fnv1a(&mut run, &fp.to_le_bytes());
        }
        ok &= run == expected;
        report.push_str(&format!("  {protocol}: {run:#018x} (pinned {expected:#018x})\n"));
        report.push_str(&format!("    per node: {per_node:x?}\n"));
    }
    assert!(ok, "{case}: fingerprints moved\n{report}");
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
    check(
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
    );
}

#[test]
fn static_range_3() {
    check(
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
    );
}

#[test]
fn static_sharded_64() {
    check(
        "static, 64 nodes, sharded",
        &Scenario::scaled(64, 1).with_ticks(12),
        &RunPlan::default(),
        &[(Protocol::Msync2Shard, 0x1B51_5A93_261E_0739)],
    );
}

#[test]
fn churn_16_slots_four_changes() {
    check(
        "churn, 16 slots, 4 changes",
        &Scenario::paper(16, 1).with_ticks(24),
        &RunPlan::default().with_membership(four_change_plan()),
        &[
            (Protocol::Entry, 0xCA5F_77FA_7CA4_9631),
            (Protocol::Bsync, 0x0DFF_4E59_2CC2_7816),
            (Protocol::Msync, 0x0C11_61B5_DA73_E2A6),
            (Protocol::Msync2, 0xF968_1BBE_15E2_868B),
        ],
    );
}

#[test]
fn churn_with_chaos_8_slots() {
    check(
        "churn + chaos, 8 slots",
        &Scenario::paper(8, 1).with_ticks(40).with_reliability(chaos_retry_config()),
        &RunPlan::default()
            .with_membership(default_churn_plan(8, 40))
            .with_faults(chaos_plan(0x5D50_1997)),
        &[
            (Protocol::Entry, 0xA730_5737_06C2_30D8),
            (Protocol::Bsync, 0x79F1_B8DA_D59C_ABD0),
            (Protocol::Msync, 0xFAA8_FE42_B399_F840),
            (Protocol::Msync2, 0x56C6_151A_4C75_F234),
        ],
    );
}

#[test]
fn crash_16_teams() {
    check(
        "crash, 16 teams",
        &Scenario::paper(16, 1).with_ticks(24),
        &RunPlan::default().with_faults(default_crash_plan(0x5D50_C4A5, 16, 24)),
        &[
            (Protocol::Entry, 0x6F1F_7168_4BB2_3A3A),
            (Protocol::Bsync, 0x3224_0A2D_6FD7_3211),
            (Protocol::Msync, 0x9D9B_A465_6D6A_66D1),
            (Protocol::Msync2, 0xFBB1_BCE4_D7CE_6462),
        ],
    );
}

#[test]
fn chaos_4_nodes() {
    check(
        "chaos, 4 nodes",
        &Scenario::paper(4, 1).with_ticks(60).with_reliability(chaos_retry_config()),
        &RunPlan::default().with_faults(chaos_plan(0xBAD_CAB1E)),
        &[
            (Protocol::Entry, 0x9F83_C74C_C7B9_D826),
            (Protocol::Bsync, 0x1574_B0C9_7B4F_7717),
            (Protocol::Msync, 0x2C7C_143B_58A1_9C6B),
            (Protocol::Msync2, 0x4AD1_3D4D_782C_F39D),
        ],
    );
}

/// Everything on at once — reliability, codec v2 (XOR-delta, batch dedup)
/// and drop/dup/reorder — recorded at commit `28dcfa5`, before the ARQ and
/// codec state moved out of the runtime into `core::session`.
#[test]
fn chaos_4_nodes_codec_v2() {
    check(
        "chaos + codec v2, 4 nodes",
        &Scenario::paper(4, 1)
            .with_ticks(60)
            .with_reliability(chaos_retry_config())
            .with_wire(WireConfig::compressed()),
        &RunPlan::default().with_faults(chaos_plan(0xBAD_CAB1E)),
        &[
            (Protocol::Entry, 0x9F83_C74C_C7B9_D826),
            (Protocol::Bsync, 0x1339_BB75_0431_B6F5),
            (Protocol::Msync, 0x94D5_FB9F_6A5C_F3F8),
            (Protocol::Msync2, 0xC9B1_23B5_C5AE_E86C),
        ],
    );
}

/// As [`chaos_4_nodes_codec_v2`], with view changes on top.
#[test]
fn churn_with_chaos_8_slots_codec_v2() {
    check(
        "churn + chaos + codec v2, 8 slots",
        &Scenario::paper(8, 1)
            .with_ticks(40)
            .with_reliability(chaos_retry_config())
            .with_wire(WireConfig::compressed()),
        &RunPlan::default()
            .with_membership(default_churn_plan(8, 40))
            .with_faults(chaos_plan(0x5D50_1997)),
        &[
            (Protocol::Entry, 0xA730_5737_06C2_30D8),
            (Protocol::Bsync, 0xC468_0129_8AED_3E6F),
            (Protocol::Msync, 0x2A90_84F5_984E_FE54),
            (Protocol::Msync2, 0x84CE_B992_2E1A_3ECD),
        ],
    );
}
