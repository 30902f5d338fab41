//! End-to-end chaos runs: seeded fault injection (drops, duplication,
//! reordering, a healing partition) on the virtual-time cluster, with the
//! reliability layer recovering every loss. The oracles: all four paper
//! protocols still converge every replica to the identical final world,
//! and the whole faulty run replays bit-identically from its seed.

use sdso_game::{NodeStats, Protocol, RunPlan, Scenario};
use sdso_harness::{chaos_plan, chaos_retry_config as retry, run_planned};
use sdso_net::{FaultPlan, SimInstant};
use sdso_sim::NetworkModel;

fn play_under(scenario: &Scenario, protocol: Protocol, faults: FaultPlan) -> Vec<NodeStats> {
    let plan = RunPlan::default().with_faults(faults);
    run_planned(scenario, protocol, NetworkModel::paper_testbed(), &plan).unwrap().per_node
}

/// Plays under [`chaos_plan`]: ≥5% drops, reordering via hold-back,
/// duplicates, and one partition that isolates node 0 early in the run and
/// then heals.
fn play_chaos(scenario: &Scenario, protocol: Protocol, fault_seed: u64) -> Vec<NodeStats> {
    play_under(scenario, protocol, chaos_plan(fault_seed))
}

#[test]
fn all_paper_protocols_converge_under_chaos() {
    let scenario = Scenario::paper(4, 1).with_ticks(60).with_reliability(retry());
    for protocol in Protocol::PAPER {
        let stats = play_chaos(&scenario, protocol, 0xBAD_CAB1E);
        assert_eq!(stats.len(), 4, "{protocol}: every node survives the faults");

        let drops: u64 = stats.iter().map(|s| s.net.drops_injected).sum();
        assert!(drops > 0, "{protocol}: the plan must actually drop messages");

        let reference = &stats[0].final_world;
        assert!(!reference.is_empty());
        for s in &stats[1..] {
            assert_eq!(
                &s.final_world, reference,
                "{protocol}: node {} diverged from node 0 despite recovery",
                s.node
            );
        }
    }
}

#[test]
fn lookahead_recovery_uses_the_resync_path() {
    let scenario = Scenario::paper(4, 1).with_ticks(60).with_reliability(retry());
    for protocol in [Protocol::Bsync, Protocol::Msync, Protocol::Msync2] {
        let stats = play_chaos(&scenario, protocol, 0xBAD_CAB1E);
        let resyncs: u64 = stats.iter().map(|s| s.dso.resyncs).sum();
        let retransmits: u64 = stats.iter().map(|s| s.dso.retransmits).sum();
        assert!(resyncs > 0, "{protocol}: dropped rendezvous traffic must trigger resyncs");
        assert!(retransmits > 0, "{protocol}: resyncs must retransmit unacked messages");
    }
}

#[test]
fn chaos_runs_replay_bit_identically() {
    let scenario = Scenario::paper(3, 1).with_ticks(50).with_reliability(retry());
    for protocol in [Protocol::Bsync, Protocol::Entry] {
        let a = play_chaos(&scenario, protocol, 0x5EED);
        let b = play_chaos(&scenario, protocol, 0x5EED);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score, y.score, "{protocol}: deterministic score");
            assert_eq!(x.modifications, y.modifications, "{protocol}");
            assert_eq!(x.exec_time, y.exec_time, "{protocol}: deterministic timing");
            assert_eq!(x.net.total_sent(), y.net.total_sent(), "{protocol}: deterministic traffic");
            assert_eq!(
                x.net.drops_injected, y.net.drops_injected,
                "{protocol}: deterministic fault stream"
            );
            assert_eq!(x.final_world, y.final_world, "{protocol}: identical final replicas");
        }
    }
}

#[test]
fn different_fault_seeds_inject_different_faults() {
    let scenario = Scenario::paper(2, 1).with_ticks(40).with_reliability(retry());
    let a: u64 =
        play_chaos(&scenario, Protocol::Bsync, 1).iter().map(|s| s.net.drops_injected).sum();
    let b: u64 =
        play_chaos(&scenario, Protocol::Bsync, 2).iter().map(|s| s.net.drops_injected).sum();
    // Both runs drop something, but the seeded streams differ.
    assert!(a > 0 && b > 0);
    assert_ne!(a, b, "independent seeds should produce distinct drop counts");
}

#[test]
fn a_healing_partition_alone_is_survivable() {
    // No random faults: only the timed partition. Every protocol must stall
    // through the window (resync retransmissions) and converge after it
    // heals.
    let scenario = Scenario::paper(4, 1).with_ticks(40).with_reliability(retry());
    let partition_only = FaultPlan::new(9).with_partition(
        vec![1],
        SimInstant::from_micros(1_000),
        SimInstant::from_micros(6_000),
    );
    for protocol in Protocol::PAPER {
        let stats = play_under(&scenario, protocol, partition_only.clone());
        let drops: u64 = stats.iter().map(|s| s.net.drops_injected).sum();
        assert!(drops > 0, "{protocol}: the partition must sever live traffic");
        let reference = &stats[0].final_world;
        for s in &stats[1..] {
            assert_eq!(&s.final_world, reference, "{protocol}: node {}", s.node);
        }
    }
}
