//! Shard soak: the region-sharded MSYNC2-SHARD protocol on a real
//! reactor-transport mesh with chaos faults injected at the endpoint
//! layer ([`FaultyEndpoint`]), far past the paper's 16-node testbed.
//!
//! Two sizes share one harness, mirroring the reactor soak:
//!
//! * [`shard_soak_32_nodes_smoke`] always runs — a 32-node mesh is ~500
//!   loopback connections, laptop-sized;
//! * [`shard_soak_256_nodes_full`] is `#[ignore]`d and run explicitly by
//!   the `shard-soak` CI job under a hard wall-clock timeout: 256
//!   reactor endpoints (~33k connections, the constructor raises
//!   `RLIMIT_NOFILE`), each node's traffic routed by interest.
//!
//! The oracle is the sharding contract end to end: every replica
//! converges to the identical final world even though live diffs were
//! routed only to interested nodes, faults dropped/duplicated/reordered
//! frames, and a partition isolated node 0 before healing. When
//! `SDSO_SHARD_TRACE` names a file, the merged flight-recorder trace is
//! written there win or lose; the CI job uploads it on failure.

#![cfg(target_os = "linux")]

use sdso_core::{ObsSet, RetryConfig};
use sdso_game::{run_node_with, NodeStats, Protocol, RunPlan, Scenario};
use sdso_net::reactor::ReactorMesh;
use sdso_net::{FaultPlan, FaultyEndpoint, SimInstant, SimSpan, TraceConfig};

/// Seeded drops, duplicates and reordering, plus one partition that
/// isolates node 0 and heals. The window is later and wider than the
/// virtual-time chaos plan's: over real sockets the run reaches it
/// after mesh setup instead of skipping past it.
fn soak_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drop(0.02)
        .with_dup(0.01)
        .with_reorder(0.10, SimSpan::from_millis(2))
        .with_partition(vec![0], SimInstant::from_micros(50_000), SimInstant::from_micros(250_000))
}

fn retry() -> RetryConfig {
    RetryConfig { rto: SimSpan::from_millis(5), max_retries: 2_000 }
}

/// Runs the sharded game on an `n`-node reactor mesh with faults, one
/// thread per node, returning per-node stats. Errors are returned, not
/// panicked, so the caller can dump the trace first.
fn run_soak(n: u16, ticks: u64, obs: &ObsSet) -> Result<Vec<NodeStats>, String> {
    let scenario = Scenario::scaled(n, 1).with_ticks(ticks).with_reliability(retry());
    let plan = RunPlan::default().with_obs(obs.clone());
    let endpoints = ReactorMesh::local(usize::from(n)).map_err(|e| format!("mesh setup: {e}"))?;
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let (s, plan) = (scenario.clone(), plan.clone());
            let faulty = FaultyEndpoint::new(ep, soak_plan(0x5AADD));
            std::thread::spawn(move || {
                run_node_with(faulty, &s, Protocol::Msync2Shard, &plan)
                    .map_err(|e| format!("node run: {e}"))
            })
        })
        .collect();
    let mut stats = Vec::with_capacity(usize::from(n));
    for (id, handle) in handles.into_iter().enumerate() {
        let s = handle.join().map_err(|_| format!("node {id} panicked"))??;
        stats.push(s);
    }
    Ok(stats)
}

/// Runs a soak, writes the flight-recorder trace when `SDSO_SHARD_TRACE`
/// is set, and asserts the sharding contract: faults actually fired,
/// interest routing actually suppressed diffs, and every replica still
/// converged to one world.
fn soak_with_trace(n: u16, ticks: u64) {
    let obs = ObsSet::new(n, TraceConfig::counters());
    let outcome = run_soak(n, ticks, &obs);
    // Best-effort: a trace-write failure must not mask the soak verdict.
    if let Ok(path) = std::env::var("SDSO_SHARD_TRACE") {
        if !path.is_empty() {
            let _ = std::fs::write(&path, obs.chrome_trace());
        }
    }
    let stats = match outcome {
        Ok(stats) => stats,
        Err(why) => panic!("shard soak ({n} nodes) failed: {why}"),
    };
    let drops: u64 = stats.iter().map(|s| s.net.drops_injected).sum();
    assert!(drops > 0, "the fault plan must actually drop frames");
    let suppressed: u64 = stats.iter().map(|s| s.dso.shard_suppressed).sum();
    assert!(suppressed > 0, "interest routing must actually suppress diffs");
    let reference = &stats[0].final_world;
    assert!(!reference.is_empty());
    for s in &stats[1..] {
        assert_eq!(
            &s.final_world, reference,
            "node {} diverged from node 0 despite recovery",
            s.node
        );
    }
}

#[test]
fn shard_soak_32_nodes_smoke() {
    soak_with_trace(32, 6);
}

#[test]
#[ignore = "full-scale soak; run via the shard-soak CI job (cargo test -- --ignored)"]
fn shard_soak_256_nodes_full() {
    soak_with_trace(256, 6);
}
