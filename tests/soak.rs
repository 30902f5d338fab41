//! Soaks: games played long and wide under a plan, with the flight
//! recorder on, on the simulated testbed or on real sockets.
//!
//! One runner, [`soak`], plays a scenario under a plan for each protocol,
//! writes each run's merged flight-recorder trace win or lose
//! (`SDSO_TRACE_DIR`, see `tests/common/trace.rs`), then checks what the
//! plan promises of it (`check_plan`, the golden matrix's check). Three
//! kinds:
//!
//! * crash: seeded fail-stop crashes with journal recovery on the
//!   simulated testbed, all four paper protocols at 16 teams;
//! * shard: MSYNC2-SHARD on a reactor mesh, link faults injected at each
//!   endpoint by [`FaultyEndpoint`] — the only run that injects faults on
//!   real sockets — with a partition that isolates node 0 and heals;
//! * churn: Ext. E's churn plan under the chaos plan, 200 ticks.
//!
//! The smoke sizes always run. Every full-scale soak is `#[ignore]`d and
//! named `soak_<kind>_…`, so `cargo test --release -p sdso-harness --
//! --ignored soak_` runs them all, and CI's `soak` job runs one kind per
//! matrix entry, beside the reactor soak (`integration_reactor_soak.rs`).

#![cfg(unix)]

use sdso_game::{run_node_with, Protocol, RunPlan, Scenario};
use sdso_harness::{chaos_plan, chaos_retry_config, default_churn_plan, run_planned, RunSummary};
use sdso_net::reactor::ReactorMesh;
use sdso_net::{FaultPlan, FaultyEndpoint, SimInstant, SimSpan};
use sdso_obs::{ObsSet, TraceConfig};
use sdso_sim::NetworkModel;

#[path = "common/plans.rs"]
mod plans;
#[path = "common/trace.rs"]
mod trace;

/// How a soak plays one protocol: the run, or why it failed.
type Play = fn(&Scenario, Protocol, &RunPlan) -> Result<RunSummary, String>;

/// On the simulated testbed, which injects the plan's link faults.
fn simulated(
    scenario: &Scenario,
    protocol: Protocol,
    plan: &RunPlan,
) -> Result<RunSummary, String> {
    run_planned(scenario, protocol, NetworkModel::paper_testbed(), plan).map_err(|e| e.to_string())
}

/// On a reactor mesh, one thread per node, each endpoint wrapped in a
/// [`FaultyEndpoint`] that injects the plan's link faults.
fn on_sockets(
    scenario: &Scenario,
    protocol: Protocol,
    plan: &RunPlan,
) -> Result<RunSummary, String> {
    let nodes = usize::from(scenario.teams);
    let faults = plan.faults.clone().unwrap_or_else(|| FaultPlan::new(0));
    let endpoints = ReactorMesh::local(nodes).map_err(|e| format!("mesh setup: {e}"))?;
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let (scenario, plan) = (scenario.clone(), plan.clone());
            let faulty = FaultyEndpoint::new(ep, faults.clone());
            std::thread::spawn(move || {
                run_node_with(faulty, &scenario, protocol, &plan).map_err(|e| e.to_string())
            })
        })
        .collect();
    let mut per_node = Vec::with_capacity(nodes);
    for (id, handle) in handles.into_iter().enumerate() {
        per_node.push(handle.join().map_err(|_| format!("node {id} panicked"))??);
    }
    Ok(RunSummary { protocol, nodes, range: scenario.range, per_node })
}

/// Plays `scenario` under `plan` for each of `protocols` in turn: writes
/// the run's trace as `<name>-<protocol>`, then fails on a run that failed
/// and checks what the plan promises of one that did not. Each run records
/// into an `ObsSet` of its own, whose registry holds the run's counters.
fn soak(name: &str, scenario: &Scenario, plan: &RunPlan, protocols: &[Protocol], play: Play) {
    for &protocol in protocols {
        let obs = ObsSet::new(scenario.teams, TraceConfig::counters());
        let plan = plan.clone().with_obs(obs.clone());
        let run = play(scenario, protocol, &plan);
        trace::write_trace(&format!("{name}-{protocol}"), &obs, false);
        let run = run.unwrap_or_else(|why| panic!("{name}, {protocol} failed: {why}"));
        plans::check_plan(name, scenario, &plan, &run);
    }
}

/// `crashes` seeded crash/restart events among `n` teams over `ticks`.
fn crash_soak(name: &str, n: u16, ticks: u64, crashes: usize, seed: u64, protocols: &[Protocol]) {
    let faults =
        FaultPlan::new(seed).with_seeded_crashes(usize::from(n), crashes, ticks / 6, ticks - 2);
    let scenario = Scenario::paper(n, 1).with_ticks(ticks);
    soak(name, &scenario, &RunPlan::default().with_faults(faults), protocols, simulated);
}

#[test]
fn crash_soak_16_smoke() {
    crash_soak("crash_soak_16_smoke", 16, 24, 3, 0x5D50_C4A5, &Protocol::PAPER);
}

#[test]
#[ignore = "full-scale soak; run via CI's soak job (cargo test -- --ignored soak_)"]
fn soak_crash_64_teams() {
    let protocols = [Protocol::Bsync, Protocol::Msync2];
    crash_soak("soak_crash_64_teams", 64, 36, 6, 0x5D50_C4A5_0064, &protocols);
}

/// Sharding's interest routing over real sockets for 6 ticks, under
/// seeded drops, duplicates and reordering, plus one partition that
/// isolates node 0 and heals. The window is later and wider than the
/// simulated chaos plan's: over real sockets the run reaches it after mesh
/// setup instead of skipping past it.
fn shard_soak(name: &str, n: u16) {
    let faults = FaultPlan::new(0x5AADD)
        .with_drop(0.02)
        .with_dup(0.01)
        .with_reorder(0.10, SimSpan::from_millis(2))
        .with_partition(vec![0], SimInstant::from_micros(50_000), SimInstant::from_micros(250_000));
    let scenario = Scenario::scaled(n, 1).with_ticks(6).with_reliability(chaos_retry_config());
    let plan = RunPlan::default().with_faults(faults);
    soak(name, &scenario, &plan, &[Protocol::Msync2Shard], on_sockets);
}

/// A 32-node mesh is ~500 socket pairs, laptop-sized.
#[test]
fn shard_soak_32_nodes_smoke() {
    shard_soak("shard_soak_32_nodes_smoke", 32);
}

/// 256 reactor endpoints, ~33k socket pairs (the mesh raises
/// `RLIMIT_NOFILE`).
#[test]
#[ignore = "full-scale soak; run via CI's soak job (cargo test -- --ignored soak_)"]
fn soak_shard_256_nodes() {
    shard_soak("soak_shard_256_nodes", 256);
}

/// Ext. E's faulty table as a soak: two staggered leave+join barriers
/// under the chaos plan, every protocol with a view-change barrier.
#[test]
#[ignore = "full-scale soak; run via CI's soak job (cargo test -- --ignored soak_)"]
fn soak_churn_8_slots_200_ticks() {
    let scenario = Scenario::paper(8, 1).with_ticks(200).with_reliability(chaos_retry_config());
    let plan = RunPlan::default()
        .with_membership(default_churn_plan(8, 200))
        .with_faults(chaos_plan(0x5D50_1997));
    soak("soak_churn_8_slots_200_ticks", &scenario, &plan, &Protocol::PAPER, simulated);
}
