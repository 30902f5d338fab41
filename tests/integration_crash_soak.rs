//! Crash soak: games under seeded fail-stop crashes with WAL-backed
//! recovery, at two sizes plus a real-transport detection check.
//!
//! * [`crash_soak_16_smoke`] always runs — 16 teams, three seeded
//!   crash/restart events, all four paper protocols;
//! * [`crash_soak_64_full`] is `#[ignore]`d and run explicitly by the
//!   `crash-soak` CI job (`cargo test -- --ignored`);
//! * [`reactor_abrupt_death_is_detected_as_a_leave`] exercises crash
//!   *detection* on the real TCP transport: spokes die abruptly and the
//!   hub's peer events must derive exactly that leave set.
//!
//! When `SDSO_CRASH_TRACE` names a file, the merged flight-recorder trace
//! (Chrome/Perfetto JSON) of every node — recovery and WAL events
//! included — is written there win or lose; the CI job uploads it as an
//! artifact when the job fails.

use sdso_game::{Protocol, RunPlan, Scenario};
use sdso_harness::{converged_in, default_crash_plan, run_planned};
use sdso_net::FaultPlan;
use sdso_obs::{ObsSet, TraceConfig};
use sdso_sim::NetworkModel;

/// Runs one seeded crash soak and returns an error description instead of
/// panicking so the caller can dump the flight-recorder trace first.
fn run_crash_soak(
    n: u16,
    ticks: u64,
    faults: &FaultPlan,
    protocol: Protocol,
    obs: &ObsSet,
) -> Result<(), String> {
    let scenario = Scenario::paper(n, 1).with_ticks(ticks);
    let plan = RunPlan::default().with_faults(faults.clone()).with_obs(obs.clone());
    let stats = run_planned(&scenario, protocol, NetworkModel::paper_testbed(), &plan)
        .map_err(|e| format!("{protocol} node failed: {e}"))?
        .per_node;

    let restarters: Vec<_> =
        faults.crashes.iter().filter(|c| c.restart_tick.is_some()).map(|c| c.node).collect();
    for &node in &restarters {
        let s = &stats[usize::from(node)];
        if s.recoveries != 1 {
            return Err(format!("{protocol}: node {node} recorded {} recoveries", s.recoveries));
        }
        if s.wal_replayed == 0 {
            return Err(format!("{protocol}: node {node} replayed nothing from its WAL"));
        }
        if s.ticks != ticks {
            return Err(format!("{protocol}: restarted node {node} stopped at tick {}", s.ticks));
        }
    }
    // Every final-view member agrees; crashers without a restart need not.
    let gone: Vec<_> =
        faults.crashes.iter().filter(|c| c.restart_tick.is_none()).map(|c| c.node).collect();
    let reference =
        stats.iter().find(|s| !gone.contains(&s.node)).expect("some node survives the plan");
    for s in stats.iter().filter(|s| !gone.contains(&s.node)) {
        if s.final_world != reference.final_world {
            return Err(format!(
                "{protocol}: node {} diverged from node {} after recovery",
                s.node, reference.node
            ));
        }
    }
    Ok(())
}

/// Runs a soak across protocols and, when `SDSO_CRASH_TRACE` is set,
/// writes the merged flight-recorder trace there before reporting.
fn soak_with_trace(n: u16, ticks: u64, crashes: usize, seed: u64, protocols: &[Protocol]) {
    let faults =
        FaultPlan::new(seed).with_seeded_crashes(usize::from(n), crashes, ticks / 6, ticks - 2);
    let obs = ObsSet::new(n, TraceConfig::counters());
    let mut failure = None;
    for &protocol in protocols {
        if let Err(why) = run_crash_soak(n, ticks, &faults, protocol, &obs) {
            failure = Some(why);
            break;
        }
    }
    if let Ok(path) = std::env::var("SDSO_CRASH_TRACE") {
        if !path.is_empty() {
            let _ = std::fs::write(&path, obs.chrome_trace());
        }
    }
    if let Some(why) = failure {
        panic!("crash soak ({n} teams, {crashes} crashes) failed: {why}");
    }
}

#[test]
fn crash_soak_16_smoke() {
    soak_with_trace(16, 24, 3, 0x5D50_C4A5, &Protocol::PAPER);
}

#[test]
#[ignore = "full-scale soak; run via the crash-soak CI job (cargo test -- --ignored)"]
fn crash_soak_64_full() {
    soak_with_trace(64, 36, 6, 0x5D50_C4A5_0064, &[Protocol::Bsync, Protocol::Msync2]);
}

#[test]
fn crash_experiment_is_deterministic_across_replays() {
    let scenario = Scenario::paper(8, 1).with_ticks(16);
    let plan = RunPlan::default().with_faults(default_crash_plan(0xD15C, 8, 16));
    let play =
        || run_planned(&scenario, Protocol::Msync2, NetworkModel::paper_testbed(), &plan).unwrap();
    let (a, b) = (play(), play());
    let final_view = plan.views(&scenario, Protocol::Msync2).unwrap().final_view();
    assert!(converged_in(&a, &final_view));
    for (x, y) in a.per_node.iter().zip(&b.per_node) {
        assert_eq!(x.final_world, y.final_world, "node {}: deterministic final state", x.node);
        assert_eq!(x.score, y.score, "node {}: deterministic score", x.node);
        assert_eq!(x.recovery_time, y.recovery_time, "node {}: deterministic downtime", x.node);
        assert_eq!(x.wal_replayed, y.wal_replayed, "node {}: deterministic replay", x.node);
    }
}

/// Crash *detection* on the real transport: when spokes die abruptly
/// (their process vanishes without a goodbye), the hub's reactor surfaces
/// peer-down events and the membership layer derives exactly the dead
/// nodes as the leave set.
#[cfg(unix)]
#[test]
fn reactor_abrupt_death_is_detected_as_a_leave() {
    use sdso_core::{leave_change_from_events, MembershipPlan};
    use sdso_net::reactor::ReactorMesh;
    use sdso_net::{Endpoint, Payload, PeerEvent};
    use std::time::{Duration, Instant};

    const N: usize = 8;
    const DEAD: [u16; 3] = [2, 5, 7];
    let mut endpoints = ReactorMesh::star(N).expect("star setup");
    let mut hub = endpoints.remove(0);
    // Every spoke announces itself so the hub has live links, then the
    // doomed ones drop their endpoint — an abrupt TCP teardown, the
    // closest a test harness gets to SIGKILL.
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|mut ep| {
            std::thread::spawn(move || {
                let me = ep.node_id();
                ep.send(0, Payload::control(vec![me as u8])).expect("hello");
                if DEAD.contains(&me) {
                    drop(ep);
                    None
                } else {
                    // Survivors park until the hub has seen the deaths.
                    Some((
                        ep,
                        std::sync::mpsc::channel::<()>().1.recv_timeout(Duration::from_secs(30)),
                    ))
                }
            })
        })
        .collect();

    let mut hellos = 0;
    let mut downs: Vec<PeerEvent> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while (hellos < N - 1 || downs.len() < DEAD.len()) && Instant::now() < deadline {
        if hub.recv_deadline(sdso_net::SimSpan::from_millis(200)).expect("hub recv").is_some() {
            hellos += 1;
        }
        downs
            .extend(hub.take_peer_events().into_iter().filter(|e| matches!(e, PeerEvent::Down(_))));
    }
    assert_eq!(hellos, N - 1, "every spoke said hello before the cull");
    let view = MembershipPlan::new(N, 0..N as u16).view_at(0);
    let change = leave_change_from_events(&view, &downs);
    let left: Vec<u16> = change.left.iter().copied().collect();
    assert_eq!(left, DEAD.to_vec(), "the derived leave set is exactly the dead spokes");
    for h in handles {
        let _ = h.join();
    }
}
