//! Transport-equivalence tests: the same protocol code must behave
//! identically (at the logical level) over the reactor's sockets and the
//! virtual-time simulator.

#![cfg(unix)]

use sdso_core::{DsoConfig, EveryTick, ObjectId, ObsSet, RetryConfig, SdsoRuntime};
use sdso_game::{run_node, run_node_with, Protocol, RunPlan, Scenario};
use sdso_harness::transports::local_cluster;
use sdso_net::reactor::ReactorMesh;
use sdso_net::{Endpoint, EventKind, NetMetricsSnapshot, Payload, TraceConfig, TransportKind};
use sdso_protocols::Lookahead;
use sdso_sim::{NetworkModel, SimCluster, SimEndpoint};

/// Per-node (score, modifications, messages sent), sorted.
type Outcome = Vec<(i64, u64, u64)>;

/// Plays a small game of `protocol` over real endpoints, each on a thread
/// of its own.
fn play_game<E: Endpoint + 'static>(
    endpoints: Vec<E>,
    scenario: &Scenario,
    protocol: Protocol,
) -> Outcome {
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let s = scenario.clone();
            std::thread::spawn(move || {
                let stats = run_node(ep, &s, protocol).expect("game run");
                (stats.score, stats.modifications, stats.net.total_sent())
            })
        })
        .collect();
    let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_by_key(|&(score, mods, _)| (score, mods));
    results
}

/// Plays the same game on the simulator over `model`.
fn simulate_game(scenario: &Scenario, protocol: Protocol, model: NetworkModel) -> Outcome {
    let scenario = scenario.clone();
    let run = SimCluster::new(usize::from(scenario.teams), model)
        .run(move |ep| Ok(run_node(ep, &scenario, protocol).expect("game run")));
    let mut results: Outcome = run
        .unwrap()
        .into_results()
        .unwrap()
        .into_iter()
        .map(|s| (s.score, s.modifications, s.net.total_sent()))
        .collect();
    results.sort_by_key(|&(score, mods, _)| (score, mods));
    results
}

#[test]
fn every_lookahead_game_is_identical_on_the_simulator_and_the_reactor() {
    // The lookahead rendezvous are logically synchronous, so the *game*
    // (scores, modifications, message counts) must not depend on the
    // transport's timing at all. The reactor cluster is built the way
    // deployment and benchmark code build it: `local_cluster`, boxed
    // endpoints. EC is left out: its lock grants follow arrival order, so
    // its game is not bound to match across transports.
    let scenario = Scenario::paper(3, 1).with_ticks(40);
    for protocol in [Protocol::Bsync, Protocol::Msync, Protocol::Msync2] {
        let instant = simulate_game(&scenario, protocol, NetworkModel::instant());
        let runs = [
            ("paper_testbed", simulate_game(&scenario, protocol, NetworkModel::paper_testbed())),
            ("reactor", play_game(local_cluster(TransportKind, 3).unwrap(), &scenario, protocol)),
        ];
        for (name, outcome) in runs {
            assert_eq!(instant, outcome, "{protocol}: instant simulator vs {name}");
        }
    }
}

#[test]
fn tcp_mesh_supports_the_full_exchange_protocol() {
    let scenario = Scenario::paper(2, 1).with_ticks(25);
    let results = play_game(ReactorMesh::local(2).unwrap(), &scenario, Protocol::Bsync);
    assert_eq!(results.len(), 2);
    for (_, mods, msgs) in results {
        assert!(mods > 0);
        assert!(msgs > 0);
    }
}

#[test]
fn ec_writes_runs_to_one_manager_as_one_write_with_reliability_off_and_on() {
    // EC hands each operation's messages to the session in one call: over
    // real sockets its releases to one manager leave in one write whatever
    // the reliability setting, and the replicas still converge.
    let bare = Scenario::paper(2, 1).with_ticks(25);
    for scenario in [bare.clone(), bare.with_reliability(RetryConfig::default())] {
        let obs = ObsSet::new(2, TraceConfig::counters());
        let plan = RunPlan::default().with_obs(obs.clone());
        let nodes: Vec<_> = ReactorMesh::local(2)
            .unwrap()
            .into_iter()
            .map(|ep| {
                let (scenario, plan) = (scenario.clone(), plan.clone());
                std::thread::spawn(move || run_node_with(ep, &scenario, Protocol::Entry, &plan))
            })
            .collect();
        let stats: Vec<_> =
            nodes.into_iter().map(|h| h.join().unwrap().expect("EC game")).collect();
        let reliability = scenario.reliability;
        assert!(stats.iter().all(|s| s.modifications > 0), "{reliability:?}");
        assert_eq!(stats[0].final_world, stats[1].final_world, "{reliability:?}");
        let batches: u64 =
            (0..2).map(|i| obs.node(i).recorder().counts()[EventKind::BatchSend as usize]).sum();
        assert!(batches > 0, "{reliability:?}: no batched write");
    }
}

/// A `sync_get` round trip over real sockets: B writes, then services A's
/// pull inside `recv_app`, and A reads B's bytes.
#[test]
fn runtime_works_over_tcp_for_puts_and_gets() {
    let mut endpoints = ReactorMesh::local(2).unwrap();
    let b = endpoints.pop().unwrap();
    let a = endpoints.pop().unwrap();

    let tb = std::thread::spawn(move || {
        let mut rt = SdsoRuntime::new(b, DsoConfig::compact());
        rt.share(ObjectId(0), vec![0u8; 8]).unwrap();
        rt.write(ObjectId(0), 0, &[7u8; 8]).unwrap();
        // Answer A's pull, then take its app message.
        let (_, check): (_, ObjectId) = rt.recv_app().unwrap();
        assert_eq!(check, ObjectId(42));
    });

    let mut rt = SdsoRuntime::new(a, DsoConfig::compact());
    rt.share(ObjectId(0), vec![0u8; 8]).unwrap();
    rt.sync_get(1, ObjectId(0)).unwrap();
    assert_eq!(rt.read(ObjectId(0)).unwrap(), &[7u8; 8]);
    rt.send_app(sdso_net::MsgClass::Control, [(1, &ObjectId(42))]).unwrap();
    tb.join().unwrap();
}

#[test]
fn metrics_agree_between_transports_for_identical_traffic() {
    // Send the same frames over the simulator and the reactor: counters
    // must agree.
    fn traffic(a: &mut impl Endpoint) {
        a.send(1, Payload::data(vec![0u8; 100]).with_wire_len(2048)).unwrap();
        a.send(1, Payload::control(vec![0u8; 10])).unwrap();
    }
    let sim = SimCluster::new(2, NetworkModel::instant())
        .run(|mut ep| {
            if ep.node_id() == 0 {
                traffic(&mut ep);
            } else {
                let _ = ep.recv().unwrap();
                let _ = ep.recv().unwrap();
            }
            Ok(ep.metrics())
        })
        .unwrap()
        .into_results()
        .unwrap();
    let tcp: (NetMetricsSnapshot, NetMetricsSnapshot) = {
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        traffic(&mut a);
        let _ = b.recv().unwrap();
        let _ = b.recv().unwrap();
        (a.metrics(), b.metrics())
    };

    assert_eq!(sim[0].data_sent, tcp.0.data_sent);
    assert_eq!(sim[0].control_sent, tcp.0.control_sent);
    assert_eq!(sim[1].data_recv, tcp.1.data_recv);
    assert_eq!(sim[1].control_recv, tcp.1.control_recv);
}

#[test]
fn lookahead_over_the_reactor_matches_sim_visibility() {
    // Writes exchanged over sockets land exactly as on the simulator.
    fn visible<E: Endpoint>(ep: E) -> Vec<u8> {
        let me = ep.node_id();
        let mut rt = SdsoRuntime::new(ep, DsoConfig::paper());
        for id in 0..2u32 {
            rt.share(ObjectId(id), vec![0u8; 4]).unwrap();
        }
        let mut node = Lookahead::new(rt, EveryTick).unwrap();
        node.runtime_mut().write(ObjectId(u32::from(me)), 0, &[me as u8 + 1]).unwrap();
        node.step().unwrap();
        let rt = node.into_runtime();
        (0..2u32).flat_map(|id| rt.read(ObjectId(id)).unwrap().to_vec()).collect()
    }

    let sim = SimCluster::new(2, NetworkModel::instant()).run(|ep: SimEndpoint| Ok(visible(ep)));
    let mut via_sim = sim.unwrap().into_results().unwrap();
    let tcp = local_cluster(TransportKind, 2).unwrap();
    let handles: Vec<_> = tcp.into_iter().map(|ep| std::thread::spawn(|| visible(ep))).collect();
    let mut via_tcp: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    via_sim.sort();
    via_tcp.sort();
    assert_eq!(via_sim, via_tcp);
}
