//! Transport-equivalence tests: the same protocol code must behave
//! identically (at the logical level) over in-process channels, a real TCP
//! mesh (the reactor), and the virtual-time simulator.

#![cfg(unix)]

use sdso_core::{DsoConfig, EveryTick, ObjectId, SdsoRuntime};
use sdso_game::{run_node, Protocol, Scenario};
use sdso_harness::transports::local_cluster;
use sdso_net::memory::MemoryHub;
use sdso_net::reactor::ReactorMesh;
use sdso_net::{Endpoint, NetMetricsSnapshot, TransportKind};
use sdso_protocols::Lookahead;
use sdso_sim::{NetworkModel, SimCluster};

/// Runs a small BSYNC game over any set of endpoints, returning per-node
/// (score, modifications, messages-sent).
fn play_game<E: Endpoint + 'static>(
    endpoints: Vec<E>,
    scenario: &Scenario,
) -> Vec<(i64, u64, u64)> {
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let s = scenario.clone();
            std::thread::spawn(move || {
                let stats = run_node(ep, &s, Protocol::Bsync).expect("game run");
                (stats.score, stats.modifications, stats.net.total_sent())
            })
        })
        .collect();
    let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_by_key(|&(score, mods, _)| (score, mods));
    results
}

#[test]
fn game_outcome_is_identical_across_all_three_transports() {
    // The lookahead rendezvous are logically synchronous, so the *game*
    // (scores, modifications, message counts) must not depend on the
    // transport's timing at all. The TCP mesh is built the way deployment
    // and benchmark code build it: `local_cluster`, boxed endpoints.
    let scenario = Scenario::paper(3, 1).with_ticks(40);

    let memory = play_game(MemoryHub::new(3).into_endpoints(), &scenario);
    let tcp = play_game(local_cluster(TransportKind, 3).unwrap(), &scenario);

    let sim_scenario = scenario.clone();
    let sim_outcome = SimCluster::new(3, NetworkModel::paper_testbed())
        .run(move |ep| {
            run_node(ep, &sim_scenario, Protocol::Bsync).map_err(sdso_net::NetError::from)
        })
        .unwrap();
    let mut sim: Vec<(i64, u64, u64)> = sim_outcome
        .into_results()
        .unwrap()
        .into_iter()
        .map(|s| (s.score, s.modifications, s.net.total_sent()))
        .collect();
    sim.sort_by_key(|&(score, mods, _)| (score, mods));

    assert_eq!(memory, tcp, "memory vs TCP");
    assert_eq!(memory, sim, "memory vs simulator");
}

#[test]
fn game_outcome_is_identical_over_the_reactor() {
    // The reactor multiplexes every peer behind one poll loop on the
    // caller's thread, but at the logical level it must be
    // indistinguishable from in-process channels — typed endpoints here,
    // no boxing.
    let scenario = Scenario::paper(3, 1).with_ticks(40);
    let memory = play_game(MemoryHub::new(3).into_endpoints(), &scenario);
    let reactor = play_game(ReactorMesh::local(3).unwrap(), &scenario);
    assert_eq!(memory, reactor, "memory vs reactor");
}

#[test]
fn config_selected_transport_runs_the_game() {
    // The same path deployment and benchmark code take: the one
    // `TransportKind` (so `DsoConfig` no longer names it), the harness
    // builds the cluster, the game neither knows nor cares.
    let scenario = Scenario::paper(2, 1).with_ticks(20);
    let via_default = play_game(local_cluster(TransportKind, 2).unwrap(), &scenario);
    let via_memory = play_game(MemoryHub::new(2).into_endpoints(), &scenario);
    assert_eq!(via_default, via_memory);
}

#[test]
fn tcp_mesh_supports_the_full_exchange_protocol() {
    let scenario = Scenario::paper(2, 1).with_ticks(25);
    let results = play_game(ReactorMesh::local(2).unwrap(), &scenario);
    assert_eq!(results.len(), 2);
    for (_, mods, msgs) in results {
        assert!(mods > 0);
        assert!(msgs > 0);
    }
}

#[test]
fn runtime_works_over_tcp_for_puts_and_gets() {
    let mut endpoints = ReactorMesh::local(2).unwrap();
    let b = endpoints.pop().unwrap();
    let a = endpoints.pop().unwrap();

    let tb = std::thread::spawn(move || {
        let mut rt = SdsoRuntime::new(b, DsoConfig::compact());
        rt.share(ObjectId(0), vec![0u8; 8]).unwrap();
        // Service A's put, then answer its app message.
        let (_, bytes) = rt.recv_app().unwrap();
        assert_eq!(bytes, b"check");
        assert_eq!(rt.read(ObjectId(0)).unwrap(), &[7u8; 8]);
    });

    let mut rt = SdsoRuntime::new(a, DsoConfig::compact());
    rt.share(ObjectId(0), vec![0u8; 8]).unwrap();
    rt.write(ObjectId(0), 0, &[7u8; 8]).unwrap();
    rt.sync_put(1, ObjectId(0)).unwrap();
    rt.send_app(1, sdso_net::MsgClass::Control, b"check".to_vec()).unwrap();
    tb.join().unwrap();
}

#[test]
fn metrics_agree_between_transports_for_identical_traffic() {
    // Send the same frames over memory and the reactor: counters must agree.
    let run = |snapshotter: &dyn Fn() -> (NetMetricsSnapshot, NetMetricsSnapshot)| snapshotter();

    let memory = run(&|| {
        let mut eps = MemoryHub::new(2).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, sdso_net::Payload::data(vec![0u8; 100]).with_wire_len(2048)).unwrap();
        a.send(1, sdso_net::Payload::control(vec![0u8; 10])).unwrap();
        let _ = b.recv().unwrap();
        let _ = b.recv().unwrap();
        (a.metrics(), b.metrics())
    });
    let tcp = run(&|| {
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, sdso_net::Payload::data(vec![0u8; 100]).with_wire_len(2048)).unwrap();
        a.send(1, sdso_net::Payload::control(vec![0u8; 10])).unwrap();
        let _ = b.recv().unwrap();
        let _ = b.recv().unwrap();
        (a.metrics(), b.metrics())
    });

    assert_eq!(memory.0.data_sent, tcp.0.data_sent);
    assert_eq!(memory.0.control_sent, tcp.0.control_sent);
    assert_eq!(memory.1.data_recv, tcp.1.data_recv);
    assert_eq!(memory.1.control_recv, tcp.1.control_recv);
}

#[test]
fn lookahead_over_tcp_matches_memory_visibility() {
    // Writes exchanged over TCP land exactly as over channels.
    fn game(eps: Vec<Box<dyn Endpoint + Send>>) -> Vec<Vec<u8>> {
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    let me = ep.node_id();
                    let mut rt = SdsoRuntime::new(ep, DsoConfig::paper());
                    for id in 0..2u32 {
                        rt.share(ObjectId(id), vec![0u8; 4]).unwrap();
                    }
                    let mut node = Lookahead::new(rt, EveryTick).unwrap();
                    node.runtime_mut().write(ObjectId(u32::from(me)), 0, &[me as u8 + 1]).unwrap();
                    node.step().unwrap();
                    let rt = node.into_runtime();
                    (0..2u32)
                        .flat_map(|id| rt.read(ObjectId(id)).unwrap().to_vec())
                        .collect::<Vec<u8>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    let mem: Vec<Box<dyn Endpoint + Send>> = MemoryHub::new(2)
        .into_endpoints()
        .into_iter()
        .map(|e| Box::new(e) as Box<dyn Endpoint + Send>)
        .collect();
    let tcp = local_cluster(TransportKind, 2).unwrap();

    let mut via_mem = game(mem);
    let mut via_tcp = game(tcp);
    via_mem.sort();
    via_tcp.sort();
    assert_eq!(via_mem, via_tcp);
}
