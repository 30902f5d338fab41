//! Cross-crate integration tests of the consistency protocols on the
//! virtual-time cluster: its instant network for protocol logic, the
//! paper's testbed for timing.

use std::collections::BTreeSet;

use sdso_core::{DsoConfig, EveryTick, ObjectId, SdsoRuntime};
use sdso_net::{Endpoint, NodeId};
use sdso_protocols::{EntryConsistency, LockRequest, Lookahead};
use sdso_sim::{NetworkModel, SimCluster, SimEndpoint};

/// Runs `f` on every node of an `n`-node instant simulator and hands back
/// what each returned. A node that panics fails the test.
fn simulate<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(SimEndpoint) -> T + Send + Sync + 'static,
{
    let run = SimCluster::new(n, NetworkModel::instant()).run(move |ep| Ok(f(ep)));
    run.unwrap().into_results().unwrap()
}

#[test]
fn bsync_full_visibility_after_every_tick() {
    let results = simulate(4, |ep| {
        let me = ep.node_id();
        let mut rt = SdsoRuntime::new(ep, DsoConfig::paper());
        for id in 0..4u32 {
            rt.share(ObjectId(id), vec![0u8; 8]).unwrap();
        }
        let mut node = Lookahead::new(rt, EveryTick).unwrap();
        for round in 1..=10u8 {
            node.runtime_mut().write(ObjectId(u32::from(me)), 0, &[round]).unwrap();
            node.step().unwrap();
        }
        let rt = node.into_runtime();
        (0..4u32).map(|id| rt.read(ObjectId(id)).unwrap()[0]).collect::<Vec<_>>()
    });
    for values in &results {
        assert_eq!(values, &vec![10, 10, 10, 10], "every write visible everywhere");
    }
}

#[test]
fn bsync_logical_clocks_stay_within_one_tick() {
    // The paper: "all processes' logical clocks are synchronized to within
    // one time-tick". Exercised by checking every node ends at exactly the
    // same logical time after the same number of exchanges.
    let results = simulate(3, |ep| {
        let mut rt = SdsoRuntime::new(ep, DsoConfig::paper());
        rt.share(ObjectId(0), vec![0u8; 4]).unwrap();
        let mut node = Lookahead::new(rt, EveryTick).unwrap();
        for _ in 0..7 {
            node.step().unwrap();
        }
        node.into_runtime().logical_now()
    });
    for time in &results {
        assert_eq!(time.as_ticks(), 7);
    }
}

#[test]
fn entry_consistency_serialises_counter_increments() {
    // A shared counter incremented under an exclusive lock must not lose
    // updates — the classic mutual-exclusion check.
    const ROUNDS: u64 = 20;
    let results = simulate(4, |ep| {
        let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
        rt.share(ObjectId(0), vec![0u8; 8]).unwrap();
        let mut ec = EntryConsistency::new(rt);
        for _ in 0..ROUNDS {
            ec.acquire(&[LockRequest::write(ObjectId(0))]).unwrap();
            let current = u64::from_le_bytes(ec.read(ObjectId(0)).unwrap().try_into().unwrap());
            ec.write(ObjectId(0), 0, &(current + 1).to_le_bytes()).unwrap();
            ec.release_all(&BTreeSet::from([ObjectId(0)])).unwrap();
            ec.service_pending().unwrap();
        }
        ec.finish().unwrap();
        let value = u64::from_le_bytes(ec.read(ObjectId(0)).unwrap().try_into().unwrap());
        (ec.runtime().node_id(), value)
    });
    // The final holder of the lock saw the full count.
    let max = results.iter().map(|&(_, v)| v).max().unwrap();
    assert_eq!(max, 4 * ROUNDS, "no increment lost under exclusive locks");
}

#[test]
fn entry_consistency_read_locks_share() {
    // Multiple readers may hold a lock concurrently; a writer waits. Here
    // we simply verify a mixed workload completes and pulls propagate.
    let results = simulate(3, |ep| {
        let me = ep.node_id();
        let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
        for id in 0..3u32 {
            rt.share(ObjectId(id), vec![0u8; 8]).unwrap();
        }
        let mut ec = EntryConsistency::new(rt);
        for round in 0..10u8 {
            // Write own object, read the next node's object.
            let own = ObjectId(u32::from(me));
            let next = ObjectId(u32::from((me + 1) % 3));
            ec.acquire(&[LockRequest::write(own), LockRequest::read(next)]).unwrap();
            ec.write(own, 0, &[round + 1]).unwrap();
            let _ = ec.read(next).unwrap()[0];
            ec.release_all(&BTreeSet::from([own])).unwrap();
            ec.service_pending().unwrap();
        }
        ec.finish().unwrap();
        ec.read(ObjectId(u32::from((me + 1) % 3))).unwrap()[0]
    });
    // Each node's final pulled copy of its neighbour is a recent value.
    for value in results {
        assert!(value >= 1, "read locks must have pulled fresh neighbour state");
    }
}

#[test]
fn lookahead_protocols_work_on_the_simulator_too() {
    // The identical protocol code must run unchanged over the virtual-time
    // transport — the substitution DESIGN.md relies on.
    let outcome = SimCluster::new(3, NetworkModel::paper_testbed())
        .run(|ep| {
            let me = ep.node_id();
            let mut rt = SdsoRuntime::new(ep, DsoConfig::paper());
            for id in 0..3u32 {
                rt.share(ObjectId(id), vec![0u8; 8])
                    .map_err(|e| sdso_net::NetError::Codec(e.to_string()))?;
            }
            let mut node = Lookahead::new(rt, EveryTick)
                .map_err(|e| sdso_net::NetError::Codec(e.to_string()))?;
            for round in 1..=5u8 {
                node.runtime_mut()
                    .write(ObjectId(u32::from(me)), 0, &[round])
                    .map_err(|e| sdso_net::NetError::Codec(e.to_string()))?;
                node.step().map_err(|e| sdso_net::NetError::Codec(e.to_string()))?;
            }
            Ok(node.into_runtime().now().as_micros())
        })
        .unwrap();
    let clocks: Vec<u64> = outcome.into_results().unwrap();
    // Virtual clocks advanced and are deterministic (same closure, same
    // schedule ⇒ nodes finish in lockstep).
    for &clock in &clocks {
        assert!(clock > 0);
    }
}

#[test]
fn ec_local_manager_fast_path_sends_no_messages() {
    // With one remote peer and an object managed locally + never contended,
    // acquire/release must not generate traffic.
    let results = simulate(2, |ep| {
        let me = ep.node_id();
        let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
        rt.share(ObjectId(0), vec![0u8; 4]).unwrap(); // manager: node 0
        rt.share(ObjectId(1), vec![0u8; 4]).unwrap(); // manager: node 1
        let mut ec = EntryConsistency::new(rt);
        let own = ObjectId(u32::from(me));
        for _ in 0..5 {
            ec.acquire(&[LockRequest::write(own)]).unwrap();
            ec.write(own, 0, &[1]).unwrap();
            ec.release_all(&BTreeSet::from([own])).unwrap();
        }
        let sent_before_finish = ec.runtime().net_metrics().total_sent();
        ec.finish().unwrap();
        (sent_before_finish, ec.metrics().local_grants)
    });
    for (sent, local_grants) in results {
        assert_eq!(sent, 0, "local-manager locks must be message-free");
        assert_eq!(local_grants, 5);
    }
}

#[test]
fn distinct_node_ids_and_cluster_sizes_are_reported() {
    let ids = simulate(5, |ep| (ep.node_id(), ep.num_nodes()));
    let unique: BTreeSet<NodeId> = ids.iter().map(|&(id, _)| id).collect();
    assert_eq!(unique.len(), 5);
    assert!(ids.iter().all(|&(_, n)| n == 5));
}
