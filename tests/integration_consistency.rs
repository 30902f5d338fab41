//! Property-based tests of the consistency machinery's invariants
//! (DESIGN.md §6).

use proptest::prelude::*;
use sdso_core::SFunction;
use sdso_core::{
    Diff, DsoConfig, EveryTick, LogicalTime, ObjectId, SdsoRuntime, SendMode, Version,
};
use sdso_game::{team_positions, Msync, Msync2, Pos, Scenario};
use sdso_net::{Endpoint, NodeId};
use sdso_sim::{NetworkModel, SimCluster};

// ---------------------------------------------------------------------
// Invariant 1: diff algebra
// ---------------------------------------------------------------------

fn buffer_strategy() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Vec<u8>)> {
    (1usize..200).prop_flat_map(|len| {
        (
            proptest::collection::vec(any::<u8>(), len),
            proptest::collection::vec(any::<u8>(), len),
            proptest::collection::vec(any::<u8>(), len),
        )
    })
}

proptest! {
    #[test]
    fn diff_between_then_apply_reconstructs((old, new, _) in buffer_strategy()) {
        let diff = Diff::between(&old, &new);
        let mut patched = old.clone();
        diff.apply(&mut patched).unwrap();
        prop_assert_eq!(patched, new);
    }

    #[test]
    fn diff_merge_equals_sequential_application((base, mid, fin) in buffer_strategy()) {
        let d1 = Diff::between(&base, &mid);
        let d2 = Diff::between(&mid, &fin);
        let merged = d1.merge(&d2);

        let mut via_merge = base.clone();
        merged.apply(&mut via_merge).unwrap();

        let mut sequential = base.clone();
        d1.apply(&mut sequential).unwrap();
        d2.apply(&mut sequential).unwrap();

        prop_assert_eq!(via_merge, sequential);
    }

    #[test]
    fn diff_wire_roundtrip((old, new, _) in buffer_strategy()) {
        let diff = Diff::between(&old, &new);
        let encoded = sdso_net::wire::encode(&diff);
        let decoded: Diff = sdso_net::wire::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, diff);
    }

    #[test]
    fn diff_merge_is_associative_in_effect(
        (a, b, c) in buffer_strategy(),
    ) {
        // (d1 ∘ d2) ∘ d3 and d1 ∘ (d2 ∘ d3) produce the same patched buffer.
        let d1 = Diff::between(&a, &b);
        let d2 = Diff::between(&b, &c);
        let d3 = Diff::between(&c, &a);
        let left = d1.merge(&d2).merge(&d3);
        let right = d1.merge(&d2.merge(&d3));
        let mut via_left = a.clone();
        left.apply(&mut via_left).unwrap();
        let mut via_right = a.clone();
        right.apply(&mut via_right).unwrap();
        prop_assert_eq!(via_left, via_right);
    }
}

// ---------------------------------------------------------------------
// Invariant 4: rendezvous symmetry of the game s-functions
// ---------------------------------------------------------------------

fn pos_strategy() -> impl Strategy<Value = Pos> {
    (0u16..32, 0u16..24).prop_map(|(x, y)| Pos::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn msync_schedules_are_symmetric(pa in pos_strategy(), pb in pos_strategy(), now in 0u64..1000) {
        prop_assume!(pa != pb);
        let scenario = Scenario::paper(2, 1);
        let store = store_with(&scenario, &[(0, pa), (1, pb)]);
        let t = LogicalTime::from_ticks(now);
        let a = Msync::new(0, scenario.clone()).next_exchange(1, t, &store);
        let b = Msync::new(1, scenario.clone()).next_exchange(0, t, &store);
        prop_assert_eq!(a, b);
        let a2 = Msync2::new(0, scenario.clone()).next_exchange(1, t, &store);
        let b2 = Msync2::new(1, scenario).next_exchange(0, t, &store);
        prop_assert_eq!(a2, b2);
    }

    #[test]
    fn msync2_never_schedules_before_msync(pa in pos_strategy(), pb in pos_strategy()) {
        prop_assume!(pa != pb);
        let scenario = Scenario::paper(2, 3);
        let store = store_with(&scenario, &[(0, pa), (1, pb)]);
        let t = LogicalTime::ZERO;
        let m1 = Msync::new(0, scenario.clone()).next_exchange(1, t, &store).unwrap();
        let m2 = Msync2::new(0, scenario).next_exchange(1, t, &store).unwrap();
        prop_assert!(m2 >= m1, "MSYNC2 is a refinement: it may only exchange less often");
    }

    #[test]
    fn sfunction_schedules_are_always_in_the_future(
        pa in pos_strategy(), pb in pos_strategy(), now in 0u64..10_000
    ) {
        prop_assume!(pa != pb);
        let scenario = Scenario::paper(2, 1);
        let store = store_with(&scenario, &[(0, pa), (1, pb)]);
        let t = LogicalTime::from_ticks(now);
        let next = Msync2::new(0, scenario).next_exchange(1, t, &store).unwrap();
        prop_assert!(next > t);
    }
}

fn store_with(scenario: &Scenario, tanks: &[(NodeId, Pos)]) -> sdso_core::ObjectStore {
    let mut store = sdso_core::ObjectStore::new();
    for pos in scenario.grid.iter() {
        let block = tanks
            .iter()
            .find(|&&(_, p)| p == pos)
            .map(|&(team, _)| sdso_game::Block::Tank {
                team,
                tank: 0,
                hp: 2,
                facing: sdso_game::Direction::North,
                fired: None,
            })
            .unwrap_or(sdso_game::Block::Empty);
        store.share(scenario.grid.object_at(pos), block.encode(scenario.block_bytes)).unwrap();
    }
    store
}

// Sanity of the helper itself.
#[test]
fn store_with_places_tanks() {
    let scenario = Scenario::paper(2, 1);
    let store = store_with(&scenario, &[(0, Pos::new(3, 4)), (1, Pos::new(9, 9))]);
    assert_eq!(team_positions(&store, &scenario, 0), vec![Pos::new(3, 4)]);
    assert_eq!(team_positions(&store, &scenario, 1), vec![Pos::new(9, 9)]);
}

// ---------------------------------------------------------------------
// Replica convergence: random concurrent writes + exchange ⇒ equal stores
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn concurrent_whole_object_writes_converge(
        writes_a in proptest::collection::vec((0u32..6, any::<u8>()), 1..12),
        writes_b in proptest::collection::vec((0u32..6, any::<u8>()), 1..12),
    ) {
        // Pad both write sequences to the same length so the BSYNC-style
        // rendezvous count matches on both sides.
        let len = writes_a.len().max(writes_b.len());
        let mut wa = writes_a;
        let mut wb = writes_b;
        while wa.len() < len { wa.push((0, 0)); }
        while wb.len() < len { wb.push((1, 0)); }
        let writes = [wa, wb];

        let run = SimCluster::new(2, NetworkModel::instant()).run(move |ep| {
            let writes = writes[usize::from(ep.node_id())].clone();
            let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
            for id in 0..6u32 {
                rt.share(ObjectId(id), vec![0u8; 4]).unwrap();
            }
            rt.init_schedule(&mut EveryTick).unwrap();
            // Whole-object writes (the documented convergence unit).
            for (obj, value) in writes {
                rt.write(ObjectId(obj), 0, &[value; 4]).unwrap();
                rt.exchange(SendMode::Multicast, &mut EveryTick).unwrap();
            }
            // Drain the tick difference: keep exchanging until both
            // sides have performed the same number of exchanges.
            (0..16)
                .map(|_| ())
                .for_each(|()| {
                    rt.exchange(SendMode::Multicast, &mut EveryTick).unwrap();
                });
            Ok((0..6u32).map(|id| rt.read(ObjectId(id)).unwrap().to_vec()).collect::<Vec<_>>())
        });
        let mut stores = run.unwrap().into_results().unwrap();
        let sb = stores.pop().unwrap();
        let sa = stores.pop().unwrap();
        prop_assert_eq!(sa, sb, "replicas must converge after synchronous exchanges");
    }
}

// ---------------------------------------------------------------------
// Version total order sanity
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn version_order_is_total_and_writer_breaks_ties(
        t1 in 0u64..100, w1 in 0u16..8, t2 in 0u64..100, w2 in 0u16..8
    ) {
        let a = Version::new(LogicalTime::from_ticks(t1), w1);
        let b = Version::new(LogicalTime::from_ticks(t2), w2);
        if t1 != t2 {
            prop_assert_eq!(a < b, t1 < t2);
        } else if w1 != w2 {
            prop_assert_eq!(a < b, w1 < w2);
        } else {
            prop_assert_eq!(a, b);
        }
    }
}
