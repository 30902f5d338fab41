//! Property tests of the core data structures' invariants.

use proptest::prelude::*;
use sdso_core::{
    Diff, DirtyRanges, DsoError, ExchangeList, LogicalTime, ObjectId, ObjectStore, SlottedBuffer,
    Version,
};

// ---------------------------------------------------------------------
// ExchangeList: earliest-first ordering, uniqueness, due semantics
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn exchange_list_keeps_one_entry_per_peer(
        ops in proptest::collection::vec((0u16..8, 1u64..100), 0..64)
    ) {
        let mut list = ExchangeList::new();
        let mut expected = std::collections::BTreeMap::new();
        for (peer, time) in ops {
            list.schedule(peer, LogicalTime::from_ticks(time));
            expected.insert(peer, time);
        }
        prop_assert_eq!(list.len(), expected.len());
        for (&peer, &time) in &expected {
            prop_assert_eq!(list.time_for(peer), Some(LogicalTime::from_ticks(time)));
        }
    }

    #[test]
    fn exchange_list_iterates_earliest_first(
        ops in proptest::collection::vec((0u16..16, 1u64..100), 1..64)
    ) {
        let mut list = ExchangeList::new();
        for (peer, time) in ops {
            list.schedule(peer, LogicalTime::from_ticks(time));
        }
        let times: Vec<u64> = list.iter().map(|(t, _)| t.as_ticks()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(times, sorted, "iteration must be time-ordered");
    }

    #[test]
    fn due_splits_the_list_consistently(
        ops in proptest::collection::vec((0u16..16, 1u64..100), 1..64),
        now in 0u64..120,
    ) {
        let mut list = ExchangeList::new();
        for (peer, time) in ops {
            list.schedule(peer, LogicalTime::from_ticks(time));
        }
        let now_t = LogicalTime::from_ticks(now);
        let mut due = Vec::new();
        list.due(now_t, &mut due);
        for peer in &due {
            prop_assert!(list.time_for(*peer).unwrap() <= now_t);
        }
        let due_set: std::collections::BTreeSet<u16> = due.iter().copied().collect();
        for (time, peer) in list.iter() {
            prop_assert_eq!(time <= now_t, due_set.contains(&peer));
        }
    }

    #[test]
    fn remove_then_peek_is_consistent(
        ops in proptest::collection::vec((0u16..8, 1u64..50), 1..32),
        victim in 0u16..8,
    ) {
        let mut list = ExchangeList::new();
        for (peer, time) in &ops {
            list.schedule(*peer, LogicalTime::from_ticks(*time));
        }
        let had = list.time_for(victim).is_some();
        let removed = list.remove(victim);
        prop_assert_eq!(removed.is_some(), had);
        prop_assert_eq!(list.time_for(victim), None);
        if let Some((_, p)) = list.peek_next() {
            prop_assert_ne!(p, victim);
        }
    }
}

// ---------------------------------------------------------------------
// SlottedBuffer: merged slots reproduce sequential application
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn slotted_buffer_merging_preserves_final_state(
        writes in proptest::collection::vec((0u32..4, 0u32..16, any::<u8>()), 1..40)
    ) {
        // Apply the same write sequence (a) directly to a buffer and
        // (b) through the slotted buffer's merged diffs: results match.
        const SIZE: usize = 24;
        let mut direct = vec![vec![0u8; SIZE]; 4];
        let mut buf = SlottedBuffer::new(2, 0, true);

        for (i, &(obj, offset, byte)) in writes.iter().enumerate() {
            let offset = offset % (SIZE as u32 - 1);
            direct[obj as usize][offset as usize] = byte;
            let stamp = Version::new(LogicalTime::from_ticks(i as u64 + 1), 0);
            buf.buffer_for_all(ObjectId(obj), &Diff::single(offset, vec![byte]), stamp, &[]);
        }

        let mut via_slots = vec![vec![0u8; SIZE]; 4];
        for update in buf.drain_slot(1) {
            update.diff.apply(&mut via_slots[update.object.0 as usize]).unwrap();
        }
        prop_assert_eq!(via_slots, direct);
    }

    #[test]
    fn slotted_buffer_unmerged_replay_matches_too(
        writes in proptest::collection::vec((0u32..3, 0u32..8, any::<u8>()), 1..24)
    ) {
        const SIZE: usize = 12;
        let mut direct = vec![vec![0u8; SIZE]; 3];
        let mut buf = SlottedBuffer::new(2, 0, false);
        for (i, &(obj, offset, byte)) in writes.iter().enumerate() {
            let offset = offset % (SIZE as u32 - 1);
            direct[obj as usize][offset as usize] = byte;
            let stamp = Version::new(LogicalTime::from_ticks(i as u64 + 1), 0);
            buf.buffer_for_all(ObjectId(obj), &Diff::single(offset, vec![byte]), stamp, &[]);
        }
        let mut replayed = vec![vec![0u8; SIZE]; 3];
        for update in buf.drain_slot(1) {
            update.diff.apply(&mut replayed[update.object.0 as usize]).unwrap();
        }
        prop_assert_eq!(replayed, direct);
    }
}

// ---------------------------------------------------------------------
// Dirty-range tracking: the change-proportional diff path is
// indistinguishable from the full scan
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn tracked_diff_matches_full_scan(
        size in 16usize..192,
        writes in proptest::collection::vec((0u32..192, 1u32..24, any::<u8>()), 0..24),
    ) {
        // Apply random write spans to an image, recording each span in a
        // DirtyRanges. The range-guided diff must equal the full scan
        // byte for byte — including coalescing across span boundaries.
        let old = vec![0u8; size];
        let mut new = old.clone();
        let mut dirty = DirtyRanges::new();
        for &(off, len, byte) in &writes {
            let off = (off as usize) % size;
            let len = (len as usize).min(size - off);
            for b in &mut new[off..off + len] {
                *b = byte;
            }
            dirty.record(off as u32, len as u32);
        }
        let tracked = Diff::between_ranges(&old, &new, &dirty);
        let full = Diff::between(&old, &new);
        prop_assert_eq!(tracked, full);
    }

    #[test]
    fn tracked_diff_survives_span_overflow(
        writes in proptest::collection::vec((0u32..4096, 1u32..8), 60..120),
    ) {
        // Enough scattered writes overflow the span cap and collapse the
        // tracker to "untracked"; the diff must still be the full scan.
        const SIZE: usize = 4096;
        let old = vec![0u8; SIZE];
        let mut new = old.clone();
        let mut dirty = DirtyRanges::new();
        for &(off, len) in &writes {
            let off = (off as usize) % SIZE;
            let len = (len as usize).min(SIZE - off);
            for b in &mut new[off..off + len] {
                *b = 0xAB;
            }
            dirty.record(off as u32, len as u32);
        }
        prop_assert_eq!(
            Diff::between_ranges(&old, &new, &dirty),
            Diff::between(&old, &new)
        );
    }

    #[test]
    fn merge_in_place_is_equivalent_to_overlay_merge(
        size in 8usize..96,
        old_writes in proptest::collection::vec((0u32..96, 1u32..12, any::<u8>()), 0..12),
        new_writes in proptest::collection::vec((0u32..96, 1u32..12, any::<u8>()), 0..12),
    ) {
        // Build two well-formed diffs from random images and merge them
        // both ways: the in-place run-list merge must produce exactly the
        // diff the allocating overlay merge produces.
        let base = vec![0u8; size];
        let mut img_a = base.clone();
        for &(off, len, byte) in &old_writes {
            let off = (off as usize) % size;
            let len = (len as usize).min(size - off);
            img_a[off..off + len].fill(byte);
        }
        let mut img_b = base.clone();
        for &(off, len, byte) in &new_writes {
            let off = (off as usize) % size;
            let len = (len as usize).min(size - off);
            img_b[off..off + len].fill(byte);
        }
        let older = Diff::between(&base, &img_a);
        let newer = Diff::between(&base, &img_b);

        let overlay = older.merge(&newer);
        let mut in_place = older.clone();
        in_place.merge_in_place(&newer);
        prop_assert_eq!(in_place, overlay);
    }

    #[test]
    fn merging_one_write_in_place_equals_the_overlay_merge(
        size in 8usize..96,
        old_writes in proptest::collection::vec((0u32..96, 1u32..24, any::<u8>()), 0..8),
        (pick, at, len, byte) in (any::<usize>(), any::<u32>(), 0u32..24, any::<u8>()),
        inside in any::<bool>(),
    ) {
        // A write into a pending diff, half the time inside one of its runs
        // (the in-place path: the game rewrites whole blocks), else
        // anywhere. `merge_run` and `merge_in_place` must both produce the
        // overlay merge's diff.
        let base = vec![0u8; size];
        let mut image = base.clone();
        for &(off, len, byte) in &old_writes {
            let off = (off as usize) % size;
            let len = (len as usize).min(size - off);
            image[off..off + len].fill(byte);
        }
        let older = Diff::between(&base, &image);
        let runs: Vec<(u32, usize)> = older.runs().map(|(o, b)| (o, b.len())).collect();
        let (offset, len) = match runs.get(pick % runs.len().max(1)) {
            Some(&(o, run_len)) if inside => {
                let start = at % run_len as u32;
                (o + start, (len as usize).min(run_len - start as usize))
            }
            _ => (at % size as u32, (len as usize).min(size - (at % size as u32) as usize)),
        };
        let bytes = vec![byte; len];
        let newer = Diff::single(offset, bytes.clone());
        let overlay = older.merge(&newer);
        let mut in_place = older.clone();
        in_place.merge_in_place(&newer);
        prop_assert_eq!(&in_place, &overlay);
        let mut one_run = older.clone();
        one_run.merge_run(offset, &bytes);
        prop_assert_eq!(&one_run, &overlay);
    }
}

// ---------------------------------------------------------------------
// Diff: wire fuzz — decoding arbitrary bytes never panics
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn diff_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = sdso_net::wire::decode::<Diff>(&bytes); // Err is fine, panic is not
    }

    #[test]
    fn dso_message_decode_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let _ = sdso_net::wire::decode::<sdso_core::wire::DsoMessage>(&bytes);
    }

    #[test]
    fn envelope_roundtrips_any_seq_and_ack(
        seq in any::<u64>(),
        ack in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use sdso_core::wire::{DsoMessage, Frame};
        let inner = DsoMessage::App { class: sdso_net::MsgClass::Control, bytes: bytes.into() };
        let env = Frame::Env { seq, ack, inner };
        let decoded: Frame = sdso_net::wire::decode(&sdso_net::wire::encode(&env)).unwrap();
        prop_assert_eq!(decoded, env);
    }

    #[test]
    fn garbage_behind_an_envelope_header_never_panics(
        tail in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        // Tag 8 opens an envelope, so the bytes behind it drive the frame
        // decoder through `seq`, `ack` and the enveloped message.
        let bytes: Vec<u8> = std::iter::once(8).chain(tail).collect();
        let _ = sdso_net::wire::decode::<sdso_core::wire::Frame>(&bytes);
    }
}

// ---------------------------------------------------------------------
// SlottedBuffer: per-peer merging is idempotent under duplicates
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn slotted_buffer_per_peer_merge_is_idempotent(
        writes in proptest::collection::vec((0u32..4, 0u32..10, any::<u8>()), 1..32),
        dup_mask in proptest::collection::vec(any::<bool>(), 32),
    ) {
        // Buffering a write twice (a duplicated delivery) must leave every
        // peer's slot with the same merged content as buffering it once:
        // overwrite diffs satisfy merge(d, d) = d, and versions take max.
        const SIZE: usize = 16;
        let mut once = SlottedBuffer::new(3, 0, true);
        let mut twice = SlottedBuffer::new(3, 0, true);
        for (i, &(obj, offset, byte)) in writes.iter().enumerate() {
            let offset = offset % (SIZE as u32 - 1);
            let stamp = Version::new(LogicalTime::from_ticks(i as u64 + 1), 0);
            let diff = Diff::single(offset, vec![byte]);
            once.buffer_for_all(ObjectId(obj), &diff, stamp, &[]);
            twice.buffer_for_all(ObjectId(obj), &diff, stamp, &[]);
            if dup_mask[i % dup_mask.len()] {
                twice.buffer_for_all(ObjectId(obj), &diff, stamp, &[]);
            }
        }
        // Slots are independent per peer: drain both remote peers and
        // compare the replayed bytes object by object.
        for peer in [1u16, 2] {
            let mut from_once = vec![vec![0u8; SIZE]; 4];
            let mut from_twice = vec![vec![0u8; SIZE]; 4];
            for u in once.drain_slot(peer) {
                u.diff.apply(&mut from_once[u.object.0 as usize]).unwrap();
            }
            let drained: Vec<_> = twice.drain_slot(peer).collect();
            for u in &drained {
                u.diff.apply(&mut from_twice[u.object.0 as usize]).unwrap();
            }
            prop_assert_eq!(&from_once, &from_twice, "peer {} diverged", peer);
            // Merging keeps one pending update per touched object.
            let touched: std::collections::BTreeSet<u32> =
                drained.iter().map(|u| u.object.0).collect();
            prop_assert_eq!(drained.len(), touched.len());
        }
    }
}

// ---------------------------------------------------------------------
// ObjectStore: the id-sorted Vec of shared, copy-on-write bodies behaves
// as an ordered map of private copies
// ---------------------------------------------------------------------

/// What the store must hold for one object.
#[derive(Debug, Clone, PartialEq)]
struct ModelReplica {
    data: Vec<u8>,
    version: Version,
}

/// The error (by kind and culprit) a call returned, or `None`.
fn failure<T>(result: &Result<T, DsoError>) -> Option<(&'static str, u32)> {
    match result {
        Ok(_) => None,
        Err(DsoError::AlreadyShared(id)) => Some(("already shared", id.0)),
        Err(DsoError::UnknownObject(id)) => Some(("unknown", id.0)),
        Err(DsoError::OutOfBounds { object, .. }) => Some(("out of bounds", object.0)),
        Err(DsoError::Net(_)) => Some(("codec", 0)),
        Err(other) => panic!("the store never returns {other:?}"),
    }
}

proptest! {
    #[test]
    fn object_store_matches_an_ordered_map_model(
        ops in proptest::collection::vec(
            // (operation, id pick, offset, length, fill byte, (version time, writer))
            (0u8..5, 0usize..12, 0u32..10, 0usize..10, any::<u8>(), (0u64..6, 0u16..3)),
            1..96,
        )
    ) {
        let mut store = ObjectStore::new();
        let mut model: std::collections::BTreeMap<u32, ModelReplica> = Default::default();
        let mut generation = 0u64;
        // The generation at which each object last changed; a share, a
        // stale update and a failed call stamp nothing.
        let mut stamps: std::collections::BTreeMap<u32, u64> = Default::default();
        // Dense, sparse and out-of-order ids; the last two track `len()`,
        // where the dense guess runs off the end or lands on a neighbour.
        let pool = |pick: usize, len: usize| -> u32 {
            match pick {
                0..=5 => [3, 0, 1, 2, 5, 4][pick],
                6 => 7,
                7 => 10,
                8 => 1000,
                9 => u32::MAX,
                10 => len as u32,
                _ => len as u32 + 1,
            }
        };
        for (op, pick, offset, length, byte, (time, writer)) in ops {
            let id = pool(pick, store.len());
            let version = Version::new(LogicalTime::from_ticks(time), writer);
            let bytes = vec![byte; length];
            let known = model.get(&id).cloned();
            let fits = |r: &ModelReplica| offset as usize + length <= r.data.len();
            // Runs the call on the store and works out, from the model
            // alone, what it must have returned and whether it applied.
            let (got, want, applied) = match op {
                0 => {
                    // Bodies repeat often, and some are equal up to their
                    // last byte: the store interns equal registered bodies
                    // and must keep unequal ones apart.
                    let body = match byte % 4 {
                        0 | 1 => vec![byte % 2; length],
                        2 => bytes.clone(),
                        _ => {
                            let mut long = vec![3; 96 + length];
                            long[95 + length] = byte % 3;
                            long
                        }
                    };
                    let got = failure(&store.share(ObjectId(id), body.clone()));
                    let want = known.as_ref().map(|_| ("already shared", id));
                    if known.is_none() {
                        let fresh = ModelReplica { data: body, version: Version::INITIAL };
                        model.insert(id, fresh);
                    }
                    (got, want, false)
                }
                1 => {
                    let got = failure(&store.write(ObjectId(id), offset, &bytes, version));
                    let want = match &known {
                        None => Some(("unknown", id)),
                        Some(r) if !fits(r) => Some(("out of bounds", id)),
                        Some(_) => None,
                    };
                    if want.is_none() {
                        let r = model.get_mut(&id).unwrap();
                        r.data[offset as usize..offset as usize + length].copy_from_slice(&bytes);
                        r.version = r.version.max(version);
                    }
                    (got, want, want.is_none())
                }
                2 | 3 => {
                    // Whole-body replacement, unconditional or newer-only.
                    let result = if op == 2 {
                        store.replace(ObjectId(id), &bytes, version).map(|()| true)
                    } else {
                        store.replace_if_newer(ObjectId(id), &bytes, version)
                    };
                    let stale = op == 3 && known.as_ref().is_some_and(|r| version <= r.version);
                    let want = match &known {
                        None => Some(("unknown", id)),
                        Some(r) if !stale && r.data.len() != length => Some(("out of bounds", id)),
                        Some(_) => None,
                    };
                    let applied = want.is_none() && !stale;
                    prop_assert_eq!(result.as_ref().ok().copied(), want.is_none().then_some(applied));
                    if applied {
                        let r = model.get_mut(&id).unwrap();
                        r.data.copy_from_slice(&bytes);
                        r.version = version;
                    }
                    (failure(&result), want, applied)
                }
                _ => {
                    let diff = Diff::single(offset, bytes.clone());
                    let result = store.apply_remote(ObjectId(id), &diff, version);
                    let stale = known.as_ref().is_some_and(|r| version <= r.version);
                    let want = match &known {
                        None => Some(("unknown", id)),
                        // An empty diff has no run to be out of bounds.
                        Some(r) if !stale && length > 0 && !fits(r) => Some(("codec", 0)),
                        Some(_) => None,
                    };
                    let applied = want.is_none() && !stale;
                    prop_assert_eq!(result.as_ref().ok().copied(), want.is_none().then_some(applied));
                    if applied && length > 0 {
                        let r = model.get_mut(&id).unwrap();
                        r.data[offset as usize..offset as usize + length].copy_from_slice(&bytes);
                    }
                    if applied {
                        model.get_mut(&id).unwrap().version = version;
                    }
                    (failure(&result), want, applied)
                }
            };
            prop_assert_eq!(got, want, "op {} on id {}", op, id);
            generation += u64::from(applied);
            if applied {
                stamps.insert(id, generation);
            }
            prop_assert_eq!(
                store.generation(),
                generation,
                "generation moves by one exactly when bytes or version could have (op {})",
                op
            );

            // The whole table, in order, and every lookup path.
            let listed: Vec<(u32, ModelReplica)> = store
                .iter()
                .map(|(id, r)| {
                    let seen = ModelReplica {
                        data: r.data().to_vec(),
                        version: r.version(),
                    };
                    (id.0, seen)
                })
                .collect();
            prop_assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "iter strictly ascending");
            prop_assert_eq!(&listed, &model.clone().into_iter().collect::<Vec<_>>());
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.is_empty(), model.is_empty());
            for pick in 0..12 {
                let probe = pool(pick, store.len());
                let held = model.get(&probe);
                prop_assert_eq!(store.read(ObjectId(probe)).ok(), held.map(|r| &r.data[..]));
                let replica = store.replica(ObjectId(probe));
                prop_assert_eq!(failure(&replica), held.is_none().then_some(("unknown", probe)));
                prop_assert_eq!(replica.ok().map(|r| r.version()), held.map(|r| r.version));
            }
            // What changed since each generation the store has stood at,
            // in ascending id order, read from the replicas themselves.
            for since in 0..=generation {
                let changed: Vec<(u32, ModelReplica)> = store
                    .changed_since(since)
                    .map(|(id, r)| (id.0, ModelReplica { data: r.data().to_vec(), version: r.version() }))
                    .collect();
                let want: Vec<(u32, ModelReplica)> = stamps
                    .iter()
                    .filter(|&(_, &stamp)| stamp > since)
                    .map(|(&id, _)| (id, model[&id].clone()))
                    .collect();
                prop_assert_eq!(changed, want, "changed since generation {}", since);
            }
        }
    }
}
