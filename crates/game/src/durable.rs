//! Stable storage for crash runs: the journal a process keeps while alive
//! and re-opens when it restarts, and the membership views a crash
//! schedule plays out as.
//!
//! A [`Journal`] holds what a disk would: two image slots. After every
//! completed tick the driver writes one self-checking image of the
//! process's identity, clock frontier and game state into the slot that
//! does not hold the newest image. The driver holds the journal across a
//! process's incarnations, the way a disk outlives a reboot, and keeps one
//! only when the run's plan has crashes — static and churn runs journal
//! nothing and pay nothing.
//!
//! An image is little-endian, between a header and a checksum trailer:
//!
//! ```text
//! ["SDSN"][version: u8][node: u32][tick: u64][time: u64][lamport: u64]
//! [app_len: u32][app: app_len bytes][crc32(node..app): u32]
//! ```
//!
//! A crash can tear the write in progress anywhere, or leave garbage from a
//! sector rewrite. That slot then fails its checksum, and
//! [`Journal::reopen`] takes the other: recovery loses at most the tick
//! whose write was torn, and never reads a half-written image.

use sdso_core::{DsoError, MembershipPlan, Obs, SdsoRuntime, ViewChange};
use sdso_net::{Endpoint, FaultPlan, NodeId, SimSpan};
use sdso_obs::EventKind;

/// CRC-32 (IEEE 802.3, reflected) of `bytes`. Bitwise, table-free: one
/// small image is written per tick.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A bounds-checked little-endian cursor; every read is `None` past the
/// end of the input.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// `value` if the whole input was consumed, else `None`.
    fn end<T>(self, value: T) -> Option<T> {
        (self.pos == self.data.len()).then_some(value)
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.data.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn node(&mut self) -> Option<NodeId> {
        NodeId::try_from(self.u32()?).ok()
    }

    /// A `u32` length, then that many bytes.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

const MAGIC: &[u8; 4] = b"SDSN";
/// Version 1 images also carried object bodies, which no run wrote;
/// version 2 carried the membership epoch, which no reader used.
const VERSION: u8 = 3;

/// One process's durable state after a completed tick.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Image {
    node: NodeId,
    /// The tick it was taken after: of two images that decode, the later
    /// one is recovered.
    tick: u64,
    time: u64,
    lamport: u64,
    app: Vec<u8>,
}

impl Image {
    /// Encodes the image between its magic/version header and CRC trailer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(41 + self.app.len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&u32::from(self.node).to_le_bytes());
        for word in [self.tick, self.time, self.lamport] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&(self.app.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.app);
        let crc = crc32(&out[MAGIC.len() + 1..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes an image; `None` when the bytes are missing, torn, or fail
    /// their checksum.
    fn decode(bytes: &[u8]) -> Option<Image> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC || r.u8()? != VERSION {
            return None;
        }
        let body = r.take(bytes.len().checked_sub(MAGIC.len() + 1 + 4)?)?;
        if crc32(body) != r.u32()? {
            return None;
        }
        let mut r = Reader::new(body);
        let (node, tick, time, lamport) = (r.node()?, r.u64()?, r.u64()?, r.u64()?);
        let app = r.bytes()?.to_vec();
        r.end(Image { node, tick, time, lamport, app })
    }
}

/// One process's stable storage: two image slots, as the bytes a disk
/// would hold.
#[derive(Debug, Default)]
pub struct Journal {
    slots: [Vec<u8>; 2],
    /// The slot the next image overwrites: never the one that holds the
    /// newest image.
    next: usize,
}

/// What a restarted incarnation read back from its [`Journal`].
#[derive(Debug)]
pub struct Recovered {
    /// The application state of the newest whole image.
    pub app: Vec<u8>,
    /// Logical-clock frontier.
    pub time: u64,
    /// Lamport frontier.
    pub lamport: u64,
}

impl Journal {
    /// Journals one completed tick: an image of this process's identity,
    /// its clock frontier and the encoded application `state`, written
    /// over the older slot.
    pub fn tick<E: Endpoint>(&mut self, rt: &SdsoRuntime<E>, tick: u64, state: Vec<u8>) {
        let at = rt.now().as_micros();
        rt.obs().record(at, EventKind::ImageWrite, tick as u32, state.len() as u32, 0);
        let (node, time, lamport) = (rt.node_id(), rt.logical_now().as_ticks(), rt.lamport());
        self.slots[self.next] = Image { node, tick, time, lamport, app: state }.encode();
        self.next ^= 1;
    }

    /// Re-reads stable storage after a crash — the newest slot whose image
    /// is whole — and checks the recovered identity is `me`. The next tick
    /// is written over the other slot, so this image outlives it.
    ///
    /// # Errors
    ///
    /// A [`DsoError::ProtocolViolation`] when no slot holds a whole image,
    /// or the image is another process's.
    pub fn reopen(&mut self, me: NodeId) -> Result<Recovered, DsoError> {
        let violation = |why: String| DsoError::ProtocolViolation(why);
        let (slot, image) = (0..2)
            .filter_map(|slot| Some((slot, Image::decode(&self.slots[slot])?)))
            .max_by_key(|(_, image)| image.tick)
            .ok_or_else(|| violation("recovered storage holds no whole image".into()))?;
        if image.node != me {
            return Err(violation(format!(
                "recovered identity {} does not match process {me}",
                image.node
            )));
        }
        self.next = slot ^ 1;
        Ok(Recovered { app: image.app, time: image.time, lamport: image.lamport })
    }
}

/// Counts one completed recovery in the node's metrics registry.
pub(crate) fn record_recovery(obs: &Obs, downtime: SimSpan) {
    obs.registry().counter("dso.recovery.recoveries").add(1);
    obs.registry().counter("dso.recovery.downtime_micros").add(downtime.as_micros());
}

/// The membership views that realise `faults`' crash schedule over a
/// group of `teams` slots that starts full: each crash is a leave at its
/// crash tick, each restart a join at its restart tick, and same-tick
/// events merge into one view change. Survivors run a crash through the
/// ordinary churn machinery; the restart is a late join.
///
/// # Errors
///
/// Describes the first reason the schedule cannot be played: a crash of a
/// node outside the group, a restart not after its crash, a node crashing
/// while already down, or a crash that leaves no live member to donate
/// the restart's snapshot.
pub(crate) fn crash_views(faults: &FaultPlan, teams: usize) -> Result<MembershipPlan, String> {
    let mut events: Vec<(u64, NodeId, bool)> = Vec::new(); // (tick, node, is_join)
    for crash in &faults.crashes {
        if usize::from(crash.node) >= teams {
            return Err(format!("crash of node {} exceeds group capacity {teams}", crash.node));
        }
        events.push((crash.crash_tick, crash.node, false));
        if let Some(restart) = crash.restart_tick {
            if restart <= crash.crash_tick {
                return Err(format!(
                    "node {} restarts at tick {restart}, not after its crash at tick {}",
                    crash.node, crash.crash_tick
                ));
            }
            events.push((restart, crash.node, true));
        }
    }
    events.sort_unstable();

    let mut views = MembershipPlan::static_group(teams);
    let mut down: Vec<NodeId> = Vec::new();
    for same_tick in events.chunk_by(|a, b| a.0 == b.0) {
        let tick = same_tick[0].0;
        let (mut joined, mut left) = (Vec::new(), Vec::new());
        for &(_, node, is_join) in same_tick {
            if is_join {
                // Restarts follow their crash, so the node is down here.
                down.retain(|&n| n != node);
                joined.push(node);
                continue;
            }
            if down.contains(&node) {
                return Err(format!("node {node} crashes twice (second at tick {tick})"));
            }
            down.push(node);
            left.push(node);
            if down.len() == teams {
                return Err(format!(
                    "crash of node {node} at tick {tick} leaves no live member to recover from"
                ));
            }
        }
        views = views.with_change(tick, ViewChange::new(joined, left));
    }
    Ok(views)
}

// The journal's runtime stands on a reactor endpoint that never sends.
#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdso_core::{DsoConfig, LogicalTime};
    use sdso_net::reactor::ReactorMesh;

    fn image(node: NodeId, tick: u64, app: &[u8]) -> Image {
        Image { node, tick, time: tick, lamport: tick ^ 0xFF, app: app.to_vec() }
    }

    /// Journals ticks `ticks` for process 0 as the driver does: tick `t`
    /// has the frontier `(t, 10 t)` and the state `[t; len]`.
    fn journal_ticks(journal: &mut Journal, ticks: std::ops::RangeInclusive<u64>, len: usize) {
        let ep = ReactorMesh::local(1).unwrap().remove(0);
        let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
        for t in ticks {
            rt.restore_frontier(LogicalTime::from_ticks(t), 10 * t);
            journal.tick(&rt, t, vec![t as u8; len]);
        }
    }

    fn journal_of(ticks: u64, len: usize) -> Journal {
        let mut journal = Journal::default();
        journal_ticks(&mut journal, 1..=ticks, len);
        journal
    }

    /// The tick whose image `journal` recovers for process 0, checking that
    /// its frontier and state came from that one image; `None` for a typed
    /// violation.
    fn recovered_tick(journal: &mut Journal) -> Option<u64> {
        match journal.reopen(0) {
            Ok(rec) => {
                let t = u64::from(rec.app[0]);
                assert!(rec.app.iter().all(|&b| u64::from(b) == t), "one tick's state");
                assert_eq!((rec.time, rec.lamport), (t, 10 * t), "and that tick's frontier");
                Some(t)
            }
            Err(DsoError::ProtocolViolation(_)) => None,
            Err(e) => panic!("not a typed violation: {e:?}"),
        }
    }

    /// What a copy of `journal` recovers once `damage` has hit the slot
    /// its newest image went to.
    fn recover_after(journal: &Journal, damage: impl FnOnce(&mut Vec<u8>)) -> Option<u64> {
        let mut copy = Journal { slots: journal.slots.clone(), next: journal.next };
        damage(&mut copy.slots[journal.next ^ 1]);
        recovered_tick(&mut copy)
    }

    /// The header and CRC trailer around `body`, as [`Image::encode`]
    /// seals them.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut out = [&MAGIC[..], &[VERSION], body].concat();
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out
    }

    /// The decoder's contract on any input: it never panics, and whatever
    /// it accepts re-encodes to exactly the bytes it was given.
    fn check_decode(input: &[u8]) -> Result<(), TestCaseError> {
        if let Some(img) = Image::decode(input) {
            prop_assert_eq!(img.encode(), input.to_vec(), "accepted {:?}", img);
        }
        Ok(())
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn image_round_trips() {
        for app in [&b"core-state"[..], b""] {
            let img = image(2, 31, app);
            assert_eq!(Image::decode(&img.encode()), Some(img));
        }
    }

    #[test]
    fn torn_or_corrupt_image_is_rejected() {
        let encoded = image(2, 31, b"core-state").encode();
        for cut in [0, 3, 5, encoded.len() / 2, encoded.len() - 1] {
            assert_eq!(Image::decode(&encoded[..cut]), None, "torn at {cut}");
        }
        let mut flipped = encoded.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert_eq!(Image::decode(&flipped), None, "interior corruption");
        assert_eq!(Image::decode(b"not a snapshot"), None);
    }

    #[test]
    fn trailing_garbage_and_truncation_are_rejected() {
        let encoded = image(1, 4, b"state").encode();
        let body = &encoded[MAGIC.len() + 1..encoded.len() - 4];
        assert_eq!(Image::decode(&sealed(body)), Some(image(1, 4, b"state")));
        let long = [body, &[0]].concat();
        assert_eq!(Image::decode(&sealed(&long)), None, "a sealed trailing byte");
        assert_eq!(Image::decode(&sealed(&body[..body.len() - 1])), None, "a sealed short body");
        let mut old = sealed(body);
        old[MAGIC.len()] = VERSION - 1;
        assert_eq!(Image::decode(&old), None, "another version");
    }

    #[test]
    fn absurd_length_header_is_corruption_not_allocation() {
        let encoded = image(1, 4, b"ok").encode();
        let mut body = encoded[MAGIC.len() + 1..encoded.len() - 4].to_vec();
        let len_at = body.len() - 2 - 4;
        body[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Image::decode(&sealed(&body)), None);
    }

    #[test]
    fn round_trips_records_in_order() {
        // A reopen after each tick reads that tick, whichever slot it went
        // to, and does not disturb the alternation.
        let mut journal = Journal::default();
        assert_eq!(recovered_tick(&mut journal), None, "an empty disk");
        for t in 1..=5 {
            journal_ticks(&mut journal, t..=t, 3);
            assert_eq!(recovered_tick(&mut journal), Some(t));
        }
    }

    #[test]
    fn append_crash_recover_round_trip() {
        let mut journal = journal_of(2, 3);
        assert_eq!(recovered_tick(&mut journal), Some(2));
        let Err(DsoError::ProtocolViolation(why)) = journal.reopen(1) else {
            panic!("another process's journal must not recover");
        };
        assert!(why.contains("does not match"), "{why}");
    }

    #[test]
    fn torn_snapshot_falls_back_to_none() {
        let journal = journal_of(1, 3);
        assert_eq!(recover_after(&journal, |slot| slot.truncate(slot.len() / 2)), None);
    }

    #[test]
    fn append_after_torn_open_continues_cleanly() {
        let mut journal = journal_of(3, 3);
        let torn = journal.next ^ 1;
        journal.slots[torn].truncate(10);
        assert_eq!(recovered_tick(&mut journal), Some(2));
        // Tick 4 goes over the torn slot, not over tick 2's image...
        journal_ticks(&mut journal, 4..=4, 3);
        assert_eq!(journal.next ^ 1, torn);
        assert_eq!(recovered_tick(&mut journal), Some(4));
        // ...so tearing it too still leaves tick 2.
        assert_eq!(recover_after(&journal, |slot| slot.truncate(10)), Some(2));
    }

    #[test]
    fn journal_recovers_the_previous_tick_from_a_slot_torn_at_every_byte() {
        // The first tick has no earlier image to fall back to; every later
        // one falls back to the tick before it.
        for ticks in [1, 2, 5] {
            let journal = journal_of(ticks, 3);
            let previous = ticks.checked_sub(1).filter(|&t| t > 0);
            let len = journal.slots[journal.next ^ 1].len();
            assert_eq!(recover_after(&journal, |_| {}), Some(ticks), "{ticks} ticks, whole");
            for cut in 0..len {
                let got = recover_after(&journal, |slot| slot.truncate(cut));
                assert_eq!(got, previous, "{ticks} ticks, torn at {cut}");
            }
            for at in 0..len {
                for flip in [0x01, 0x80, 0xFF] {
                    let got = recover_after(&journal, |slot| slot[at] ^= flip);
                    assert_eq!(got, previous, "{ticks} ticks, {flip:#x} at byte {at}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_payloads_decode_canonically_or_not_at_all(
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            check_decode(&sealed(&body))?;
        }

        #[test]
        fn damaged_records_decode_canonically_or_not_at_all(
            (node, tick) in (any::<u16>(), any::<u64>()),
            app in proptest::collection::vec(any::<u8>(), 0..16),
            pos_permille in 0u64..1000,
            flip in any::<u8>(),
            cut in any::<bool>(),
        ) {
            // Damage the body and seal it again, so the parser, not the
            // checksum, has to refuse it.
            let encoded = image(node, tick, &app).encode();
            let mut body = encoded[MAGIC.len() + 1..encoded.len() - 4].to_vec();
            let pos = (body.len() * pos_permille as usize) / 1000;
            if cut {
                body.truncate(pos);
            } else {
                body[pos] ^= flip;
            }
            check_decode(&sealed(&body))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Tearing the newest image anywhere recovers a prefix of the
        /// journalled ticks: all of them, or all but the torn one.
        #[test]
        fn truncation_anywhere_yields_a_prefix(
            (ticks, len) in (1u64..8, 1usize..40),
            cut_permille in 0u64..=1000,
        ) {
            let journal = journal_of(ticks, len);
            let got = recover_after(&journal, |slot| {
                slot.truncate((slot.len() * cut_permille as usize) / 1000);
            });
            let whole = cut_permille == 1000;
            let expected = if whole { Some(ticks) } else { Some(ticks - 1).filter(|&t| t > 0) };
            prop_assert_eq!(got, expected);
        }

        /// Flipping a byte anywhere in the newest image recovers the tick
        /// before it: corruption cuts, it never fabricates.
        #[test]
        fn corruption_anywhere_yields_a_prefix(
            (ticks, len) in (1u64..8, 1usize..40),
            pos_permille in 0u64..1000,
            flip in 1u8..=255,
        ) {
            let journal = journal_of(ticks, len);
            let got = recover_after(&journal, |slot| {
                let pos = (slot.len() * pos_permille as usize) / 1000;
                slot[pos] ^= flip;
            });
            prop_assert_eq!(got, Some(ticks - 1).filter(|&t| t > 0));
        }
    }

    #[test]
    fn crashes_become_leaves_and_restarts_become_joins() {
        let plan = FaultPlan::new(1).with_crash(2, 5, Some(9)).with_crash(1, 7, None);
        let membership = crash_views(&plan, 4).unwrap();

        assert_eq!(membership.leave_tick_of(2), Some(5));
        assert_eq!(membership.join_tick_of(2), Some(9));
        assert_eq!(membership.leave_tick_of(1), Some(7));
        assert_eq!(membership.join_tick_of(1), None, "no restart, no join");

        let before = membership.view_at(4);
        assert!(before.contains(2));
        let during = membership.view_at(8);
        assert!(!during.contains(2), "down between crash and restart");
        assert!(!during.contains(1));
        let after = membership.final_view();
        assert!(after.contains(2), "restarted");
        assert!(!after.contains(1), "never came back");
        assert_eq!(after.len(), 3);
    }

    #[test]
    fn same_tick_events_merge_into_one_change() {
        let plan = FaultPlan::new(1).with_crash(1, 3, Some(6)).with_crash(2, 6, Some(8));
        let membership = crash_views(&plan, 3).unwrap();
        let change = membership.change_at(6).expect("merged change at tick 6");
        assert!(change.joined.contains(&1), "node 1 rejoins at 6");
        assert!(change.left.contains(&2), "node 2 crashes at 6");
    }

    #[test]
    fn seeded_plans_validate_and_derive() {
        let plan = FaultPlan::new(0xD15EA5E).with_seeded_crashes(16, 4, 4, 40);
        let membership = crash_views(&plan, 16).expect("seeded schedule is realisable");
        let leaves = membership.changes().iter().filter(|(_, c)| !c.left.is_empty()).count();
        let joins = membership.changes().iter().filter(|(_, c)| !c.joined.is_empty()).count();
        assert!(leaves + joins >= plan.crashes.len(), "every crash shows up in the plan");
        assert!(membership.final_view().len() >= 12, "at most 4 stay down");
    }

    #[test]
    fn validation_rejects_bad_schedules() {
        let oob = FaultPlan::new(1).with_crash(9, 2, None);
        assert!(crash_views(&oob, 4).unwrap_err().contains("capacity"));

        let mut wipeout = FaultPlan::new(1);
        wipeout = wipeout.with_crash(0, 2, None).with_crash(1, 3, None);
        assert!(crash_views(&wipeout, 2).unwrap_err().contains("no live member"));
    }
}
