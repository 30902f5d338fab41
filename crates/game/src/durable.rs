//! Stable storage for crash runs: the journal a process keeps while alive
//! and re-opens when it restarts, and the membership views a crash
//! schedule plays out as.
//!
//! A [`Journal`] holds the two byte strings a disk would: a write-ahead
//! log and the newest checkpoint image. The driver holds it across a
//! process's incarnations, the way a disk outlives a reboot, and keeps one
//! only when the run's plan has crashes — static and churn runs journal
//! nothing and pay nothing.
//!
//! WAL frames are little-endian:
//!
//! ```text
//! [payload_len: u32][crc32(payload): u32][payload: payload_len bytes]
//! ```
//!
//! A crash can interrupt an append anywhere — a partial header, a partial
//! payload, or garbage from a sector rewrite. [`Journal::reopen`] scans
//! from the front and stops at the first frame that is incomplete, fails
//! its checksum or does not decode as a record, and cuts the log back to
//! there. Recovery therefore always observes a *prefix* of the appended
//! history, never a reordered or interior-corrupted one: an interior
//! corruption cuts the prefix at that point, which is strictly safer than
//! trusting the tail behind it.
//!
//! Every [`CHECKPOINT_EVERY`] ticks the journal folds its state into a
//! self-checking image (magic, version, CRC trailer) and empties the log,
//! bounding replay to one checkpoint interval. A torn image is ignored.

use sdso_core::{DsoError, Epoch, MembershipPlan, Obs, SdsoRuntime, ViewChange};
use sdso_net::{Endpoint, FaultPlan, NodeId, SimSpan};
use sdso_obs::EventKind;

/// Checkpoint cadence: fold the WAL into a snapshot image every this many
/// ticks, bounding replay length to one checkpoint interval.
const CHECKPOINT_EVERY: u64 = 8;

/// Bytes of framing per WAL record: payload length + checksum.
const FRAME_HEADER: usize = 8;

/// Upper bound on a single record's payload; anything larger in a header
/// is treated as corruption (a torn header can otherwise fabricate an
/// absurd length that swallows the rest of the log).
const MAX_RECORD: u32 = 1 << 26;

/// CRC-32 (IEEE 802.3, reflected) of `bytes`. Bitwise, table-free: records
/// are small and appended a few times per tick.
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

/// Appends one framed record payload to `wal`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_RECORD`] bytes.
fn append_frame(wal: &mut Vec<u8>, payload: &[u8]) {
    assert!(payload.len() as u64 <= u64::from(MAX_RECORD), "WAL record too large");
    wal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wal.extend_from_slice(&crc32(payload).to_le_bytes());
    wal.extend_from_slice(payload);
}

/// The frame starting at byte `pos` of `wal`: its payload and the offset
/// just past it. `None` when the frame is incomplete, claims more than
/// [`MAX_RECORD`] bytes, or fails its checksum.
fn frame_at(wal: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let mut r = Reader::new(wal.get(pos..)?);
    let (len, crc) = (r.u32()?, r.u32()?);
    if len > MAX_RECORD {
        return None;
    }
    let payload = r.take(len as usize)?;
    (crc32(payload) == crc).then_some((payload, pos + FRAME_HEADER + payload.len()))
}

/// One committed fact in a process's write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DurRecord {
    /// Who this log belongs to and which membership epoch it last operated
    /// in: logged at the start of each incarnation and after every view
    /// change. Recovery checks the identity before trusting anything else.
    Ident { node: NodeId, epoch: u32 },
    /// A completed tick's logical-clock and Lamport frontiers.
    Tick { time: u64, lamport: u64 },
    /// The application state after a tick ([`crate::GameCore::encode`]
    /// bytes).
    App(Vec<u8>),
}

const TAG_IDENT: u8 = 1;
const TAG_TICK: u8 = 2;
const TAG_APP: u8 = 4;
// Tags 3 (object writes) and 5 (replicated lock-manager entries) are
// retired: they decode to `None` like any unknown tag. Do not reuse them.

impl DurRecord {
    /// Encodes the record as a WAL payload: its tag byte, then its fields.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            DurRecord::Ident { node, epoch } => {
                out.push(TAG_IDENT);
                out.extend_from_slice(&u32::from(*node).to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            DurRecord::Tick { time, lamport } => {
                out.push(TAG_TICK);
                out.extend_from_slice(&time.to_le_bytes());
                out.extend_from_slice(&lamport.to_le_bytes());
            }
            DurRecord::App(bytes) => {
                out.push(TAG_APP);
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    /// Decodes a WAL payload; `None` on any malformed input (recovery
    /// treats that as corruption and stops replay there).
    fn decode(payload: &[u8]) -> Option<DurRecord> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            TAG_IDENT => DurRecord::Ident { node: r.node()?, epoch: r.u32()? },
            TAG_TICK => DurRecord::Tick { time: r.u64()?, lamport: r.u64()? },
            TAG_APP => DurRecord::App(r.bytes()?.to_vec()),
            _ => return None,
        };
        r.end(rec)
    }
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
/// Version 1 images also carried object bodies, which no run wrote.
const VERSION: u8 = 2;

/// A checkpoint: one process's durable state at a tick boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SnapshotImage {
    node: NodeId,
    epoch: u32,
    time: u64,
    lamport: u64,
    app: Vec<u8>,
}

impl SnapshotImage {
    /// Encodes the image between its magic/version header and CRC trailer.
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&u32::from(self.node).to_le_bytes());
        body.extend_from_slice(&self.epoch.to_le_bytes());
        body.extend_from_slice(&self.time.to_le_bytes());
        body.extend_from_slice(&self.lamport.to_le_bytes());
        body.extend_from_slice(&(self.app.len() as u32).to_le_bytes());
        body.extend_from_slice(&self.app);

        let mut out = Vec::with_capacity(body.len() + 9);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Decodes an image; `None` when the bytes are missing, torn, or fail
    /// their checksum (recovery then proceeds without a snapshot).
    fn decode(bytes: &[u8]) -> Option<SnapshotImage> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC || r.u8()? != VERSION {
            return None;
        }
        let body = r.take(bytes.len().checked_sub(MAGIC.len() + 1 + 4)?)?;
        if crc32(body) != r.u32()? {
            return None;
        }
        let mut r = Reader::new(body);
        let (node, epoch, time, lamport) = (r.node()?, r.u32()?, r.u64()?, r.u64()?);
        let app = r.bytes()?.to_vec();
        r.end(SnapshotImage { node, epoch, time, lamport, app })
    }
}

/// One process's stable storage: the write-ahead log and the newest
/// checkpoint image, as the bytes a disk would hold.
#[derive(Debug, Default)]
pub struct Journal {
    wal: Vec<u8>,
    snapshot: Vec<u8>,
}

/// What a restarted incarnation read back from its [`Journal`].
#[derive(Debug)]
pub struct Recovered {
    /// The newest application state logged.
    pub app: Vec<u8>,
    /// Logical-clock frontier.
    pub time: u64,
    /// Lamport frontier.
    pub lamport: u64,
    /// WAL records replayed.
    pub(crate) records: u64,
    /// Bytes cut from the WAL: a torn tail, or everything from the first
    /// record that failed its checksum or did not decode.
    pub(crate) truncated: u64,
}

impl Journal {
    fn append(&mut self, rec: &DurRecord) {
        append_frame(&mut self.wal, &rec.encode());
    }

    /// Replaces the image, then empties the log it supersedes.
    fn checkpoint(&mut self, image: &SnapshotImage) {
        self.snapshot = image.encode();
        self.wal.clear();
    }

    /// Logs the identity this process holds in `epoch`.
    pub fn ident(&mut self, me: NodeId, epoch: Epoch) {
        self.append(&DurRecord::Ident { node: me, epoch: epoch.0 });
    }

    /// Logs one completed tick: the clock frontier and the encoded
    /// application `state` — or, on the checkpoint cadence, an image of
    /// both that replaces the log.
    pub fn tick<E: Endpoint>(&mut self, rt: &SdsoRuntime<E>, tick: u64, state: Vec<u8>) {
        let at = rt.now().as_micros();
        rt.obs().record(at, EventKind::WalAppend, tick as u32, state.len() as u32, 0);
        let (time, lamport) = (rt.logical_now().as_ticks(), rt.lamport());
        if tick % CHECKPOINT_EVERY == 0 {
            let (node, epoch) = (rt.node_id(), rt.membership().epoch().0);
            self.checkpoint(&SnapshotImage { node, epoch, time, lamport, app: state });
        } else {
            self.append(&DurRecord::Tick { time, lamport });
            self.append(&DurRecord::App(state));
        }
    }

    /// Re-reads stable storage after a crash — the WAL's whole-record
    /// prefix replays over the newest checkpoint image, and the log is cut
    /// back to that prefix — and checks the recovered identity is `me`.
    ///
    /// # Errors
    ///
    /// A [`DsoError::ProtocolViolation`] when no identity or no
    /// application state survived, or the identity is another process's.
    pub fn reopen(&mut self, me: NodeId) -> Result<Recovered, DsoError> {
        let violation = |why: String| DsoError::ProtocolViolation(why);
        let image = SnapshotImage::decode(&self.snapshot);
        let mut node = image.as_ref().map(|s| s.node);
        let (mut time, mut lamport) = image.as_ref().map_or((0, 0), |s| (s.time, s.lamport));
        let mut app = image.map(|s| s.app).filter(|a| !a.is_empty());
        let (mut pos, mut records) = (0, 0);
        while let Some((payload, next)) = frame_at(&self.wal, pos) {
            // A framed record that does not decode is corruption the CRC
            // missed, or a format from the future: nothing after it can be
            // trusted.
            let Some(rec) = DurRecord::decode(payload) else { break };
            match rec {
                DurRecord::Ident { node: n, .. } => node = Some(n),
                DurRecord::Tick { time: t, lamport: l } => {
                    time = time.max(t);
                    lamport = lamport.max(l);
                }
                DurRecord::App(bytes) => app = Some(bytes),
            }
            (pos, records) = (next, records + 1);
        }
        let truncated = (self.wal.len() - pos) as u64;
        self.wal.truncate(pos);

        let node =
            node.ok_or_else(|| violation("recovered storage holds no identity record".into()))?;
        if node != me {
            return Err(violation(format!(
                "recovered identity {node} does not match process {me}"
            )));
        }
        let app = app.ok_or_else(|| violation("recovered storage holds no game state".into()))?;
        Ok(Recovered { app, time, lamport, records, truncated })
    }
}

/// Counts one completed recovery in the node's metrics registry.
pub(crate) fn record_recovery(obs: &Obs, records: u64, downtime: SimSpan) {
    obs.registry().counter("dso.recovery.recoveries").add(1);
    obs.registry().counter("dso.recovery.wal_replayed").add(records);
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdso_core::{DsoConfig, LogicalTime};
    use sdso_net::memory::MemoryHub;

    /// A log of raw `payloads`, framed.
    fn wal_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut wal = Vec::new();
        for p in payloads {
            append_frame(&mut wal, p);
        }
        wal
    }

    /// Every whole, checksum-valid payload at the front of `wal`.
    fn scan(wal: &[u8]) -> Vec<Vec<u8>> {
        let (mut pos, mut out) = (0, Vec::new());
        while let Some((payload, next)) = frame_at(wal, pos) {
            out.push(payload.to_vec());
            pos = next;
        }
        out
    }

    fn app(bytes: &[u8]) -> DurRecord {
        DurRecord::App(bytes.to_vec())
    }

    fn image(node: NodeId, epoch: u32, time: u64, lamport: u64, app: &[u8]) -> SnapshotImage {
        SnapshotImage { node, epoch, time, lamport, app: app.to_vec() }
    }

    #[test]
    fn round_trips_records_in_order() {
        let wal = wal_with(&[b"one", b"two", b"", b"three"]);
        assert_eq!(scan(&wal), vec![b"one".to_vec(), b"two".to_vec(), vec![], b"three".to_vec()]);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_whole_record() {
        let mut journal = Journal::default();
        journal.ident(1, Epoch(0));
        journal.append(&app(b"alpha"));
        journal.append(&app(b"beta"));
        // Cut mid-way through the last record's payload.
        journal.wal.truncate(journal.wal.len() - 2);
        let rec = journal.reopen(1).unwrap();
        assert_eq!(rec.app, b"alpha");
        assert_eq!(rec.records, 2);
        assert!(rec.truncated > 0);
        // The log itself was cut back: reopening is clean.
        let rec2 = journal.reopen(1).unwrap();
        assert_eq!((rec2.app, rec2.records, rec2.truncated), (b"alpha".to_vec(), 2, 0));
    }

    #[test]
    fn corrupt_byte_cuts_the_prefix_there() {
        let mut bytes = wal_with(&[b"aaaa", b"bbbb", b"cccc"]);
        // Flip a bit inside the second record's payload.
        let second_payload_at = (FRAME_HEADER + 4) + FRAME_HEADER + 1;
        bytes[second_payload_at] ^= 0x40;
        assert_eq!(scan(&bytes), vec![b"aaaa".to_vec()], "corruption cuts from its record on");
    }

    #[test]
    fn absurd_length_header_is_corruption_not_allocation() {
        let mut bytes = wal_with(&[b"ok"]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(scan(&bytes).len(), 1);
    }

    #[test]
    fn append_after_torn_open_continues_cleanly() {
        let mut journal = Journal::default();
        journal.ident(1, Epoch(0));
        journal.append(&app(b"first"));
        journal.append(&app(b"second"));
        journal.wal.truncate(journal.wal.len() - 3);
        assert_eq!(journal.reopen(1).unwrap().records, 2);
        journal.append(&app(b"third"));
        let rec = journal.reopen(1).unwrap();
        assert_eq!((rec.app, rec.records, rec.truncated), (b"third".to_vec(), 3, 0));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn samples() -> Vec<DurRecord> {
        vec![
            DurRecord::Ident { node: 3, epoch: 7 },
            DurRecord::Tick { time: 42, lamport: 99 },
            app(b"state"),
            app(b""),
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in samples() {
            let encoded = rec.encode();
            assert_eq!(DurRecord::decode(&encoded), Some(rec));
        }
    }

    #[test]
    fn trailing_garbage_and_truncation_are_rejected() {
        for rec in samples() {
            let mut encoded = rec.encode();
            encoded.push(0);
            assert_eq!(DurRecord::decode(&encoded), None, "trailing byte must fail");
            let short = &encoded[..encoded.len() - 2];
            assert_eq!(DurRecord::decode(short), None, "truncated payload must fail");
        }
        assert_eq!(DurRecord::decode(&[]), None);
        assert_eq!(DurRecord::decode(&[200]), None, "unknown tag");
        // An object write as tag 3 used to write it: object, offset,
        // stamp, writer, then the length-prefixed bytes.
        let mut write = vec![3];
        for field in [5u32, 16, 8, 0, 2, 1] {
            write.extend_from_slice(&field.to_le_bytes());
        }
        write.push(9);
        assert_eq!(DurRecord::decode(&write), None, "tag 3 is retired");
        // A lock entry as tag 5 used to write it: term, index, then a
        // grant of lock 4 to node 1.
        let mut retired = vec![5];
        retired.extend_from_slice(&2u64.to_le_bytes());
        retired.extend_from_slice(&11u64.to_le_bytes());
        retired.push(0);
        retired.extend_from_slice(&4u32.to_le_bytes());
        retired.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(DurRecord::decode(&retired), None, "tag 5 is retired");
    }

    /// A record of every kind, built from raw fields.
    fn record(kind: u8, a: u16, b: u32, c: u64, bytes: Vec<u8>) -> DurRecord {
        match kind {
            0 => DurRecord::Ident { node: a, epoch: b },
            1 => DurRecord::Tick { time: c, lamport: c ^ u64::from(b) },
            _ => DurRecord::App(bytes),
        }
    }

    /// The decoder's contract on any input: it never panics, and whatever
    /// it accepts re-encodes to exactly the bytes it was given (so no
    /// payload with retired tag 3 or 5 is accepted).
    fn check_decode(input: &[u8]) -> Result<(), TestCaseError> {
        if let Some(rec) = DurRecord::decode(input) {
            prop_assert_eq!(rec.encode(), input.to_vec(), "accepted {:?}", rec);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_payloads_decode_canonically_or_not_at_all(
            tag in 0u8..=6,
            body in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let mut input = vec![tag];
            input.extend_from_slice(&body);
            check_decode(&input)?;
        }

        #[test]
        fn damaged_records_decode_canonically_or_not_at_all(
            (kind, a, b, c) in (0u8..3, any::<u16>(), any::<u32>(), any::<u64>()),
            bytes in proptest::collection::vec(any::<u8>(), 0..16),
            pos_permille in 0u64..1000,
            flip in any::<u8>(),
            cut in any::<bool>(),
        ) {
            let mut input = record(kind, a, b, c, bytes).encode();
            let pos = (input.len() * pos_permille as usize) / 1000;
            if cut {
                input.truncate(pos);
            } else {
                input[pos] ^= flip;
            }
            check_decode(&input)?;
        }
    }

    /// Payload `i` is `lens[i]` copies of the byte `i + 1`, so a splice or
    /// a shift shows.
    fn indexed(lens: &[usize]) -> Vec<Vec<u8>> {
        lens.iter().enumerate().map(|(i, &l)| vec![i as u8 + 1; l]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Truncating the log at *any* byte offset recovers a prefix of the
        /// appended records, never garbage, never a gap.
        #[test]
        fn truncation_anywhere_yields_a_prefix(
            payload_lens in proptest::collection::vec(0usize..40, 1..8),
            cut_permille in 0u64..1000,
        ) {
            let payloads = indexed(&payload_lens);
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
            let full = wal_with(&refs);
            let cut = (full.len() * cut_permille as usize) / 1000;
            let got = scan(&full[..cut]);
            prop_assert!(got.len() <= payloads.len());
            prop_assert_eq!(&got[..], &payloads[..got.len()], "a clean prefix");
        }

        /// Flipping a byte anywhere in the log still recovers a prefix of
        /// the appended records (corruption cuts, it never fabricates).
        #[test]
        fn corruption_anywhere_yields_a_prefix(
            payload_lens in proptest::collection::vec(1usize..40, 1..8),
            pos_permille in 0u64..1000,
            flip in 1u8..=255,
        ) {
            let payloads = indexed(&payload_lens);
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
            let mut bytes = wal_with(&refs);
            let pos = ((bytes.len() - 1) * pos_permille as usize) / 1000;
            bytes[pos] ^= flip;
            let got = scan(&bytes);
            prop_assert!(got.len() < payloads.len(), "the flipped record is not recovered");
            prop_assert_eq!(&got[..], &payloads[..got.len()], "a clean prefix");
        }
    }

    #[test]
    fn image_round_trips() {
        let img = image(2, 5, 31, 90, b"core-state");
        assert_eq!(SnapshotImage::decode(&img.encode()), Some(img));
    }

    #[test]
    fn torn_or_corrupt_image_is_rejected() {
        let encoded = image(2, 5, 31, 90, b"core-state").encode();
        for cut in [0, 3, 5, encoded.len() / 2, encoded.len() - 1] {
            assert_eq!(SnapshotImage::decode(&encoded[..cut]), None, "torn at {cut}");
        }
        let mut flipped = encoded.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert_eq!(SnapshotImage::decode(&flipped), None, "interior corruption");
        assert_eq!(SnapshotImage::decode(b"not a snapshot"), None);
    }

    #[test]
    fn append_crash_recover_round_trip() {
        let mut journal = Journal::default();
        journal.ident(1, Epoch(0));
        journal.append(&DurRecord::Tick { time: 1, lamport: 10 });
        journal.append(&app(b"s"));

        let rec = journal.reopen(1).unwrap();
        assert_eq!((rec.time, rec.lamport), (1, 10));
        assert_eq!(rec.app, b"s");
        assert_eq!((rec.records, rec.truncated), (3, 0));
        let Err(DsoError::ProtocolViolation(why)) = journal.reopen(2) else {
            panic!("another process's journal must not recover");
        };
        assert!(why.contains("does not match"), "{why}");
    }

    #[test]
    fn checkpoint_bounds_replay_and_survives() {
        let mut journal = Journal::default();
        journal.append(&app(b"old"));
        journal.checkpoint(&image(2, 3, 9, 20, b"app"));
        assert!(journal.wal.is_empty(), "checkpoint truncates the log");
        journal.append(&DurRecord::Tick { time: 10, lamport: 21 });

        let rec = journal.reopen(2).unwrap();
        assert_eq!((rec.time, rec.lamport), (10, 21), "WAL ticks advance the snapshot frontier");
        assert_eq!(rec.app, b"app");
        assert_eq!(rec.records, 1);
    }

    #[test]
    fn torn_snapshot_falls_back_to_none() {
        let mut journal = Journal::default();
        journal.checkpoint(&image(0, 1, 5, 6, b"img"));
        journal.ident(0, Epoch(1));
        journal.append(&DurRecord::Tick { time: 3, lamport: 3 });
        journal.append(&app(b"wal"));
        journal.snapshot.truncate(journal.snapshot.len() / 2);

        let rec = journal.reopen(0).unwrap();
        assert_eq!((rec.time, rec.lamport), (3, 3), "half-written image is ignored");
        assert_eq!((rec.app, rec.records), (b"wal".to_vec(), 3), "the WAL still replays");
    }

    #[test]
    fn wal_app_state_shadows_snapshot_app_state() {
        let mut journal = Journal::default();
        journal.checkpoint(&image(0, 0, 1, 1, b"old"));
        journal.append(&app(b"new"));
        assert_eq!(journal.reopen(0).unwrap().app, b"new");
    }

    /// A journal of `ticks` ticks as the driver keeps it: identity first,
    /// then each tick's frontier `(t, 10 t)` and state `[t; 3]`.
    fn journal_of(ticks: u64) -> Journal {
        let ep = MemoryHub::new(1).into_endpoints().remove(0);
        let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
        let mut journal = Journal::default();
        journal.ident(0, rt.membership().epoch());
        for t in 1..=ticks {
            rt.restore_frontier(LogicalTime::from_ticks(t), 10 * t);
            journal.tick(&rt, t, vec![t as u8; 3]);
        }
        journal
    }

    #[test]
    fn journal_recovers_a_prefix_from_a_wal_torn_at_every_byte() {
        // 5 ticks never checkpoint; 12 cross the checkpoint at tick 8.
        for ticks in [5, 12] {
            let whole = journal_of(ticks);
            let checkpointed = ticks >= CHECKPOINT_EVERY;
            assert_eq!(whole.snapshot.is_empty(), !checkpointed);
            for cut in 0..=whole.wal.len() {
                let mut journal =
                    Journal { wal: whole.wal[..cut].to_vec(), snapshot: whole.snapshot.clone() };
                // What survives the cut, by the frames themselves.
                let (mut pos, mut survived) = (0, Vec::new());
                while let Some((payload, next)) = frame_at(&journal.wal, pos) {
                    survived.push(DurRecord::decode(payload).unwrap());
                    pos = next;
                }
                let ident = checkpointed || !survived.is_empty();
                let newest = survived.iter().rev().find_map(|r| match r {
                    DurRecord::App(s) => Some(s.clone()),
                    _ => None,
                });
                let newest = newest.or(checkpointed.then(|| vec![CHECKPOINT_EVERY as u8; 3]));
                match (journal.reopen(0), ident, newest) {
                    (Ok(rec), true, Some(state)) => {
                        assert_eq!(rec.app, state, "{ticks} ticks cut at {cut}");
                        let t = u64::from(state[0]);
                        assert!(rec.time >= t && rec.lamport >= 10 * t, "cut at {cut}");
                        assert_eq!(rec.records, survived.len() as u64);
                        assert_eq!(rec.truncated, (cut - pos) as u64);
                        assert_eq!(journal.wal.len(), pos, "the torn tail is cut off");
                    }
                    (Err(DsoError::ProtocolViolation(_)), false, _)
                    | (Err(DsoError::ProtocolViolation(_)), _, None) => {}
                    (got, ident, newest) => panic!(
                        "{ticks} ticks, cut {cut}: identity {ident}, state {newest:?}, got {got:?}"
                    ),
                }
            }
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
