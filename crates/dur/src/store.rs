//! The durable store: one WAL plus one snapshot image per process.
//!
//! Write path: every committed fact is appended to the WAL
//! ([`DurStore::append`]); periodically the caller folds its full state
//! into a [`SnapshotImage`] and calls [`DurStore::checkpoint`], which
//! atomically replaces the on-disk image *then* truncates the WAL — a
//! crash between the two steps leaves a valid image plus a redundant (but
//! harmless, idempotently replayable) log.
//!
//! Recovery path: [`DurStore::open`] decodes the newest valid image (a
//! torn checkpoint falls back to none), replays the WAL's whole-record
//! prefix, and hands both to the caller as a [`RecoveryImage`].

use std::io;
use std::path::Path;

use sdso_net::NodeId;

use crate::commit::{CommitFile, CommitSink, MemSink};
use crate::record::DurRecord;
use crate::snapshot::SnapshotImage;
use crate::wal::Wal;

/// Everything recovery learned from stable storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryImage {
    /// The newest valid checkpoint, if one survived.
    pub snapshot: Option<SnapshotImage>,
    /// Typed records replayed from the WAL (after the snapshot, if any).
    pub records: Vec<DurRecord>,
    /// Bytes the torn-tail scan cut from the WAL.
    pub truncated_bytes: u64,
    /// Records whose payload no longer decoded (counted, then replay
    /// stopped — undecodable frames are corruption, not data).
    pub undecodable: usize,
}

impl RecoveryImage {
    /// A recovery with nothing on stable storage (first boot).
    pub fn empty() -> Self {
        RecoveryImage { snapshot: None, records: Vec::new(), truncated_bytes: 0, undecodable: 0 }
    }

    /// Whether stable storage held any state at all.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.records.is_empty()
    }

    /// The recovered identity: the snapshot's, or the newest `Ident`
    /// record's.
    pub fn ident(&self) -> Option<(NodeId, u32)> {
        let from_wal = self.records.iter().rev().find_map(|r| match r {
            DurRecord::Ident { node, epoch } => Some((*node, *epoch)),
            _ => None,
        });
        from_wal.or_else(|| self.snapshot.as_ref().map(|s| (s.node, s.epoch)))
    }

    /// The recovered `(logical_time, lamport)` frontier: the snapshot's,
    /// advanced by every later `Tick` record.
    pub fn frontier(&self) -> (u64, u64) {
        let (mut time, mut lamport) =
            self.snapshot.as_ref().map_or((0, 0), |s| (s.time, s.lamport));
        for rec in &self.records {
            match rec {
                DurRecord::Tick { time: t, lamport: l } => {
                    time = time.max(*t);
                    lamport = lamport.max(*l);
                }
                DurRecord::Write { stamp, .. } => lamport = lamport.max(*stamp),
                _ => {}
            }
        }
        (time, lamport)
    }

    /// The newest application-state blob with `tag`: the WAL's (newer),
    /// else — for tag 0, the conventional "primary state" tag — the
    /// snapshot's `app` field.
    pub fn app_state(&self, tag: u8) -> Option<&[u8]> {
        let from_wal = self.records.iter().rev().find_map(|r| match r {
            DurRecord::App { tag: t, bytes } if *t == tag => Some(bytes.as_slice()),
            _ => None,
        });
        from_wal.or_else(|| {
            (tag == 0)
                .then(|| self.snapshot.as_ref().map(|s| s.app.as_slice()))
                .flatten()
                .filter(|a| !a.is_empty())
        })
    }
}

/// One process's durable storage: a WAL and a snapshot slot over a
/// generic [`CommitSink`].
#[derive(Debug)]
pub struct DurStore<S: CommitSink> {
    wal: Wal<S>,
    snap: S,
}

impl DurStore<CommitFile> {
    /// Opens (creating as needed) the store under directory `dir` — the
    /// conventional `wal.log` / `snap.img` file pair — and recovers
    /// whatever stable state it holds.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O errors.
    pub fn open_dir(dir: impl AsRef<Path>) -> io::Result<(Self, RecoveryImage)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let wal_sink = CommitFile::open(dir.join("wal.log"))?;
        let snap_sink = CommitFile::open(dir.join("snap.img"))?;
        DurStore::open(wal_sink, snap_sink)
    }
}

impl DurStore<MemSink> {
    /// A fresh, empty in-memory store (simulator nodes, tests).
    pub fn in_memory() -> Self {
        let (store, recovered) = DurStore::open(MemSink::new(), MemSink::new()).unwrap();
        debug_assert!(recovered.is_empty());
        store
    }

    /// Re-opens a store from the byte pair a previous incarnation's
    /// [`DurStore::into_bytes`] produced — the simulator's model of
    /// rebooting off the same disk.
    ///
    /// # Errors
    ///
    /// Never fails for in-memory sinks; kept fallible for signature
    /// parity with the fs path.
    pub fn from_bytes(wal: Vec<u8>, snap: Vec<u8>) -> io::Result<(Self, RecoveryImage)> {
        DurStore::open(MemSink::from_bytes(wal), MemSink::from_bytes(snap))
    }

    /// The `(wal, snapshot)` byte pair representing this store's stable
    /// storage.
    pub fn into_bytes(self) -> (Vec<u8>, Vec<u8>) {
        (self.wal.into_sink().into_bytes(), self.snap.into_bytes())
    }
}

impl<S: CommitSink> DurStore<S> {
    /// Opens a store over explicit sinks and recovers its state.
    ///
    /// # Errors
    ///
    /// Returns the sinks' I/O errors.
    pub fn open(wal_sink: S, mut snap_sink: S) -> io::Result<(Self, RecoveryImage)> {
        let snapshot = SnapshotImage::decode(&snap_sink.read_all()?);
        let (wal, wal_rec) = Wal::open(wal_sink)?;
        let mut records = Vec::with_capacity(wal_rec.records.len());
        let mut undecodable = 0usize;
        for payload in &wal_rec.records {
            match DurRecord::decode(payload) {
                Some(rec) => records.push(rec),
                None => {
                    // A framed-but-untyped record: corruption the CRC
                    // happened to miss, or a format from the future.
                    // Either way nothing after it can be trusted.
                    undecodable = wal_rec.records.len() - records.len();
                    break;
                }
            }
        }
        let image = RecoveryImage {
            snapshot,
            records,
            truncated_bytes: wal_rec.truncated_bytes,
            undecodable,
        };
        Ok((DurStore { wal, snap: snap_sink }, image))
    }

    /// Appends one record to the WAL and commits it.
    ///
    /// # Errors
    ///
    /// Returns the sink's I/O errors.
    pub fn append(&mut self, rec: &DurRecord) -> io::Result<()> {
        self.wal.append(&rec.encode())
    }

    /// Durably replaces the snapshot with `image`, then truncates the
    /// WAL. Crashing between the two steps is safe: the log's records are
    /// idempotent against the newer image.
    ///
    /// # Errors
    ///
    /// Returns the sinks' I/O errors.
    pub fn checkpoint(&mut self, image: &SnapshotImage) -> io::Result<()> {
        self.snap.replace(&image.encode())?;
        self.wal.reset()
    }

    /// WAL length in bytes (for checkpoint pacing).
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Records appended or recovered through this handle's WAL.
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapObject;

    fn write(object: u32, stamp: u64) -> DurRecord {
        DurRecord::Write { object, offset: 0, bytes: vec![stamp as u8], stamp, writer: 1 }
    }

    #[test]
    fn append_crash_recover_round_trip() {
        let mut store = DurStore::in_memory();
        store.append(&DurRecord::Ident { node: 1, epoch: 0 }).unwrap();
        store.append(&write(4, 10)).unwrap();
        store.append(&DurRecord::Tick { time: 1, lamport: 10 }).unwrap();
        let (wal, snap) = store.into_bytes();

        let (_, rec) = DurStore::from_bytes(wal, snap).unwrap();
        assert_eq!(rec.ident(), Some((1, 0)));
        assert_eq!(rec.frontier(), (1, 10));
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn checkpoint_bounds_replay_and_survives() {
        let mut store = DurStore::in_memory();
        store.append(&write(4, 5)).unwrap();
        let image = SnapshotImage {
            node: 2,
            epoch: 3,
            time: 9,
            lamport: 20,
            objects: vec![SnapObject { id: 4, stamp: 20, writer: 2, body: vec![7] }],
            app: b"app".to_vec(),
        };
        store.checkpoint(&image).unwrap();
        assert_eq!(store.wal_len(), 0, "checkpoint truncates the log");
        store.append(&DurRecord::Tick { time: 10, lamport: 21 }).unwrap();
        let (wal, snap) = store.into_bytes();

        let (_, rec) = DurStore::from_bytes(wal, snap).unwrap();
        assert_eq!(rec.snapshot.as_ref(), Some(&image));
        assert_eq!(rec.ident(), Some((2, 3)));
        assert_eq!(rec.frontier(), (10, 21), "WAL ticks advance the snapshot frontier");
        assert_eq!(rec.app_state(0), Some(b"app".as_slice()));
    }

    #[test]
    fn torn_snapshot_falls_back_to_none() {
        let mut store = DurStore::in_memory();
        let image =
            SnapshotImage { node: 0, epoch: 1, time: 5, lamport: 6, objects: vec![], app: vec![] };
        store.checkpoint(&image).unwrap();
        store.append(&write(1, 7)).unwrap();
        let (wal, snap) = store.into_bytes();
        let torn_snap = snap[..snap.len() / 2].to_vec();
        let (_, rec) = DurStore::from_bytes(wal, torn_snap).unwrap();
        assert!(rec.snapshot.is_none(), "half-written image is ignored");
        assert_eq!(rec.records, vec![write(1, 7)], "the WAL still replays");
    }

    #[test]
    fn wal_app_state_shadows_snapshot_app_state() {
        let mut store = DurStore::in_memory();
        let image = SnapshotImage {
            node: 0,
            epoch: 0,
            time: 1,
            lamport: 1,
            objects: vec![],
            app: b"old".to_vec(),
        };
        store.checkpoint(&image).unwrap();
        store.append(&DurRecord::App { tag: 0, bytes: b"new".to_vec() }).unwrap();
        let (wal, snap) = store.into_bytes();
        let (_, rec) = DurStore::from_bytes(wal, snap).unwrap();
        assert_eq!(rec.app_state(0), Some(b"new".as_slice()));
        assert_eq!(rec.app_state(1), None, "unknown tag: snapshot app is tag-0 only");
    }
}
