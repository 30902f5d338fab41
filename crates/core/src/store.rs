use crate::diff::Diff;
use crate::dirty::DirtyRanges;
use crate::error::DsoError;
use crate::object::{ObjectId, Version};

/// One local replica of a shared object.
#[derive(Debug, Clone)]
pub struct Replica {
    data: Vec<u8>,
    /// The bytes the object was registered with. Every process registers
    /// the same initial contents (the `share` contract), which makes this a
    /// deterministic seed both ends of a link can derive independently —
    /// the wire codec's XOR shadows start from it.
    initial: Vec<u8>,
    version: Version,
    /// Spans touched since the last [`ObjectStore::clear_dirty`]; lets diff
    /// builders scan only changed regions ([`Diff::between_ranges`]).
    dirty: DirtyRanges,
}

impl Replica {
    /// The replica's current bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The bytes the object was registered with (identical on every
    /// process by the `share` contract).
    pub fn initial_body(&self) -> &[u8] {
        &self.initial
    }

    /// The replica's version stamp.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Object size in bytes (fixed at `share` time).
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Byte spans mutated since the last baseline
    /// ([`ObjectStore::clear_dirty`]); untracked means "assume anything
    /// changed" and forces a full scan.
    pub fn dirty_ranges(&self) -> &DirtyRanges {
        &self.dirty
    }

    /// Diff from `baseline` to the replica's current bytes, scanning only
    /// dirty spans (full scan when tracking degraded).
    ///
    /// `baseline` must be a snapshot of this replica taken when the dirty set
    /// was last cleared, so the spans cover every byte that differs.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` has a different length than the replica.
    pub fn diff_since(&self, baseline: &[u8]) -> Diff {
        Diff::between_ranges(baseline, &self.data, &self.dirty)
    }
}

/// A process's local table of object replicas.
///
/// Objects are registered once with [`ObjectStore::share`] ("all objects are
/// declared shared at the initialization phase of a program"; S-DSO has no
/// `unshare`). Every process registers the same objects with the same
/// initial contents, so replicas start identical.
///
/// Replicas sit in one `Vec` sorted by id. A program that registers ids
/// `0..n` (every shipped application does) finds object `i` at index `i`
/// in one probe; any other id set costs a binary search.
#[derive(Debug, Default)]
pub struct ObjectStore {
    /// Ascending by id, no duplicates — [`ObjectStore::iter`]'s order.
    objects: Vec<(ObjectId, Replica)>,
    generation: u64,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Registers `id` with its initial contents.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::AlreadyShared`] if `id` was registered before.
    pub fn share(&mut self, id: ObjectId, initial: Vec<u8>) -> Result<(), DsoError> {
        let Err(at) = self.position(id) else {
            return Err(DsoError::AlreadyShared(id));
        };
        let replica = Replica {
            data: initial.clone(),
            initial,
            version: Version::INITIAL,
            dirty: DirtyRanges::new(),
        };
        self.objects.insert(at, (id, replica));
        Ok(())
    }

    /// Where `id` sits in `objects`, or where it would be inserted.
    /// sdso-check: hot-path
    #[inline]
    fn position(&self, id: ObjectId) -> Result<usize, usize> {
        let dense = id.0 as usize;
        match self.objects.get(dense) {
            Some((held, _)) if *held == id => Ok(dense),
            _ => self.objects.binary_search_by_key(&id, |&(held, _)| held),
        }
    }

    fn replica_mut(&mut self, id: ObjectId) -> Result<&mut Replica, DsoError> {
        let at = self.position(id).map_err(|_| DsoError::UnknownObject(id))?;
        Ok(&mut self.objects[at].1)
    }

    /// Looks up a replica.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    #[inline]
    pub fn replica(&self, id: ObjectId) -> Result<&Replica, DsoError> {
        let at = self.position(id).map_err(|_| DsoError::UnknownObject(id))?;
        Ok(&self.objects[at].1)
    }

    /// Reads an object's bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    pub fn read(&self, id: ObjectId) -> Result<&[u8], DsoError> {
        Ok(self.replica(id)?.data())
    }

    /// Writes `bytes` at `offset`, stamping the replica with `version`.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] or [`DsoError::OutOfBounds`].
    pub fn write(
        &mut self,
        id: ObjectId,
        offset: u32,
        bytes: &[u8],
        version: Version,
    ) -> Result<(), DsoError> {
        let replica = self.replica_mut(id)?;
        let end = offset as usize + bytes.len();
        if end > replica.data.len() {
            return Err(DsoError::OutOfBounds {
                object: id,
                offset,
                len: bytes.len(),
                size: replica.data.len(),
            });
        }
        replica.data[offset as usize..end].copy_from_slice(bytes);
        replica.version = replica.version.max(version);
        replica.dirty.record(offset, bytes.len() as u32);
        self.generation += 1;
        Ok(())
    }

    /// Replaces an object's entire contents (used by pull-based protocols
    /// that ship whole bodies rather than diffs).
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`], or [`DsoError::OutOfBounds`] if
    /// the body size does not match the registered size.
    pub fn replace(&mut self, id: ObjectId, body: &[u8], version: Version) -> Result<(), DsoError> {
        let replica = self.replica_mut(id)?;
        if body.len() != replica.data.len() {
            return Err(DsoError::OutOfBounds {
                object: id,
                offset: 0,
                len: body.len(),
                size: replica.data.len(),
            });
        }
        replica.data.copy_from_slice(body);
        replica.version = version;
        replica.dirty.record(0, body.len() as u32);
        self.generation += 1;
        Ok(())
    }

    /// Replaces an object's contents only if `version` is newer than the
    /// replica's current version, returning whether it was applied.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`], or [`DsoError::OutOfBounds`] if
    /// the body size does not match the registered size.
    pub fn replace_if_newer(
        &mut self,
        id: ObjectId,
        body: &[u8],
        version: Version,
    ) -> Result<bool, DsoError> {
        let current = self.replica(id)?.version();
        if version <= current {
            return Ok(false);
        }
        self.replace(id, body, version)?;
        Ok(true)
    }

    /// Applies a remote diff stamped `version` if (and only if) it is newer
    /// than the replica's version, returning whether it was applied.
    ///
    /// This is the convergence rule: each object's replicas resolve
    /// same-interval concurrent writes by last-writer-wins on
    /// [`Version`]'s total order, deterministically on every process.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`], or a codec error if the diff
    /// exceeds the object's bounds.
    pub fn apply_remote(
        &mut self,
        id: ObjectId,
        diff: &Diff,
        version: Version,
    ) -> Result<bool, DsoError> {
        let replica = self.replica_mut(id)?;
        if version <= replica.version {
            return Ok(false);
        }
        diff.apply(&mut replica.data).map_err(DsoError::Net)?;
        replica.version = version;
        for (offset, bytes) in diff.runs() {
            replica.dirty.record(offset, bytes.len() as u32);
        }
        self.generation += 1;
        Ok(true)
    }

    /// Resets `id`'s dirty tracking — call after capturing a baseline
    /// snapshot so subsequent [`Replica::diff_since`] calls scan only what
    /// changed from that snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    pub fn clear_dirty(&mut self, id: ObjectId) -> Result<(), DsoError> {
        let replica = self.replica_mut(id)?;
        replica.dirty.clear();
        Ok(())
    }

    /// Number of shared objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether no objects are shared.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// A counter that moves whenever some replica's bytes or version may
    /// have: bumped by every successful [`ObjectStore::write`] and
    /// [`ObjectStore::replace`] and every *applied*
    /// [`ObjectStore::apply_remote`]; a discarded stale update, a failed
    /// call and [`ObjectStore::clear_dirty`] leave it alone. `share` does
    /// not bump it either — it moves [`ObjectStore::len`] — so
    /// `(generation(), len())` unchanged means anything derived from this
    /// store's contents is still valid. Only comparable between two
    /// observations of the same store.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Iterates over `(id, replica)` pairs in ascending id order (snapshots,
    /// fingerprints and s-functions depend on that order).
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &Replica)> {
        self.objects.iter().map(|(id, r)| (*id, r))
    }

    /// The bytes `id` was registered with, or `None` if it was never
    /// shared. See [`Replica::initial_body`].
    pub fn initial_body(&self, id: ObjectId) -> Option<&[u8]> {
        self.replica(id).ok().map(Replica::initial_body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalTime;

    fn v(t: u64, w: u16) -> Version {
        Version::new(LogicalTime::from_ticks(t), w)
    }

    #[test]
    fn share_then_read_back() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![1, 2, 3]).unwrap();
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[1, 2, 3]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn double_share_rejected() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0]).unwrap();
        assert!(matches!(s.share(ObjectId(1), vec![0]), Err(DsoError::AlreadyShared(_))));
    }

    #[test]
    fn unknown_object_rejected_everywhere() {
        let mut s = ObjectStore::new();
        assert!(s.read(ObjectId(9)).is_err());
        assert!(s.write(ObjectId(9), 0, &[1], v(1, 0)).is_err());
        assert!(s.apply_remote(ObjectId(9), &Diff::empty(), v(1, 0)).is_err());
    }

    #[test]
    fn write_bounds_checked() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0; 4]).unwrap();
        assert!(matches!(
            s.write(ObjectId(1), 2, &[1, 2, 3], v(1, 0)),
            Err(DsoError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn apply_remote_respects_version_order() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0; 4]).unwrap();
        let newer = Diff::single(0, vec![9; 4]);
        assert!(s.apply_remote(ObjectId(1), &newer, v(2, 1)).unwrap());
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[9; 4]);

        // An older write must be discarded.
        let older = Diff::single(0, vec![7; 4]);
        assert!(!s.apply_remote(ObjectId(1), &older, v(1, 0)).unwrap());
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[9; 4]);

        // Same tick, higher writer id wins.
        let tie = Diff::single(0, vec![5; 4]);
        assert!(s.apply_remote(ObjectId(1), &tie, v(2, 3)).unwrap());
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[5; 4]);
    }

    #[test]
    fn replace_requires_matching_size() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0; 4]).unwrap();
        assert!(s.replace(ObjectId(1), &[1; 3], v(1, 0)).is_err());
        s.replace(ObjectId(1), &[1; 4], v(1, 0)).unwrap();
        assert_eq!(s.replica(ObjectId(1)).unwrap().version(), v(1, 0));
    }

    #[test]
    fn writes_record_dirty_spans_and_diff_since_matches_full_scan() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0u8; 128]).unwrap();
        let baseline = s.read(ObjectId(1)).unwrap().to_vec();

        s.write(ObjectId(1), 8, &[1, 2, 3], v(1, 0)).unwrap();
        s.write(ObjectId(1), 100, &[4; 10], v(2, 0)).unwrap();
        let replica = s.replica(ObjectId(1)).unwrap();
        assert_eq!(replica.dirty_ranges().span_count(), 2);
        assert_eq!(replica.dirty_ranges().dirty_bytes(), 13);

        let tracked = replica.diff_since(&baseline);
        assert_eq!(tracked, Diff::between(&baseline, replica.data()));
        assert_eq!(tracked.byte_count(), 13);
    }

    #[test]
    fn clear_dirty_starts_a_new_baseline() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0u8; 32]).unwrap();
        s.write(ObjectId(1), 0, &[1; 4], v(1, 0)).unwrap();
        s.clear_dirty(ObjectId(1)).unwrap();
        assert!(s.replica(ObjectId(1)).unwrap().dirty_ranges().is_clean());

        let baseline = s.read(ObjectId(1)).unwrap().to_vec();
        s.write(ObjectId(1), 10, &[2; 2], v(2, 0)).unwrap();
        let replica = s.replica(ObjectId(1)).unwrap();
        let tracked = replica.diff_since(&baseline);
        assert_eq!(tracked, Diff::between(&baseline, replica.data()));
        assert_eq!(tracked.byte_count(), 2);

        assert!(s.clear_dirty(ObjectId(9)).is_err());
    }

    #[test]
    fn replace_and_apply_remote_record_dirty() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0u8; 16]).unwrap();
        s.replace(ObjectId(1), &[1; 16], v(1, 0)).unwrap();
        assert_eq!(s.replica(ObjectId(1)).unwrap().dirty_ranges().dirty_bytes(), 16);

        s.clear_dirty(ObjectId(1)).unwrap();
        let remote = Diff::single(4, vec![9; 4]);
        assert!(s.apply_remote(ObjectId(1), &remote, v(2, 1)).unwrap());
        let replica = s.replica(ObjectId(1)).unwrap();
        assert_eq!(replica.dirty_ranges().span_count(), 1);
        assert_eq!(replica.dirty_ranges().dirty_bytes(), 4);

        // A stale remote diff is discarded and must not dirty anything.
        s.clear_dirty(ObjectId(1)).unwrap();
        assert!(!s.apply_remote(ObjectId(1), &remote, v(1, 0)).unwrap());
        assert!(s.replica(ObjectId(1)).unwrap().dirty_ranges().is_clean());
    }

    #[test]
    fn initial_body_survives_writes() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![7; 4]).unwrap();
        s.write(ObjectId(1), 0, &[1, 2], v(1, 0)).unwrap();
        assert_eq!(s.initial_body(ObjectId(1)).unwrap(), &[7; 4]);
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[1, 2, 7, 7]);
        assert!(s.initial_body(ObjectId(9)).is_none());
    }

    #[test]
    fn local_write_bumps_version_monotonically() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![0; 4]).unwrap();
        s.write(ObjectId(1), 0, &[1], v(5, 2)).unwrap();
        // A later write with an *older* stamp must not roll the version back.
        s.write(ObjectId(1), 1, &[1], v(3, 1)).unwrap();
        assert_eq!(s.replica(ObjectId(1)).unwrap().version(), v(5, 2));
    }
}
