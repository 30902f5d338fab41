use std::collections::BTreeMap;
use std::sync::Arc;

use crate::diff::Diff;
use crate::error::DsoError;
use crate::object::{ObjectId, Version};

/// How many leading bytes of a registered body [`ObjectStore::share`]
/// hashes, with the length, to find an equal body already held.
const INTERN_PREFIX: usize = 64;

/// The intern set's key for `body`: its length and first [`INTERN_PREFIX`]
/// bytes, folded a word at a time with FxHash's multiply-rotate step.
/// Cheaper than a SipHash of the same bytes, which would make a 64-byte
/// `share` slower than the copy it saves.
fn intern_key(body: &[u8]) -> u64 {
    let fold =
        |key: u64, word: u64| (key.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    let mut words = body[..body.len().min(INTERN_PREFIX)].chunks_exact(8);
    let mut key = body.len() as u64;
    for word in words.by_ref() {
        key = fold(key, u64::from_le_bytes(word.try_into().unwrap_or_default()));
    }
    words.remainder().iter().fold(key, |key, &byte| fold(key, u64::from(byte)))
}

/// One local replica of a shared object.
///
/// A replica owns no bytes until it is first changed: until then its
/// current bytes are its registered ones, which its store holds once for
/// every object registered with equal bytes.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The replica's own bytes, once a change copied them out of
    /// `initial`; `None` while they are still the registered ones.
    written: Option<Box<[u8]>>,
    /// The bytes the object was registered with, shared with every replica
    /// registered with equal bytes.
    initial: Arc<[u8]>,
    version: Version,
}

impl Replica {
    /// The replica's current bytes.
    pub fn data(&self) -> &[u8] {
        self.written.as_deref().unwrap_or(&self.initial)
    }

    /// The replica's version stamp.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Object size in bytes (fixed at `share` time).
    pub fn size(&self) -> usize {
        self.initial.len()
    }

    /// The replica's bytes to change in place, copied out of the
    /// registered ones on the first change.
    fn data_mut(&mut self) -> &mut [u8] {
        self.written.get_or_insert_with(|| Box::from(&self.initial[..]))
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
///
/// The store keeps one copy of each distinct registered body: `share`
/// looks its bytes up in a content-addressed set and points the new
/// replica at the copy it finds. A replica's bytes are copied only when
/// they first change, so a store holds its distinct registered bodies
/// plus the objects actually written.
///
/// Beside each replica the store keeps the [`ObjectStore::generation`]
/// of its last change, so a reader that derives something from the
/// store's contents can re-read only what changed since it last looked
/// ([`ObjectStore::changed_since`]).
#[derive(Debug, Default)]
pub struct ObjectStore {
    /// Ascending by id, no duplicates — [`ObjectStore::iter`]'s order.
    objects: Vec<(ObjectId, Replica)>,
    /// `stamps[i]` is the generation at which `objects[i]` last changed,
    /// 0 if it never did. Dense, so [`ObjectStore::changed_since`] sweeps
    /// eight bytes per object rather than a whole replica.
    stamps: Vec<u64>,
    /// Every distinct registered body, by [`intern_key`]; the bodies of
    /// one bucket differ somewhere.
    bodies: BTreeMap<u64, Vec<Arc<[u8]>>>,
    generation: u64,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Registers `id` with its initial contents. If the store already
    /// holds a body with equal bytes, the new replica shares it and
    /// `initial` is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::AlreadyShared`] if `id` was registered before.
    pub fn share(&mut self, id: ObjectId, initial: Vec<u8>) -> Result<(), DsoError> {
        let Err(at) = self.position(id) else {
            return Err(DsoError::AlreadyShared(id));
        };
        let body = self.intern(initial);
        let replica = Replica { written: None, initial: body, version: Version::INITIAL };
        self.objects.insert(at, (id, replica));
        self.stamps.insert(at, 0);
        Ok(())
    }

    /// The store's copy of `body`: one it already holds with equal bytes
    /// (and `body` is dropped), or `body` itself, now held.
    fn intern(&mut self, body: Vec<u8>) -> Arc<[u8]> {
        let bucket = self.bodies.entry(intern_key(&body)).or_default();
        if let Some(held) = bucket.iter().find(|held| held[..] == body[..]) {
            return Arc::clone(held);
        }
        let fresh: Arc<[u8]> = Arc::from(body);
        bucket.push(Arc::clone(&fresh));
        fresh
    }

    /// Where `id` sits in `objects`, or where it would be inserted.
    #[inline]
    fn position(&self, id: ObjectId) -> Result<usize, usize> {
        let dense = id.0 as usize;
        match self.objects.get(dense) {
            Some((held, _)) if *held == id => Ok(dense),
            _ => self.objects.binary_search_by_key(&id, |&(held, _)| held),
        }
    }

    fn index_of(&self, id: ObjectId) -> Result<usize, DsoError> {
        self.position(id).map_err(|_| DsoError::UnknownObject(id))
    }

    /// Records that the replica at index `at` changed: the store's
    /// generation moves and the replica is stamped with it.
    fn stamp(&mut self, at: usize) {
        self.generation += 1;
        self.stamps[at] = self.generation;
    }

    /// Looks up a replica.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    #[inline]
    pub fn replica(&self, id: ObjectId) -> Result<&Replica, DsoError> {
        Ok(&self.objects[self.index_of(id)?].1)
    }

    /// Reads an object's bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    pub fn read(&self, id: ObjectId) -> Result<&[u8], DsoError> {
        Ok(self.replica(id)?.data())
    }

    /// The bytes `id` was registered with, whatever its replica holds now.
    /// Every process registers the same bodies, so a diff taken against
    /// them at one process applies to them at any other.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    pub fn registered(&self, id: ObjectId) -> Result<&[u8], DsoError> {
        Ok(&self.replica(id)?.initial)
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
        let at = self.index_of(id)?;
        let replica = &mut self.objects[at].1;
        let end = offset as usize + bytes.len();
        if end > replica.size() {
            return Err(DsoError::OutOfBounds {
                object: id,
                offset,
                len: bytes.len(),
                size: replica.size(),
            });
        }
        replica.data_mut()[offset as usize..end].copy_from_slice(bytes);
        replica.version = replica.version.max(version);
        self.stamp(at);
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
        let at = self.index_of(id)?;
        let replica = &mut self.objects[at].1;
        if body.len() != replica.size() {
            return Err(DsoError::OutOfBounds {
                object: id,
                offset: 0,
                len: body.len(),
                size: replica.size(),
            });
        }
        match &mut replica.written {
            Some(written) => written.copy_from_slice(body),
            None => replica.written = Some(Box::from(body)),
        }
        replica.version = version;
        self.stamp(at);
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
        let at = self.index_of(id)?;
        let replica = &mut self.objects[at].1;
        if version <= replica.version {
            return Ok(false);
        }
        diff.apply(replica.data_mut()).map_err(DsoError::Net)?;
        replica.version = version;
        self.stamp(at);
        Ok(true)
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
    /// [`ObjectStore::apply_remote`]; a discarded stale update and a failed
    /// call leave it alone. `share` does
    /// not bump it either — it moves [`ObjectStore::len`] — so
    /// `(generation(), len())` unchanged means anything derived from this
    /// store's contents is still valid. Only comparable between two
    /// observations of the same store.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The replicas changed after the store stood at `generation`, in
    /// ascending id order: every one whose last successful
    /// [`ObjectStore::write`], [`ObjectStore::replace`] or applied
    /// [`ObjectStore::apply_remote`] moved [`ObjectStore::generation`]
    /// past it. A replica registered since is not among them unless it
    /// changed too — a reader that saw [`ObjectStore::len`] move must
    /// look at the whole store.
    pub fn changed_since(&self, generation: u64) -> impl Iterator<Item = (ObjectId, &Replica)> {
        self.stamps
            .iter()
            .zip(&self.objects)
            .filter(move |&(&stamp, _)| stamp > generation)
            .map(|(_, (id, r))| (*id, r))
    }

    /// Iterates over `(id, replica)` pairs in ascending id order (snapshots,
    /// fingerprints and s-functions depend on that order).
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &Replica)> {
        self.objects.iter().map(|(id, r)| (*id, r))
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
    fn initial_body_survives_writes() {
        // The registered body stays held once its replica is written:
        // `registered` reads it, and an object registered later with equal
        // bytes reads that very copy.
        let mut s = ObjectStore::new();
        s.share(ObjectId(1), vec![7; 4]).unwrap();
        let registered = s.read(ObjectId(1)).unwrap().as_ptr();
        s.write(ObjectId(1), 0, &[1, 2], v(1, 0)).unwrap();
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[1, 2, 7, 7]);
        s.replace(ObjectId(1), &[3; 4], v(2, 1)).unwrap();
        assert_eq!(s.registered(ObjectId(1)).unwrap(), &[7; 4]);
        assert_eq!(s.registered(ObjectId(1)).unwrap().as_ptr(), registered);
        assert!(s.registered(ObjectId(9)).is_err());
        s.share(ObjectId(2), vec![7; 4]).unwrap();
        assert_eq!(s.read(ObjectId(2)).unwrap(), &[7; 4]);
        assert_eq!(s.read(ObjectId(2)).unwrap().as_ptr(), registered);
    }

    #[test]
    fn equal_bodies_share_one_copy_until_written() {
        let mut s = ObjectStore::new();
        s.share(ObjectId(0), vec![7; 4096]).unwrap();
        s.share(ObjectId(1), vec![7; 4096]).unwrap();
        // Equal past the hashed prefix, different at the end.
        let mut tail = vec![7; 4096];
        tail[4095] = 8;
        s.share(ObjectId(2), tail).unwrap();
        // Equal to a body registered earlier, after a different one.
        s.share(ObjectId(3), vec![7; 4096]).unwrap();
        let at = |s: &ObjectStore, id: u32| s.read(ObjectId(id)).unwrap().as_ptr();
        assert_eq!(at(&s, 0), at(&s, 1));
        assert_eq!(at(&s, 0), at(&s, 3));
        assert_ne!(at(&s, 0), at(&s, 2));
        assert_eq!(s.read(ObjectId(2)).unwrap()[4095], 8);

        s.write(ObjectId(0), 10, &[1, 2], v(1, 0)).unwrap();
        assert_ne!(at(&s, 0), at(&s, 1));
        assert_eq!(&s.read(ObjectId(0)).unwrap()[9..13], &[7, 1, 2, 7]);
        assert_eq!(s.read(ObjectId(1)).unwrap(), &[7; 4096][..]);

        // Once unique, the replica changes in place.
        let copied = at(&s, 0);
        s.write(ObjectId(0), 0, &[3], v(2, 0)).unwrap();
        s.replace(ObjectId(0), &[5; 4096], v(3, 0)).unwrap();
        s.apply_remote(ObjectId(0), &Diff::single(0, vec![6]), v(4, 1)).unwrap();
        assert_eq!(at(&s, 0), copied);
        assert_eq!(s.read(ObjectId(0)).unwrap()[..2], [6, 5]);
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

    #[test]
    fn changed_since_lists_the_replicas_that_moved_the_generation() {
        let mut s = ObjectStore::new();
        for id in 0..4 {
            s.share(ObjectId(id), vec![0; 4]).unwrap();
        }
        let ids =
            |s: &ObjectStore, g: u64| s.changed_since(g).map(|(id, _)| id.0).collect::<Vec<_>>();
        assert!(ids(&s, 0).is_empty(), "a share stamps nothing");
        s.write(ObjectId(2), 0, &[1], v(1, 0)).unwrap();
        let after_write = s.generation();
        s.apply_remote(ObjectId(0), &Diff::single(0, vec![2]), v(2, 1)).unwrap();
        assert!(!s.apply_remote(ObjectId(3), &Diff::single(0, vec![2]), Version::INITIAL).unwrap());
        assert!(s.write(ObjectId(1), 3, &[1, 1], v(3, 0)).is_err());
        s.replace(ObjectId(2), &[4; 4], v(4, 0)).unwrap();
        assert_eq!(ids(&s, 0), [0, 2], "ascending; stale and failed calls stamp nothing");
        assert_eq!(ids(&s, after_write), [0, 2]);
        assert_eq!(ids(&s, s.generation() - 1), [2]);
        assert!(ids(&s, s.generation()).is_empty());
    }
}
