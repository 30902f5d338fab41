#![allow(clippy::all)]
//! Minimal, dependency-free stand-in for the `bytes` crate covering the
//! subset this workspace uses: cheaply-cloneable immutable byte buffers
//! (`Bytes`) and an append-only builder (`BytesMut`).
//!
//! Vendored so the workspace builds fully offline; the API is
//! call-compatible with the real crate for every usage in this repo.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// An immutable, cheaply-cloneable byte buffer: a view of shared storage,
/// so a [`Bytes::slice_ref`] of it shares that storage instead of copying.
#[derive(Clone, Default)]
pub struct Bytes {
    inner: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The contents as a slice.
    pub fn as_ref(&self) -> &[u8] {
        &self.inner[self.start..self.end]
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// The part of `self` that `subset` borrows, sharing its storage: no
    /// copy. Mirrors the real crate's `Bytes::slice_ref`.
    ///
    /// # Panics
    ///
    /// Panics if `subset` does not lie within `self`, as the real crate does.
    pub fn slice_ref(&self, subset: &[u8]) -> Bytes {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_ref().as_ptr() as usize;
        let at = (subset.as_ptr() as usize).wrapping_sub(base);
        assert!(
            at <= self.len() && subset.len() <= self.len() - at,
            "slice_ref: the subset is not a part of this buffer"
        );
        let start = self.start + at;
        Bytes { inner: Arc::clone(&self.inner), start, end: start + subset.len() }
    }

    /// Converts back into a [`BytesMut`] holding this view's bytes without
    /// copying the storage when this is its only handle; returns `self`
    /// unchanged otherwise. Mirrors the real crate's `Bytes::try_into_mut`,
    /// and is what lets a buffer pool reclaim frozen buffers once their last
    /// clone is gone.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` if other clones still share the storage.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes { mut inner, start, end } = self;
        match Arc::get_mut(&mut inner) {
            Some(vec) => {
                let mut vec = std::mem::take(vec);
                vec.truncate(end);
                vec.drain(..start);
                Ok(BytesMut { inner: vec, shell: Some(inner) })
            }
            None => Err(Bytes { inner, start, end }),
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        Bytes::as_ref(self)
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        Bytes::as_ref(self)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { inner: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Bytes {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Bytes {
        v.freeze()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in Bytes::as_ref(self) {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        Bytes::as_ref(self) == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        Bytes::as_ref(self) == other.as_slice()
    }
}

/// A growable byte buffer that freezes into [`Bytes`]. A buffer that was
/// frozen before keeps the shared handle it was frozen into, emptied, and
/// [`BytesMut::freeze`] moves its bytes back into that handle: a buffer
/// cycled through a pool (`freeze`, then a successful
/// [`Bytes::try_into_mut`]) allocates and frees nothing, while writes touch
/// a plain `Vec`.
#[derive(Default)]
pub struct BytesMut {
    inner: Vec<u8>,
    /// The handle a previous `freeze` used, held by this buffer alone and
    /// empty; `None` for a buffer never frozen.
    shell: Option<Arc<Vec<u8>>>,
}

impl BytesMut {
    /// Creates an empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates a builder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { inner: Vec::with_capacity(cap), shell: None }
    }

    /// Appends `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.inner.extend_from_slice(data);
    }

    /// Empties the buffer, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Reserves space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Converts into an immutable [`Bytes`] without copying; a buffer that
    /// was frozen before reuses its handle instead of allocating one.
    pub fn freeze(self) -> Bytes {
        let BytesMut { inner, shell } = self;
        let end = inner.len();
        let inner = match shell {
            Some(mut shell) => match Arc::get_mut(&mut shell) {
                Some(slot) => {
                    *slot = inner;
                    shell
                }
                None => Arc::new(inner),
            },
            None => Arc::new(inner),
        };
        Bytes { inner, start: 0, end }
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut { inner: self.inner.clone(), shell: None }
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &BytesMut) -> bool {
        self.inner == other.inner
    }
}

impl Eq for BytesMut {}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut").field("inner", &self.inner).finish()
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(v: BytesMut) -> Vec<u8> {
        v.inner
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = BytesMut::with_capacity(8);
        b.extend_from_slice(&[1, 2]);
        b.extend_from_slice(&[3]);
        assert_eq!(b.len(), 3);
        assert_eq!(Vec::from(b.clone()), vec![1, 2, 3]);
        let frozen = b.freeze();
        assert_eq!(&frozen[..], &[1, 2, 3]);
        assert_eq!(frozen.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn conversions_and_equality() {
        let a = Bytes::from(vec![9u8; 4]);
        let b = Bytes::copy_from_slice(&[9u8; 4]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let s = Bytes::from(b"hi".as_ref());
        assert_eq!(&s[..], b"hi");
    }

    #[test]
    fn clone_is_shallow() {
        let a = Bytes::from(vec![0u8; 1024]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = BytesMut::with_capacity(64);
        b.extend_from_slice(&[1u8; 48]);
        let cap = b.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        b.reserve(128);
        assert!(b.capacity() >= 128);
    }

    #[test]
    fn try_into_mut_reclaims_unique_storage() {
        let unique = Bytes::from(vec![1u8, 2, 3]);
        let mut reclaimed = unique.try_into_mut().expect("sole owner reclaims");
        assert_eq!(&reclaimed[..], &[1, 2, 3]);
        reclaimed.clear();
        assert!(reclaimed.is_empty());

        let shared = Bytes::from(vec![9u8; 4]);
        let other = shared.clone();
        let back = shared.try_into_mut().expect_err("shared storage stays frozen");
        assert_eq!(back, other);
    }

    #[test]
    fn a_reclaimed_buffer_freezes_into_its_old_handle() {
        let mut b = BytesMut::with_capacity(16);
        b.extend_from_slice(&[1, 2, 3]);
        let frozen = b.freeze();
        let handle = Arc::as_ptr(&frozen.inner);
        let storage = Arc::clone(&frozen.inner);
        let shared = frozen.try_into_mut().expect_err("a second handle keeps it frozen");
        drop(storage);
        let mut back = shared.try_into_mut().expect("the last handle reclaims");
        back.clear();
        back.extend_from_slice(&[4]);
        let copy = back.clone();
        let again = back.freeze();
        assert_eq!(&again[..], &[4]);
        assert_eq!(Arc::as_ptr(&again.inner), handle, "the handle is reused");
        assert_ne!(Arc::as_ptr(&copy.freeze().inner), handle, "a clone has its own");
    }

    #[test]
    fn slice_ref_shares_storage_and_reclaims_as_its_view() {
        let whole = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let part = whole.slice_ref(&whole[1..4]);
        assert_eq!(&part[..], &[2, 3, 4]);
        assert!(Arc::ptr_eq(&part.inner, &whole.inner), "no copy");
        assert_eq!(part, Bytes::from(vec![2u8, 3, 4]), "equality is by contents");
        assert!(whole.slice_ref(&[]).is_empty());
        let part = match part.try_into_mut() {
            Err(part) => part,
            Ok(_) => panic!("the whole still shares the storage"),
        };
        drop(whole);
        let back = part.try_into_mut().expect("the last handle reclaims");
        assert_eq!(&back[..], &[2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "not a part of this buffer")]
    fn slice_ref_outside_the_buffer_panics() {
        let whole = Bytes::from(vec![0u8; 4]);
        let other = vec![0u8; 2];
        let _ = whole.slice_ref(&other);
    }
}
