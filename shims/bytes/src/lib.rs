#![allow(clippy::all)]
//! Minimal, dependency-free stand-in for the `bytes` crate covering the
//! subset this workspace uses: cheaply-cloneable immutable byte buffers
//! (`Bytes`) and an append-only builder (`BytesMut`).
//!
//! Vendored so the workspace builds fully offline; the API is
//! call-compatible with the real crate for every usage in this repo.

#![warn(missing_docs)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply-cloneable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes {
    inner: Arc<Vec<u8>>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { inner: Arc::new(data.to_vec()) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The contents as a slice.
    pub fn as_ref(&self) -> &[u8] {
        &self.inner
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.as_ref().clone()
    }

    /// Converts back into a [`BytesMut`] without copying when this is the
    /// only handle to the storage; returns `self` unchanged otherwise.
    /// Mirrors the real crate's `Bytes::try_into_mut`, and is what lets a
    /// buffer pool reclaim frozen buffers once their last clone is gone.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` if other clones still share the storage.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        match Arc::try_unwrap(self.inner) {
            Ok(vec) => Ok(BytesMut { inner: vec }),
            Err(inner) => Err(Bytes { inner }),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { inner: Arc::new(v) }
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
        Bytes { inner: Arc::new(v.into_bytes()) }
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
        for &b in self.inner.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.inner.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.inner.as_ref() == other
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates a builder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { inner: Vec::with_capacity(cap) }
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

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes { inner: Arc::new(self.inner) }
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
}
