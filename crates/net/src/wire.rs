//! A small binary codec used by every message type in the workspace.
//!
//! The codec is deliberately simple — little-endian fixed-width integers,
//! length-prefixed byte strings — and every decode is bounds-checked so that
//! a corrupt or truncated frame produces a [`NetError::Codec`] instead of a
//! panic.
//!
//! # Example
//!
//! ```
//! use bytes::{Bytes, BytesMut};
//! use sdso_net::wire::{Wire, WireReader, WireWriter};
//!
//! #[derive(Debug, PartialEq)]
//! struct Ping { seq: u32, note: Vec<u8> }
//!
//! impl Wire for Ping {
//!     fn encode(&self, w: &mut WireWriter) {
//!         w.put_u32(self.seq);
//!         w.put_bytes(&self.note);
//!     }
//!     fn decode(r: &mut WireReader<'_>) -> Result<Self, sdso_net::NetError> {
//!         Ok(Ping { seq: r.get_u32()?, note: r.get_bytes()?.to_vec() })
//!     }
//! }
//!
//! # fn main() -> Result<(), sdso_net::NetError> {
//! let ping = Ping { seq: 7, note: b"hi".to_vec() };
//! let encoded = sdso_net::wire::encode(&ping);
//! let decoded: Ping = sdso_net::wire::decode(&encoded)?;
//! assert_eq!(ping, decoded);
//! # Ok(())
//! # }
//! ```

use bytes::{Bytes, BytesMut};

use crate::NetError;

/// Types that can be written to and read from the wire.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to the writer.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes a value from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Codec`] if the input is truncated or contains an
    /// invalid discriminant.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError>;
}

/// Encodes a value into a fresh byte buffer.
pub fn encode<T: Wire>(value: &T) -> Bytes {
    let mut w = WireWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from a byte slice, requiring the slice to be fully
/// consumed.
///
/// # Errors
///
/// Returns [`NetError::Codec`] on truncation, invalid discriminants, or
/// trailing garbage.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, NetError> {
    let mut r = WireReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// An append-only encoder.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter { buf: BytesMut::new() }
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter { buf: BytesMut::with_capacity(cap) }
    }

    /// Creates a writer over reusable scratch (cleared first), typically
    /// drawn from a [`crate::pool::BufPool`]: the scratch's existing
    /// allocation is written into instead of allocating fresh storage.
    pub fn from_scratch(mut scratch: BytesMut) -> Self {
        scratch.clear();
        WireWriter { buf: scratch }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.extend_from_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends an LEB128 varint: seven value bits per byte, low group
    /// first, high bit set on every byte but the last. Values below 128
    /// cost one byte; `u64::MAX` costs ten.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.put_u8(byte);
                return;
            }
            self.put_u8(byte | 0x80);
        }
    }

    /// Appends raw bytes with no length prefix. The caller's framing must
    /// make the length recoverable (see [`WireReader::get_raw`]).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32`-length-prefixed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` exceeds `u32::MAX`.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        // A fallible builder would push a Result through every encoder for
        // an unreachable branch; the panic documents the invariant instead.
        #[expect(
            clippy::expect_used,
            reason = "length prefixes are u32 by wire-format definition, and the runtime diffs and frames objects far below 4 GiB"
        )]
        let len = u32::try_from(bytes.len()).expect("byte string too long for wire format");
        self.put_u32(len);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32`-length-prefixed byte string that `f` writes in place:
    /// the bytes [`WireWriter::put_bytes`] would append for `f`'s own
    /// encoding, with no buffer in between. The prefix is patched in once
    /// `f` returns.
    ///
    /// # Panics
    ///
    /// Panics if `f` writes more than `u32::MAX` bytes (see `put_bytes`).
    pub fn put_nested(&mut self, f: impl FnOnce(&mut Self)) {
        let at = self.buf.len();
        self.put_u32(0);
        f(self);
        #[expect(
            clippy::expect_used,
            reason = "the runtime frames nothing near 4 GiB (see `put_bytes`)"
        )]
        let len =
            u32::try_from(self.buf.len() - at - 4).expect("byte string too long for wire format");
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends a `u32`-length-prefixed sequence via a per-item closure.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is longer than `u32::MAX` items.
    pub fn put_seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        #[expect(
            clippy::expect_used,
            reason = "item counts are u32 by wire-format definition, and no message the runtime builds holds 2^32 items"
        )]
        let len = u32::try_from(items.len()).expect("sequence too long for wire format");
        self.put_u32(len);
        for item in items {
            f(self, item);
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets what was written, keeping the allocation for the next
    /// encoding.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Finalises the encoding.
    pub fn into_bytes(self) -> Bytes {
        self.buf.freeze()
    }
}

/// A bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

macro_rules! get_int {
    ($name:ident, $ty:ty) => {
        /// Reads a little-endian integer.
        ///
        /// # Errors
        /// Returns [`NetError::Codec`] if the input is exhausted.
        pub fn $name(&mut self) -> Result<$ty, NetError> {
            const N: usize = std::mem::size_of::<$ty>();
            let slice = self.take(N)?;
            let mut arr = [0u8; N];
            arr.copy_from_slice(slice);
            Ok(<$ty>::from_le_bytes(arr))
        }
    };
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self.pos.checked_add(n).ok_or_else(overflow)?;
        if end > self.buf.len() {
            return Err(NetError::Codec(format!(
                "truncated input: wanted {n} bytes at offset {}, only {} available",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a single byte.
    ///
    /// # Errors
    /// Returns [`NetError::Codec`] if the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    get_int!(get_u16, u16);
    get_int!(get_u32, u32);
    get_int!(get_u64, u64);

    /// Reads a one-byte `bool`.
    ///
    /// # Errors
    /// Returns [`NetError::Codec`] if the input is exhausted or the byte is
    /// neither 0 nor 1.
    pub fn get_bool(&mut self) -> Result<bool, NetError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(NetError::Codec(format!("invalid bool byte {b:#x}"))),
        }
    }

    /// Reads an LEB128 varint written by [`WireWriter::put_varint`].
    ///
    /// # Errors
    /// Returns [`NetError::Codec`] if the input is exhausted, the
    /// continuation chain runs past ten bytes, or the tenth byte carries
    /// bits beyond `u64`'s width (a non-canonical overlong encoding).
    pub fn get_varint(&mut self) -> Result<u64, NetError> {
        let mut value = 0u64;
        for group in 0..10u32 {
            let byte = self.get_u8()?;
            let bits = u64::from(byte & 0x7F);
            // Group 9 holds the top single bit of a u64; anything more
            // overflows.
            if group == 9 && bits > 1 {
                return Err(NetError::Codec("varint overflows u64".into()));
            }
            value |= bits << (7 * group);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(NetError::Codec("varint longer than 10 bytes".into()))
    }

    /// Reads exactly `n` raw bytes (no length prefix — the caller's framing
    /// supplies `n`, see [`WireWriter::put_raw`]).
    ///
    /// # Errors
    /// Returns [`NetError::Codec`] if the input is exhausted.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed byte string.
    ///
    /// # Errors
    /// Returns [`NetError::Codec`] if the input is exhausted.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], NetError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed sequence via a per-item closure.
    ///
    /// # Errors
    /// Returns [`NetError::Codec`] if the input is exhausted or an item fails
    /// to decode.
    pub fn get_seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, NetError>,
    ) -> Result<Vec<T>, NetError> {
        let len = self.get_u32()? as usize;
        // Guard against a hostile length prefix: each item needs ≥ 1 byte.
        if len > self.remaining() {
            return Err(NetError::Codec(format!(
                "sequence length {len} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(f(self)?);
        }
        Ok(items)
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Requires the input to be fully consumed.
    ///
    /// # Errors
    /// Returns [`NetError::Codec`] if trailing bytes remain.
    pub fn finish(self) -> Result<(), NetError> {
        if self.pos != self.buf.len() {
            return Err(NetError::Codec(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn overflow() -> NetError {
    NetError::Codec("length overflow".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_bool(true);
        w.put_bytes(b"payload");
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let _ = r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn hostile_sequence_length_rejected() {
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX); // claims 4 billion items
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.get_seq(|r| r.get_u8()).is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut r = WireReader::new(&[2]);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn put_nested_writes_what_put_bytes_writes_for_the_same_encoding() {
        let mut nested = WireWriter::new();
        nested.put_u8(1);
        nested.put_nested(|w| {
            w.put_u64(7);
            w.put_bytes(b"inner");
        });
        let mut inner = WireWriter::new();
        inner.put_u64(7);
        inner.put_bytes(b"inner");
        let mut flat = WireWriter::new();
        flat.put_u8(1);
        flat.put_bytes(inner.as_slice());
        assert_eq!(nested.as_slice(), flat.as_slice());
        let mut empty = WireWriter::new();
        empty.put_nested(|_| {});
        assert_eq!(empty.as_slice(), &0u32.to_le_bytes());
    }

    #[test]
    fn from_scratch_clears_stale_content() {
        let mut stale = BytesMut::new();
        stale.extend_from_slice(b"junk");
        let mut w = WireWriter::from_scratch(stale);
        w.put_u16(7);
        assert_eq!(w.len(), 2);
        assert_eq!(&w.into_bytes()[..], &7u16.to_le_bytes());
    }

    #[test]
    fn varint_roundtrips_at_every_group_boundary() {
        let mut cases = vec![0u64, 1, 127, 128, 129, 255, 16_383, 16_384, u64::MAX - 1, u64::MAX];
        for shift in 0..9 {
            cases.push((1u64 << (7 * shift)) - 1);
            cases.push(1u64 << (7 * shift));
        }
        for &v in &cases {
            let mut w = WireWriter::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            assert!(bytes.len() <= 10);
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v, "value {v}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn varint_small_values_cost_one_byte() {
        for v in 0u64..128 {
            let mut w = WireWriter::new();
            w.put_varint(v);
            assert_eq!(w.len(), 1);
        }
    }

    #[test]
    fn varint_rejects_overlong_and_overflowing_encodings() {
        // Eleven continuation bytes: the chain never terminates in bounds.
        let overlong = [0x80u8; 11];
        assert!(WireReader::new(&overlong).get_varint().is_err());
        // Ten bytes whose last group carries more than u64's top bit.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        assert!(WireReader::new(&overflow).get_varint().is_err());
        // Truncated mid-chain.
        let truncated = [0xFFu8, 0xFF];
        assert!(WireReader::new(&truncated).get_varint().is_err());
    }

    #[test]
    fn seq_roundtrip() {
        let items = vec![3u32, 1, 4, 1, 5];
        let mut w = WireWriter::new();
        w.put_seq(&items, |w, &v| w.put_u32(v));
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let out = r.get_seq(|r| r.get_u32()).unwrap();
        assert_eq!(out, items);
    }
}
