//! Wire codec v2: varint/run-length diff encoding with optional XOR-delta.
//!
//! The v1 wire format ships every diff run as a fixed 8-byte header plus
//! literal bytes. For game-style workloads that rewrite whole blocks where
//! most bytes did not change, the payload is dominated by headers and
//! unchanged bytes. Codec v2 (negotiated per peer via
//! [`crate::wire::DsoMessage::CodecOffer`]) attacks both:
//!
//! * **Varint headers** — object ids, versions, counts, offsets and lengths
//!   are LEB128 varints; run offsets after the first are encoded as the gap
//!   from the previous run's end, so sorted run lists cost one or two bytes
//!   per header instead of eight.
//! * **Zero-RLE bodies** — run bodies are a token stream of
//!   `(zeros, literals)` pairs, so zero bytes collapse to a couple of bytes
//!   per stretch.
//! * **XOR-delta** — when enabled, each run body is XORed against the
//!   link's *shadow* of the peer's last-delivered state before run-length
//!   encoding, turning "rewrote the block but almost nothing changed" into
//!   long zero stretches. The encoder picks XOR or absolute per update,
//!   whichever is smaller, and records the choice in a flags byte.
//!
//! # Shadow lockstep
//!
//! Both ends of a link hold a [`ShadowState`]: per-object buffers seeded
//! lazily from the object's *initial* body (the `share` contract guarantees
//! identical initial contents cluster-wide) and advanced by exactly the
//! runs carried in [`Data2`](crate::wire::DsoMessage::Data2) messages on
//! that link, in delivery order. v1 fallback traffic advances neither side.
//! The shadows therefore stay a pure function of the Data2 sequence, which
//! the `basis` counter stamps on every message: a mismatch on decode means
//! the shadows are out of lockstep and the blob is rejected loudly instead
//! of silently applying garbage. This requires in-order exactly-once
//! delivery, which the runtime's admission layer provides (ARQ reliability
//! or a lossless FIFO transport).
//!
//! Decoding is bit-exact: `decode_updates(encode_updates(u)) == u` for
//! every update list, XORed or not, so protocol behaviour above the codec
//! is unchanged byte-for-byte.

use sdso_net::wire::{WireReader, WireWriter};
use sdso_net::NetError;

use crate::clock::LogicalTime;
use crate::diff::Diff;
use crate::object::{ObjectId, Version};
use crate::store::ObjectStore;
use crate::wire::WireUpdate;

/// The original fixed-header wire format.
pub const CODEC_V1: u8 = 1;
/// Varint/run-length (+ optional XOR-delta) encoding — this module.
pub const CODEC_V2: u8 = 2;

/// Per-update flags byte, bit 0: run bodies are XORed against the shadow.
const FLAG_XOR: u8 = 0b0000_0001;

/// Decoder inflation budget: a single run may not claim more than this many
/// bytes, bounding what a hostile tiny blob can make the decoder allocate
/// (zero-RLE legitimately inflates, so the blob length bounds nothing).
/// The encoder falls back to the v1 format for anything larger.
const MAX_RUN_LEN: u64 = 1 << 26;

/// A zero stretch inside a literal run must be at least this long before
/// splitting it out as its own token pays for the two header varints.
const ZERO_BREAK: usize = 3;

/// One direction of a link's codec v2 state: the XOR shadows plus the
/// count of `Data2` messages encoded (sender side) or decoded (receiver
/// side) since the last reset, and the encoder's reusable buffers.
///
/// The shadow table holds only objects the local [`ObjectStore`] shared,
/// each from the first `Data2` that named it, so it never grows past the
/// number of shared objects, whatever id a peer names.
#[derive(Debug, Default)]
pub(crate) struct ShadowState {
    /// Ascending by object: a binary search over the objects this link's
    /// traffic has touched.
    shadows: Vec<(ObjectId, Vec<u8>)>,
    basis: u64,
    scratch: Scratch,
}

/// What encoding one batch writes into, reused from batch to batch.
#[derive(Debug, Default)]
struct Scratch {
    /// Each run of the update being encoded, tokenized as it is.
    abs: Vec<Token>,
    /// The same runs XORed against the shadow, tokenized.
    xor: Vec<Token>,
    /// One XORed literal on its way into the blob.
    literal: Vec<u8>,
    /// The blob.
    blob: WireWriter,
}

/// One zero-RLE token of a run: `zeros` zero bytes, then the `len` literal
/// bytes that start `at` bytes into the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Token {
    zeros: usize,
    at: usize,
    len: usize,
}

impl Token {
    /// Encoded size in bytes.
    fn cost(&self) -> usize {
        varint_len(self.zeros as u64) + varint_len(self.len as u64) + self.len
    }
}

impl ShadowState {
    /// `Data2` messages processed since the last reset.
    pub fn basis(&self) -> u64 {
        self.basis
    }

    /// Forgets everything — called when a peer departs or reconnects, so a
    /// restarted peer (whose shadows died with it) re-negotiates from a
    /// clean slate instead of decoding against state it no longer has.
    pub fn reset(&mut self) {
        self.shadows.clear();
        self.basis = 0;
    }

    /// The shadow for `object`, seeding it from the body the object was
    /// registered with on first touch; `None` for an object `store` never
    /// shared.
    fn shadow(&mut self, object: ObjectId, store: &ObjectStore) -> Option<&mut Vec<u8>> {
        let at = match self.shadows.binary_search_by_key(&object, |&(id, _)| id) {
            Ok(at) => at,
            Err(at) => {
                let initial = store.initial_body(object)?;
                self.shadows.insert(at, (object, initial.to_vec()));
                at
            }
        };
        Some(&mut self.shadows[at].1)
    }

    /// Advances the shadows past one delivered batch: every run's plain
    /// bytes overwrite the shadow. A shadow keeps the size the object was
    /// registered with — the size every legitimate run stays inside, as
    /// objects never change size — so whatever offset a peer names, the
    /// bytes past it are dropped here (and the run refused by the store).
    fn apply_batch<'a>(
        &mut self,
        updates: impl IntoIterator<Item = &'a WireUpdate>,
        store: &ObjectStore,
    ) {
        for u in updates {
            let Some(shadow) = self.shadow(u.object, store) else { continue };
            for (offset, bytes) in u.diff.runs() {
                let Some(held) = shadow.get_mut(offset as usize..) else { continue };
                let len = held.len().min(bytes.len());
                held[..len].copy_from_slice(&bytes[..len]);
            }
        }
    }
}

/// Encodes an update batch into a codec-v2 blob, choosing XOR or absolute
/// bodies per update by encoded size.
///
/// Returns `(basis, blob)` — the basis to stamp on the `Data2` message —
/// and advances `state` (shadows and basis) past the batch. Returns `None`
/// when the batch cannot be represented (a run above the decoder budget,
/// or XOR requested for an object `store` never shared): the caller must
/// fall back to a v1 `Data` message, and the basis and every shadow's
/// contents are left unadvanced so both ends skip the batch symmetrically.
pub(crate) fn encode_updates<'a>(
    updates: impl Iterator<Item = &'a WireUpdate> + Clone,
    xor: bool,
    state: &mut ShadowState,
    store: &ObjectStore,
) -> Option<(u64, Vec<u8>)> {
    for u in updates.clone() {
        for (_, bytes) in u.diff.runs() {
            if bytes.len() as u64 > MAX_RUN_LEN {
                return None;
            }
        }
        if xor && state.shadow(u.object, store).is_none() {
            return None;
        }
    }

    let ShadowState { shadows, scratch, .. } = state;
    // Every object has a shadow by now when XOR is on (checked above).
    let shadow = |object| {
        let at = shadows.binary_search_by_key(&object, |&(id, _)| id).ok().filter(|_| xor)?;
        Some(&shadows[at].1[..])
    };
    encode_blob(updates.clone(), shadow, scratch);
    let blob = scratch.blob.as_slice().to_vec();
    if xor {
        state.apply_batch(updates, store);
    }
    let basis = state.basis;
    state.basis += 1;
    Some((basis, blob))
}

/// Writes the blob [`encode_updates`] ships into `scratch.blob`: each
/// update's runs XORed against its `shadow` (the pre-batch state) when
/// that is smaller, absolute otherwise. An update whose object has no
/// shadow takes the absolute arm.
///
/// Each run is scanned once as it is and once XORed with the shadow —
/// both in step, never copied — and the winning arm's tokens are then
/// written out; only literal bytes are read a third time.
fn encode_blob<'a, 's>(
    updates: impl Iterator<Item = &'a WireUpdate> + Clone,
    shadow: impl Fn(ObjectId) -> Option<&'s [u8]>,
    scratch: &mut Scratch,
) {
    let Scratch { abs, xor, literal, blob: w } = scratch;
    w.clear();
    w.put_varint(updates.clone().count() as u64);
    for u in updates {
        w.put_varint(u.object.0 as u64);
        w.put_varint(u.version.time.as_ticks());
        w.put_varint(u.version.writer as u64);
        // XOR only when it beats absolute encoding for this update — an
        // update that genuinely changed most bytes (or a shadow made stale
        // by v1 fallback batches) costs the same or more XORed.
        abs.clear();
        xor.clear();
        let shadow = shadow(u.object);
        let (mut abs_cost, mut xor_cost) = (0usize, 0usize);
        for (offset, bytes) in u.diff.runs() {
            abs_cost += tokenize(Scan::plain(bytes), abs);
            if let Some(shadow) = shadow {
                xor_cost += tokenize(Scan::xored(bytes, shadow, offset), xor);
            }
        }
        let use_xor = shadow.is_some() && xor_cost < abs_cost;
        w.put_u8(if use_xor { FLAG_XOR } else { 0 });
        w.put_varint(u.diff.run_count() as u64);
        let mut tokens = if use_xor { xor.iter() } else { abs.iter() };
        let mut prev_end = 0u64;
        let mut first = true;
        for (offset, bytes) in u.diff.runs() {
            let gap = if first { offset as u64 } else { offset as u64 - prev_end };
            first = false;
            prev_end = offset as u64 + bytes.len() as u64;
            w.put_varint(gap);
            w.put_varint(bytes.len() as u64);
            let under = shadow.filter(|_| use_xor).map(|shadow| (shadow, offset));
            put_tokens(w, bytes, &mut tokens, under, literal);
        }
    }
}

/// Writes the zero-RLE tokens of one run from the front of `tokens`, which
/// hold its tokens first: `(varint zeros, varint literals, literal bytes)`
/// until the run is covered. The literals are `bytes`' own, or, given the
/// shadow and the run's offset, XORed with the shadow there (through the
/// reused `literal`).
fn put_tokens(
    w: &mut WireWriter,
    bytes: &[u8],
    tokens: &mut std::slice::Iter<'_, Token>,
    under: Option<(&[u8], u32)>,
    literal: &mut Vec<u8>,
) {
    let mut covered = 0usize;
    while covered < bytes.len() {
        let Some(t) = tokens.next() else { return };
        covered = t.at + t.len;
        w.put_varint(t.zeros as u64);
        w.put_varint(t.len as u64);
        let lit = &bytes[t.at..covered];
        match under {
            Some((shadow, offset)) => {
                literal.clear();
                literal.extend_from_slice(lit);
                xor_in_place(literal, shadow, offset + t.at as u32);
                w.put_raw(literal);
            }
            None => w.put_raw(lit),
        }
    }
}

/// Decodes a codec-v2 blob back into the exact update batch the sender
/// encoded, into `updates` — whose entries, and their diffs' storage, are
/// reused: a batch handed back after it was applied decodes the next one
/// without allocating — and advances `state` past it.
///
/// # Errors
///
/// Returns [`NetError::Codec`] on a basis mismatch (shadows out of
/// lockstep), an update for an object `store` never shared, or any
/// malformed/hostile input; `updates` then holds garbage. `state` is only
/// advanced on success, and its shadow table never grows past the store's
/// object count.
pub(crate) fn decode_updates(
    blob: &[u8],
    basis: u64,
    state: &mut ShadowState,
    store: &ObjectStore,
    updates: &mut Vec<WireUpdate>,
) -> Result<(), NetError> {
    if basis != state.basis {
        return Err(NetError::Codec(format!(
            "codec basis mismatch: message {basis}, link {} — XOR shadows out of lockstep",
            state.basis
        )));
    }
    let mut r = WireReader::new(blob);
    let count = r.get_varint()?;
    if count > r.remaining() as u64 {
        return Err(NetError::Codec(format!(
            "update count {count} exceeds remaining {} bytes",
            r.remaining()
        )));
    }
    updates.truncate(count as usize);
    for n in 0..count as usize {
        let object = r.get_varint()?;
        let object = u32::try_from(object)
            .map(ObjectId)
            .map_err(|_| NetError::Codec(format!("object id {object} exceeds u32")))?;
        let time = LogicalTime::from_ticks(r.get_varint()?);
        let writer = r.get_varint()?;
        let writer = u16::try_from(writer)
            .map_err(|_| NetError::Codec(format!("writer id {writer} exceeds u16")))?;
        let flags = r.get_u8()?;
        if flags & !FLAG_XOR != 0 {
            return Err(NetError::Codec(format!("unknown codec flags {flags:#04x}")));
        }
        // Seed unconditionally (not just on XOR) so both ends hold shadows
        // for the same object set once traffic flows, keeping later XOR
        // decisions honest after a v1 fallback. The XOR reference is the
        // *pre-batch* shadow: the sender decided and encoded the whole
        // batch before advancing.
        let shadow = state.shadow(object, store).ok_or_else(|| {
            NetError::Codec(format!("update for {object:?}, which this process never shared"))
        })?;
        let nruns = r.get_varint()?;
        if nruns > r.remaining() as u64 {
            return Err(NetError::Codec(format!(
                "run count {nruns} exceeds remaining {} bytes",
                r.remaining()
            )));
        }
        if n == updates.len() {
            updates.push(WireUpdate { object, diff: Diff::empty(), version: Version::INITIAL });
        }
        let update = &mut updates[n];
        update.object = object;
        update.version = Version::new(time, writer);
        // Gaps only ever move forward, so the runs come out sorted and
        // disjoint, as a diff's must be.
        let mut prev_end = 0u64;
        let mut first = true;
        update.diff.rebuild(nruns as usize, |body| {
            let gap = r.get_varint()?;
            let offset = if first { Some(gap) } else { prev_end.checked_add(gap) };
            first = false;
            let len = r.get_varint()?;
            if len > MAX_RUN_LEN {
                return Err(NetError::Codec(format!(
                    "run length {len} exceeds decoder budget {MAX_RUN_LEN}"
                )));
            }
            let end = offset.and_then(|o| o.checked_add(len));
            let (offset, end) = match (offset, end) {
                (Some(o), Some(e)) if e <= u32::MAX as u64 => (o, e),
                _ => {
                    return Err(NetError::Codec("diff run exceeds u32 address space".into()));
                }
            };
            prev_end = end;
            let base = match flags & FLAG_XOR {
                0 => &[][..],
                _ => shadow.get(offset as usize..).unwrap_or_default(),
            };
            rle_decode(&mut r, len as usize, base, body)?;
            Ok(offset as u32)
        })?;
    }
    r.finish()?;
    state.apply_batch(updates.iter(), store);
    state.basis += 1;
    Ok(())
}

/// XORs `body` (a run at absolute `offset`) with the shadow in place; bytes
/// past the shadow's end stay untouched. Its own inverse.
///
/// sdso-check: hot-path
fn xor_in_place(body: &mut [u8], shadow: &[u8], offset: u32) {
    let start = (offset as usize).min(shadow.len());
    for (b, s) in body.iter_mut().zip(&shadow[start..]) {
        *b ^= s;
    }
}

/// An eight-byte chunk as a little-endian word, so the lowest set bit
/// belongs to the chunk's first byte.
fn word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(chunk);
    u64::from_le_bytes(w)
}

/// The bytes a token scan reads: a run, XORed with the shadow bytes at its
/// offset where `under` overlaps it (empty for the absolute arm), and
/// as it is past their end — read in step, never materialized.
#[derive(Clone, Copy)]
struct Scan<'a> {
    bytes: &'a [u8],
    /// At most as long as `bytes`.
    under: &'a [u8],
}

impl<'a> Scan<'a> {
    /// A run as it is.
    fn plain(bytes: &'a [u8]) -> Self {
        Scan { bytes, under: &[] }
    }

    /// A run at absolute `offset` XORed with `shadow`.
    fn xored(bytes: &'a [u8], shadow: &'a [u8], offset: u32) -> Self {
        let under = shadow.get(offset as usize..).unwrap_or_default();
        Scan { bytes, under: &under[..under.len().min(bytes.len())] }
    }

    fn len(&self) -> usize {
        self.bytes.len()
    }

    /// The first index at or after `i` whose byte satisfies `hit` (given
    /// the little-endian word test `word_hit`, whose lowest set bit marks
    /// the first such byte of a word), or the length: over the XORed
    /// prefix, then over the plain rest.
    #[inline]
    fn find(&self, i: usize, word_hit: impl Fn(u64) -> u64, hit: impl Fn(u8) -> bool) -> usize {
        let m = self.under.len();
        if i < m {
            let at = find_in(&self.bytes[i..m], &self.under[i..], &word_hit, &hit, |a, b| a ^ b);
            if at < m - i {
                return i + at;
            }
        }
        let i = i.max(m);
        i + find_in(&self.bytes[i..], &self.bytes[i..], &word_hit, &hit, |a, _| a)
    }
}

/// The first index of `a` (combined bytewise with `b` by `mix`, as words
/// and as bytes) whose byte satisfies `hit`, or `a.len()`: a word at a time
/// while `word_hit` finds nothing, then bytewise for the tail.
///
/// sdso-check: hot-path
#[inline]
fn find_in(
    a: &[u8],
    b: &[u8],
    word_hit: impl Fn(u64) -> u64,
    hit: impl Fn(u8) -> bool,
    mix: impl Fn(u64, u64) -> u64,
) -> usize {
    let mut i = 0;
    for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let found = word_hit(mix(word(ca), word(cb)));
        if found != 0 {
            return i + found.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    let tail = a[i..].iter().zip(&b[i..]);
    i + tail.take_while(|&(&x, &y)| !hit(mix(u64::from(x), u64::from(y)) as u8)).count()
}

/// Index of the first non-zero byte of `bytes` at or after `i`, or its
/// length: 32 bytes per step while four ORed words are zero, then a word
/// at a time.
///
/// sdso-check: hot-path
fn skip_zeros(bytes: Scan<'_>, mut i: usize) -> usize {
    let m = bytes.under.len();
    if i < m {
        i += zero_blocks(&bytes.bytes[i..m], &bytes.under[i..], |a, b| a ^ b);
    }
    if i >= m {
        i += zero_blocks(&bytes.bytes[i..], &bytes.bytes[i..], |a, _| a);
    }
    bytes.find(i, |w| w, |b| b != 0)
}

/// How many leading bytes of `a` (combined with `b` by `mix`) lie in whole
/// 32-byte blocks whose four words are all zero.
///
/// sdso-check: hot-path
#[inline]
fn zero_blocks(a: &[u8], b: &[u8], mix: impl Fn(u64, u64) -> u64) -> usize {
    let zero = |(ca, cb): (&[u8], &[u8])| {
        let w = |k: usize| mix(word(&ca[8 * k..8 * k + 8]), word(&cb[8 * k..8 * k + 8]));
        w(0) | w(1) | w(2) | w(3) == 0
    };
    32 * a.chunks_exact(32).zip(b.chunks_exact(32)).take_while(|&pair| zero(pair)).count()
}

/// Index of the first zero byte of `bytes` at or after `i`, or its length.
/// A word holds a zero byte iff `(w - 0x01…01) & !w & 0x80…80` is non-zero,
/// and the lowest set bit of that mask marks the first one exactly (a
/// borrow only ever flags bytes above a real zero).
///
/// sdso-check: hot-path
fn skip_nonzeros(bytes: Scan<'_>, i: usize) -> usize {
    const LO: u64 = u64::from_le_bytes([0x01; 8]);
    const HI: u64 = u64::from_le_bytes([0x80; 8]);
    bytes.find(i, |w| w.wrapping_sub(LO) & !w & HI, |b| b == 0)
}

/// Walks `bytes` as alternating (zeros, literal) segments, calling `f` with
/// each token's zero count and literal span. A zero stretch inside a
/// literal shorter than [`ZERO_BREAK`] is cheaper shipped as literal bytes
/// than split into its own token. Each byte is scanned once: the zero
/// stretch that ends a literal is the next token's leading zeros.
///
/// sdso-check: hot-path
fn for_each_token(bytes: Scan<'_>, mut f: impl FnMut(usize, usize, usize)) {
    let n = bytes.len();
    let mut z0 = 0usize;
    let mut l0 = skip_zeros(bytes, 0);
    while z0 < n {
        // Zeros span [z0, l0); the literal runs from l0 to the first zero
        // stretch that is long enough or reaches the end.
        let mut i = l0;
        let (end, next) = loop {
            let z = skip_nonzeros(bytes, i);
            if z == n {
                break (n, n);
            }
            let nz = skip_zeros(bytes, z);
            if nz - z >= ZERO_BREAK || nz == n {
                break (z, nz);
            }
            i = nz;
        };
        f(l0 - z0, l0, end);
        (z0, l0) = (end, next);
    }
}

/// Appends `bytes`' zero-RLE tokens to `tokens`, returning their encoded
/// size in bytes.
fn tokenize(bytes: Scan<'_>, tokens: &mut Vec<Token>) -> usize {
    let mut cost = 0usize;
    for_each_token(bytes, |zeros, at, end| {
        let token = Token { zeros, at, len: end - at };
        cost += token.cost();
        tokens.push(token);
    });
    cost
}

/// Encoded size of `v` as an LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Reads a zero-RLE token stream producing exactly `len` bytes, laid over
/// `base`, into the empty `out`: a zero stretch keeps `base`'s bytes, a
/// literal is XORed into them, and past `base`'s end the base is zero. Over
/// no base that is the plain decode; over the shadow it undoes the sender's
/// XOR in one pass. What it allocates is bounded by the tokens present, not
/// by `len`.
fn rle_decode(
    r: &mut WireReader<'_>,
    len: usize,
    base: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), NetError> {
    out.reserve(len.min(r.remaining().max(64)));
    while out.len() < len {
        let nzeros = r.get_varint()?;
        let nlit = r.get_varint()?;
        if nzeros == 0 && nlit == 0 {
            return Err(NetError::Codec("empty zero-RLE token".into()));
        }
        let total = (out.len() as u64)
            .checked_add(nzeros)
            .and_then(|t| t.checked_add(nlit))
            .ok_or_else(|| NetError::Codec("zero-RLE token overflows".into()))?;
        if total > len as u64 {
            return Err(NetError::Codec(format!(
                "zero-RLE tokens produce {total} bytes, run header said {len}"
            )));
        }
        let zeros_end = out.len() + nzeros as usize;
        let kept = &base[out.len().min(base.len())..zeros_end.min(base.len())];
        out.extend_from_slice(kept);
        out.resize(zeros_end, 0);
        out.extend_from_slice(r.get_raw(nlit as usize)?);
        xor_in_place(&mut out[zeros_end..], base, zeros_end as u32);
    }
    Ok(())
}

/// The byte-at-a-time kernels the word-at-a-time ones replaced, kept as the
/// reference the tests hold the codec to: same tokens, same XOR, same blob.
#[cfg(test)]
mod bytewise {
    use std::collections::HashMap;

    use super::*;

    pub(super) fn for_each_token(bytes: &[u8], mut f: impl FnMut(usize, &[u8])) {
        let mut i = 0usize;
        while i < bytes.len() {
            let z0 = i;
            while i < bytes.len() && bytes[i] == 0 {
                i += 1;
            }
            let nzeros = i - z0;
            let l0 = i;
            loop {
                while i < bytes.len() && bytes[i] != 0 {
                    i += 1;
                }
                if i == bytes.len() {
                    break;
                }
                let z = i;
                while i < bytes.len() && bytes[i] == 0 {
                    i += 1;
                }
                if i - z >= ZERO_BREAK || i == bytes.len() {
                    i = z;
                    break;
                }
            }
            f(nzeros, &bytes[l0..i]);
        }
    }

    pub(super) fn xor_in_place(body: &mut [u8], shadow: &[u8], offset: u32) {
        let start = offset as usize;
        for (i, b) in body.iter_mut().enumerate() {
            if let Some(&s) = shadow.get(start + i) {
                *b ^= s;
            }
        }
    }

    pub(super) fn xor_into(scratch: &mut Vec<u8>, bytes: &[u8], shadow: &[u8], offset: u32) {
        scratch.clear();
        scratch.extend_from_slice(bytes);
        xor_in_place(scratch, shadow, offset);
    }

    pub(super) fn rle_cost(bytes: &[u8]) -> usize {
        let mut cost = 0usize;
        for_each_token(bytes, |nzeros, lit| {
            cost += varint_len(nzeros as u64) + varint_len(lit.len() as u64) + lit.len();
        });
        cost
    }

    pub(super) fn rle_encode(w: &mut WireWriter, bytes: &[u8]) {
        for_each_token(bytes, |nzeros, lit| {
            w.put_varint(nzeros as u64);
            w.put_varint(lit.len() as u64);
            w.put_raw(lit);
        });
    }

    /// [`super::encode_blob`] as it was: every run XORed once to price it
    /// and again to encode it, each kernel a byte at a time.
    pub(super) fn encode_blob(
        updates: &[WireUpdate],
        shadows: Option<&HashMap<ObjectId, Vec<u8>>>,
    ) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(updates.len() as u64);
        let mut scratch = Vec::new();
        for u in updates {
            w.put_varint(u.object.0 as u64);
            w.put_varint(u.version.time.as_ticks());
            w.put_varint(u.version.writer as u64);
            let shadow = shadows.and_then(|s| s.get(&u.object));
            let use_xor = shadow.is_some_and(|shadow| {
                let mut abs_cost = 0usize;
                let mut xor_cost = 0usize;
                for (offset, bytes) in u.diff.runs() {
                    abs_cost += rle_cost(bytes);
                    xor_into(&mut scratch, bytes, shadow, offset);
                    xor_cost += rle_cost(&scratch);
                }
                xor_cost < abs_cost
            });
            w.put_u8(if use_xor { FLAG_XOR } else { 0 });
            w.put_varint(u.diff.run_count() as u64);
            let mut prev_end = 0u64;
            let mut first = true;
            for (offset, bytes) in u.diff.runs() {
                let gap = if first { offset as u64 } else { offset as u64 - prev_end };
                first = false;
                prev_end = offset as u64 + bytes.len() as u64;
                w.put_varint(gap);
                w.put_varint(bytes.len() as u64);
                match shadow {
                    Some(shadow) if use_xor => {
                        xor_into(&mut scratch, bytes, shadow, offset);
                        rle_encode(&mut w, &scratch);
                    }
                    _ => rle_encode(&mut w, bytes),
                }
            }
        }
        w.into_bytes().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    pub(super) fn upd(object: u32, diff: Diff, ticks: u64, writer: u16) -> WireUpdate {
        WireUpdate {
            object: ObjectId(object),
            diff,
            version: Version::new(LogicalTime::from_ticks(ticks), writer),
        }
    }

    /// A store sharing each of `objects` with the given initial body.
    pub(super) fn store_of(objects: &[(ObjectId, &[u8])]) -> ObjectStore {
        let mut store = ObjectStore::new();
        for &(id, body) in objects {
            let _ = store.share(id, body.to_vec());
        }
        store
    }

    /// A store sharing every object `updates` names, each with an empty
    /// initial body.
    pub(super) fn shared_by(updates: &[WireUpdate]) -> ObjectStore {
        let objects: Vec<_> = updates.iter().map(|u| (u.object, &[][..])).collect();
        store_of(&objects)
    }

    /// [`decode_updates`] into a fresh batch.
    pub(super) fn decoded(
        blob: &[u8],
        basis: u64,
        state: &mut ShadowState,
        store: &ObjectStore,
    ) -> Result<Vec<WireUpdate>, NetError> {
        let mut updates = Vec::new();
        decode_updates(blob, basis, state, store, &mut updates).map(|()| updates)
    }

    /// [`encode_blob`] against a shadow map, on fresh scratch.
    pub(super) fn blob_of(
        updates: &[WireUpdate],
        shadows: Option<&HashMap<ObjectId, Vec<u8>>>,
    ) -> Vec<u8> {
        let mut scratch = Scratch::default();
        let shadow = |object| shadows.and_then(|s| s.get(&object)).map(|s| &s[..]);
        encode_blob(updates.iter(), shadow, &mut scratch);
        scratch.blob.as_slice().to_vec()
    }

    /// A run's token stream as `put_tokens` writes it, and its price.
    pub(super) fn rle_encode(bytes: &[u8]) -> (Vec<u8>, usize) {
        let mut tokens = Vec::new();
        let cost = tokenize(Scan::plain(bytes), &mut tokens);
        let mut w = WireWriter::new();
        put_tokens(&mut w, bytes, &mut tokens.iter(), None, &mut Vec::new());
        (w.as_slice().to_vec(), cost)
    }

    fn roundtrip_abs(updates: Vec<WireUpdate>) {
        let store = shared_by(&updates);
        let mut tx = ShadowState::default();
        let mut rx = ShadowState::default();
        let (basis, blob) =
            encode_updates(updates.iter(), false, &mut tx, &store).expect("encodable");
        let decoded = decoded(&blob, basis, &mut rx, &store).unwrap();
        assert_eq!(decoded, updates);
    }

    #[test]
    fn absolute_roundtrip_is_bit_exact() {
        roundtrip_abs(vec![]);
        roundtrip_abs(vec![upd(3, Diff::single(2, vec![1, 2, 3]), 9, 1)]);
        roundtrip_abs(vec![
            upd(0, Diff::single(0, vec![0; 64]), 1, 0),
            upd(u32::MAX, Diff::single(u32::MAX - 8, vec![7; 8]), u64::MAX, u16::MAX),
            upd(5, Diff::empty(), 3, 2),
        ]);
        // Multi-run diffs exercise the gap encoding.
        let old = vec![0u8; 256];
        let mut new = old.clone();
        new[3] = 1;
        new[100] = 2;
        new[255] = 3;
        roundtrip_abs(vec![upd(1, Diff::between(&old, &new), 4, 4)]);
    }

    #[test]
    fn zero_heavy_updates_shrink_dramatically() {
        // A 4 KiB run where only 1% of bytes are non-zero: v1 ships the
        // whole body; v2's zero-RLE collapses it.
        let mut body = vec![0u8; 4096];
        for i in (0..4096).step_by(100) {
            body[i] = 0xAB;
        }
        let updates = [upd(1, Diff::single(0, body), 1, 1)];
        let mut tx = ShadowState::default();
        let (_, blob) =
            encode_updates(updates.iter(), false, &mut tx, &ObjectStore::new()).unwrap();
        let v1_len: usize = updates.iter().map(|u| u.diff.encoded_len()).sum();
        assert!(blob.len() * 5 < v1_len, "expected ≥5× shrink, got {} vs {v1_len}", blob.len());
    }

    #[test]
    fn xor_delta_roundtrips_and_beats_absolute() {
        // Peer's shadow holds the previous block contents; the new write
        // changes 8 of 1024 bytes but ships the whole block (the game's
        // write pattern). XOR turns it into almost all zeros.
        let initial: Vec<u8> = (0..1024u32).map(|i| (i * 7) as u8).collect();
        let mut new_body = initial.clone();
        for i in 0..8 {
            new_body[i * 100] ^= 0xFF;
        }
        let updates = vec![upd(2, Diff::single(0, new_body), 5, 3)];

        let store = store_of(&[(ObjectId(2), &initial)]);
        let mut tx = ShadowState::default();
        let mut rx = ShadowState::default();
        let (b_xor, xor_blob) =
            encode_updates(updates.iter(), true, &mut tx, &store).expect("encodable");
        let decoded = decoded(&xor_blob, b_xor, &mut rx, &store).unwrap();
        assert_eq!(decoded, updates, "XOR decode must be bit-exact");

        let (_, abs_blob) =
            encode_updates(updates.iter(), false, &mut ShadowState::default(), &store).unwrap();
        assert!(
            xor_blob.len() * 10 < abs_blob.len(),
            "XOR blob {} should be ≥10× smaller than absolute {}",
            xor_blob.len(),
            abs_blob.len()
        );
    }

    #[test]
    fn xor_shadows_stay_in_lockstep_across_batches() {
        let initial = vec![0x55u8; 512];
        let store = store_of(&[(ObjectId(9), &initial)]);
        let mut tx = ShadowState::default();
        let mut rx = ShadowState::default();
        let mut reference = initial.clone();
        for round in 0..20u64 {
            let mut body = reference.clone();
            let at = (round as usize * 37) % 500;
            body[at] = round as u8;
            body[at + 3] = !(round as u8);
            let updates = vec![upd(9, Diff::between(&reference, &body), round, 1)];
            let (basis, blob) =
                encode_updates(updates.iter(), true, &mut tx, &store).expect("encodable");
            assert_eq!(basis, round);
            let decoded = decoded(&blob, basis, &mut rx, &store).unwrap();
            assert_eq!(decoded, updates, "round {round}");
            for u in &decoded {
                u.diff.apply(&mut reference).unwrap();
            }
        }
    }

    #[test]
    fn basis_mismatch_is_a_loud_error() {
        let updates = vec![upd(1, Diff::single(0, vec![1, 2, 3]), 1, 1)];
        let store = shared_by(&updates);
        let mut tx = ShadowState::default();
        let (basis, blob) = encode_updates(updates.iter(), false, &mut tx, &store).unwrap();
        let mut rx = ShadowState { basis: basis + 1, ..ShadowState::default() };
        let err = decoded(&blob, basis, &mut rx, &store).unwrap_err();
        assert!(err.to_string().contains("lockstep"), "{err}");
    }

    #[test]
    fn xor_without_seed_falls_back_to_v1() {
        let updates = [upd(7, Diff::single(0, vec![1; 16]), 1, 1)];
        let mut tx = ShadowState::default();
        assert!(encode_updates(updates.iter(), true, &mut tx, &ObjectStore::new()).is_none());
        assert_eq!(tx.basis(), 0, "failed encode must not advance the basis");
    }

    #[test]
    fn oversized_run_falls_back_to_v1() {
        let updates = vec![upd(1, Diff::single(0, vec![1; (MAX_RUN_LEN + 1) as usize]), 1, 1)];
        let mut tx = ShadowState::default();
        assert!(encode_updates(updates.iter(), false, &mut tx, &shared_by(&updates)).is_none());
    }

    /// A one-update blob naming `object`, with `flags` and a four-byte run.
    fn blob_naming(object: u32, flags: u8) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(1); // one update
        w.put_varint(u64::from(object));
        w.put_varint(0); // time
        w.put_varint(0); // writer
        w.put_u8(flags);
        w.put_varint(1); // one run
        w.put_varint(0); // offset
        w.put_varint(4); // len 4
        w.put_varint(0); // token: no zeros,
        w.put_varint(4); //        four literals
        w.put_raw(&[1, 2, 3, 4]);
        w.as_slice().to_vec()
    }

    #[test]
    fn a_data2_naming_an_object_never_shared_is_a_codec_error_and_grows_no_table() {
        // Three objects at ids 0..3. The shadow table only ever holds
        // objects the store shared, so whatever id a hostile peer names it
        // holds at most three entries: id u32::MAX (a table indexed by id
        // would need 96 GiB) and id 3, one past the last object, are both
        // refused before anything is allocated for them.
        let store =
            store_of(&[(ObjectId(0), &[0; 4]), (ObjectId(1), &[0; 4]), (ObjectId(2), &[0; 4])]);
        for object in [u32::MAX, store.len() as u32] {
            for flags in [0, FLAG_XOR] {
                let mut rx = ShadowState::default();
                let err = decoded(&blob_naming(object, flags), 0, &mut rx, &store)
                    .expect_err("an object never shared must not decode");
                assert!(matches!(err, NetError::Codec(_)), "{err:?}");
                assert!(err.to_string().contains("never shared"), "{err}");
                assert!(rx.shadows.is_empty(), "id {object} grew the table");
                assert_eq!(rx.basis(), 0);
            }
        }
        // The same blob for a shared object decodes, and seeds its shadow.
        let mut rx = ShadowState::default();
        let decoded = decoded(&blob_naming(2, FLAG_XOR), 0, &mut rx, &store).unwrap();
        assert_eq!(decoded, vec![upd(2, Diff::single(0, vec![1, 2, 3, 4]), 0, 0)]);
        assert_eq!(rx.shadows, vec![(ObjectId(2), vec![1, 2, 3, 4])]);
    }

    #[test]
    fn hostile_blobs_error_and_never_panic() {
        let updates = vec![
            upd(3, Diff::single(2, vec![0, 1, 0, 0, 0, 2]), 9, 1),
            upd(4, Diff::single(40, vec![5; 30]), 10, 2),
        ];
        let store = shared_by(&updates);
        let mut tx = ShadowState::default();
        let (_, blob) = encode_updates(updates.iter(), false, &mut tx, &store).unwrap();
        // Truncations.
        for cut in 0..blob.len() {
            let mut rx = ShadowState::default();
            assert!(decoded(&blob[..cut], 0, &mut rx, &store).is_err());
        }
        // Single-byte corruption: must error or decode to something else,
        // never panic or hang.
        for i in 0..blob.len() {
            let mut bad = blob.to_vec();
            bad[i] = 0xFF;
            let mut rx = ShadowState::default();
            let _ = decoded(&bad, 0, &mut rx, &store);
        }
        // A huge claimed run length must not allocate its claim.
        let mut w = WireWriter::new();
        w.put_varint(1); // one update
        w.put_varint(3); // object
        w.put_varint(0); // time
        w.put_varint(0); // writer
        w.put_u8(0); // flags
        w.put_varint(1); // one run
        w.put_varint(0); // offset
        w.put_varint(u32::MAX as u64); // far beyond the decoder budget
        let mut rx = ShadowState::default();
        let err = decoded(w.as_slice(), 0, &mut rx, &store).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn empty_rle_token_rejected() {
        let mut w = WireWriter::new();
        w.put_varint(1); // one update
        w.put_varint(1); // object
        w.put_varint(0); // time
        w.put_varint(0); // writer
        w.put_u8(0); // flags
        w.put_varint(1); // one run
        w.put_varint(0); // offset
        w.put_varint(4); // len 4
        w.put_varint(0); // token: 0 zeros,
        w.put_varint(0); //        0 literals — would loop forever
        let mut rx = ShadowState::default();
        let err = decoded(w.as_slice(), 0, &mut rx, &store_of(&[(ObjectId(1), &[])]));
        assert!(err.unwrap_err().to_string().contains("empty zero-RLE token"));
    }

    #[test]
    fn reset_clears_shadows_and_basis() {
        let initial = vec![1u8; 64];
        let store = store_of(&[(ObjectId(1), &initial)]);
        let mut tx = ShadowState::default();
        let updates = [upd(1, Diff::single(0, vec![2; 64]), 1, 1)];
        encode_updates(updates.iter(), true, &mut tx, &store).unwrap();
        assert_eq!(tx.basis(), 1);
        assert!(!tx.shadows.is_empty());
        tx.reset();
        assert_eq!(tx.basis(), 0);
        assert!(tx.shadows.is_empty());
    }

    #[test]
    fn varint_len_matches_encoder() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            assert_eq!(w.len(), varint_len(v), "varint_len({v})");
        }
    }

    /// The `(zeros, literal)` tokens of `body`, word kernels or byte loops.
    pub(super) fn tokens(bytewise: bool, body: &[u8]) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        if bytewise {
            bytewise::for_each_token(body, |zeros, lit| out.push((zeros, lit.to_vec())));
        } else {
            let scan = Scan::plain(body);
            for_each_token(scan, |zeros, at, end| out.push((zeros, body[at..end].to_vec())));
        }
        out
    }

    #[test]
    fn token_stream_matches_the_byte_loop_at_every_word_boundary() {
        // Every body length 0..=96 covers each residue mod 8 and mod 32;
        // a zero stretch just under, at and just over ZERO_BREAK is cut
        // into each base at every position, so it straddles every word
        // and 32-byte block boundary. 0x01 and 0x80 neighbour zeros in
        // the hostile base: the bytes the has-zero-byte test can misflag.
        let mut rng = sdso_net::DetRng::new(0xC0DE_0002);
        let hostile: Vec<u8> = (0..96)
            .map(|_| match rng.next_u64() as u8 {
                0..=99 => 0,
                100..=149 => 0xFF,
                150..=179 => 0x01,
                180..=209 => 0x80,
                other => other,
            })
            .collect();
        let bases: [&dyn Fn(usize) -> u8; 4] =
            [&|_| 0, &|_| 0xFF, &|i| if i % 11 == 3 { i as u8 | 1 } else { 0 }, &|i| hostile[i]];
        for len in 0..=96usize {
            for base in bases {
                let base: Vec<u8> = (0..len).map(base).collect();
                for stretch in ZERO_BREAK - 1..=ZERO_BREAK + 1 {
                    for at in 0..=len.saturating_sub(stretch) {
                        let mut body = base.clone();
                        body[at..(at + stretch).min(len)].fill(0);
                        assert_eq!(tokens(false, &body), tokens(true, &body), "{body:?}");
                    }
                }
            }
        }
    }

    /// A fresh ratio on one host, best of three batches each: the
    /// nanoseconds one call of `f` takes.
    fn best_ns_per_call(reps: u32, f: &dyn Fn() -> Vec<u8>) -> f64 {
        let batch = |_| {
            let t0 = std::time::Instant::now();
            (0..reps).for_each(|_| drop(std::hint::black_box(f())));
            t0.elapsed().as_nanos() as f64 / f64::from(reps)
        };
        (0..3).map(batch).fold(f64::INFINITY, f64::min)
    }

    /// What the word-at-a-time kernels are for: the game's write ships a
    /// whole 4 KiB block of which about 16 bytes are non-zero, XORed
    /// against the block it replaced. The blob is the byte loops' byte for
    /// byte, at a third of their cost or less (measured 15-17x in
    /// release). Also printed, not asserted: a batch of two 64-byte
    /// updates, where the fixed cost per update the 4 KiB case hides is
    /// most of the work.
    #[test]
    #[ignore = "wall-clock ratio: run by the CI contracts job, in release"]
    fn contract_codec_v2_encodes_a_4_kib_block_at_least_3x_faster_than_the_byte_loops() {
        use std::hint::black_box;
        let mut before = vec![0u8; 4096];
        before[..4].copy_from_slice(&[5, 2, 0, 7]);
        let mut after = vec![0u8; 4096];
        for (i, b) in after[..16].iter_mut().enumerate() {
            *b = 0x10 + i as u8;
        }
        let updates = vec![upd(1, Diff::single(0, after), 57, 1)];
        let shadows = HashMap::from([(ObjectId(1), before)]);
        assert_eq!(
            blob_of(&updates, Some(&shadows)),
            bytewise::encode_blob(&updates, Some(&shadows))
        );
        let mut scratch = Scratch::default();
        let mut encode = |updates: &[WireUpdate], shadows: &HashMap<ObjectId, Vec<u8>>| {
            let shadow = |object| shadows.get(&object).map(|s| &s[..]);
            encode_blob(black_box(updates).iter(), shadow, &mut scratch);
            scratch.blob.len()
        };
        let bytes = best_ns_per_call(400, &|| {
            bytewise::encode_blob(black_box(&updates), Some(black_box(&shadows)))
        });
        let scratch = std::cell::RefCell::new(&mut encode);
        let words = best_ns_per_call(2000, &|| {
            (scratch.borrow_mut())(&updates, black_box(&shadows));
            Vec::new()
        });
        println!("codec v2, 4 KiB block, XOR on: byte loops {bytes:.0} ns, words {words:.0} ns");

        // Two 64-byte game blocks, each rewritten with a tank moving in.
        let small: Vec<WireUpdate> = (0..2u32)
            .map(|i| {
                upd(
                    i,
                    Diff::single(0, [[5, i as u8 + 1, 0, 1, 2].as_slice(), &[0; 59]].concat()),
                    9,
                    0,
                )
            })
            .collect();
        let small_shadows: HashMap<ObjectId, Vec<u8>> =
            (0..2u32).map(|i| (ObjectId(i), [[1].as_slice(), &[0; 63]].concat())).collect();
        let two = best_ns_per_call(20_000, &|| {
            (scratch.borrow_mut())(&small, black_box(&small_shadows));
            Vec::new()
        });
        println!("codec v2, two 64-byte updates, XOR on: words {two:.0} ns per batch");
        assert!(bytes >= 3.0 * words, "word kernels only {:.1}x the byte loops", bytes / words);
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::tests::{blob_of, decoded, rle_encode, shared_by, store_of, tokens};
    use super::*;

    /// A hostile alphabet: heavily biased toward the RLE edge cases
    /// (zero stretches, 0xFF walls) with a sprinkle of everything else.
    fn arb_body(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..max).prop_map(|raw| {
            raw.into_iter()
                .map(|b| match b {
                    // ~47% zeros: long runs that must round-trip through
                    // the zero-RLE arm, including runs crossing ZERO_BREAK.
                    0..=119 => 0u8,
                    // ~23% 0xFF walls: worst case for the literal arm.
                    120..=179 => 0xFF,
                    other => other,
                })
                .collect()
        })
    }

    /// Arbitrary well-formed update batches: sorted, possibly adjacent,
    /// possibly empty runs (a zero-length run and a zero-run diff are
    /// both legal wire states), hostile bodies.
    fn arb_updates() -> impl Strategy<Value = Vec<WireUpdate>> {
        let run = (0u32..40, arb_body(48));
        let update = (0u32..1000, proptest::collection::vec(run, 0..5), 0u64..10_000, any::<u16>());
        proptest::collection::vec(update, 0..6).prop_map(|raw| {
            raw.into_iter()
                .map(|(object, raw_runs, ticks, writer)| {
                    let mut offset = 0u64;
                    let mut runs = Vec::new();
                    for (gap, body) in raw_runs {
                        offset += u64::from(gap);
                        runs.push((offset as u32, body.clone()));
                        offset += body.len() as u64;
                    }
                    WireUpdate {
                        object: ObjectId(object),
                        diff: Diff::from_sorted_runs(runs).expect("runs built sorted"),
                        version: Version::new(LogicalTime::from_ticks(ticks), writer),
                    }
                })
                .collect()
        })
    }

    /// Mostly zeros with a non-zero byte about every sixteenth: the long
    /// zero stretches the 32-byte step skips.
    fn arb_sparse(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..max)
            .prop_map(|raw| raw.into_iter().map(|b| if b < 240 { 0 } else { b }).collect())
    }

    proptest! {
        #[test]
        fn token_stream_matches_the_byte_loop(body in arb_body(512), sparse in arb_sparse(512)) {
            for body in [&body, &sparse] {
                prop_assert_eq!(tokens(false, body), tokens(true, body));
            }
        }

        #[test]
        fn xor_kernels_match_the_byte_loops(
            shadow in arb_body(64),
            body in arb_body(48),
            offset in 0u32..128,
        ) {
            // Offsets 0..128 against shadows under 64 bytes: runs wholly
            // inside the shadow, straddling its end, and wholly past it.
            let mut want = Vec::new();
            bytewise::xor_into(&mut want, &body, &shadow, offset);
            let mut got = body.clone();
            xor_in_place(&mut got, &shadow, offset);
            prop_assert_eq!(&got, &want);
            // The in-step view tokenizes as the materialized run does.
            let (mut seen, mut materialized) = (Vec::new(), Vec::new());
            let view = Scan::xored(&body, &shadow, offset);
            prop_assert_eq!(tokenize(view, &mut seen), tokenize(Scan::plain(&want), &mut materialized));
            prop_assert_eq!(seen, materialized);
            prop_assert_eq!(
                tokens(false, &want),
                {
                    let mut out = Vec::new();
                    for_each_token(view, |zeros, at, end| out.push((zeros, want[at..end].to_vec())));
                    out
                }
            );
        }

        #[test]
        fn blob_matches_the_byte_loop_encoder(
            updates in arb_updates(),
            initial in arb_body(96),
            flip in any::<u8>(),
        ) {
            // Three shadow sets: none (XOR off); a random one that odd
            // objects lack; and one a byte away from what each update
            // writes, so the XOR arm wins. A repeated object keeps its
            // first shadow, which later updates differ from more.
            let random: HashMap<ObjectId, Vec<u8>> = updates
                .iter()
                .filter(|u| u.object.0 % 2 == 0)
                .map(|u| (u.object, initial.clone()))
                .collect();
            let mut close: HashMap<ObjectId, Vec<u8>> = HashMap::new();
            for u in &updates {
                close.entry(u.object).or_insert_with(|| {
                    let mut image = initial.clone();
                    let end = u.diff.runs().map(|(o, b)| o as usize + b.len()).max().unwrap_or(0);
                    image.resize(image.len().max(end), 0);
                    u.diff.apply(&mut image).expect("image covers every run");
                    if let Some(b) = image.get_mut(usize::from(flip)) {
                        *b ^= 0x5A;
                    }
                    image
                });
            }
            for shadows in [None, Some(&random), Some(&close)] {
                prop_assert_eq!(
                    blob_of(&updates, shadows),
                    bytewise::encode_blob(&updates, shadows)
                );
            }
        }

        #[test]
        fn rle_stream_roundtrips_and_cost_is_exact(body in arb_body(512), under in arb_body(512)) {
            let (encoded, cost) = rle_encode(&body);
            prop_assert_eq!(encoded.len(), cost, "the token price must be the real stream's");
            prop_assert_eq!(cost, bytewise::rle_cost(&body));
            let mut w = WireWriter::new();
            bytewise::rle_encode(&mut w, &body);
            prop_assert_eq!(&encoded[..], w.as_slice(), "the byte loops' stream");
            let mut r = WireReader::new(&encoded);
            let mut plain = Vec::new();
            rle_decode(&mut r, body.len(), &[], &mut plain).unwrap();
            prop_assert_eq!(&plain, &body);
            prop_assert_eq!(r.remaining(), 0, "decode must consume the whole stream");
            // Over a base, the decode is the stream XORed with the base (zero
            // past its end): the XOR arm's decode in one pass.
            let mut r = WireReader::new(&encoded);
            let mut want = body.clone();
            bytewise::xor_in_place(&mut want, &under, 0);
            let mut over = Vec::new();
            rle_decode(&mut r, body.len(), &under, &mut over).unwrap();
            prop_assert_eq!(over, want);
        }

        #[test]
        fn a_data2_frame_with_any_flag_byte_and_blob_never_panics_or_overallocates(
            flags in any::<u8>(),
            blob in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            use crate::wire::DsoMessage;
            let (epoch, time) = (crate::membership::Epoch(0), LogicalTime::from_ticks(1));
            let fused = DsoMessage::Data2 { epoch, time, basis: 0, blob, sync: true };
            // The flag byte follows the tag.
            let mut frame = sdso_net::wire::encode(&fused).to_vec();
            frame[1] = flags;
            let store = store_of(&[(ObjectId(0), &[7; 16]), (ObjectId(1), &[])]);
            match sdso_net::wire::decode::<DsoMessage>(&frame) {
                Ok(DsoMessage::Data2 { basis, blob, sync, .. }) => {
                    prop_assert!(flags <= 1, "unknown flag bits {:#x} were accepted", flags);
                    prop_assert_eq!(sync, flags == 1);
                    let mut rx = ShadowState::default();
                    for update in decoded(&blob, basis, &mut rx, &store).unwrap_or_default() {
                        for (_, bytes) in update.diff.runs() {
                            prop_assert!(bytes.len() as u64 <= MAX_RUN_LEN);
                        }
                    }
                    prop_assert!(rx.shadows.len() <= store.len());
                }
                Ok(other) => prop_assert!(false, "decoded as {:?}", other),
                Err(e) => {
                    prop_assert!(flags > 1, "flags {:#x} rejected: {}", flags, e);
                    prop_assert!(matches!(e, NetError::Codec(_)), "{:?}", e);
                }
            }
        }

        #[test]
        fn absolute_batches_roundtrip_bit_exact(updates in arb_updates()) {
            let store = shared_by(&updates);
            let mut tx = ShadowState::default();
            let mut rx = ShadowState::default();
            let (basis, blob) =
                encode_updates(updates.iter(), false, &mut tx, &store).expect("encodable");
            let decoded = decoded(&blob, basis, &mut rx, &store).unwrap();
            prop_assert_eq!(decoded, updates);
        }

        #[test]
        fn max_offset_runs_roundtrip(len in 1usize..64, back in 0u32..128, body in arb_body(64)) {
            // Runs butted against the top of the u32 address space: the
            // gap encoding must survive offsets the varint widens to five
            // bytes, and offset+len == u32::MAX exactly must be legal.
            let len = len.max(body.len().max(1));
            let mut bytes = body;
            bytes.resize(len, 0xA5);
            let offset = u32::MAX - bytes.len() as u32 - back;
            let updates = vec![WireUpdate {
                object: ObjectId(u32::MAX),
                diff: Diff::from_sorted_runs(vec![(offset, bytes)]).unwrap(),
                version: Version::new(LogicalTime::from_ticks(u64::MAX), u16::MAX),
            }];
            let store = shared_by(&updates);
            let mut tx = ShadowState::default();
            let mut rx = ShadowState::default();
            let (basis, blob) =
                encode_updates(updates.iter(), false, &mut tx, &store).expect("encodable");
            let decoded = decoded(&blob, basis, &mut rx, &store).unwrap();
            prop_assert_eq!(decoded, updates);
            prop_assert_eq!(rx.shadows.len(), 1, "one shadow, however large the id");
        }

        #[test]
        fn xor_delta_is_identity_under_randomized_frontiers(
            initial in arb_body(96),
            rounds in proptest::collection::vec(
                (proptest::collection::vec((0u32..96, arb_body(16)), 1..4), any::<bool>()),
                1..12,
            ),
        ) {
            // Both ends start from the shared initial body, then the
            // acked frontier (what the shadows have seen) is randomized
            // by interleaving v1-fallback rounds that advance neither
            // shadow: XORed batches must still decode to the exact
            // encoder input, whatever state the frontier stopped at.
            let object = ObjectId(7);
            let size = initial.len().max(1);
            let store = store_of(&[(ObjectId(3), &[1, 2]), (object, &initial)]);
            let mut tx = ShadowState::default();
            let mut rx = ShadowState::default();
            let mut reference = {
                let mut r = initial.clone();
                r.resize(size, 0);
                r
            };
            for (round, (writes, skip_as_v1)) in rounds.into_iter().enumerate() {
                let mut image = reference.clone();
                for (off, bytes) in writes {
                    let off = off as usize % size;
                    for (i, b) in bytes.iter().enumerate() {
                        if off + i < size {
                            image[off + i] = *b;
                        }
                    }
                }
                let updates = vec![WireUpdate {
                    object,
                    diff: Diff::between(&reference, &image),
                    version: Version::new(LogicalTime::from_ticks(round as u64 + 1), 1),
                }];
                if skip_as_v1 {
                    // A v1-fallback batch: delivered out of band, advances
                    // no shadow — the frontier now lags the real state.
                    reference = image;
                    continue;
                }
                let basis_before = tx.basis();
                let (basis, blob) =
                    encode_updates(updates.iter(), true, &mut tx, &store).expect("seeded");
                prop_assert_eq!(basis, basis_before);
                let decoded = decoded(&blob, basis, &mut rx, &store).unwrap();
                prop_assert_eq!(&decoded, &updates, "apply∘encode must be the identity");
                prop_assert_eq!(tx.basis(), rx.basis(), "lockstep");
                reference = image;
            }
            // Whatever the frontier did, both shadows agree byte-for-byte.
            prop_assert_eq!(&tx.shadows, &rx.shadows);
        }
    }
}
