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

use std::collections::HashMap;

use sdso_net::wire::{WireReader, WireWriter};
use sdso_net::NetError;

use crate::clock::LogicalTime;
use crate::diff::Diff;
use crate::object::{ObjectId, Version};
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
/// side) since the last reset.
#[derive(Debug, Default)]
pub(crate) struct ShadowState {
    shadows: HashMap<ObjectId, Vec<u8>>,
    basis: u64,
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

    /// The shadow for `object`, seeding it from `seed` on first touch.
    fn shadow(
        &mut self,
        object: ObjectId,
        seed: &mut dyn FnMut(ObjectId) -> Option<Vec<u8>>,
    ) -> Option<&mut Vec<u8>> {
        match self.shadows.entry(object) {
            std::collections::hash_map::Entry::Occupied(e) => Some(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => seed(object).map(|b| e.insert(b)),
        }
    }

    /// Advances the shadows past one delivered batch: every run's plain
    /// bytes overwrite the shadow, growing it with zeros when a run reaches
    /// past its end (deterministic on both sides).
    fn apply_batch(&mut self, updates: &[WireUpdate]) {
        for u in updates {
            let Some(shadow) = self.shadows.get_mut(&u.object) else { continue };
            for (offset, bytes) in u.diff.runs() {
                let end = offset as usize + bytes.len();
                if shadow.len() < end {
                    shadow.resize(end, 0);
                }
                shadow[offset as usize..end].copy_from_slice(bytes);
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
/// or XOR requested for an object `seed` cannot produce): the caller must
/// fall back to a v1 `Data` message, and the basis and every shadow's
/// contents are left unadvanced so both ends skip the batch symmetrically.
pub(crate) fn encode_updates(
    updates: &[WireUpdate],
    xor: bool,
    state: &mut ShadowState,
    seed: &mut dyn FnMut(ObjectId) -> Option<Vec<u8>>,
) -> Option<(u64, Vec<u8>)> {
    for u in updates {
        for (_, bytes) in u.diff.runs() {
            if bytes.len() as u64 > MAX_RUN_LEN {
                return None;
            }
        }
        if xor && state.shadow(u.object, seed).is_none() {
            return None;
        }
    }

    let mut w = WireWriter::new();
    w.put_varint(updates.len() as u64);
    let mut scratch = Vec::new();
    for u in updates {
        w.put_varint(u.object.0 as u64);
        w.put_varint(u.version.time.as_ticks());
        w.put_varint(u.version.writer as u64);
        // XOR only when it beats absolute encoding for this update — an
        // update that genuinely changed most bytes (or a shadow made stale
        // by v1 fallback batches) costs the same or more XORed. The
        // preflight loop seeded every shadow we need, but the encoder
        // stays total anyway: a missing shadow takes the absolute arm.
        let shadow = if xor { state.shadows.get(&u.object) } else { None };
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

    if xor {
        state.apply_batch(updates);
    }
    let basis = state.basis;
    state.basis += 1;
    Some((basis, w.into_bytes().to_vec()))
}

/// Decodes a codec-v2 blob back into the exact update batch the sender
/// encoded, and advances `state` past it.
///
/// # Errors
///
/// Returns [`NetError::Codec`] on a basis mismatch (shadows out of
/// lockstep), an XORed update whose object `seed` cannot produce, or any
/// malformed/hostile input. `state` is only advanced on success.
pub(crate) fn decode_updates(
    blob: &[u8],
    basis: u64,
    state: &mut ShadowState,
    seed: &mut dyn FnMut(ObjectId) -> Option<Vec<u8>>,
) -> Result<Vec<WireUpdate>, NetError> {
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
    let mut updates = Vec::with_capacity(count as usize);
    for _ in 0..count {
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
        let nruns = r.get_varint()?;
        if nruns > r.remaining() as u64 {
            return Err(NetError::Codec(format!(
                "run count {nruns} exceeds remaining {} bytes",
                r.remaining()
            )));
        }
        let mut runs = Vec::with_capacity(nruns as usize);
        let mut prev_end = 0u64;
        let mut first = true;
        for _ in 0..nruns {
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
            let mut body = rle_decode(&mut r, len as usize)?;
            if flags & FLAG_XOR != 0 {
                let shadow = state.shadow(object, seed).ok_or_else(|| {
                    NetError::Codec(format!("XORed update for {object:?} with no seedable shadow"))
                })?;
                // XOR reference is the *pre-batch* shadow: the sender
                // decided and encoded the whole batch before advancing.
                unxor_in_place(&mut body, shadow, offset as u32);
            }
            runs.push((offset as u32, body));
        }
        // Seed unconditionally (not just on XOR) so both ends hold shadows
        // for the same object set once traffic flows, keeping later XOR
        // decisions honest after a v1 fallback.
        let _ = state.shadow(object, seed);
        updates.push(WireUpdate {
            object,
            diff: Diff::from_sorted_runs(runs)?,
            version: Version::new(time, writer),
        });
    }
    r.finish()?;
    state.apply_batch(&updates);
    state.basis += 1;
    Ok(updates)
}

/// XORs `bytes` (a run at absolute `offset`) against the shadow into
/// `scratch`, treating bytes past the shadow's end as zero.
fn xor_into(scratch: &mut Vec<u8>, bytes: &[u8], shadow: &[u8], offset: u32) {
    scratch.clear();
    scratch.extend_from_slice(bytes);
    let start = offset as usize;
    for (i, b) in scratch.iter_mut().enumerate() {
        if let Some(&s) = shadow.get(start + i) {
            *b ^= s;
        }
    }
}

/// Reverses [`xor_into`] in place on a decoded body.
fn unxor_in_place(body: &mut [u8], shadow: &[u8], offset: u32) {
    let start = offset as usize;
    for (i, b) in body.iter_mut().enumerate() {
        if let Some(&s) = shadow.get(start + i) {
            *b ^= s;
        }
    }
}

/// Walks `bytes` as alternating (zeros, literal) segments — the token
/// structure both [`rle_cost`] and [`rle_encode`] emit. A zero stretch
/// inside a literal shorter than [`ZERO_BREAK`] is cheaper shipped as
/// literal bytes than split into its own token.
fn for_each_token(bytes: &[u8], mut f: impl FnMut(usize, &[u8])) {
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

/// Encoded size in bytes of `bytes` as a zero-RLE token stream.
fn rle_cost(bytes: &[u8]) -> usize {
    let mut cost = 0usize;
    for_each_token(bytes, |nzeros, lit| {
        cost += varint_len(nzeros as u64) + varint_len(lit.len() as u64) + lit.len();
    });
    cost
}

/// Encoded size of `v` as an LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Emits `bytes` as a zero-RLE token stream: repeated
/// `(varint zeros, varint literals, literal bytes)` until the run length
/// (carried in the run header) is covered.
///
/// sdso-check: hot-path
fn rle_encode(w: &mut WireWriter, bytes: &[u8]) {
    for_each_token(bytes, |nzeros, lit| {
        w.put_varint(nzeros as u64);
        w.put_varint(lit.len() as u64);
        w.put_raw(lit);
    });
}

/// Reads a zero-RLE token stream producing exactly `len` bytes.
fn rle_decode(r: &mut WireReader<'_>, len: usize) -> Result<Vec<u8>, NetError> {
    let mut out = Vec::with_capacity(len.min(r.remaining().max(64)));
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
        out.resize(out.len() + nzeros as usize, 0);
        out.extend_from_slice(r.get_raw(nlit as usize)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(object: u32, diff: Diff, ticks: u64, writer: u16) -> WireUpdate {
        WireUpdate {
            object: ObjectId(object),
            diff,
            version: Version::new(LogicalTime::from_ticks(ticks), writer),
        }
    }

    fn no_seed(_: ObjectId) -> Option<Vec<u8>> {
        None
    }

    fn roundtrip_abs(updates: Vec<WireUpdate>) {
        let mut tx = ShadowState::default();
        let mut rx = ShadowState::default();
        let (basis, blob) =
            encode_updates(&updates, false, &mut tx, &mut no_seed).expect("encodable");
        let decoded = decode_updates(&blob, basis, &mut rx, &mut no_seed).unwrap();
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
        let updates = vec![upd(1, Diff::single(0, body), 1, 1)];
        let mut tx = ShadowState::default();
        let (_, blob) = encode_updates(&updates, false, &mut tx, &mut no_seed).unwrap();
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

        let mut seed = |o: ObjectId| (o == ObjectId(2)).then(|| initial.clone());
        let mut tx = ShadowState::default();
        let mut rx = ShadowState::default();
        let (b_xor, xor_blob) =
            encode_updates(&updates, true, &mut tx, &mut seed).expect("encodable");
        let decoded = decode_updates(&xor_blob, b_xor, &mut rx, &mut seed).unwrap();
        assert_eq!(decoded, updates, "XOR decode must be bit-exact");

        let (_, abs_blob) =
            encode_updates(&updates, false, &mut ShadowState::default(), &mut no_seed).unwrap();
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
        let mut seed_tx = {
            let initial = initial.clone();
            move |_: ObjectId| Some(initial.clone())
        };
        let mut seed_rx = {
            let initial = initial.clone();
            move |_: ObjectId| Some(initial.clone())
        };
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
                encode_updates(&updates, true, &mut tx, &mut seed_tx).expect("encodable");
            assert_eq!(basis, round);
            let decoded = decode_updates(&blob, basis, &mut rx, &mut seed_rx).unwrap();
            assert_eq!(decoded, updates, "round {round}");
            for u in &decoded {
                u.diff.apply(&mut reference).unwrap();
            }
        }
    }

    #[test]
    fn basis_mismatch_is_a_loud_error() {
        let updates = vec![upd(1, Diff::single(0, vec![1, 2, 3]), 1, 1)];
        let mut tx = ShadowState::default();
        let (basis, blob) = encode_updates(&updates, false, &mut tx, &mut no_seed).unwrap();
        let mut rx = ShadowState { basis: basis + 1, ..ShadowState::default() };
        let err = decode_updates(&blob, basis, &mut rx, &mut no_seed).unwrap_err();
        assert!(err.to_string().contains("lockstep"), "{err}");
    }

    #[test]
    fn xor_without_seed_falls_back_to_v1() {
        let updates = vec![upd(7, Diff::single(0, vec![1; 16]), 1, 1)];
        let mut tx = ShadowState::default();
        assert!(encode_updates(&updates, true, &mut tx, &mut no_seed).is_none());
        assert_eq!(tx.basis(), 0, "failed encode must not advance the basis");
    }

    #[test]
    fn oversized_run_falls_back_to_v1() {
        let updates = vec![upd(1, Diff::single(0, vec![1; (MAX_RUN_LEN + 1) as usize]), 1, 1)];
        let mut tx = ShadowState::default();
        assert!(encode_updates(&updates, false, &mut tx, &mut no_seed).is_none());
    }

    #[test]
    fn hostile_blobs_error_and_never_panic() {
        let updates = vec![
            upd(3, Diff::single(2, vec![0, 1, 0, 0, 0, 2]), 9, 1),
            upd(4, Diff::single(40, vec![5; 30]), 10, 2),
        ];
        let mut tx = ShadowState::default();
        let (_, blob) = encode_updates(&updates, false, &mut tx, &mut no_seed).unwrap();
        // Truncations.
        for cut in 0..blob.len() {
            let mut rx = ShadowState::default();
            assert!(decode_updates(&blob[..cut], 0, &mut rx, &mut no_seed).is_err());
        }
        // Single-byte corruption: must error or decode to something else,
        // never panic or hang.
        for i in 0..blob.len() {
            let mut bad = blob.to_vec();
            bad[i] = 0xFF;
            let mut rx = ShadowState::default();
            let _ = decode_updates(&bad, 0, &mut rx, &mut no_seed);
        }
        // A huge claimed run length must not allocate its claim.
        let mut w = WireWriter::new();
        w.put_varint(1); // one update
        w.put_varint(1); // object
        w.put_varint(0); // time
        w.put_varint(0); // writer
        w.put_u8(0); // flags
        w.put_varint(1); // one run
        w.put_varint(0); // offset
        w.put_varint(u32::MAX as u64); // far beyond the decoder budget
        let mut rx = ShadowState::default();
        let err = decode_updates(&w.into_bytes(), 0, &mut rx, &mut no_seed).unwrap_err();
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
        assert!(decode_updates(&w.into_bytes(), 0, &mut rx, &mut no_seed).is_err());
    }

    #[test]
    fn reset_clears_shadows_and_basis() {
        let initial = vec![1u8; 64];
        let mut seed = move |_: ObjectId| Some(initial.clone());
        let mut tx = ShadowState::default();
        let updates = vec![upd(1, Diff::single(0, vec![2; 64]), 1, 1)];
        encode_updates(&updates, true, &mut tx, &mut seed).unwrap();
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
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

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

    fn no_seed(_: ObjectId) -> Option<Vec<u8>> {
        None
    }

    proptest! {
        #[test]
        fn rle_stream_roundtrips_and_cost_is_exact(body in arb_body(512)) {
            let mut w = WireWriter::new();
            rle_encode(&mut w, &body);
            prop_assert_eq!(w.len(), rle_cost(&body), "rle_cost must price the real stream");
            let encoded = w.into_bytes();
            let mut r = WireReader::new(&encoded);
            let decoded = rle_decode(&mut r, body.len()).unwrap();
            prop_assert_eq!(decoded, body);
            prop_assert_eq!(r.remaining(), 0, "decode must consume the whole stream");
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
            match sdso_net::wire::decode::<DsoMessage>(&frame) {
                Ok(DsoMessage::Data2 { basis, blob, sync, .. }) => {
                    prop_assert!(flags <= 1, "unknown flag bits {:#x} were accepted", flags);
                    prop_assert_eq!(sync, flags == 1);
                    let mut rx = ShadowState::default();
                    for update in decode_updates(&blob, basis, &mut rx, &mut no_seed).unwrap_or_default() {
                        for (_, bytes) in update.diff.runs() {
                            prop_assert!(bytes.len() as u64 <= MAX_RUN_LEN);
                        }
                    }
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
            let mut tx = ShadowState::default();
            let mut rx = ShadowState::default();
            let (basis, blob) =
                encode_updates(&updates, false, &mut tx, &mut no_seed).expect("encodable");
            let decoded = decode_updates(&blob, basis, &mut rx, &mut no_seed).unwrap();
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
            let mut tx = ShadowState::default();
            let mut rx = ShadowState::default();
            let (basis, blob) =
                encode_updates(&updates, false, &mut tx, &mut no_seed).expect("encodable");
            let decoded = decode_updates(&blob, basis, &mut rx, &mut no_seed).unwrap();
            prop_assert_eq!(decoded, updates);
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
            let mut seed_tx = {
                let initial = initial.clone();
                move |_: ObjectId| Some(initial.clone())
            };
            let mut seed_rx = {
                let initial = initial.clone();
                move |_: ObjectId| Some(initial.clone())
            };
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
                    encode_updates(&updates, true, &mut tx, &mut seed_tx).expect("seeded");
                prop_assert_eq!(basis, basis_before);
                let decoded = decode_updates(&blob, basis, &mut rx, &mut seed_rx).unwrap();
                prop_assert_eq!(&decoded, &updates, "apply∘encode must be the identity");
                prop_assert_eq!(tx.basis(), rx.basis(), "lockstep");
                reference = image;
            }
            // Whatever the frontier did, both shadows agree byte-for-byte.
            prop_assert_eq!(tx.shadows.get(&object), rx.shadows.get(&object));
        }
    }
}
