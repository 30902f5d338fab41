//! Wire codec v2: varint headers and zero-run-length bodies for diffs.
//!
//! The v1 wire format ships every diff run as a fixed 8-byte header plus
//! literal bytes. For game-style workloads that rewrite whole blocks where
//! most bytes are zero padding, the payload is dominated by headers and
//! zeros. Codec v2 (every `Data2` frame of a run whose
//! [`crate::WireConfig::codec_v2`] is on) attacks both:
//!
//! * **Varint headers** — object ids, versions, counts, offsets and lengths
//!   are LEB128 varints; each run offset is encoded as the gap from the
//!   previous run's end, so sorted run lists cost one or two bytes per
//!   header instead of eight.
//! * **Zero-RLE bodies** — run bodies are a token stream of
//!   `(zeros, literals)` pairs, so zero bytes collapse to a couple of bytes
//!   per stretch.
//!
//! A blob is `count`, then per update `object, time, writer, runs`, then
//! per run `gap, len` and its tokens. The codec is stateless: a blob
//! decodes on its own, with no link state and no object store, so a frame
//! decodes the same whenever it is delivered — first time or retransmitted
//! across a reconnect. Whether an update names an object this process
//! shares is the store's question, answered when the update is applied.
//!
//! Decoding is bit-exact: `decode_updates(encode_updates(u)) == u` for
//! every update list, so protocol behaviour above the codec is unchanged
//! byte-for-byte.

use sdso_net::wire::{WireReader, WireWriter};
use sdso_net::NetError;

use crate::clock::LogicalTime;
use crate::diff::Diff;
use crate::object::{ObjectId, Version};
use crate::wire::WireUpdate;

/// Decoder inflation budget: a single run may not claim more than this many
/// bytes, bounding what a hostile tiny blob can make the decoder allocate
/// (zero-RLE legitimately inflates, so the blob length bounds nothing).
/// The encoder falls back to the v1 format for anything larger.
pub(crate) const MAX_RUN_LEN: u64 = 1 << 26;

/// A zero stretch inside a literal run must be at least this long before
/// splitting it out as its own token pays for the two header varints.
const ZERO_BREAK: usize = 3;

/// Encodes an update batch into a codec-v2 blob, written through `w` — the
/// caller's scratch, reused from batch to batch — and copied out.
///
/// Returns `None` when a run exceeds the decoder's budget: the caller must
/// send the batch as a v1 `Data` message instead.
pub(crate) fn encode_updates<'a>(
    updates: impl Iterator<Item = &'a WireUpdate> + Clone,
    w: &mut WireWriter,
) -> Option<Vec<u8>> {
    let mut runs = updates.clone().flat_map(|u| u.diff.runs());
    if runs.any(|(_, bytes)| bytes.len() as u64 > MAX_RUN_LEN) {
        return None;
    }
    encode_blob(updates, w);
    Some(w.as_slice().to_vec())
}

/// Writes the blob [`encode_updates`] ships into `w`.
fn encode_blob<'a>(updates: impl Iterator<Item = &'a WireUpdate> + Clone, w: &mut WireWriter) {
    w.clear();
    w.put_varint(updates.clone().count() as u64);
    for u in updates {
        w.put_varint(u.object.0 as u64);
        w.put_varint(u.version.time.as_ticks());
        w.put_varint(u.version.writer as u64);
        w.put_varint(u.diff.run_count() as u64);
        let mut prev_end = 0u64;
        for (offset, bytes) in u.diff.runs() {
            w.put_varint(offset as u64 - prev_end);
            w.put_varint(bytes.len() as u64);
            prev_end = offset as u64 + bytes.len() as u64;
            put_tokens(w, bytes);
        }
    }
}

/// Writes the zero-RLE tokens of one run: `(varint zeros, varint literals,
/// literal bytes)` until the run is covered.
fn put_tokens(w: &mut WireWriter, bytes: &[u8]) {
    for_each_token(bytes, |zeros, at, end| {
        w.put_varint(zeros as u64);
        w.put_varint((end - at) as u64);
        w.put_raw(&bytes[at..end]);
    });
}

/// Decodes a codec-v2 blob back into the exact update batch the sender
/// encoded, into `updates` — whose entries, and their diffs' storage, are
/// reused: a batch handed back after it was applied decodes the next one
/// without allocating.
///
/// # Errors
///
/// Returns [`NetError::Codec`] on any malformed or hostile input; `updates`
/// then holds garbage.
pub(crate) fn decode_updates(blob: &[u8], updates: &mut Vec<WireUpdate>) -> Result<(), NetError> {
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
        update.diff.rebuild(nruns as usize, |body| {
            let gap = r.get_varint()?;
            let len = r.get_varint()?;
            if len > MAX_RUN_LEN {
                return Err(NetError::Codec(format!(
                    "run length {len} exceeds decoder budget {MAX_RUN_LEN}"
                )));
            }
            let end = prev_end.checked_add(gap).and_then(|offset| offset.checked_add(len));
            let Some(end) = end.filter(|&end| end <= u32::MAX as u64) else {
                return Err(NetError::Codec("diff run exceeds u32 address space".into()));
            };
            prev_end = end;
            rle_decode(&mut r, len as usize, body)?;
            Ok((end - len) as u32)
        })?;
    }
    r.finish()
}

/// An eight-byte chunk as a little-endian word, so the lowest set bit
/// belongs to the chunk's first byte.
fn word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(chunk);
    u64::from_le_bytes(w)
}

/// The first index at or after `i` whose byte satisfies `hit`, or the
/// length: a word at a time while `word_hit` (a little-endian word test
/// whose lowest set bit marks the first such byte) finds nothing, then
/// bytewise for the tail.
#[inline]
fn find(bytes: &[u8], i: usize, word_hit: impl Fn(u64) -> u64, hit: impl Fn(u8) -> bool) -> usize {
    let rest = &bytes[i..];
    let mut at = 0;
    for chunk in rest.chunks_exact(8) {
        let found = word_hit(word(chunk));
        if found != 0 {
            return i + at + found.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    i + at + rest[at..].iter().take_while(|&&b| !hit(b)).count()
}

/// Index of the first non-zero byte of `bytes` at or after `i`, or its
/// length: 32 bytes per step while four ORed words are zero, then a word
/// at a time.
fn skip_zeros(bytes: &[u8], i: usize) -> usize {
    let zero = |block: &[u8]| (0..4).fold(0, |or, k| or | word(&block[8 * k..8 * k + 8])) == 0;
    let i = i + 32 * bytes[i..].chunks_exact(32).take_while(|&block| zero(block)).count();
    find(bytes, i, |w| w, |b| b != 0)
}

/// Index of the first zero byte of `bytes` at or after `i`, or its length.
/// A word holds a zero byte iff `(w - 0x01…01) & !w & 0x80…80` is non-zero,
/// and the lowest set bit of that mask marks the first one exactly (a
/// borrow only ever flags bytes above a real zero).
fn skip_nonzeros(bytes: &[u8], i: usize) -> usize {
    const LO: u64 = u64::from_le_bytes([0x01; 8]);
    const HI: u64 = u64::from_le_bytes([0x80; 8]);
    find(bytes, i, |w| w.wrapping_sub(LO) & !w & HI, |b| b == 0)
}

/// Walks `bytes` as alternating (zeros, literal) segments, calling `f` with
/// each token's zero count and literal span. A zero stretch inside a
/// literal shorter than [`ZERO_BREAK`] is cheaper shipped as literal bytes
/// than split into its own token. Each byte is scanned once: the zero
/// stretch that ends a literal is the next token's leading zeros.
fn for_each_token(bytes: &[u8], mut f: impl FnMut(usize, usize, usize)) {
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

/// Reads a zero-RLE token stream producing exactly `len` bytes into the
/// empty `out`. What it reserves up front is bounded by the tokens present,
/// not by `len`.
fn rle_decode(r: &mut WireReader<'_>, len: usize, out: &mut Vec<u8>) -> Result<(), NetError> {
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
        out.resize(out.len() + nzeros as usize, 0);
        out.extend_from_slice(r.get_raw(nlit as usize)?);
    }
    Ok(())
}

/// The byte-at-a-time kernels the word-at-a-time ones replaced, kept as the
/// reference the tests hold the codec to: same tokens, same blob.
#[cfg(test)]
mod bytewise {
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

    /// Encoded size of `v` as an LEB128 varint.
    pub(super) fn varint_len(v: u64) -> usize {
        (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
    }

    /// What a run's token stream costs: each token's two varints and its
    /// literal bytes.
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

    /// [`super::encode_blob`] with each kernel a byte at a time.
    pub(super) fn encode_blob(updates: &[WireUpdate]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(updates.len() as u64);
        for u in updates {
            w.put_varint(u.object.0 as u64);
            w.put_varint(u.version.time.as_ticks());
            w.put_varint(u.version.writer as u64);
            w.put_varint(u.diff.run_count() as u64);
            let mut prev_end = 0u64;
            for (offset, bytes) in u.diff.runs() {
                w.put_varint(offset as u64 - prev_end);
                w.put_varint(bytes.len() as u64);
                prev_end = offset as u64 + bytes.len() as u64;
                rle_encode(&mut w, bytes);
            }
        }
        w.into_bytes().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn upd(object: u32, diff: Diff, ticks: u64, writer: u16) -> WireUpdate {
        WireUpdate {
            object: ObjectId(object),
            diff,
            version: Version::new(LogicalTime::from_ticks(ticks), writer),
        }
    }

    /// [`encode_updates`] on fresh scratch.
    pub(super) fn encoded(updates: &[WireUpdate]) -> Option<Vec<u8>> {
        encode_updates(updates.iter(), &mut WireWriter::new())
    }

    /// [`decode_updates`] into a fresh batch.
    pub(super) fn decoded(blob: &[u8]) -> Result<Vec<WireUpdate>, NetError> {
        let mut updates = Vec::new();
        decode_updates(blob, &mut updates).map(|()| updates)
    }

    /// A run's token stream as `put_tokens` writes it.
    pub(super) fn rle_encode(bytes: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        put_tokens(&mut w, bytes);
        w.as_slice().to_vec()
    }

    fn roundtrip(updates: Vec<WireUpdate>) {
        let blob = encoded(&updates).expect("encodable");
        assert_eq!(decoded(&blob).unwrap(), updates);
    }

    #[test]
    fn absolute_roundtrip_is_bit_exact() {
        roundtrip(vec![]);
        roundtrip(vec![upd(3, Diff::single(2, vec![1, 2, 3]), 9, 1)]);
        roundtrip(vec![
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
        roundtrip(vec![upd(1, Diff::between(&old, &new), 4, 4)]);
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
        let blob = encoded(&updates).unwrap();
        let v1_len: usize = updates.iter().map(|u| u.diff.encoded_len()).sum();
        assert!(blob.len() * 5 < v1_len, "expected ≥5× shrink, got {} vs {v1_len}", blob.len());
    }

    #[test]
    fn oversized_run_falls_back_to_v1() {
        // Zeroed pages: the run is never touched, so it costs no memory.
        let updates = vec![upd(1, Diff::single(0, vec![0; (MAX_RUN_LEN + 1) as usize]), 1, 1)];
        assert!(encoded(&updates).is_none());
    }

    #[test]
    fn hostile_blobs_error_and_never_panic() {
        let updates = vec![
            upd(3, Diff::single(2, vec![0, 1, 0, 0, 0, 2]), 9, 1),
            upd(4, Diff::single(40, vec![5; 30]), 10, 2),
        ];
        let blob = encoded(&updates).unwrap();
        // Truncations.
        for cut in 0..blob.len() {
            assert!(decoded(&blob[..cut]).is_err());
        }
        // Single-byte corruption: must error or decode to something else,
        // never panic or hang.
        for i in 0..blob.len() {
            let mut bad = blob.to_vec();
            bad[i] = 0xFF;
            let _ = decoded(&bad);
        }
        // A huge claimed run length must not allocate its claim.
        let mut w = WireWriter::new();
        w.put_varint(1); // one update
        w.put_varint(3); // object
        w.put_varint(0); // time
        w.put_varint(0); // writer
        w.put_varint(1); // one run
        w.put_varint(0); // offset
        w.put_varint(u32::MAX as u64); // far beyond the decoder budget
        let err = decoded(w.as_slice()).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn empty_rle_token_rejected() {
        let mut w = WireWriter::new();
        w.put_varint(1); // one update
        w.put_varint(1); // object
        w.put_varint(0); // time
        w.put_varint(0); // writer
        w.put_varint(1); // one run
        w.put_varint(0); // offset
        w.put_varint(4); // len 4
        w.put_varint(0); // token: 0 zeros,
        w.put_varint(0); //        0 literals — would loop forever
        let err = decoded(w.as_slice());
        assert!(err.unwrap_err().to_string().contains("empty zero-RLE token"));
    }

    #[test]
    fn varint_len_matches_encoder() {
        // The price the byte loops' `rle_cost` holds a token stream to.
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            assert_eq!(w.len(), bytewise::varint_len(v), "varint_len({v})");
        }
    }

    /// The `(zeros, literal)` tokens of `body`, word kernels or byte loops.
    pub(super) fn tokens(bytewise: bool, body: &[u8]) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        if bytewise {
            bytewise::for_each_token(body, |zeros, lit| out.push((zeros, lit.to_vec())));
        } else {
            for_each_token(body, |zeros, at, end| out.push((zeros, body[at..end].to_vec())));
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
    /// whole 4 KiB block of which about 16 bytes are non-zero. The blob is
    /// the byte loops' byte for byte, at a third of their cost or less.
    /// Also printed, not asserted: a batch of two 64-byte updates, where
    /// the fixed cost per update the 4 KiB case hides is most of the work.
    #[test]
    #[ignore = "wall-clock ratio: run by the CI contracts job, in release"]
    fn contract_codec_v2_encodes_a_4_kib_block_at_least_3x_faster_than_the_byte_loops() {
        use std::hint::black_box;
        let mut after = vec![0u8; 4096];
        for (i, b) in after[..16].iter_mut().enumerate() {
            *b = 0x10 + i as u8;
        }
        let updates = vec![upd(1, Diff::single(0, after), 57, 1)];
        assert_eq!(encoded(&updates), Some(bytewise::encode_blob(&updates)));
        let w = std::cell::RefCell::new(WireWriter::new());
        let encode = |updates: &[WireUpdate]| {
            let mut w = w.borrow_mut();
            encode_blob(black_box(updates).iter(), &mut w);
            black_box(w.len());
            Vec::new()
        };
        let bytes = best_ns_per_call(400, &|| bytewise::encode_blob(black_box(&updates)));
        let words = best_ns_per_call(2000, &|| encode(&updates));
        println!("codec v2, 4 KiB block: byte loops {bytes:.0} ns, words {words:.0} ns");

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
        let two = best_ns_per_call(20_000, &|| encode(&small));
        println!("codec v2, two 64-byte updates: words {two:.0} ns per batch");
        assert!(bytes >= 3.0 * words, "word kernels only {:.1}x the byte loops", bytes / words);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::arbitrary::Arbitrary;
    use proptest::prelude::*;
    use proptest::sample::Index;
    use proptest::test_runner::TestRng;

    use super::tests::{decoded, encoded, rle_encode, tokens};
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

    /// One structural mutation of an encoded blob: what a damaged or
    /// hostile `Data2` puts in front of a decoder that, with no handshake,
    /// accepts one from a link's first frame.
    #[derive(Debug, Clone, Copy)]
    enum Mutation {
        /// XOR one byte with a non-zero mask.
        Flip,
        /// Cut the blob short.
        Truncate,
        /// Insert one byte.
        Insert,
        /// A head of this blob followed by a tail of another.
        Splice,
    }

    impl Arbitrary for Mutation {
        fn arbitrary(rng: &mut TestRng) -> Mutation {
            [Mutation::Flip, Mutation::Truncate, Mutation::Insert, Mutation::Splice]
                [rng.below(4) as usize]
        }
    }

    proptest! {
        /// A well-formed blob, mutated once, either fails with a codec
        /// error or decodes to what its bytes can address: no run past the
        /// decoder's budget, at most one run per two header bytes, and no
        /// more non-zero bytes than the blob holds, since only a literal
        /// token puts one there.
        #[test]
        fn a_mutated_blob_fails_as_a_codec_error_or_decodes_within_its_bounds(
            updates in arb_updates(),
            other in arb_updates(),
            mutation in any::<Mutation>(),
            at in any::<Index>(),
            from in any::<Index>(),
            byte in any::<u8>(),
        ) {
            let blob = encoded(&updates).expect("encodable");
            let mut bad = blob.clone();
            match mutation {
                Mutation::Flip => bad[at.index(blob.len())] ^= byte.max(1),
                Mutation::Truncate => bad.truncate(at.index(blob.len())),
                Mutation::Insert => bad.insert(at.index(blob.len() + 1), byte),
                Mutation::Splice => {
                    let other = encoded(&other).expect("encodable");
                    bad.truncate(at.index(blob.len() + 1));
                    bad.extend_from_slice(&other[from.index(other.len() + 1)..]);
                }
            }
            match decoded(&bad) {
                Ok(got) => {
                    let runs: Vec<&[u8]> =
                        got.iter().flat_map(|u| u.diff.runs().map(|(_, bytes)| bytes)).collect();
                    prop_assert!(runs.iter().all(|run| run.len() as u64 <= MAX_RUN_LEN));
                    prop_assert!(runs.len() <= bad.len() / 2, "{} runs", runs.len());
                    let set: usize =
                        runs.iter().map(|run| run.iter().filter(|&&b| b != 0).count()).sum();
                    prop_assert!(set <= bad.len(), "{} non-zero bytes from {}", set, bad.len());
                }
                Err(e) => prop_assert!(matches!(e, NetError::Codec(_)), "{:?}", e),
            }
        }

        #[test]
        fn token_stream_matches_the_byte_loop(body in arb_body(512), sparse in arb_sparse(512)) {
            for body in [&body, &sparse] {
                prop_assert_eq!(tokens(false, body), tokens(true, body));
            }
        }

        #[test]
        fn blob_matches_the_byte_loop_encoder(updates in arb_updates()) {
            prop_assert_eq!(encoded(&updates), Some(bytewise::encode_blob(&updates)));
        }

        #[test]
        fn rle_stream_roundtrips_and_cost_is_exact(body in arb_body(512)) {
            let encoded = rle_encode(&body);
            prop_assert_eq!(encoded.len(), bytewise::rle_cost(&body), "the tokens' price");
            let mut w = WireWriter::new();
            bytewise::rle_encode(&mut w, &body);
            prop_assert_eq!(&encoded[..], w.as_slice(), "the byte loops' stream");
            let mut r = WireReader::new(&encoded);
            let mut plain = Vec::new();
            rle_decode(&mut r, body.len(), &mut plain).unwrap();
            prop_assert_eq!(&plain, &body);
            prop_assert_eq!(r.remaining(), 0, "decode must consume the whole stream");
        }

        #[test]
        fn a_data2_frame_with_any_flag_byte_and_blob_never_panics_or_overallocates(
            flags in any::<u8>(),
            blob in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            use crate::wire::DsoMessage;
            let (epoch, time) = (crate::membership::Epoch(0), LogicalTime::from_ticks(1));
            let fused = DsoMessage::Data2 { epoch, time, blob, sync: true };
            // The flag byte follows the tag.
            let mut frame = sdso_net::wire::encode(&fused).to_vec();
            frame[1] = flags;
            match sdso_net::wire::decode::<DsoMessage>(&frame) {
                Ok(DsoMessage::Data2 { blob, sync, .. }) => {
                    prop_assert!(flags <= 1, "unknown flag bits {:#x} were accepted", flags);
                    prop_assert_eq!(sync, flags == 1);
                    for update in decoded(&blob).unwrap_or_default() {
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
            let blob = encoded(&updates).expect("encodable");
            prop_assert_eq!(decoded(&blob).unwrap(), updates);
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
            let blob = encoded(&updates).expect("encodable");
            prop_assert_eq!(decoded(&blob).unwrap(), updates);
        }
    }
}
