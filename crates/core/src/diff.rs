//! Binary diffs of object state.
//!
//! S-DSO buffers "diffs of the state of each object since their previous
//! modification" in per-peer slots and "can be tuned to merge multiple diffs
//! to the same object into one diff since the last exchange with a given
//! process" (paper §3.1). [`Diff`] is that representation: a sorted,
//! non-overlapping run-list of `(offset, bytes)` pairs.

use crate::dirty::DirtyRanges;
use sdso_net::wire::{Wire, WireReader, WireWriter};
use sdso_net::NetError;

/// How close two dirty byte ranges may be before [`Diff::between`] joins
/// them into one run (run headers cost 8 bytes on the wire, so tiny gaps are
/// cheaper to ship than to split).
const COALESCE_GAP: usize = 4;

/// A sparse binary patch: a sorted list of non-overlapping byte runs.
///
/// # Example
///
/// ```
/// use sdso_core::Diff;
///
/// let old = vec![0u8; 8];
/// let mut new = old.clone();
/// new[2] = 7;
/// new[6] = 9;
/// let diff = Diff::between(&old, &new);
/// let mut patched = old.clone();
/// diff.apply(&mut patched).unwrap();
/// assert_eq!(patched, new);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    runs: Vec<Run>,
}

/// One contiguous dirty range.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Run {
    offset: u32,
    bytes: Vec<u8>,
}

impl Run {
    fn end(&self) -> u32 {
        self.offset + self.bytes.len() as u32
    }

    /// The run's bytes from absolute offset `from` to its end.
    fn slice_from(&self, from: u32) -> &[u8] {
        &self.bytes[(from - self.offset) as usize..]
    }

    /// The run's bytes between absolute offsets `from` and `to`.
    fn slice_between(&self, from: u32, to: u32) -> &[u8] {
        &self.bytes[(from - self.offset) as usize..(to - self.offset) as usize]
    }
}

/// Appends `bytes` at `offset` to a normalized run list, extending the last
/// run when exactly adjacent — the same normalization [`Diff::merge`]'s
/// overlay rebuild produces.
fn push_run(out: &mut Vec<Run>, offset: u32, bytes: &[u8]) {
    if bytes.is_empty() {
        return;
    }
    match out.last_mut() {
        Some(last) if last.end() == offset => last.bytes.extend_from_slice(bytes),
        _ => out.push(Run { offset, bytes: bytes.to_vec() }),
    }
}

/// Debug check: every byte a run carries at a position where `old == new`
/// (a coalesced gap) must equal the source image, so applying the diff to
/// the image it was computed from can never smuggle in stale bytes.
#[cfg(debug_assertions)]
fn gap_bytes_match_source(runs: &[Run], old: &[u8], new: &[u8]) -> bool {
    runs.iter().all(|run| {
        run.bytes.iter().enumerate().all(|(k, &b)| {
            let pos = run.offset as usize + k;
            old[pos] != new[pos] || b == old[pos]
        })
    })
}

#[cfg(not(debug_assertions))]
fn gap_bytes_match_source(_runs: &[Run], _old: &[u8], _new: &[u8]) -> bool {
    true
}

impl Diff {
    /// The empty diff.
    pub fn empty() -> Self {
        Diff::default()
    }

    /// Builds a diff containing exactly one run.
    ///
    /// # Panics
    ///
    /// Panics if `offset + bytes.len()` exceeds `u32::MAX`.
    pub fn single(offset: u32, bytes: Vec<u8>) -> Self {
        assert!(
            u32::try_from(bytes.len()).is_ok_and(|l| offset.checked_add(l).is_some()),
            "diff run exceeds u32 address space"
        );
        if bytes.is_empty() {
            return Diff::empty();
        }
        Diff { runs: vec![Run { offset, bytes }] }
    }

    /// Computes the diff that transforms `old` into `new`.
    ///
    /// Runs separated by fewer than a few unchanged bytes are coalesced,
    /// trading a handful of redundant bytes for fewer run headers.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths (objects never change
    /// size in S-DSO).
    pub fn between(old: &[u8], new: &[u8]) -> Self {
        assert_eq!(old.len(), new.len(), "objects never change size");
        let mut runs: Vec<Run> = Vec::new();
        let mut i = 0usize;
        while i < new.len() {
            if old[i] == new[i] {
                i += 1;
                continue;
            }
            let start = i;
            let mut last_dirty = i;
            i += 1;
            while i < new.len() {
                if old[i] != new[i] {
                    last_dirty = i;
                    i += 1;
                } else if i - last_dirty <= COALESCE_GAP {
                    i += 1;
                } else {
                    break;
                }
            }
            runs.push(Run { offset: start as u32, bytes: new[start..=last_dirty].to_vec() });
            i = last_dirty + 1;
        }
        debug_assert!(
            gap_bytes_match_source(&runs, old, new),
            "coalesced gap bytes must be byte-identical to the source image"
        );
        Diff { runs }
    }

    /// Like [`Diff::between`], but scans only the spans recorded in `dirty`
    /// instead of the whole image. Falls back to the full scan when tracking
    /// degraded ([`DirtyRanges::is_untracked`]).
    ///
    /// The result is byte-identical to the full scan **provided** `dirty`
    /// covers every byte where `old` and `new` differ — which holds whenever
    /// the spans were recorded by the same mutations that produced `new`.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths.
    pub fn between_ranges(old: &[u8], new: &[u8], dirty: &DirtyRanges) -> Self {
        assert_eq!(old.len(), new.len(), "objects never change size");
        if dirty.is_untracked() {
            return Diff::between(old, new);
        }
        let mut runs: Vec<Run> = Vec::new();
        // First byte not yet consumed: a run started in one span may extend
        // across the gap into the next (COALESCE_GAP joining), so later spans
        // must not rescan bytes an earlier run already swallowed.
        let mut consumed = 0usize;
        for (off, len) in dirty.spans() {
            let lo = (off as usize).max(consumed);
            let hi = (off as usize).saturating_add(len as usize).min(new.len());
            let mut i = lo;
            while i < hi {
                if old[i] == new[i] {
                    i += 1;
                    continue;
                }
                // Identical inner loop to `between`: the extension scan runs
                // over the full image so runs coalesce across span
                // boundaries exactly as the full scan would.
                let start = i;
                let mut last_dirty = i;
                i += 1;
                while i < new.len() {
                    if old[i] != new[i] {
                        last_dirty = i;
                        i += 1;
                    } else if i - last_dirty <= COALESCE_GAP {
                        i += 1;
                    } else {
                        break;
                    }
                }
                runs.push(Run { offset: start as u32, bytes: new[start..=last_dirty].to_vec() });
                i = last_dirty + 1;
            }
            consumed = consumed.max(i);
        }
        debug_assert!(
            gap_bytes_match_source(&runs, old, new),
            "coalesced gap bytes must be byte-identical to the source image"
        );
        Diff { runs }
    }

    /// Applies the diff to `target` in place.
    ///
    /// # Errors
    ///
    /// Returns an error (leaving `target` unmodified) if any run falls
    /// outside the target.
    pub fn apply(&self, target: &mut [u8]) -> Result<(), NetError> {
        for run in &self.runs {
            if run.end() as usize > target.len() {
                return Err(NetError::Codec(format!(
                    "diff run [{}, {}) exceeds object size {}",
                    run.offset,
                    run.end(),
                    target.len()
                )));
            }
        }
        for run in &self.runs {
            target[run.offset as usize..run.end() as usize].copy_from_slice(&run.bytes);
        }
        Ok(())
    }

    /// Overlays `newer` onto `self`: the result applied to any buffer equals
    /// applying `self` then `newer`.
    pub fn merge(&self, newer: &Diff) -> Diff {
        if self.runs.is_empty() {
            return newer.clone();
        }
        if newer.runs.is_empty() {
            return self.clone();
        }
        // Paint both diffs (newer last) into a byte overlay, then rebuild
        // runs. Diffs in S-DSO cover small objects, so the O(dirty bytes)
        // cost is negligible and the semantics are trivially right.
        let mut overlay: std::collections::BTreeMap<u32, u8> = std::collections::BTreeMap::new();
        for diff in [self, newer] {
            for run in &diff.runs {
                for (i, &b) in run.bytes.iter().enumerate() {
                    overlay.insert(run.offset + i as u32, b);
                }
            }
        }
        let mut runs: Vec<Run> = Vec::new();
        for (offset, byte) in overlay {
            match runs.last_mut() {
                Some(last) if last.end() == offset => last.bytes.push(byte),
                _ => runs.push(Run { offset, bytes: vec![byte] }),
            }
        }
        Diff { runs }
    }

    /// In-place [`Diff::merge`]: overlays `newer` onto `self` with a single
    /// two-pointer pass over the run lists, producing the same normalized
    /// result without the per-byte overlay map or the output clone.
    ///
    /// This is the exchange hot path — every buffered update merge and every
    /// `write` on an already-modified object lands here.
    pub fn merge_in_place(&mut self, newer: &Diff) {
        if newer.runs.is_empty() {
            return;
        }
        if self.runs.is_empty() {
            self.runs = newer.runs.clone();
            return;
        }
        let old_runs = std::mem::take(&mut self.runs);
        let mut out: Vec<Run> = Vec::with_capacity(old_runs.len() + newer.runs.len());
        let mut old_iter = old_runs.iter();
        let mut cur_old = old_iter.next();
        // Everything below this offset is already emitted or overwritten by a
        // newer run; surviving old fragments start at or after it.
        let mut floor: u32 = 0;

        for nrun in &newer.runs {
            // Zero-length runs (legal on the wire) paint nothing.
            if nrun.bytes.is_empty() {
                continue;
            }
            // Emit the parts of older runs that end before this newer run,
            // and the head fragment of one that overlaps it.
            while let Some(orun) = cur_old {
                let frag_start = floor.max(orun.offset);
                if orun.end() <= frag_start {
                    cur_old = old_iter.next();
                    continue;
                }
                if orun.end() <= nrun.offset {
                    push_run(&mut out, frag_start, orun.slice_from(frag_start));
                    cur_old = old_iter.next();
                    continue;
                }
                if frag_start < nrun.offset {
                    push_run(&mut out, frag_start, orun.slice_between(frag_start, nrun.offset));
                }
                break;
            }
            push_run(&mut out, nrun.offset, &nrun.bytes);
            floor = floor.max(nrun.end());
        }
        // Tails of older runs past the last newer run.
        while let Some(orun) = cur_old {
            let frag_start = floor.max(orun.offset);
            if frag_start < orun.end() {
                push_run(&mut out, frag_start, orun.slice_from(frag_start));
            }
            cur_old = old_iter.next();
        }
        self.runs = out;
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total dirty bytes carried.
    pub fn byte_count(&self) -> usize {
        self.runs.iter().map(|r| r.bytes.len()).sum()
    }

    /// Whether the diff changes nothing.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates over `(offset, bytes)` runs in ascending offset order.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u8])> {
        self.runs.iter().map(|r| (r.offset, r.bytes.as_slice()))
    }

    /// Encoded size on the wire, in bytes.
    pub fn encoded_len(&self) -> usize {
        4 + self.runs.iter().map(|r| 8 + r.bytes.len()).sum::<usize>()
    }

    /// Rebuilds a diff from `(offset, bytes)` runs, enforcing the same
    /// sorted/non-overlapping/no-wraparound invariants as the wire decode.
    /// Used by the v2 codec, whose delta-offset headers reconstruct the
    /// sender's run list exactly.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Codec`] when a run wraps the u32 address space
    /// or the list is unsorted/overlapping.
    pub(crate) fn from_sorted_runs(raw: Vec<(u32, Vec<u8>)>) -> Result<Self, NetError> {
        let runs: Vec<Run> = raw.into_iter().map(|(offset, bytes)| Run { offset, bytes }).collect();
        if runs.iter().any(|r| {
            u32::try_from(r.bytes.len()).ok().and_then(|l| r.offset.checked_add(l)).is_none()
        }) {
            return Err(NetError::Codec("diff run exceeds u32 address space".into()));
        }
        for pair in runs.windows(2) {
            if pair[1].offset < pair[0].end() {
                return Err(NetError::Codec("diff runs overlap or are unsorted".into()));
            }
        }
        Ok(Diff { runs })
    }
}

impl Wire for Diff {
    fn encode(&self, w: &mut WireWriter) {
        w.put_seq(&self.runs, |w, run| {
            w.put_u32(run.offset);
            w.put_bytes(&run.bytes);
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let runs = r.get_seq(|r| {
            let offset = r.get_u32()?;
            let bytes = r.get_bytes()?.to_vec();
            Ok(Run { offset, bytes })
        })?;
        // Reject address-space overflow FIRST: the overlap check below
        // computes offset + len, which must not wrap on untrusted input.
        if runs.iter().any(|r| {
            u32::try_from(r.bytes.len()).ok().and_then(|l| r.offset.checked_add(l)).is_none()
        }) {
            return Err(NetError::Codec("diff run exceeds u32 address space".into()));
        }
        // Enforce the sorted/non-overlapping invariant.
        for pair in runs.windows(2) {
            if pair[1].offset < pair[0].end() {
                return Err(NetError::Codec("diff runs overlap or are unsorted".into()));
            }
        }
        Ok(Diff { runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_net::wire;

    #[test]
    fn between_and_apply_roundtrip() {
        let old = b"the quick brown fox jumps over the lazy dog".to_vec();
        let mut new = old.clone();
        new[4] = b'Q';
        new[20] = b'X';
        new[21] = b'Y';
        let diff = Diff::between(&old, &new);
        let mut patched = old.clone();
        diff.apply(&mut patched).unwrap();
        assert_eq!(patched, new);
    }

    #[test]
    fn identical_buffers_give_empty_diff() {
        let buf = vec![42u8; 128];
        let diff = Diff::between(&buf, &buf);
        assert!(diff.is_empty());
        assert_eq!(diff.byte_count(), 0);
    }

    #[test]
    fn nearby_changes_coalesce_into_one_run() {
        let old = vec![0u8; 32];
        let mut new = old.clone();
        new[10] = 1;
        new[13] = 1; // gap of 2 ≤ COALESCE_GAP
        let diff = Diff::between(&old, &new);
        assert_eq!(diff.run_count(), 1);
    }

    #[test]
    fn distant_changes_stay_separate_runs() {
        let old = vec![0u8; 64];
        let mut new = old.clone();
        new[0] = 1;
        new[40] = 1;
        let diff = Diff::between(&old, &new);
        assert_eq!(diff.run_count(), 2);
    }

    #[test]
    fn apply_out_of_bounds_is_error_and_leaves_target_untouched() {
        let diff = Diff::single(10, vec![1, 2, 3]);
        let mut target = vec![0u8; 8];
        let before = target.clone();
        assert!(diff.apply(&mut target).is_err());
        assert_eq!(target, before);
    }

    #[test]
    fn merge_equals_sequential_application() {
        let base = vec![0u8; 16];
        let a = Diff::single(2, vec![1, 1, 1, 1]);
        let b = Diff::single(4, vec![2, 2, 2, 2]);

        let mut sequential = base.clone();
        a.apply(&mut sequential).unwrap();
        b.apply(&mut sequential).unwrap();

        let merged = a.merge(&b);
        let mut at_once = base.clone();
        merged.apply(&mut at_once).unwrap();
        assert_eq!(at_once, sequential);
    }

    #[test]
    fn merge_newer_fully_covers_older() {
        let a = Diff::single(4, vec![1; 8]);
        let b = Diff::single(0, vec![2; 16]);
        let merged = a.merge(&b);
        assert_eq!(merged, b);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = Diff::single(3, vec![9, 9]);
        assert_eq!(a.merge(&Diff::empty()), a);
        assert_eq!(Diff::empty().merge(&a), a);
    }

    #[test]
    fn merge_disjoint_keeps_both() {
        let a = Diff::single(0, vec![1, 1]);
        let b = Diff::single(10, vec![2, 2]);
        let merged = a.merge(&b);
        assert_eq!(merged.run_count(), 2);
        assert_eq!(merged.byte_count(), 4);
    }

    #[test]
    fn merge_adjacent_runs_normalize() {
        let a = Diff::single(0, vec![1, 1]);
        let b = Diff::single(2, vec![2, 2]);
        let merged = a.merge(&b);
        assert_eq!(merged.run_count(), 1);
        let mut buf = vec![0u8; 4];
        merged.apply(&mut buf).unwrap();
        assert_eq!(buf, vec![1, 1, 2, 2]);
    }

    #[test]
    fn wire_roundtrip() {
        let old = vec![0u8; 40];
        let mut new = old.clone();
        new[3] = 1;
        new[20] = 2;
        new[39] = 3;
        let diff = Diff::between(&old, &new);
        let encoded = wire::encode(&diff);
        assert_eq!(encoded.len(), diff.encoded_len());
        let decoded: Diff = wire::decode(&encoded).unwrap();
        assert_eq!(decoded, diff);
    }

    #[test]
    fn decode_rejects_overlapping_runs() {
        let mut w = WireWriter::new();
        // Two runs: [0,4) and [2,6) — overlapping.
        w.put_u32(2);
        w.put_u32(0);
        w.put_bytes(&[1, 1, 1, 1]);
        w.put_u32(2);
        w.put_bytes(&[2, 2, 2, 2]);
        let res: Result<Diff, _> = wire::decode(&w.into_bytes());
        assert!(res.is_err());
    }

    #[test]
    fn single_empty_bytes_is_empty_diff() {
        assert!(Diff::single(5, Vec::new()).is_empty());
    }

    #[test]
    fn coalesced_gap_bytes_match_source_image() {
        // Dirty bytes at 10 and 13 with distinctive clean bytes in between:
        // the joined run must carry the *source* gap bytes, so applying it to
        // the image it was computed from changes nothing in the gap.
        let mut old = vec![0u8; 32];
        old[11] = 0xAA;
        old[12] = 0xBB;
        let mut new = old.clone();
        new[10] = 1;
        new[13] = 1;
        let diff = Diff::between(&old, &new);
        assert_eq!(diff.run_count(), 1);
        let mut patched = old.clone();
        diff.apply(&mut patched).unwrap();
        assert_eq!(patched, new);
        assert_eq!(patched[11], 0xAA);
        assert_eq!(patched[12], 0xBB);
    }

    #[test]
    fn merge_in_place_matches_overlay_merge() {
        let cases: &[(Diff, Diff)] = &[
            (Diff::single(2, vec![1; 4]), Diff::single(4, vec![2; 4])),
            (Diff::single(4, vec![1; 8]), Diff::single(0, vec![2; 16])),
            (Diff::single(0, vec![1; 16]), Diff::single(4, vec![2; 4])),
            (Diff::single(0, vec![1, 1]), Diff::single(10, vec![2, 2])),
            (Diff::single(0, vec![1, 1]), Diff::single(2, vec![2, 2])),
            (Diff::single(8, vec![1, 1]), Diff::single(0, vec![2, 2])),
            (Diff::empty(), Diff::single(3, vec![9])),
            (Diff::single(3, vec![9]), Diff::empty()),
        ];
        for (a, b) in cases {
            let expected = a.merge(b);
            let mut got = a.clone();
            got.merge_in_place(b);
            assert_eq!(got, expected, "merge_in_place({a:?}, {b:?})");
        }
    }

    #[test]
    fn merge_in_place_splits_old_run_around_newer() {
        // Old covers [0,10); newer overwrites [3,6). The old run must split
        // into head + tail with the newer bytes between, fully normalized.
        let old_diff = Diff::single(0, (0u8..10).collect());
        let newer = Diff::single(3, vec![99; 3]);
        let mut merged = old_diff.clone();
        merged.merge_in_place(&newer);
        assert_eq!(merged, old_diff.merge(&newer));
        assert_eq!(merged.run_count(), 1); // contiguous coverage stays one run
        let mut buf = vec![0u8; 10];
        merged.apply(&mut buf).unwrap();
        assert_eq!(buf, vec![0, 1, 2, 99, 99, 99, 6, 7, 8, 9]);
    }

    #[test]
    fn merge_in_place_newer_spans_multiple_old_runs() {
        let mut a = Diff::single(0, vec![1, 1]);
        a.merge_in_place(&Diff::single(10, vec![1, 1]));
        a.merge_in_place(&Diff::single(20, vec![1, 1]));
        let bridge = Diff::single(1, vec![2; 15]); // covers tail of run 0 through run 1
        let expected = a.merge(&bridge);
        a.merge_in_place(&bridge);
        assert_eq!(a, expected);
    }

    #[test]
    fn between_ranges_matches_full_scan_when_spans_cover_writes() {
        let old = vec![0u8; 256];
        let mut new = old.clone();
        let mut dirty = crate::dirty::DirtyRanges::new();
        for &(off, len) in &[(3u32, 5u32), (40, 1), (43, 2), (250, 6)] {
            for i in off..off + len {
                new[i as usize] = 7;
            }
            dirty.record(off, len);
        }
        let tracked = Diff::between_ranges(&old, &new, &dirty);
        assert_eq!(tracked, Diff::between(&old, &new));
    }

    #[test]
    fn between_ranges_coalesces_across_span_boundary() {
        // Two spans whose dirty bytes sit COALESCE_GAP apart must join into
        // one run exactly as the full scan joins them.
        let old = vec![0u8; 64];
        let mut new = old.clone();
        new[10] = 1;
        new[13] = 1;
        let mut dirty = crate::dirty::DirtyRanges::new();
        dirty.record(10, 1);
        dirty.record(13, 1);
        assert_eq!(dirty.span_count(), 2);
        let tracked = Diff::between_ranges(&old, &new, &dirty);
        let full = Diff::between(&old, &new);
        assert_eq!(full.run_count(), 1);
        assert_eq!(tracked, full);
    }

    #[test]
    fn between_ranges_with_overwritten_clean_span_is_empty() {
        // A span was recorded but the bytes ended up identical (write of the
        // same value): tracked scan finds nothing, like the full scan.
        let old = vec![9u8; 32];
        let new = old.clone();
        let mut dirty = crate::dirty::DirtyRanges::new();
        dirty.record(4, 8);
        assert!(Diff::between_ranges(&old, &new, &dirty).is_empty());
    }

    #[test]
    fn between_ranges_untracked_falls_back_to_full_scan() {
        let old = vec![0u8; 32];
        let mut new = old.clone();
        new[5] = 1;
        let mut dirty = crate::dirty::DirtyRanges::new();
        dirty.mark_untracked();
        assert_eq!(Diff::between_ranges(&old, &new, &dirty), Diff::between(&old, &new));
    }

    #[test]
    fn between_ranges_clean_is_empty() {
        let buf = vec![1u8; 64];
        let dirty = crate::dirty::DirtyRanges::new();
        assert!(Diff::between_ranges(&buf, &buf, &dirty).is_empty());
    }

    /// What dirty-range tracking is for: on a 64 KiB object with eight
    /// 80-byte writes (under 1 % dirty) the tracked diff is the full scan's,
    /// bit for bit, at under half its cost (measured 71x in release). A
    /// fresh ratio on one host, best of three batches each.
    #[test]
    #[ignore = "wall-clock ratio: run by the CI contracts job, in release"]
    fn contract_tracked_diff_equals_the_full_scan_and_is_twice_as_fast() {
        use std::hint::black_box;
        let old = vec![0u8; 64 * 1024];
        let mut new = old.clone();
        let mut dirty = crate::dirty::DirtyRanges::new();
        for off in [1_024u32, 9_000, 17_500, 25_000, 33_333, 44_000, 52_000, 63_000] {
            new[off as usize..off as usize + 80].fill(0xC7);
            dirty.record(off, 80);
        }
        let full = Diff::between(&old, &new);
        assert_eq!(full.byte_count(), 640);
        assert_eq!(Diff::between_ranges(&old, &new, &dirty), full);
        let best_ns_per_call = |reps: u32, f: &dyn Fn() -> Diff| {
            let batch = |_| {
                let t0 = std::time::Instant::now();
                (0..reps).for_each(|_| drop(black_box(f())));
                t0.elapsed().as_nanos() as f64 / f64::from(reps)
            };
            (0..3).map(batch).fold(f64::INFINITY, f64::min)
        };
        let scan = best_ns_per_call(400, &|| Diff::between(black_box(&old), black_box(&new)));
        let tracked = best_ns_per_call(4000, &|| {
            Diff::between_ranges(black_box(&old), black_box(&new), black_box(&dirty))
        });
        println!("diff 64 KiB, 640 dirty: full {scan:.0} ns, tracked {tracked:.0} ns");
        assert!(scan >= 2.0 * tracked, "tracked diff only {:.1}x the full scan", scan / tracked);
    }
}
