//! Dirty-range tracking for byte images.
//!
//! A writer records the `(offset, len)` span each mutation touched so diff
//! construction can scan only the bytes that may have changed instead of the
//! whole image ([`crate::Diff::between_ranges`]). The object store does not
//! use it — a write's diff is the bytes written — so what runs it today is
//! the benchmark's per-block diff kernel. Tracking is an optimization, never
//! a correctness dependency: once the span list grows past
//! [`MAX_SPANS`] (or a caller declares an untracked mutation) the set degrades
//! to [`untracked`](DirtyRanges::is_untracked) and diff builders fall back to
//! the full scan.

/// Span-list capacity before tracking collapses to the untracked fallback.
///
/// Past this many disjoint spans the bookkeeping costs more than the full
/// scan it avoids, and real write patterns (a handful of fields per tick)
/// never get close.
pub const MAX_SPANS: usize = 64;

/// A sorted, coalesced set of `(offset, len)` byte spans touched since the
/// last [`clear`](DirtyRanges::clear).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyRanges {
    /// Sorted by offset; no two spans overlap or touch.
    spans: Vec<(u32, u32)>,
    untracked: bool,
}

impl Default for DirtyRanges {
    fn default() -> Self {
        DirtyRanges::new()
    }
}

impl DirtyRanges {
    /// An empty (fully clean, tracked) set.
    pub fn new() -> Self {
        DirtyRanges { spans: Vec::new(), untracked: false }
    }

    /// Records that `len` bytes starting at `offset` may have changed.
    ///
    /// Overlapping and touching spans coalesce. Recording more than
    /// [`MAX_SPANS`] disjoint spans (or a span overflowing the `u32` address
    /// space) collapses the set to untracked.
    pub fn record(&mut self, offset: u32, len: u32) {
        if self.untracked || len == 0 {
            return;
        }
        let Some(end) = offset.checked_add(len) else {
            self.mark_untracked();
            return;
        };
        // Merge window: every span that overlaps or touches [offset, end).
        let lo = self.spans.partition_point(|&(o, l)| o + l < offset);
        let hi = self.spans.partition_point(|&(o, _)| o <= end);
        if lo == hi {
            self.spans.insert(lo, (offset, len));
        } else {
            let merged_off = self.spans[lo].0.min(offset);
            let (last_off, last_len) = self.spans[hi - 1];
            let merged_end = (last_off + last_len).max(end);
            self.spans[lo] = (merged_off, merged_end - merged_off);
            self.spans.drain(lo + 1..hi);
        }
        if self.spans.len() > MAX_SPANS {
            self.mark_untracked();
        }
    }

    /// Declares that bytes changed without saying which: from here on only a
    /// full scan is sound, until the next [`clear`](DirtyRanges::clear).
    pub fn mark_untracked(&mut self) {
        self.untracked = true;
        self.spans.clear();
    }

    /// Whether span information was lost and a full scan is required.
    pub fn is_untracked(&self) -> bool {
        self.untracked
    }

    /// Whether nothing has been recorded (and tracking never degraded).
    pub fn is_clean(&self) -> bool {
        !self.untracked && self.spans.is_empty()
    }

    /// Resets to fully clean and tracked (a new baseline was captured).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.untracked = false;
    }

    /// The recorded spans in ascending offset order (empty when untracked).
    pub fn spans(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.spans.iter().copied()
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Total bytes covered by recorded spans.
    pub fn dirty_bytes(&self) -> usize {
        self.spans.iter().map(|&(_, l)| l as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(d: &DirtyRanges) -> Vec<(u32, u32)> {
        d.spans().collect()
    }

    #[test]
    fn starts_clean_and_tracked() {
        let d = DirtyRanges::new();
        assert!(d.is_clean());
        assert!(!d.is_untracked());
        assert_eq!(d.span_count(), 0);
    }

    #[test]
    fn disjoint_spans_stay_sorted() {
        let mut d = DirtyRanges::new();
        d.record(40, 4);
        d.record(0, 4);
        d.record(20, 4);
        assert_eq!(spans(&d), vec![(0, 4), (20, 4), (40, 4)]);
        assert_eq!(d.dirty_bytes(), 12);
    }

    #[test]
    fn overlapping_and_touching_spans_coalesce() {
        let mut d = DirtyRanges::new();
        d.record(10, 10);
        d.record(15, 10); // overlaps
        assert_eq!(spans(&d), vec![(10, 15)]);
        d.record(25, 5); // touches end
        assert_eq!(spans(&d), vec![(10, 20)]);
        d.record(5, 5); // touches start
        assert_eq!(spans(&d), vec![(5, 25)]);
    }

    #[test]
    fn bridging_span_swallows_neighbors() {
        let mut d = DirtyRanges::new();
        d.record(0, 2);
        d.record(10, 2);
        d.record(20, 2);
        d.record(1, 15); // bridges the first two, not the third
        assert_eq!(spans(&d), vec![(0, 16), (20, 2)]);
    }

    #[test]
    fn zero_len_is_noop() {
        let mut d = DirtyRanges::new();
        d.record(7, 0);
        assert!(d.is_clean());
    }

    #[test]
    fn overflow_degrades_to_untracked() {
        let mut d = DirtyRanges::new();
        d.record(u32::MAX - 1, 4);
        assert!(d.is_untracked());
        // Once untracked, record is a no-op until cleared.
        d.record(0, 4);
        assert_eq!(d.span_count(), 0);
        d.clear();
        assert!(d.is_clean());
        d.record(0, 4);
        assert_eq!(spans(&d), vec![(0, 4)]);
    }

    #[test]
    fn span_cap_degrades_to_untracked() {
        let mut d = DirtyRanges::new();
        for i in 0..MAX_SPANS as u32 {
            d.record(i * 10, 2);
        }
        assert!(!d.is_untracked());
        assert_eq!(d.span_count(), MAX_SPANS);
        d.record(u32::MAX - 8, 2); // one disjoint span too many
        assert!(d.is_untracked());
    }
}
