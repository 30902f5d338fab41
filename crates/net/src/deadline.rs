//! A shared virtual-deadline queue for transport timers.
//!
//! Every timer a transport needs — reconnect backoff, keepalives, retry
//! pacing — is a `(deadline, key)` pair in one [`DeadlineQueue`]. The reactor
//! event loop asks the queue how long it may sleep ([`DeadlineQueue::
//! timeout_until`]), parks in `poll` for exactly that long, and then drains
//! every due entry with [`DeadlineQueue::pop_due`].
//!
//! Ordering is a total order: entries pop by ascending deadline, and entries
//! with *equal* deadlines pop in insertion order (a strictly increasing
//! sequence number breaks ties). Timer dispatch is therefore deterministic
//! for a fixed insertion history, which the proptests in this module pin.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Microseconds on the owning transport's clock (wall-derived monotonic time
/// for real transports, virtual time if a simulated transport ever grows
/// timers).
pub type DeadlineMicros = u64;

/// A min-heap of `(deadline, key)` timers with deterministic FIFO
/// tie-breaking on equal deadlines.
#[derive(Debug)]
pub struct DeadlineQueue<K> {
    heap: BinaryHeap<Reverse<(DeadlineMicros, u64, K)>>,
    seq: u64,
}

impl<K: Ord> Default for DeadlineQueue<K> {
    fn default() -> Self {
        DeadlineQueue::new()
    }
}

impl<K: Ord> DeadlineQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        DeadlineQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `key` to fire at `at`. Multiple entries may share a key;
    /// each fires independently.
    pub fn schedule(&mut self, at: DeadlineMicros, key: K) {
        self.heap.push(Reverse((at, self.seq, key)));
        self.seq += 1;
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<DeadlineMicros> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Pops the earliest entry whose deadline is at or before `now`.
    /// Equal-deadline entries pop in the order they were scheduled.
    pub fn pop_due(&mut self, now: DeadlineMicros) -> Option<K> {
        match self.heap.peek() {
            Some(Reverse((at, _, _))) if *at <= now => {
                self.heap.pop().map(|Reverse((_, _, key))| key)
            }
            _ => None,
        }
    }

    /// How long a poll loop may sleep before the next timer is due:
    /// `None` when the queue is empty (sleep indefinitely), `Some(ZERO)`
    /// when a timer is already due.
    pub fn timeout_until(&self, now: DeadlineMicros) -> Option<Duration> {
        self.next_deadline().map(|at| Duration::from_micros(at.saturating_sub(now)))
    }

    /// Drops every pending entry for which `predicate` returns true.
    /// Rebuilds the heap; intended for rare paths (peer removal), not the
    /// per-wakeup hot path.
    pub fn cancel_if(&mut self, mut predicate: impl FnMut(&K) -> bool) {
        let entries: Vec<_> = std::mem::take(&mut self.heap).into_vec();
        for Reverse((at, seq, key)) in entries {
            if !predicate(&key) {
                self.heap.push(Reverse((at, seq, key)));
            }
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Bounded exponential backoff state for one link.
///
/// The *state* lives with the peer and survives individual attempts: the
/// reactor keeps one per link and fires each next attempt from its
/// [`DeadlineQueue`], so a link mid-backoff keeps its attempt counter and
/// current delay across turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    max_attempts: u32,
    attempts: u32,
}

impl Backoff {
    /// A fresh backoff: first delay `base`, doubling per attempt, capped at
    /// `max`, giving up after `max_attempts`.
    pub fn new(base: Duration, max: Duration, max_attempts: u32) -> Self {
        Backoff { base, max, max_attempts, attempts: 0 }
    }

    /// Attempts consumed since the last [`Backoff::reset`].
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Whether the attempt budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.attempts >= self.max_attempts
    }

    /// Consumes one attempt and returns the delay to wait before it, or
    /// `None` when the budget is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.exhausted() {
            return None;
        }
        let exp = self.attempts.min(16);
        self.attempts += 1;
        let delay = self.base.checked_mul(1u32 << exp).map(|d| d.min(self.max)).unwrap_or(self.max);
        Some(delay)
    }

    /// Resets the attempt counter after a successful (re)connection.
    pub fn reset(&mut self) {
        self.attempts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_deadline_order() {
        let mut q = DeadlineQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.next_deadline(), Some(10));
        assert_eq!(q.pop_due(100), Some("a"));
        assert_eq!(q.pop_due(100), Some("b"));
        assert_eq!(q.pop_due(100), Some("c"));
        assert_eq!(q.pop_due(100), None);
    }

    #[test]
    fn nothing_due_before_its_deadline() {
        let mut q = DeadlineQueue::new();
        q.schedule(50, 1u32);
        assert_eq!(q.pop_due(49), None);
        assert_eq!(q.pop_due(50), Some(1));
    }

    #[test]
    fn equal_deadlines_pop_in_insertion_order() {
        let mut q = DeadlineQueue::new();
        for key in 0..100u32 {
            q.schedule(7, key);
        }
        for key in 0..100u32 {
            assert_eq!(q.pop_due(7), Some(key));
        }
    }

    #[test]
    fn timeout_until_reflects_head() {
        let mut q: DeadlineQueue<u8> = DeadlineQueue::new();
        assert_eq!(q.timeout_until(0), None);
        q.schedule(1_000, 1);
        assert_eq!(q.timeout_until(400), Some(Duration::from_micros(600)));
        assert_eq!(q.timeout_until(2_000), Some(Duration::ZERO));
    }

    #[test]
    fn cancel_if_removes_matching_keys_only() {
        let mut q = DeadlineQueue::new();
        q.schedule(1, (0u16, 'a'));
        q.schedule(2, (1u16, 'b'));
        q.schedule(3, (0u16, 'c'));
        q.cancel_if(|&(peer, _)| peer == 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(10), Some((1, 'b')));
    }

    #[test]
    fn backoff_doubles_caps_and_exhausts() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(35), 4);
        assert_eq!(b.next_delay(), Some(Duration::from_millis(10)));
        assert_eq!(b.next_delay(), Some(Duration::from_millis(20)));
        assert_eq!(b.next_delay(), Some(Duration::from_millis(35)), "capped");
        assert_eq!(b.next_delay(), Some(Duration::from_millis(35)));
        assert!(b.exhausted());
        assert_eq!(b.next_delay(), None);
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert_eq!(b.next_delay(), Some(Duration::from_millis(10)));
    }

    #[test]
    fn backoff_survives_large_exponents_without_overflow() {
        let mut b = Backoff::new(Duration::from_secs(1), Duration::from_secs(5), 40);
        for _ in 0..40 {
            let d = b.next_delay().unwrap();
            assert!(d <= Duration::from_secs(5));
        }
        assert!(b.exhausted());
    }

    proptest! {
        /// The heap's pop sequence is exactly the input sorted by
        /// (deadline, insertion index): deterministic dispatch, FIFO ties.
        #[test]
        fn pop_order_is_deadline_then_insertion(
            deadlines in proptest::collection::vec(0u64..50, 0..64)
        ) {
            let mut q = DeadlineQueue::new();
            for (idx, &at) in deadlines.iter().enumerate() {
                q.schedule(at, idx);
            }
            let mut expect: Vec<(u64, usize)> =
                deadlines.iter().copied().zip(0..deadlines.len()).collect();
            expect.sort();
            let mut got = Vec::new();
            while let Some(key) = q.pop_due(u64::MAX) {
                got.push(key);
            }
            let expect_keys: Vec<usize> = expect.into_iter().map(|(_, i)| i).collect();
            prop_assert_eq!(got, expect_keys);
        }

        /// Interleaving schedules with partial drains never breaks the
        /// order invariant: every popped deadline is <= the next pending one.
        #[test]
        fn partial_drains_preserve_order(
            ops in proptest::collection::vec((0u64..100, any::<bool>()), 1..64)
        ) {
            let mut q = DeadlineQueue::new();
            let mut last_popped: Option<u64> = None;
            let mut now = 0u64;
            for (at, drain) in ops {
                if drain {
                    now = now.max(at);
                    while let Some(key) = q.pop_due(now) {
                        // Keys carry their deadline for the assertion.
                        if let Some(prev) = last_popped {
                            prop_assert!(key >= prev || key <= now);
                        }
                        last_popped = Some(key);
                    }
                } else {
                    // Never schedule into the drained past: matches how the
                    // transports use the queue (deadlines are now + delay).
                    q.schedule(now + at, now + at);
                }
            }
        }
    }
}
