use sdso_net::NodeId;

use crate::clock::LogicalTime;
use crate::store::ObjectStore;

/// A semantic function ("s-function"): the application-supplied attribute
/// that tells the consistency layer *when* it must next exchange updates
/// with *which* process (paper §3.1).
///
/// After every successful rendezvous with `peer` at logical time `now` the
/// runtime calls [`SFunction::next_exchange`] to recompute that peer's entry
/// in the exchange list, passing the local object store *after* the
/// rendezvous updates were applied. The same method seeds the initial
/// schedule with `now == LogicalTime::ZERO` and the initial store.
///
/// # Correctness contract
///
/// Rendezvous are symmetric: when process *a* schedules an exchange with *b*
/// at time *t*, process *b* must schedule *a* at the same *t*. S-functions
/// therefore may only consult state both endpoints share — at rendezvous
/// time that is exactly the pair's mutually exchanged objects — never
/// process-local randomness. The runtime checks the cheap half of this
/// contract (returned times must be strictly after `now`); symmetry itself
/// is application responsibility and is validated for the game s-functions
/// by property tests.
///
/// # Example
///
/// A closure is an s-function; this one re-exchanges with every peer on
/// every tick (the BSYNC temporal worst case):
///
/// ```
/// use sdso_core::{LogicalTime, ObjectStore, SFunction};
///
/// let mut every_tick =
///     |_peer: u16, now: LogicalTime, _view: &ObjectStore| Some(now.plus(1));
/// let store = ObjectStore::new();
/// assert_eq!(
///     SFunction::next_exchange(&mut every_tick, 3, LogicalTime::ZERO, &store),
///     Some(LogicalTime::from_ticks(1)),
/// );
/// ```
pub trait SFunction {
    /// The next logical time this process must exchange with `peer`, or
    /// `None` if no future exchange is required. `view` is the local object
    /// store with all rendezvous updates applied.
    fn next_exchange(
        &mut self,
        peer: NodeId,
        now: LogicalTime,
        view: &ObjectStore,
    ) -> Option<LogicalTime>;

    /// Membership-delta hook: called once per view change, after the
    /// runtime has pruned leavers and asked [`SFunction::next_exchange`]
    /// for each joiner's first exchange. S-functions that cache per-peer
    /// spatial state (e.g. interaction predictions keyed by peer) override
    /// this to recompute their groups; stateless s-functions need not.
    fn on_view_change(&mut self, joined: &[NodeId], left: &[NodeId]) {
        let _ = (joined, left);
    }
}

impl<F> SFunction for F
where
    F: FnMut(NodeId, LogicalTime, &ObjectStore) -> Option<LogicalTime>,
{
    fn next_exchange(
        &mut self,
        peer: NodeId,
        now: LogicalTime,
        view: &ObjectStore,
    ) -> Option<LogicalTime> {
        self(peer, now, view)
    }
}

/// The trivial temporal s-function: exchange with every peer on every tick.
///
/// This is BSYNC's attribute — it encodes the worst-case assumption that
/// "all updates to shared objects must be made known to all other processes
/// whenever any object is modified".
#[derive(Debug, Clone, Copy, Default)]
pub struct EveryTick;

impl SFunction for EveryTick {
    fn next_exchange(
        &mut self,
        _peer: NodeId,
        now: LogicalTime,
        _view: &ObjectStore,
    ) -> Option<LogicalTime> {
        Some(now.plus(1))
    }
}

/// An s-function that never schedules exchanges: for runtimes that meet
/// their peers only in broadcast barriers, or never.
#[derive(Debug, Clone, Copy, Default)]
pub struct Never;

impl SFunction for Never {
    fn next_exchange(
        &mut self,
        _peer: NodeId,
        _now: LogicalTime,
        _view: &ObjectStore,
    ) -> Option<LogicalTime> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tick_always_next() {
        let mut s = EveryTick;
        let store = ObjectStore::new();
        for t in 0..5 {
            let now = LogicalTime::from_ticks(t);
            assert_eq!(s.next_exchange(9, now, &store), Some(now.plus(1)));
        }
    }

    #[test]
    fn never_returns_none() {
        assert_eq!(Never.next_exchange(0, LogicalTime::ZERO, &ObjectStore::new()), None);
    }

    #[test]
    fn closures_are_sfunctions() {
        let mut halver = |peer: NodeId, now: LogicalTime, _view: &ObjectStore| {
            Some(now.plus(u64::from(peer) / 2 + 1))
        };
        assert_eq!(
            SFunction::next_exchange(&mut halver, 4, LogicalTime::ZERO, &ObjectStore::new()),
            Some(LogicalTime::from_ticks(3))
        );
    }
}
