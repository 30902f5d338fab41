use std::collections::BTreeMap;

use sdso_net::NodeId;

use crate::clock::LogicalTime;

/// The time-ordered list of `(exchange-time, process)` pairs (paper Fig. 2).
///
/// "Only those processes requiring future exchanges appear in the list. The
/// list is ordered earliest exchange-time first and not by process IDs."
/// Each peer appears at most once; rescheduling a peer replaces its entry.
///
/// # Example
///
/// ```
/// use sdso_core::{ExchangeList, LogicalTime};
///
/// let mut list = ExchangeList::new();
/// list.schedule(2, LogicalTime::from_ticks(5));
/// list.schedule(1, LogicalTime::from_ticks(3));
/// let mut due = Vec::new();
/// list.due(LogicalTime::from_ticks(3), &mut due);
/// assert_eq!(due, [1]);
/// list.due(LogicalTime::from_ticks(5), &mut due);
/// assert_eq!(due, [1, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExchangeList {
    /// (time, peer) → (), ordered; the peer index below keeps entries unique.
    by_time: BTreeMap<(LogicalTime, NodeId), ()>,
    by_peer: BTreeMap<NodeId, LogicalTime>,
}

impl ExchangeList {
    /// An empty list.
    pub fn new() -> Self {
        ExchangeList::default()
    }

    /// Schedules (or reschedules) an exchange with `peer` at `time`.
    pub fn schedule(&mut self, peer: NodeId, time: LogicalTime) {
        if let Some(old) = self.by_peer.insert(peer, time) {
            self.by_time.remove(&(old, peer));
        }
        self.by_time.insert((time, peer), ());
    }

    /// Removes `peer`'s entry, returning its scheduled time if present.
    pub fn remove(&mut self, peer: NodeId) -> Option<LogicalTime> {
        let time = self.by_peer.remove(&peer)?;
        self.by_time.remove(&(time, peer));
        Some(time)
    }

    /// Fills `peers` with the peers whose exchange time is `<= now`, in id
    /// order (without removing them — the exchange engine removes and
    /// reschedules each peer after a successful rendezvous). `peers` is
    /// cleared first and keeps its capacity, so a caller that keeps it
    /// allocates nothing once it has grown.
    pub fn due(&self, now: LogicalTime, peers: &mut Vec<NodeId>) {
        peers.clear();
        peers.extend(self.by_time.range(..=(now, NodeId::MAX)).map(|(&(_, peer), ())| peer));
        peers.sort_unstable();
    }

    /// The scheduled time for `peer`, if any.
    pub fn time_for(&self, peer: NodeId) -> Option<LogicalTime> {
        self.by_peer.get(&peer).copied()
    }

    /// The earliest `(time, peer)` entry.
    pub fn peek_next(&self) -> Option<(LogicalTime, NodeId)> {
        self.by_time.keys().next().map(|&(t, p)| (t, p))
    }

    /// Number of scheduled peers.
    pub fn len(&self) -> usize {
        self.by_peer.len()
    }

    /// Whether no exchanges are scheduled.
    pub fn is_empty(&self) -> bool {
        self.by_peer.is_empty()
    }

    /// Iterates entries earliest-first.
    pub fn iter(&self) -> impl Iterator<Item = (LogicalTime, NodeId)> + '_ {
        self.by_time.keys().map(|&(t, p)| (t, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> LogicalTime {
        LogicalTime::from_ticks(n)
    }

    #[test]
    fn ordered_earliest_first_not_by_id() {
        let mut list = ExchangeList::new();
        list.schedule(1, t(9));
        list.schedule(7, t(2));
        list.schedule(3, t(5));
        let order: Vec<_> = list.iter().collect();
        assert_eq!(order, vec![(t(2), 7), (t(5), 3), (t(9), 1)]);
    }

    fn due(list: &ExchangeList, now: LogicalTime) -> Vec<NodeId> {
        let mut peers = vec![99];
        list.due(now, &mut peers);
        peers
    }

    #[test]
    fn due_includes_past_and_present() {
        let mut list = ExchangeList::new();
        list.schedule(1, t(1));
        list.schedule(2, t(3));
        list.schedule(3, t(3));
        assert_eq!(due(&list, t(2)), vec![1]);
        assert_eq!(due(&list, t(3)), vec![1, 2, 3]);
        assert!(due(&list, t(0)).is_empty(), "what the buffer held is gone");
    }

    #[test]
    fn reschedule_replaces_entry() {
        let mut list = ExchangeList::new();
        list.schedule(4, t(10));
        list.schedule(4, t(2));
        assert_eq!(list.len(), 1);
        assert_eq!(list.time_for(4), Some(t(2)));
        assert_eq!(list.peek_next(), Some((t(2), 4)));
    }

    #[test]
    fn remove_clears_both_indexes() {
        let mut list = ExchangeList::new();
        list.schedule(4, t(10));
        assert_eq!(list.remove(4), Some(t(10)));
        assert!(list.is_empty());
        assert_eq!(list.remove(4), None);
        assert_eq!(list.peek_next(), None);
    }

    #[test]
    fn due_ties_sorted_by_peer_id() {
        let mut list = ExchangeList::new();
        list.schedule(9, t(1));
        list.schedule(2, t(1));
        list.schedule(5, t(1));
        assert_eq!(due(&list, t(1)), vec![2, 5, 9]);
    }
}
