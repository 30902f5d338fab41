use sdso_net::NodeId;

use crate::diff::Diff;
use crate::object::{ObjectId, Version};
use crate::wire::WireUpdate;

/// The per-process slotted buffer of outstanding modifications (paper
/// Fig. 3).
///
/// "S-DSO maintains a slotted buffer at each process for outstanding
/// modifications to be exchanged with remote processes. There is one slot in
/// the buffer for each remote process. [...] the buffered changes are diffs
/// of the state of each object since their previous modification", and
/// "S-DSO can be tuned to merge multiple diffs to the same object into one
/// diff since the last exchange with a given process." With merging disabled
/// (the ablation configuration) every modification stays a separate pending
/// update and is shipped separately.
///
/// Each slot is one list of pending updates sorted by object, which a drain
/// empties without giving up its storage: merging into an object already
/// pending in a slot rewrites its bytes in place when the write lands
/// inside them (see [`Diff::merge_in_place`]), and a slot that has held as
/// many objects before takes a new one without allocating the entry.
///
/// # Example
///
/// ```
/// use sdso_core::{Diff, LogicalTime, ObjectId, SlottedBuffer, Version};
///
/// let mut buf = SlottedBuffer::new(3, 0, true);
/// let stamp = Version::new(LogicalTime::from_ticks(1), 0);
/// buf.buffer_for_all(ObjectId(7), &Diff::single(0, vec![1]), stamp, &[2]);
/// assert_eq!(buf.slot_len(1), 1); // peer 1 got the update buffered
/// assert_eq!(buf.slot_len(2), 0); // peer 2 was exchanged with directly
/// ```
#[derive(Debug)]
pub struct SlottedBuffer {
    /// slot\[peer\] — `None` at the local process's own index. Ascending by
    /// object; one entry per object unless merging is disabled, when an
    /// object's entries stay oldest-first.
    slots: Vec<Option<Vec<WireUpdate>>>,
    me: usize,
    merge: bool,
    merged_count: u64,
}

impl SlottedBuffer {
    /// Creates a buffer for a cluster of `num_nodes`, local process `me`.
    /// `merge` enables per-object diff merging (the paper's optimisation;
    /// disable it only for the ablation study).
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    pub fn new(num_nodes: usize, me: NodeId, merge: bool) -> Self {
        assert!(usize::from(me) < num_nodes, "local id out of range");
        let slots = (0..num_nodes)
            .map(|i| if i == usize::from(me) { None } else { Some(Vec::new()) })
            .collect();
        SlottedBuffer { slots, me: usize::from(me), merge, merged_count: 0 }
    }

    /// Buffers a local modification for every remote peer except those in
    /// `exclude` (the peers the update was just sent to directly).
    pub fn buffer_for_all(
        &mut self,
        object: ObjectId,
        diff: &Diff,
        version: Version,
        exclude: &[NodeId],
    ) {
        if diff.is_empty() {
            return;
        }
        for (peer, slot) in self.slots.iter_mut().enumerate() {
            let Some(slot) = slot else { continue };
            if exclude.contains(&(peer as NodeId)) {
                continue;
            }
            // Just past the object's last entry, where a new one goes.
            let at = slot.partition_point(|pending| pending.object <= object);
            match at.checked_sub(1).map(|last| &mut slot[last]) {
                Some(pending) if self.merge && pending.object == object => {
                    pending.diff.merge_in_place(diff);
                    pending.version = pending.version.max(version);
                    self.merged_count += 1;
                }
                _ => slot.insert(at, WireUpdate { object, diff: diff.clone(), version }),
            }
        }
    }

    /// Drains `peer`'s slot, yielding the pending updates in object order
    /// (oldest-first within one object when merging is disabled).
    ///
    /// # Panics
    ///
    /// Panics if `peer` is the local process or out of range.
    pub fn drain_slot(&mut self, peer: NodeId) -> std::vec::Drain<'_, WireUpdate> {
        self.slots[usize::from(peer)].as_mut().expect("drain_slot: peer must be remote").drain(..)
    }

    /// Moves onto `shipped`, in object order, only the pending updates for
    /// `peer` whose object satisfies `ship`, *retaining* the rest in the
    /// slot (still merged, so the retained tail stays bounded by the object
    /// count when merging is on).
    ///
    /// This is the interest-routing drain: a live multicast exchange ships
    /// only the objects inside the peer's interest set; everything else
    /// stays buffered and is flushed by the next broadcast exchange (epoch
    /// barriers and the terminal sync), which uses the unfiltered
    /// [`SlottedBuffer::drain_slot`]. No update is ever dropped — routing
    /// only defers delivery, so final worlds stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is the local process or out of range.
    pub fn drain_slot_filtered(
        &mut self,
        peer: NodeId,
        mut ship: impl FnMut(ObjectId) -> bool,
        shipped: &mut Vec<WireUpdate>,
    ) {
        let slot = self.slots[usize::from(peer)]
            .as_mut()
            .expect("drain_slot_filtered: peer must be remote");
        slot.retain_mut(|pending| {
            if !ship(pending.object) {
                return true;
            }
            let diff = std::mem::take(&mut pending.diff);
            shipped.push(WireUpdate { object: pending.object, diff, version: pending.version });
            false
        });
    }

    /// Number of pending updates for `peer`.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is the local process or out of range.
    pub fn slot_len(&self, peer: NodeId) -> usize {
        self.slots[usize::from(peer)].as_ref().expect("slot_len: peer must be remote").len()
    }

    /// Compacts away a departed peer's slot, returning whatever pending
    /// updates it still held so the caller can account for (rather than
    /// silently leak) undelivered work. Subsequent `buffer_for_all` calls
    /// skip the peer; `drain_slot`/`slot_len` panic on it like they do for
    /// the local process.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is the local process, out of range, or already
    /// removed.
    pub fn remove_peer(&mut self, peer: NodeId) -> Vec<WireUpdate> {
        self.slots[usize::from(peer)].take().expect("remove_peer: peer must be an active remote")
    }

    /// (Re-)activates a slot for a peer that joined the group, starting
    /// empty: a joiner is brought up to date by snapshot transfer, not by
    /// replaying history, so no back-fill of past diffs is required.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is the local process or already active.
    pub fn add_peer(&mut self, peer: NodeId) {
        let idx = usize::from(peer);
        assert!(idx != self.me, "add_peer: peer must be remote");
        if idx == self.slots.len() {
            self.slots.push(Some(Vec::new()));
            return;
        }
        let slot = &mut self.slots[idx];
        assert!(slot.is_none(), "add_peer: slot already active");
        *slot = Some(Vec::new());
    }

    /// Whether `peer` currently has an active slot.
    pub fn has_peer(&self, peer: NodeId) -> bool {
        self.slots.get(usize::from(peer)).is_some_and(Option::is_some)
    }

    /// How many per-object merges have occurred (for the diff-merging
    /// ablation metric).
    pub fn merged_count(&self) -> u64 {
        self.merged_count
    }

    /// Total updates pending across all slots.
    pub fn total_pending(&self) -> usize {
        self.slots.iter().flatten().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalTime;

    fn v(t: u64, w: u16) -> Version {
        Version::new(LogicalTime::from_ticks(t), w)
    }

    fn buf() -> SlottedBuffer {
        SlottedBuffer::new(4, 1, true)
    }

    #[test]
    fn buffers_for_every_remote_peer() {
        let mut b = buf();
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![1]), v(1, 1), &[]);
        for peer in [0u16, 2, 3] {
            assert_eq!(b.slot_len(peer), 1);
        }
        assert_eq!(b.total_pending(), 3);
    }

    #[test]
    fn excluded_peers_skip_buffering() {
        let mut b = buf();
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![1]), v(1, 1), &[0, 3]);
        assert_eq!(b.slot_len(0), 0);
        assert_eq!(b.slot_len(2), 1);
        assert_eq!(b.slot_len(3), 0);
    }

    #[test]
    fn merges_diffs_per_object() {
        let mut b = buf();
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![1, 1]), v(1, 1), &[]);
        b.buffer_for_all(ObjectId(1), &Diff::single(1, vec![2, 2]), v(2, 1), &[]);
        assert_eq!(b.slot_len(0), 1, "same object merged into one entry");
        let drained: Vec<_> = b.drain_slot(0).collect();
        assert_eq!(drained.len(), 1);
        let mut target = vec![0u8; 3];
        drained[0].diff.apply(&mut target).unwrap();
        assert_eq!(target, vec![1, 2, 2]);
        assert_eq!(drained[0].version, v(2, 1));
        assert!(b.merged_count() > 0);
    }

    #[test]
    fn merging_disabled_keeps_updates_separate() {
        let mut b = SlottedBuffer::new(2, 0, false);
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![1]), v(1, 0), &[]);
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![2]), v(2, 0), &[]);
        assert_eq!(b.slot_len(1), 2);
        assert_eq!(b.merged_count(), 0);
        let drained: Vec<_> = b.drain_slot(1).collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].version, v(1, 0), "oldest first");
    }

    #[test]
    fn drain_empties_only_that_slot() {
        let mut b = buf();
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![1]), v(1, 1), &[]);
        let drained: Vec<_> = b.drain_slot(2).collect();
        assert_eq!(drained.len(), 1);
        assert_eq!(b.slot_len(2), 0);
        assert_eq!(b.slot_len(0), 1, "other slots untouched");
    }

    #[test]
    fn empty_diff_not_buffered() {
        let mut b = buf();
        b.buffer_for_all(ObjectId(1), &Diff::empty(), v(1, 1), &[]);
        assert_eq!(b.total_pending(), 0);
    }

    #[test]
    #[should_panic(expected = "remote")]
    fn draining_own_slot_panics() {
        let mut b = buf();
        let _ = b.drain_slot(1).count();
    }

    #[test]
    fn remove_peer_compacts_pending_updates_instead_of_leaking() {
        // The leak scenario: a peer departs while its slot still holds
        // merged diffs that were never delivered. Removal must surface
        // those updates to the caller and drop the slot from all
        // accounting, so `total_pending` cannot count phantom work for a
        // peer that will never rendezvous again.
        let mut b = buf();
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![1, 1]), v(1, 1), &[]);
        b.buffer_for_all(ObjectId(1), &Diff::single(1, vec![2, 2]), v(2, 1), &[]);
        b.buffer_for_all(ObjectId(5), &Diff::single(0, vec![9]), v(3, 1), &[]);
        assert_eq!(b.total_pending(), 6, "2 objects x 3 remote peers, merged");

        let orphaned = b.remove_peer(3);
        assert_eq!(orphaned.len(), 2, "both merged objects surfaced");
        assert_eq!(orphaned[0].object, ObjectId(1));
        assert_eq!(orphaned[0].version, v(2, 1), "merge preserved up to removal");
        assert_eq!(orphaned[1].object, ObjectId(5));
        assert_eq!(b.total_pending(), 4, "departed peer's slot no longer counted");
        assert!(!b.has_peer(3));

        // New modifications must not accumulate for the departed peer.
        b.buffer_for_all(ObjectId(7), &Diff::single(2, vec![7]), v(4, 1), &[]);
        assert_eq!(b.total_pending(), 6, "only the two live remotes buffered");
        assert_eq!(b.slot_len(0), 3);
        assert_eq!(b.slot_len(2), 3);
    }

    #[test]
    fn add_peer_reactivates_an_empty_slot() {
        let mut b = buf();
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![1]), v(1, 1), &[]);
        let _ = b.remove_peer(2);
        b.add_peer(2);
        assert!(b.has_peer(2));
        assert_eq!(b.slot_len(2), 0, "joiner starts with an empty slot");
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![2]), v(2, 1), &[]);
        assert_eq!(b.slot_len(2), 1);
    }

    #[test]
    fn add_peer_can_grow_capacity() {
        let mut b = SlottedBuffer::new(2, 0, true);
        b.add_peer(2);
        assert!(b.has_peer(2));
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![1]), v(1, 0), &[]);
        assert_eq!(b.slot_len(2), 1);
    }

    #[test]
    #[should_panic(expected = "active remote")]
    fn removing_own_slot_panics() {
        let mut b = buf();
        let _ = b.remove_peer(1);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn adding_an_active_peer_panics() {
        let mut b = buf();
        b.add_peer(0);
    }

    #[test]
    fn filtered_drain_ships_matching_and_retains_the_rest() {
        let mut b = buf();
        b.buffer_for_all(ObjectId(1), &Diff::single(0, vec![1]), v(1, 1), &[]);
        b.buffer_for_all(ObjectId(2), &Diff::single(0, vec![2]), v(2, 1), &[]);
        b.buffer_for_all(ObjectId(3), &Diff::single(0, vec![3]), v(3, 1), &[]);
        let mut shipped = Vec::new();
        b.drain_slot_filtered(0, |o| o.0 != 2, &mut shipped);
        assert_eq!(
            shipped.iter().map(|u| u.object).collect::<Vec<_>>(),
            vec![ObjectId(1), ObjectId(3)]
        );
        assert_eq!(b.slot_len(0), 1, "out-of-interest object retained");
        // The retained entry keeps merging with later writes.
        b.buffer_for_all(ObjectId(2), &Diff::single(1, vec![9]), v(4, 1), &[]);
        assert_eq!(b.slot_len(0), 1, "retained entry merged, not duplicated");
        // A later unfiltered drain (a broadcast flush) ships it.
        let flushed: Vec<_> = b.drain_slot(0).collect();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].object, ObjectId(2));
        assert_eq!(flushed[0].version, v(4, 1));
    }

    #[test]
    fn filtered_drain_split_recombines_to_the_full_drain() {
        // Handoff invariant: splitting a slot by any predicate and applying
        // both halves is equivalent to the unfiltered drain.
        let mk = || {
            let mut b = buf();
            for i in 0..6u32 {
                b.buffer_for_all(ObjectId(i), &Diff::single(i, vec![i as u8]), v(1, 1), &[]);
                b.buffer_for_all(ObjectId(i), &Diff::single(i + 1, vec![9]), v(2, 1), &[]);
            }
            b
        };
        let full: Vec<_> = mk().drain_slot(0).collect();
        let mut split = mk();
        let mut both = Vec::new();
        split.drain_slot_filtered(0, |o| o.0 % 2 == 0, &mut both);
        split.drain_slot_filtered(0, |o| o.0 % 2 != 0, &mut both);
        both.sort_by_key(|u| u.object);
        assert_eq!(both, full);
        assert_eq!(split.slot_len(0), 0);
    }

    #[test]
    fn updates_drain_in_object_order() {
        let mut b = buf();
        b.buffer_for_all(ObjectId(9), &Diff::single(0, vec![1]), v(1, 1), &[]);
        b.buffer_for_all(ObjectId(3), &Diff::single(0, vec![1]), v(1, 1), &[]);
        let ids: Vec<_> = b.drain_slot(0).map(|u| u.object).collect();
        assert_eq!(ids, vec![ObjectId(3), ObjectId(9)]);
    }
}
