//! Cross-region handoff: epoch-stamped records coupling the two cells a
//! boundary-crossing write pair touches.
//!
//! A tank crossing a region boundary is, at the object layer, two writes
//! in the same interval: the source cell (now empty) in the old region
//! and the destination cell (now the tank) in the new region. If diffs
//! were routed purely per-region, a peer interested in only one side
//! would see a tank duplicated (destination delivered, source cleared
//! late) or vanished (source delivered, destination withheld). A
//! [`HandoffRecord`] couples the pair: while the record is active, the
//! router ships *both* cells' diffs to any peer interested in *either*
//! region. Records are epoch-stamped; at a view-change barrier the
//! broadcast exchange flushes every slot, so records from earlier epochs
//! are retired ([`HandoffLog::retire_before_epoch`]). Within an epoch a
//! tick-window retirement ([`HandoffLog::retire_before_tick`]) bounds the
//! log once both sides have long since shipped.

use sdso_core::{Epoch, LogicalTime, ObjectId};

use super::lattice::RegionId;

/// One ownership transfer: the write pair of a boundary crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffRecord {
    /// The vacated source cell.
    pub from: ObjectId,
    /// The newly occupied destination cell.
    pub to: ObjectId,
    /// Region the tank left.
    pub from_region: RegionId,
    /// Region the tank entered.
    pub to_region: RegionId,
    /// Membership epoch the crossing happened in.
    pub epoch: Epoch,
    /// Logical tick of the crossing.
    pub tick: LogicalTime,
}

/// The active handoff records a router consults.
#[derive(Debug, Clone, Default)]
pub struct HandoffLog {
    records: Vec<HandoffRecord>,
}

impl HandoffLog {
    /// An empty log.
    pub fn new() -> Self {
        HandoffLog::default()
    }

    /// Appends a record.
    pub fn record(&mut self, record: HandoffRecord) {
        self.records.push(record);
    }

    /// The region `object` is coupled to through active handoffs: for a
    /// source cell its destination region and vice versa. Yields one
    /// entry per active record touching `object`.
    pub fn coupled_regions(&self, object: ObjectId) -> impl Iterator<Item = RegionId> + '_ {
        self.records.iter().filter_map(move |r| {
            if r.from == object {
                Some(r.to_region)
            } else if r.to == object {
                Some(r.from_region)
            } else {
                None
            }
        })
    }

    /// Retires records from epochs before `epoch` (the barrier's
    /// broadcast exchange has flushed every slot, so the coupling is no
    /// longer needed).
    pub fn retire_before_epoch(&mut self, epoch: Epoch) {
        self.records.retain(|r| r.epoch >= epoch);
    }

    /// Retires records older than `tick` (both sides have shipped to
    /// every interested peer long ago; callers pass `now - window`).
    pub fn retire_before_tick(&mut self, tick: LogicalTime) {
        self.records.retain(|r| r.tick >= tick);
    }
}

#[cfg(test)]
impl HandoffLog {
    /// The active records, oldest first.
    pub fn records(&self) -> &[HandoffRecord] {
        &self.records
    }

    /// Number of active records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no handoffs are active.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdso_core::{Diff, SlottedBuffer, Version};

    use crate::shard::lattice::RegionLattice;

    fn rec(from: u32, to: u32, fr: u16, tr: u16, epoch: u32, tick: u64) -> HandoffRecord {
        HandoffRecord {
            from: ObjectId(from),
            to: ObjectId(to),
            from_region: RegionId(fr),
            to_region: RegionId(tr),
            epoch: Epoch(epoch),
            tick: LogicalTime::from_ticks(tick),
        }
    }

    #[test]
    fn coupling_is_symmetric_across_the_pair() {
        let mut log = HandoffLog::new();
        log.record(rec(7, 8, 0, 1, 0, 5));
        assert_eq!(log.coupled_regions(ObjectId(7)).collect::<Vec<_>>(), vec![RegionId(1)]);
        assert_eq!(log.coupled_regions(ObjectId(8)).collect::<Vec<_>>(), vec![RegionId(0)]);
        assert_eq!(log.coupled_regions(ObjectId(9)).count(), 0);
    }

    #[test]
    fn epoch_retirement_drops_only_older_epochs() {
        let mut log = HandoffLog::new();
        log.record(rec(1, 2, 0, 1, 0, 3));
        log.record(rec(3, 4, 1, 2, 1, 9));
        log.retire_before_epoch(Epoch(1));
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].from, ObjectId(3));
    }

    #[test]
    fn tick_retirement_bounds_the_log() {
        let mut log = HandoffLog::new();
        for t in 0..10 {
            log.record(rec(t, t + 1, 0, 1, 0, u64::from(t)));
        }
        log.retire_before_tick(LogicalTime::from_ticks(6));
        assert_eq!(log.len(), 4);
        assert!(log.records().iter().all(|r| r.tick >= LogicalTime::from_ticks(6)));
        assert!(!log.is_empty());
    }

    proptest! {
        // ------------------------------------------------------------------
        // Handoff preserves object state: splitting a peer's slot along
        // any region boundary and delivering both halves (in either
        // order) reproduces exactly the state the unsplit drain produces.
        // ------------------------------------------------------------------
        #[test]
        fn handoff_transfer_then_merge_is_a_no_op(
            writes in proptest::collection::vec((0u32..24, 0u32..15, any::<u8>()), 1..48),
            boundary in 0u32..24,
        ) {
            const SIZE: usize = 16;
            let lattice = RegionLattice::new(6, 4, 2, 2);
            let fill = |buf: &mut SlottedBuffer| {
                for (i, &(obj, offset, byte)) in writes.iter().enumerate() {
                    let stamp = Version::new(LogicalTime::from_ticks(i as u64 + 1), 0);
                    buf.buffer_for_all(ObjectId(obj), &Diff::single(offset, vec![byte]), stamp, &[]);
                }
            };
            let apply = |target: &mut Vec<Vec<u8>>, updates: Vec<sdso_core::PendingUpdate>| {
                for u in updates {
                    u.diff.apply(&mut target[u.object.0 as usize]).unwrap();
                }
            };

            // Reference: one unfiltered drain (what a broadcast flush ships).
            let mut whole = SlottedBuffer::new(2, 0, true);
            fill(&mut whole);
            let mut reference = vec![vec![0u8; SIZE]; 24];
            apply(&mut reference, whole.drain_slot(1));

            // Split: the "transferred" region half first, then the merge of
            // what stayed behind — and the reverse order too.
            let side = |obj: ObjectId| {
                lattice.region_of_object(obj) == lattice.region_of_object(ObjectId(boundary))
            };
            for flip in [false, true] {
                let mut split = SlottedBuffer::new(2, 0, true);
                fill(&mut split);
                let first = split.drain_slot_filtered(1, |o| side(o) != flip);
                let second = split.drain_slot_filtered(1, |o| side(o) == flip);
                let mut state = vec![vec![0u8; SIZE]; 24];
                apply(&mut state, first);
                apply(&mut state, second);
                prop_assert_eq!(&state, &reference, "split delivery diverged (flip={})", flip);
                prop_assert_eq!(split.slot_len(1), 0, "nothing lost in the split");
            }
        }
    }
}
