//! Interest sets and the subscription manager that maintains them as
//! sensing ranges move.

use std::collections::BTreeMap;

use sdso_core::Epoch;
use sdso_net::NodeId;

use super::lattice::{RegionId, RegionLattice};

/// The set of regions a node currently cares about: a fixed-width bitset
/// over a lattice's region indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterestSet {
    bits: Vec<u64>,
    regions: u16,
}

impl InterestSet {
    /// The empty interest set over `regions` regions.
    pub fn empty(regions: u16) -> Self {
        InterestSet { bits: vec![0; usize::from(regions).div_ceil(64)], regions }
    }

    /// Adds `region`; returns whether it was newly added. Out-of-range
    /// regions are ignored.
    pub fn insert(&mut self, region: RegionId) -> bool {
        if region.0 >= self.regions {
            return false;
        }
        let (word, bit) = (usize::from(region.0) / 64, region.0 % 64);
        let mask = 1u64 << bit;
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        fresh
    }

    /// Whether `region` is in the set.
    pub fn contains(&self, region: RegionId) -> bool {
        region.0 < self.regions
            && self.bits[usize::from(region.0) / 64] & (1u64 << (region.0 % 64)) != 0
    }
}

/// Maintains per-node interest sets as sensing ranges move.
///
/// Within one membership epoch interest only *grows* (each observation
/// unions in the regions the node's sensing box intersects), so a
/// suppression decision made against an older observation is never less
/// conservative than one made against a newer observation of the same
/// epoch. At an epoch change ([`SubscriptionManager::on_epoch`]) the sets
/// reset and rebuild from fresh observations — the view-change barrier's
/// broadcast exchange has flushed every slot, so nothing can be lost in
/// the gap.
#[derive(Debug, Clone)]
pub struct SubscriptionManager {
    lattice: RegionLattice,
    epoch: Epoch,
    interest: BTreeMap<NodeId, InterestSet>,
}

impl SubscriptionManager {
    /// A manager over `lattice`, starting at epoch 0 with no
    /// subscriptions.
    pub fn new(lattice: RegionLattice) -> Self {
        SubscriptionManager { lattice, epoch: Epoch::ZERO, interest: BTreeMap::new() }
    }

    /// The lattice subscriptions are expressed over.
    pub fn lattice(&self) -> &RegionLattice {
        &self.lattice
    }

    /// The epoch the current subscriptions were observed in.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Records that `node` senses radius `range` around `(x, y)`: unions
    /// the intersecting regions into its interest set (monotone within
    /// the epoch).
    pub fn observe(&mut self, node: NodeId, x: u16, y: u16, range: u16) {
        let regions = self.lattice.regions();
        let set = self.interest.entry(node).or_insert_with(|| InterestSet::empty(regions));
        for region in self.lattice.regions_within(x, y, range) {
            set.insert(region);
        }
    }

    /// Whether `node`'s interest covers `region`. A node with *no*
    /// observation this epoch covers everything — unknown interest must
    /// never suppress traffic.
    pub fn covers(&self, node: NodeId, region: RegionId) -> bool {
        self.interest.get(&node).is_none_or(|set| set.contains(region))
    }

    /// Crosses into `epoch`: drops every subscription so interest
    /// rebuilds from post-barrier observations. A same-epoch call is a
    /// no-op, so callers can invoke this unconditionally per tick.
    pub fn on_epoch(&mut self, epoch: Epoch) {
        if epoch != self.epoch {
            self.epoch = epoch;
            self.interest.clear();
        }
    }
}

#[cfg(test)]
impl InterestSet {
    /// The full interest set (every region) — the conservative default.
    pub fn full(regions: u16) -> Self {
        let mut set = InterestSet::empty(regions);
        for r in 0..regions {
            set.insert(RegionId(r));
        }
        set
    }

    /// Unions `other` into `self` (same-lattice sets only; extra regions
    /// in a differently-sized `other` are ignored).
    pub fn union_with(&mut self, other: &InterestSet) {
        for (dst, src) in self.bits.iter_mut().zip(&other.bits) {
            *dst |= src;
        }
    }

    /// Whether every region of `other` is also in `self` — the
    /// monotonicity relation the subscription proptest checks.
    pub fn is_superset_of(&self, other: &InterestSet) -> bool {
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & b == *b)
            && other.bits.len() <= self.bits.len()
    }

    /// Number of regions in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The regions in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = RegionId> + '_ {
        (0..self.regions).map(RegionId).filter(|&r| self.contains(r))
    }
}

#[cfg(test)]
impl SubscriptionManager {
    /// The interest set observed for `node`, if any observation has been
    /// made this epoch.
    pub fn interest_of(&self, node: NodeId) -> Option<&InterestSet> {
        self.interest.get(&node)
    }

    /// Forgets nodes that left the group (their slots are gone; keeping
    /// their sets would only leak).
    pub fn forget(&mut self, nodes: &[NodeId]) {
        for node in nodes {
            self.interest.remove(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_set_basics() {
        let mut set = InterestSet::empty(12);
        assert!(set.is_empty());
        assert!(set.insert(RegionId(3)));
        assert!(!set.insert(RegionId(3)), "re-insert is not fresh");
        assert!(set.insert(RegionId(11)));
        assert!(!set.insert(RegionId(12)), "out of range ignored");
        assert!(set.contains(RegionId(3)) && set.contains(RegionId(11)));
        assert!(!set.contains(RegionId(4)) && !set.contains(RegionId(40)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![RegionId(3), RegionId(11)]);
        assert_eq!(InterestSet::full(12).len(), 12);
    }

    #[test]
    fn union_and_superset() {
        let mut a = InterestSet::empty(70);
        a.insert(RegionId(1));
        a.insert(RegionId(65));
        let mut b = InterestSet::empty(70);
        b.insert(RegionId(65));
        assert!(a.is_superset_of(&b));
        assert!(!b.is_superset_of(&a));
        b.union_with(&a);
        assert!(b.is_superset_of(&a) && a.is_superset_of(&b));
    }

    #[test]
    fn observations_grow_interest_monotonically() {
        let mut subs = SubscriptionManager::new(RegionLattice::paper());
        subs.observe(3, 4, 4, 2);
        let before = subs.interest_of(3).unwrap().clone();
        subs.observe(3, 20, 20, 2); // moved across the grid
        let after = subs.interest_of(3).unwrap().clone();
        assert!(after.is_superset_of(&before), "interest only grows within an epoch");
        assert!(after.len() > before.len());
    }

    #[test]
    fn unknown_interest_covers_everything() {
        let subs = SubscriptionManager::new(RegionLattice::paper());
        assert!(subs.covers(9, RegionId(0)));
        assert!(subs.covers(9, RegionId(11)));
    }

    #[test]
    fn epoch_change_resets_subscriptions() {
        let mut subs = SubscriptionManager::new(RegionLattice::paper());
        subs.observe(1, 0, 0, 1);
        assert!(!subs.covers(1, RegionId(11)));
        subs.on_epoch(Epoch(0)); // same epoch: no-op
        assert!(!subs.covers(1, RegionId(11)));
        subs.on_epoch(Epoch(1));
        assert!(subs.covers(1, RegionId(11)), "post-barrier interest is unknown again");
        assert_eq!(subs.epoch(), Epoch(1));
    }

    #[test]
    fn forget_drops_departed_nodes() {
        let mut subs = SubscriptionManager::new(RegionLattice::paper());
        subs.observe(1, 0, 0, 1);
        subs.observe(2, 0, 0, 1);
        subs.forget(&[1]);
        assert!(subs.interest_of(1).is_none());
        assert!(subs.interest_of(2).is_some());
    }
}
