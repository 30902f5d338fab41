//! Epoch-based dynamic membership for the S-DSO runtime.
//!
//! The paper fixes the process group at startup: `share()` is called once
//! and the exchange list (Fig. 2) and slotted buffer (Fig. 3) are sized for
//! a static cluster. This module adds the vocabulary for groups that change
//! at runtime:
//!
//! * [`MembershipView`] — the current group: an [`Epoch`] number plus the
//!   set of live members, drawn from a fixed capacity of node-id slots
//!   (transports stay provisioned at capacity; the view scopes which slots
//!   are active);
//! * [`ViewChange`] — one reconfiguration step: who joins and who leaves.
//!   Applying it bumps the epoch by exactly one, so every process that
//!   applies the same change sequence computes the same epoch;
//! * [`MembershipPlan`] — a deterministic, logical-time-ordered sequence of
//!   view changes. It stands in for a membership sequencer: every process
//!   (and the late joiners themselves) read the same plan, so view changes
//!   are applied at identical logical times everywhere and runs replay
//!   bit-identically.
//!
//! The runtime layers on top: it tags every rendezvous message with the
//! epoch it was computed under and rejects cross-epoch traffic at its
//! view-change barrier; late joiners reach a consistent state via an
//! object snapshot transfer instead of full-history replay.

use std::collections::BTreeSet;
use std::fmt;

use sdso_net::NodeId;

/// A monotonically increasing view number. Every process that applies the
/// same [`ViewChange`] sequence computes the same epoch, so the epoch tag
/// on a message identifies exactly which membership view it was computed
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u32);

impl Epoch {
    /// The initial epoch (before any view change).
    pub const ZERO: Epoch = Epoch(0);

    /// The epoch after one more view change.
    #[must_use]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Errors from membership bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberError {
    /// A joiner was already a member, or a node joined and left in one
    /// change.
    AlreadyMember(NodeId),
    /// A leaver was not a member.
    NotAMember(NodeId),
    /// A node id at or beyond the provisioned capacity.
    BeyondCapacity(NodeId),
    /// A change would leave the group empty.
    EmptyGroup,
}

impl fmt::Display for MemberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemberError::AlreadyMember(n) => write!(f, "node {n} is already a member"),
            MemberError::NotAMember(n) => write!(f, "node {n} is not a member"),
            MemberError::BeyondCapacity(n) => write!(f, "node {n} is beyond the capacity"),
            MemberError::EmptyGroup => write!(f, "view change would empty the group"),
        }
    }
}

impl std::error::Error for MemberError {}

/// One reconfiguration step: the processes that join and the processes
/// that leave (or are evicted) together, atomically, at one view-change
/// barrier.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ViewChange {
    /// Processes entering the group at this change.
    pub joined: BTreeSet<NodeId>,
    /// Processes leaving (or evicted from) the group at this change.
    pub left: BTreeSet<NodeId>,
}

impl ViewChange {
    /// A change where `joined` enter and `left` leave.
    pub fn new(
        joined: impl IntoIterator<Item = NodeId>,
        left: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        ViewChange { joined: joined.into_iter().collect(), left: left.into_iter().collect() }
    }

    /// A pure-join change.
    pub fn join(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        ViewChange::new(nodes, [])
    }

    /// A pure-leave change.
    pub fn leave(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        ViewChange::new([], nodes)
    }

    /// Whether the change does nothing.
    pub fn is_empty(&self) -> bool {
        self.joined.is_empty() && self.left.is_empty()
    }
}

/// The current membership: an epoch number plus the live member set, over a
/// fixed capacity of node-id slots `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    epoch: Epoch,
    members: BTreeSet<NodeId>,
    capacity: usize,
}

impl MembershipView {
    /// The static view: every slot `0..capacity` is a member, epoch 0.
    /// This is what a runtime without churn uses — it reproduces the
    /// paper's fixed group exactly.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `NodeId::MAX`.
    pub fn full(capacity: usize) -> Self {
        assert!(capacity > 0, "membership capacity must be positive");
        assert!(capacity <= usize::from(NodeId::MAX), "capacity too large");
        MembershipView { epoch: Epoch::ZERO, members: (0..capacity as NodeId).collect(), capacity }
    }

    /// An initial view with an explicit member subset of `0..capacity`.
    ///
    /// # Errors
    ///
    /// Returns [`MemberError`] if a member is beyond capacity or the set is
    /// empty.
    pub fn initial(
        capacity: usize,
        members: impl IntoIterator<Item = NodeId>,
    ) -> Result<Self, MemberError> {
        let mut view = MembershipView::full(capacity);
        view.members = members.into_iter().collect();
        if view.members.is_empty() {
            return Err(MemberError::EmptyGroup);
        }
        if let Some(&beyond) = view.members.iter().find(|&&m| usize::from(m) >= capacity) {
            return Err(MemberError::BeyondCapacity(beyond));
        }
        Ok(view)
    }

    /// The view's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The provisioned slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The live members, ascending.
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.members
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group is empty (never true for a valid view).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `node` is a live member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// The live members other than `me`, ascending.
    pub fn peers_of(&self, me: NodeId) -> Vec<NodeId> {
        self.members.iter().copied().filter(|&m| m != me).collect()
    }

    /// The designated snapshot donor for a joiner: the lowest-numbered
    /// member that is neither joining nor leaving in `change` — it holds
    /// pre-change state and survives the change, so its post-barrier
    /// replicas are exactly what the joiner must converge to.
    pub fn donor_for(&self, change: &ViewChange) -> Option<NodeId> {
        self.members
            .iter()
            .copied()
            .find(|m| !change.left.contains(m) && !change.joined.contains(m))
    }

    /// Applies one view change, bumping the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`MemberError`] on overlapping/invalid join or leave sets,
    /// members beyond capacity, or a change that empties the group. On
    /// error the view is unchanged.
    pub fn apply(&mut self, change: &ViewChange) -> Result<(), MemberError> {
        for &j in &change.joined {
            if usize::from(j) >= self.capacity {
                return Err(MemberError::BeyondCapacity(j));
            }
            if self.members.contains(&j) || change.left.contains(&j) {
                return Err(MemberError::AlreadyMember(j));
            }
        }
        for &l in &change.left {
            if !self.members.contains(&l) {
                return Err(MemberError::NotAMember(l));
            }
        }
        if self.members.len() + change.joined.len() == change.left.len() {
            return Err(MemberError::EmptyGroup);
        }
        for &l in &change.left {
            self.members.remove(&l);
        }
        for &j in &change.joined {
            self.members.insert(j);
        }
        self.epoch = self.epoch.next();
        Ok(())
    }
}

/// A deterministic, logical-time-ordered membership schedule: the stand-in
/// for a membership sequencer. Each entry is a trigger tick (logical time,
/// in rendezvous ticks) paired with the [`ViewChange`] every process
/// applies at its barrier after completing that tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipPlan {
    capacity: usize,
    initial: BTreeSet<NodeId>,
    changes: Vec<(u64, ViewChange)>,
}

impl MembershipPlan {
    /// A plan with no churn: the paper's static group of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `NodeId::MAX`.
    pub fn static_group(n: usize) -> Self {
        let view = MembershipView::full(n);
        MembershipPlan { capacity: n, initial: view.members.clone(), changes: Vec::new() }
    }

    /// A plan over `capacity` slots with an explicit initial member set.
    ///
    /// # Panics
    ///
    /// Panics if the initial set is empty or a member is beyond capacity
    /// (plans are built by test/driver code; a bad one is a bug, not a
    /// runtime condition).
    #[expect(
        clippy::expect_used,
        reason = "plans are written by test, driver and harness code over member sets inside their capacity"
    )]
    pub fn new(capacity: usize, initial: impl IntoIterator<Item = NodeId>) -> Self {
        let view = MembershipView::initial(capacity, initial).expect("valid initial member set");
        MembershipPlan { capacity, initial: view.members.clone(), changes: Vec::new() }
    }

    /// Appends a view change triggered after logical tick `tick`.
    ///
    /// # Panics
    ///
    /// Panics if `tick` does not strictly increase over the previous
    /// change, or if replaying the plan with this change appended is
    /// invalid (bad joins/leaves).
    #[must_use]
    pub fn with_change(mut self, tick: u64, change: ViewChange) -> Self {
        if let Some(&(last, _)) = self.changes.last() {
            assert!(tick > last, "view-change triggers must strictly increase");
        }
        self.changes.push((tick, change));
        // Replay to validate: panics early at construction, not mid-run.
        let _ = self.final_view();
        self
    }

    /// The provisioned slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The scheduled changes, ascending by trigger tick.
    pub fn changes(&self) -> &[(u64, ViewChange)] {
        &self.changes
    }

    /// The view change triggered after `tick`, if any.
    pub fn change_at(&self, tick: u64) -> Option<&ViewChange> {
        self.changes.iter().find(|&&(t, _)| t == tick).map(|(_, c)| c)
    }

    /// The membership view in force *after* all changes triggered at or
    /// before `tick` have been applied.
    #[expect(
        clippy::expect_used,
        reason = "`new` and `with_change` replay every plan as it is built, so a built plan replays cleanly"
    )]
    pub fn view_at(&self, tick: u64) -> MembershipView {
        let mut view = MembershipView::initial(self.capacity, self.initial.iter().copied())
            .expect("plan invariant: valid initial set");
        for (t, change) in &self.changes {
            if *t > tick {
                break;
            }
            view.apply(change).expect("plan invariant: valid change sequence");
        }
        view
    }

    /// The view after every change has been applied.
    pub fn final_view(&self) -> MembershipView {
        self.view_at(u64::MAX)
    }

    /// The trigger tick at which `node` joins, if it is a planned joiner.
    pub fn join_tick_of(&self, node: NodeId) -> Option<u64> {
        self.changes.iter().find(|(_, c)| c.joined.contains(&node)).map(|&(t, _)| t)
    }

    /// The trigger tick at which `node` leaves, if it is a planned leaver.
    pub fn leave_tick_of(&self, node: NodeId) -> Option<u64> {
        self.changes.iter().find(|(_, c)| c.left.contains(&node)).map(|&(t, _)| t)
    }

    /// Whether `node` is in the initial member set.
    pub fn is_initial(&self, node: NodeId) -> bool {
        self.initial.contains(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_view_matches_static_group() {
        let v = MembershipView::full(4);
        assert_eq!(v.epoch(), Epoch::ZERO);
        assert_eq!(v.len(), 4);
        assert_eq!(v.peers_of(2), vec![0, 1, 3]);
        assert!(v.contains(0) && v.contains(3) && !v.contains(4));
    }

    #[test]
    fn apply_join_and_leave_bumps_epoch() {
        let mut v = MembershipView::full(6);
        v.members = [0, 1, 2, 3].into_iter().collect();
        let change = ViewChange::new([4, 5], [0, 1]);
        v.apply(&change).unwrap();
        assert_eq!(v.epoch(), Epoch(1));
        assert_eq!(v.members().iter().copied().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn apply_rejects_invalid_changes() {
        let mut v = MembershipView::initial(4, [0, 1]).unwrap();
        assert_eq!(v.apply(&ViewChange::join([1])), Err(MemberError::AlreadyMember(1)));
        assert_eq!(v.apply(&ViewChange::leave([3])), Err(MemberError::NotAMember(3)));
        assert_eq!(v.apply(&ViewChange::join([9])), Err(MemberError::BeyondCapacity(9)));
        assert_eq!(v.apply(&ViewChange::leave([0, 1])), Err(MemberError::EmptyGroup));
        // Join-and-leave in one change is contradictory.
        assert_eq!(v.apply(&ViewChange::new([2], [2])), Err(MemberError::AlreadyMember(2)));
        // Failed applies left the view untouched.
        assert_eq!(v.epoch(), Epoch::ZERO);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn donor_is_lowest_continuing_member() {
        let v = MembershipView::initial(6, [1, 2, 3]).unwrap();
        let change = ViewChange::new([4], [1]);
        assert_eq!(v.donor_for(&change), Some(2));
        // Everybody leaves except the joiner: no donor exists.
        let wipe = ViewChange::new([4], [1, 2, 3]);
        assert_eq!(v.donor_for(&wipe), None);
    }

    #[test]
    fn plan_views_replay_deterministically() {
        let plan = MembershipPlan::new(6, 0..4)
            .with_change(10, ViewChange::new([4], [0]))
            .with_change(20, ViewChange::new([5], [1]));
        assert_eq!(plan.view_at(9), plan.view_at(0));
        assert_eq!(plan.view_at(9).epoch(), Epoch(0));
        let at_10 = plan.view_at(10);
        assert_eq!(at_10.epoch(), Epoch(1));
        assert!(at_10.contains(4) && !at_10.contains(0));
        let final_view = plan.final_view();
        assert_eq!(final_view.epoch(), Epoch(2));
        assert_eq!(final_view.members().iter().copied().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        assert_eq!(plan.join_tick_of(5), Some(20));
        assert_eq!(plan.leave_tick_of(1), Some(20));
        assert_eq!(plan.join_tick_of(0), None);
        assert!(plan.is_initial(0) && !plan.is_initial(4));
    }

    #[test]
    fn plan_change_lookup_by_tick() {
        let plan = MembershipPlan::new(4, 0..2).with_change(5, ViewChange::join([2]));
        assert!(plan.change_at(5).is_some());
        assert!(plan.change_at(4).is_none());
        assert_eq!(plan.changes().len(), 1);
        assert_eq!(plan.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn plan_rejects_non_increasing_triggers() {
        let _ = MembershipPlan::new(4, 0..2)
            .with_change(5, ViewChange::join([2]))
            .with_change(5, ViewChange::join([3]));
    }

    #[test]
    fn static_group_plan_has_no_churn() {
        let plan = MembershipPlan::static_group(3);
        assert_eq!(plan.final_view(), MembershipView::full(3));
        assert!(plan.changes().is_empty());
    }

    #[test]
    fn epoch_displays_compactly() {
        assert_eq!(Epoch(3).to_string(), "e3");
        assert_eq!(Epoch::ZERO.next(), Epoch(1));
    }
}
