//! Region-aware sharding for the lookahead family: MSYNC2-SHARD.
//!
//! MSYNC2 already exploits the paper's spatial constraint *temporally*:
//! distant pairs exchange rarely. But every exchange still ships the
//! node's whole dirty set to the peer, and over a long run every pair
//! rendezvouses often enough that per-node traffic grows linearly with
//! the cluster. MSYNC2-SHARD adds the spatial dimension on top of a
//! region lattice, a total partition of the grid into rectangular
//! regions of at most 8x8 cells:
//!
//! * **Grouped schedule** ([`ShardMsync2`]) — a pair whose interest
//!   regions overlap ("in-group": some candidate position of each side
//!   has an interest box meeting a common region) keeps the MSYNC2
//!   interaction bound tick-exact; an out-of-group pair snaps that bound
//!   *down* onto multiples of [`GROUP_EVERY`], so the cluster's sparse
//!   long-range rendezvous batch onto shared group ticks instead of
//!   smearing across every tick.
//! * **Interest routing** ([`ShardRouter`]) — live exchanges ship only
//!   the objects inside the destination's interest regions (plus every
//!   cell currently holding a tank, see below); everything else stays
//!   merged in the peer's slot and flushes at the next broadcast
//!   exchange, so final worlds stay bit-identical with full-mesh runs.
//!   Interest sets grow monotonically within a membership epoch and
//!   reset at view-change barriers; a handoff log couples the two cells
//!   of a boundary crossing so no peer sees half of it.
//!
//! # Symmetry: pair-agreed positions
//!
//! The rendezvous contract requires both endpoints to compute identical
//! exchange times from their (different!) replicas. With routing in
//! force a replica may hold *phantoms* — stale tank blocks whose vacating
//! `Empty` write was suppressed — so the s-function cannot just scan the
//! store like MSYNC/MSYNC2 do. Instead each side derives a *pair-agreed
//! position* per team:
//!
//! * The router always ships the cells *currently holding its own
//!   tanks* (and its own spawn cell), so a live team's latest-versioned
//!   tank block in the receiver's store is its true position at the last
//!   rendezvous with that team (Lamport stamps are strictly increasing
//!   per writer, and only a team's own process ever writes its tank
//!   blocks). Third-party tank blocks travel by interest like any other
//!   cell: a relayed copy can be stale, but it always carries the
//!   writer's original version, so the freshest-version rule below still
//!   converges on the true position.
//! * A team's tank block is therefore only ever *delivered* for its
//!   at-rendezvous current cell: per-object diff merging collapses a
//!   routed trail cell's `Tank`-then-`Empty` writes into `Empty`. So the
//!   receiver advances its belief only on a fresher-versioned tank block
//!   ([`ShardMsync2`] stores `(position, version)` per peer); a delayed
//!   trail flush can kill a phantom but never creates a *newer* one, and
//!   a dead team's position freezes at the last delivered cell — which is
//!   exactly what the dead side itself remembers having delivered.
//! * Spawn points ride along as ghost candidates (teleports), as in
//!   MSYNC2.
//!
//! Both sides end up with the same candidate pair set in every case
//! (alive, dead, respawned, phantom-ridden), so the schedule stays
//! symmetric. Safety is MSYNC2's own: every pair rendezvouses no later
//! than its earliest possible interaction time, computed from the agreed
//! candidates — snapping the out-of-group bound down to the group
//! cadence only moves exchanges *earlier*. The margin [`interest_radius`]
//! additionally guarantees an out-of-group pair's boxes being disjoint
//! implies more than `d + 2·GROUP_EVERY` blocks of separation, so a
//! strictly-future group tick always exists before the bound expires.

mod handoff;
mod interest;
mod lattice;

use std::collections::{BTreeMap, BTreeSet};

use sdso_core::{DiffRouter, LogicalTime, ObjectId, ObjectStore, SFunction};
use sdso_net::NodeId;

use crate::scenario::Scenario;
use crate::sfuncs::{Tank, TankBoard};
use crate::world::{Grid, Pos};
use handoff::{HandoffLog, HandoffRecord};
use interest::SubscriptionManager;
use lattice::RegionLattice;

/// The group cadence, in logical ticks: out-of-group rendezvous are
/// snapped down onto multiples of this, batching the cluster's sparse
/// long-range exchanges onto shared ticks.
pub const GROUP_EVERY: u64 = 8;

/// The interest radius: half of `d + 2·GROUP_EVERY` (rounded up), where
/// `d` is the scenario's relevance distance. Two tanks whose interest
/// boxes are disjoint are more than `d + 2·GROUP_EVERY` blocks apart, so
/// their MSYNC2 interaction bound exceeds [`GROUP_EVERY`] — which is what
/// lets the out-of-group schedule snap down to the group cadence and
/// still find a strictly-future tick.
pub fn interest_radius(scenario: &Scenario) -> u16 {
    let d = u64::from(scenario.relevance_distance());
    (d + 2 * GROUP_EVERY).div_ceil(2) as u16
}

/// The region lattice a scenario's grid shards into.
fn shard_lattice(scenario: &Scenario) -> RegionLattice {
    RegionLattice::for_grid(scenario.grid.width, scenario.grid.height)
}

/// The latest-versioned tank position per team on a board, as
/// `(position, Lamport stamp)`. Folded in ascending object order, so of
/// two images stamped alike the lower object's stands. The s-function
/// refolds it only when its board changed, so rescheduling `n` due peers
/// costs one fold instead of `n`.
fn tank_frontier(tanks: &[Tank], grid: Grid) -> BTreeMap<NodeId, (Pos, LogicalTime)> {
    let mut frontier: BTreeMap<NodeId, (Pos, LogicalTime)> = BTreeMap::new();
    for tank in tanks {
        let seen = (grid.pos_of(tank.object), tank.time);
        frontier
            .entry(tank.team)
            .and_modify(|best| {
                if seen.1 > best.1 {
                    *best = seen;
                }
            })
            .or_insert(seen);
    }
    frontier
}

/// The MSYNC2-SHARD s-function: MSYNC2's interaction bound inside a
/// shared region group, a [`GROUP_EVERY`]-aligned heartbeat outside it.
#[derive(Debug, Clone)]
pub struct ShardMsync2 {
    me: NodeId,
    scenario: Scenario,
    lattice: RegionLattice,
    d: u32,
    r_int: u16,
    /// Latest *delivered* tank position (and stamp) believed per peer
    /// team; advances only on fresher-versioned evidence, so phantom
    /// clean-ups cannot move it (see the module docs).
    last_seen: BTreeMap<NodeId, (Pos, LogicalTime)>,
    /// Own position as of the last rendezvous with each peer — what that
    /// peer's replica says about this team while this tank is dead.
    last_delivered: BTreeMap<NodeId, Pos>,
    /// The tanks of the store, kept as MSYNC and MSYNC2 keep theirs.
    board: TankBoard,
    /// [`tank_frontier`] of `board`.
    frontier: BTreeMap<NodeId, (Pos, LogicalTime)>,
}

impl ShardMsync2 {
    /// Creates the s-function for process `me`.
    pub fn new(me: NodeId, scenario: Scenario) -> Self {
        let lattice = shard_lattice(&scenario);
        let d = scenario.relevance_distance();
        let r_int = interest_radius(&scenario);
        ShardMsync2 {
            me,
            scenario,
            lattice,
            d,
            r_int,
            last_seen: BTreeMap::new(),
            last_delivered: BTreeMap::new(),
            board: TankBoard::default(),
            frontier: BTreeMap::new(),
        }
    }

    /// Whether two candidate positions share at least one interest
    /// region: the interest boxes of radius [`interest_radius`] around
    /// them meet a common region of the lattice.
    fn shares_region(&self, a: Pos, b: Pos) -> bool {
        let ra = self.lattice.regions_within(a.x, a.y, self.r_int);
        let rb = self.lattice.regions_within(b.x, b.y, self.r_int);
        // Both lists are ascending; merge-intersect.
        let (mut i, mut j) = (0, 0);
        while i < ra.len() && j < rb.len() {
            match ra[i].cmp(&rb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

impl SFunction for ShardMsync2 {
    fn next_exchange(
        &mut self,
        peer: NodeId,
        now: LogicalTime,
        view: &ObjectStore,
    ) -> Option<LogicalTime> {
        if self.board.refresh(view) {
            self.frontier = tank_frontier(self.board.tanks(), self.scenario.grid);
        }
        let frontier = &self.frontier;
        let my_start = self.scenario.start_of(self.me);
        let peer_start = self.scenario.start_of(peer);

        // The peer's pair-agreed position: advance only on fresher
        // evidence (a delivered current cell), never on phantom churn.
        let seen = self.last_seen.entry(peer).or_insert((peer_start, LogicalTime::ZERO));
        if let Some(&fresh) = frontier.get(&peer) {
            if fresh.1 >= seen.1 {
                *seen = fresh;
            }
        }
        let their_pos = seen.0;

        // Own pair-agreed position: current when alive (that cell's
        // write is delivered at this very rendezvous), else whatever
        // this pair last rendezvoused on.
        let own_pos = match frontier.get(&self.me) {
            Some(&(p, _)) => {
                self.last_delivered.insert(peer, p);
                p
            }
            None => *self.last_delivered.entry(peer).or_insert(my_start),
        };

        let ours = [own_pos, my_start];
        let theirs = [their_pos, peer_start];
        // MSYNC2's interaction bound over the agreed candidate pairs: no
        // pair interaction (alignment within `d`) is possible sooner.
        let d = self.d;
        let delta = ours
            .iter()
            .flat_map(|&a| {
                theirs.iter().map(move |&b| a.ticks_to_alignment(b).max(a.ticks_to_within(b, d)))
            })
            .min()
            .unwrap_or(u64::MAX);
        let in_group = ours.iter().any(|&a| theirs.iter().any(|&b| self.shares_region(a, b)));
        if in_group {
            Some(now.plus(delta.max(1)))
        } else {
            // Out-of-group: every candidate pair's interest boxes are
            // disjoint, so all pairs are more than `d + 2·GROUP_EVERY`
            // apart and `delta > GROUP_EVERY`. Snap the bound *down* to
            // the group cadence — the largest multiple of [`GROUP_EVERY`]
            // not after `now + delta` — so sparse out-of-group rendezvous
            // across the whole cluster land batched on the same ticks.
            // Snapping down never schedules past the earliest possible
            // interaction, and `delta > GROUP_EVERY` guarantees a
            // strictly-future multiple exists in `(now, now + delta]`.
            let target = now.as_ticks().saturating_add(delta);
            Some(LogicalTime::from_ticks((target / GROUP_EVERY) * GROUP_EVERY))
        }
    }

    fn on_view_change(&mut self, _joined: &[NodeId], left: &[NodeId]) {
        // Only a departed peer's beliefs go: if it ever rejoins, it does
        // so with empty maps and a snapshot of the barrier's converged
        // store, and this side must derive the pair's positions from the
        // same two sources. Beliefs about continuing peers stay — the
        // barrier's own reschedule just refreshed them, and a tank that
        // dies before the pair's next rendezvous falls back on exactly
        // that barrier position on both sides (its tombstone may be
        // interest-suppressed, leaving the peer a phantom there).
        // Joiners need nothing: the runtime asked for their first
        // exchange just before this hook, from fresh entries.
        for peer in left {
            self.last_seen.remove(peer);
            self.last_delivered.remove(peer);
        }
    }
}

/// How many ticks a handoff record stays active after its crossing: long
/// enough for every live exchange cadence in the workspace to have
/// shipped both cells to every interested peer, short enough to bound
/// the log. Records also retire wholesale at view-change barriers.
const HANDOFF_WINDOW_TICKS: u64 = 32;

/// The region-aware diff router for the game, the one [`DiffRouter`]
/// MSYNC2-SHARD installs. A live diff of `object` ships to `peer` when
/// any of three holds:
///
/// * **anchored** — the object is a cell currently holding one of *this
///   node's own* tanks, or its own spawn cell. Each endpoint of a
///   rendezvous ships its own true position, so the pair-agreed position
///   scheme never depends on third-party relays;
/// * **interest cover** — the peer's interest set covers the object's
///   region. Interest is fed each exchange from the store: every visible
///   tank block of a team, sensed with [`interest_radius`] slack, plus
///   a standing interest around every spawn point;
/// * **handoff coupling** — an active handoff record couples the object
///   to a region the peer's interest covers, so a boundary crossing's
///   vacated and occupied cells are never half-seen.
///
/// Routing is *conservative* in three ways: a peer with no observation
/// this epoch receives everything; region granularity gives up to a
/// region's width of slack around the exact sensing range; and the
/// interest radius widens the relevance distance by the group cadence,
/// covering a position read from a replica that lags by the
/// inter-exchange gap. None of this affects convergence — suppressed
/// diffs stay buffered and flush at the next broadcast exchange — it
/// only tunes how much live traffic survives.
#[derive(Debug)]
pub struct ShardRouter {
    scenario: Scenario,
    me: NodeId,
    r_int: u16,
    /// Cells that currently hold one of this node's own tanks, plus its
    /// own spawn cell: these ship to every due peer unconditionally.
    anchored: BTreeSet<ObjectId>,
    /// Interest per team; its epoch mirrors the membership epoch.
    subs: SubscriptionManager,
    handoffs: HandoffLog,
    /// Last observed cell per team, for boundary-crossing detection.
    last_pos: BTreeMap<NodeId, Pos>,
    /// The tanks of the store it observes.
    board: TankBoard,
}

impl ShardRouter {
    /// A router for node `me` in `scenario`, routing everything until
    /// first observed.
    pub fn new(scenario: Scenario, me: NodeId) -> Self {
        let r_int = interest_radius(&scenario);
        let subs = SubscriptionManager::new(shard_lattice(&scenario));
        ShardRouter {
            scenario,
            me,
            r_int,
            anchored: BTreeSet::new(),
            subs,
            handoffs: HandoffLog::new(),
            last_pos: BTreeMap::new(),
            board: TankBoard::default(),
        }
    }

    /// Records that `team`'s tank stands at `pos` at tick `now`. Widens
    /// the team's interest (monotone within the epoch) and, when the tank
    /// crossed a region boundary since its previous observation, appends
    /// an epoch-stamped [`HandoffRecord`] coupling the vacated and
    /// occupied cells.
    fn note_position(&mut self, team: NodeId, pos: Pos, now: LogicalTime) {
        self.subs.observe(team, pos.x, pos.y, self.r_int);
        let lattice = *self.subs.lattice();
        if let Some(&prev) = self.last_pos.get(&team) {
            let from_region = lattice.region_of_xy(prev.x, prev.y);
            let to_region = lattice.region_of_xy(pos.x, pos.y);
            if from_region != to_region {
                let grid = self.scenario.grid;
                self.handoffs.record(HandoffRecord {
                    from: grid.object_at(prev),
                    to: grid.object_at(pos),
                    from_region,
                    to_region,
                    epoch: self.subs.epoch(),
                    tick: now,
                });
            }
        }
        self.last_pos.insert(team, pos);
    }
}

impl DiffRouter for ShardRouter {
    fn observe(&mut self, store: &ObjectStore, now: LogicalTime) {
        let horizon = now.as_ticks().saturating_sub(HANDOFF_WINDOW_TICKS);
        self.handoffs.retire_before_tick(LogicalTime::from_ticks(horizon));
        self.anchored.clear();
        let grid = self.scenario.grid;
        // Every spawn cell anchors a standing interest — a scoring or
        // destroyed tank teleports home, and its neighbours there must
        // see it the moment it materialises — but only *our own* spawn
        // cell always ships: we are the sole writer of our tank blocks,
        // so shipping our cells is what keeps every peer's copy of our
        // position rendezvous-fresh.
        for team in 0..self.scenario.teams {
            let start = self.scenario.start_of(team);
            if team == self.me {
                self.anchored.insert(grid.object_at(start));
            }
            self.subs.observe(team, start.x, start.y, self.r_int);
        }
        self.board.refresh(store);
        for tank in self.board.tanks() {
            if tank.team == self.me {
                self.anchored.insert(tank.object);
            }
            // Conservative: every visible tank block (phantoms included)
            // widens the team's interest; only the freshest one counts
            // as its position for boundary-handoff tracking.
            let pos = grid.pos_of(tank.object);
            self.subs.observe(tank.team, pos.x, pos.y, self.r_int);
        }
        for (team, (pos, _)) in tank_frontier(self.board.tanks(), grid) {
            self.note_position(team, pos, now);
        }
    }

    fn routes(&self, peer: NodeId, object: ObjectId) -> bool {
        if self.anchored.contains(&object) {
            return true;
        }
        let region = self.subs.lattice().region_of_object(object);
        // Handoff coupling: ship a boundary pair's cells to any peer
        // interested in either side, so a crossing is never half-seen.
        self.subs.covers(peer, region)
            || self.handoffs.coupled_regions(object).any(|r| self.subs.covers(peer, r))
    }

    fn on_view_change(&mut self, _joined: &[NodeId], _left: &[NodeId]) {
        // The barrier's broadcast exchange flushed every slot: interest
        // rebuilds from post-barrier observations and pre-barrier
        // handoffs are no longer needed.
        let epoch = self.subs.epoch().next();
        self.subs.on_epoch(epoch);
        self.handoffs.retire_before_epoch(epoch);
        self.last_pos.clear();
        self.anchored.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::world::Direction;
    use proptest::prelude::*;
    use sdso_core::{Epoch, ObjectStore, Version};

    fn store_with_tanks(scenario: &Scenario, tanks: &[(NodeId, Pos)]) -> ObjectStore {
        let mut store = ObjectStore::new();
        let grid = scenario.grid;
        for pos in grid.iter() {
            let block = tanks
                .iter()
                .find(|&&(_, p)| p == pos)
                .map(|&(team, _)| Block::Tank {
                    team,
                    tank: 0,
                    hp: 2,
                    facing: Direction::North,
                    fired: None,
                })
                .unwrap_or(Block::Empty);
            store.share(grid.object_at(pos), block.encode(scenario.block_bytes)).unwrap();
        }
        store
    }

    #[test]
    fn scaled_scenarios_have_room_and_payload_framing() {
        let s64 = Scenario::scaled(64, 1);
        assert_eq!((s64.grid.width, s64.grid.height), (64, 48));
        let s256 = Scenario::scaled(256, 1);
        assert_eq!((s256.grid.width, s256.grid.height), (160, 120));
        assert_eq!(s256.frame_wire_len, None, "fixed frames would mask routing savings");
        // Starts stay distinct at 256 teams.
        let mut starts = s256.starts();
        starts.sort();
        starts.dedup();
        assert_eq!(starts.len(), 256);
        assert_eq!(Scenario::scaled(16, 3).grid, crate::world::Grid::PAPER);
    }

    #[test]
    fn out_of_group_pairs_snap_the_msync2_bound_onto_group_ticks() {
        let s = Scenario::scaled(64, 1);
        // Teams 0 and 32 spawn on opposite sides of the perimeter, and
        // their tanks sit at those spawns: no shared interest region.
        let far_peer = 32;
        let store = store_with_tanks(&s, &[(0, s.start_of(0)), (far_peer, s.start_of(far_peer))]);
        let now = LogicalTime::from_ticks(3);
        // The reference: plain MSYNC2's bound on the identical store.
        let reference =
            crate::sfuncs::Msync2::new(0, s.clone()).next_exchange(far_peer, now, &store).unwrap();
        let mut f = ShardMsync2::new(0, s.clone());
        let next = f.next_exchange(far_peer, now, &store).unwrap();
        assert_eq!(next.as_ticks() % GROUP_EVERY, 0, "lands on a group tick: {next}");
        assert!(next > now, "strictly future");
        assert!(next <= reference, "never later than the MSYNC2 bound ({reference})");
        assert!(
            next.as_ticks() > now.as_ticks() + GROUP_EVERY,
            "a genuinely far pair waits several group cadences, not one: {next}"
        );
        assert!(
            next.as_ticks() + GROUP_EVERY > reference.as_ticks(),
            "snap-down loses less than one cadence: {next} vs {reference}"
        );
    }

    #[test]
    fn in_group_pairs_keep_the_msync2_bound() {
        let s = Scenario::scaled(64, 1);
        let (pa, pb) = (Pos::new(30, 20), Pos::new(33, 20));
        let store = store_with_tanks(&s, &[(0, pa), (1, pb)]);
        let mut f = ShardMsync2::new(0, s.clone());
        let next = f.next_exchange(1, LogicalTime::from_ticks(5), &store).unwrap();
        // Adjacent-ish aligned tanks: the interaction bound forces a
        // near-immediate exchange, not the 8-tick heartbeat.
        assert!(next.as_ticks() <= 7, "close pair must not idle until the heartbeat: {next}");
    }

    #[test]
    fn schedules_are_symmetric_for_mixed_pairs() {
        let s = Scenario::scaled(64, 1);
        for (pa, pb) in [
            (Pos::new(2, 2), Pos::new(60, 45)),   // far: heartbeat
            (Pos::new(30, 20), Pos::new(31, 22)), // close: bound
            (Pos::new(10, 10), Pos::new(40, 30)), // medium
        ] {
            let store = store_with_tanks(&s, &[(0, pa), (1, pb)]);
            let now = LogicalTime::from_ticks(11);
            let a = ShardMsync2::new(0, s.clone()).next_exchange(1, now, &store);
            let b = ShardMsync2::new(1, s.clone()).next_exchange(0, now, &store);
            assert_eq!(a, b, "asymmetric schedule for {pa:?}/{pb:?}");
        }
    }

    /// The frontier as a scan of the whole store finds it: every replica
    /// decoded, in ascending object order, the later stamp winning.
    fn scanned_frontier(
        store: &ObjectStore,
        scenario: &Scenario,
    ) -> BTreeMap<NodeId, (Pos, LogicalTime)> {
        let mut frontier: BTreeMap<NodeId, (Pos, LogicalTime)> = BTreeMap::new();
        for (id, replica) in store.iter() {
            let Some(Block::Tank { team, .. }) = Block::decode(replica.data()) else {
                continue;
            };
            let seen = (scenario.grid.pos_of(id), replica.version().time);
            frontier
                .entry(team)
                .and_modify(|best| {
                    if seen.1 > best.1 {
                        *best = seen;
                    }
                })
                .or_insert(seen);
        }
        frontier
    }

    #[test]
    fn the_board_frontier_is_the_scanned_frontier_over_a_walk_with_phantoms() {
        use sdso_core::Diff;
        use sdso_net::DetRng;

        let s = Scenario::paper(16, 1);
        let grid = s.grid;
        let mut store = ObjectStore::new();
        for (idx, block) in s.initial_world().iter().enumerate() {
            store.share(ObjectId(idx as u32), block.encode(s.block_bytes)).unwrap();
        }
        let tank = |team: NodeId| {
            Block::Tank { team, tank: 0, hp: 2, facing: Direction::North, fired: None }
                .encode(s.block_bytes)
        };
        let mut at = s.starts();
        let mut rng = DetRng::new(0xF40_4715);
        let mut board = TankBoard::default();
        let (mut moves, mut ties) = (0, 0);
        for step in 0..400u64 {
            let team = rng.up_to(15) as u16;
            let from = at[usize::from(team)];
            let dir = Direction::ALL[rng.up_to(3) as usize];
            let Some(to) = from.step(dir, grid).filter(|to| !at.contains(to)) else {
                continue;
            };
            // Stamps from a narrow window, so a team's images often tie
            // (and a late image may lose to an older one).
            let time = LogicalTime::from_ticks(step / 4 + rng.up_to(2));
            let version = Version::new(time, team);
            let moved =
                store.apply_remote(grid.object_at(to), &Diff::single(0, tank(team)), version);
            if !moved.unwrap() {
                continue;
            }
            // One move in three leaves its old image behind: a phantom.
            if rng.up_to(2) != 0 {
                let empty = Block::Empty.encode(s.block_bytes);
                let cleared = Diff::single(0, empty);
                store.apply_remote(grid.object_at(from), &cleared, version).unwrap();
            }
            at[usize::from(team)] = to;
            moves += 1;

            board.refresh(&store);
            let scanned = scanned_frontier(&store, &s);
            assert_eq!(tank_frontier(board.tanks(), grid), scanned, "step {step}");
            ties += scanned
                .iter()
                .filter(|&(&team, &(_, best))| {
                    board.tanks().iter().filter(|t| t.team == team && t.time == best).count() > 1
                })
                .count();
        }
        assert!(moves > 200, "the walk moved: {moves}");
        assert!(ties > 20, "equal stamps met: {ties}");
        assert_eq!(board.rescans, 1, "every refresh after the first re-read only what changed");
    }

    #[test]
    fn dead_peer_uses_frozen_last_delivered_position() {
        let s = Scenario::scaled(64, 1);
        let now = LogicalTime::from_ticks(4);
        // Rendezvous 1: both tanks visible and close. Each side schedules
        // from its own replica, as it does under a runtime.
        let tanks = [(0, Pos::new(30, 20)), (1, Pos::new(32, 20))];
        let (mut store_a, mut store_b) =
            (store_with_tanks(&s, &tanks), store_with_tanks(&s, &tanks));
        let mut a = ShardMsync2::new(0, s.clone());
        let mut b = ShardMsync2::new(1, s.clone());
        assert_eq!(a.next_exchange(1, now, &store_a), b.next_exchange(0, now, &store_b));
        // Rendezvous 2: team 1's tank is gone (destroyed, Empty write
        // delivered) and team 0's moved on. Both sides must still agree —
        // the dead side falls back to what it last delivered, the live
        // side to what it last saw.
        let later = LogicalTime::from_ticks(6);
        for store in [&mut store_a, &mut store_b] {
            let mut put = |pos: Pos, block: Block, lamport: u64| {
                let stamp = Version::new(LogicalTime::from_ticks(lamport), 0);
                store.write(s.grid.object_at(pos), 0, &block.encode(s.block_bytes), stamp).unwrap();
            };
            put(Pos::new(32, 20), Block::Empty, 1);
            put(Pos::new(30, 20), Block::Empty, 2);
            let moved =
                Block::Tank { team: 0, tank: 0, hp: 2, facing: Direction::North, fired: None };
            put(Pos::new(30, 21), moved, 3);
        }
        assert_eq!(a.frontier.get(&1), Some(&(Pos::new(32, 20), LogicalTime::ZERO)), "seen alive");
        assert_eq!(a.next_exchange(1, later, &store_a), b.next_exchange(0, later, &store_b));
        assert_eq!(a.frontier.get(&1), None, "the refresh saw the tank gone");
        assert_eq!(a.last_seen[&1].0, Pos::new(32, 20), "and the belief froze where it was");
        assert_eq!(b.last_delivered[&0], Pos::new(32, 20));
    }

    #[test]
    fn router_always_ships_own_tank_and_spawn_cells() {
        let s = Scenario::scaled(64, 1);
        let tank_pos = Pos::new(30, 20);
        let store = store_with_tanks(&s, &[(0, tank_pos), (1, Pos::new(62, 46))]);
        let mut router = ShardRouter::new(s.clone(), 0);
        DiffRouter::observe(&mut router, &store, LogicalTime::from_ticks(1));
        let tank_cell = s.grid.object_at(tank_pos);
        let own_spawn = s.grid.object_at(s.start_of(0));
        // Peer 1 sits in the far corner: its interest cannot cover the
        // centre, yet this node's own tank and spawn cells ship
        // regardless — that is what keeps peer 1's copy of our position
        // fresh at every rendezvous.
        assert!(router.routes(1, tank_cell), "own tank cells always ship");
        assert!(router.routes(1, own_spawn), "own spawn cell always ships");
        // Third-party cells are interest-routed, not anchored: team 5's
        // spawn ships only to peers whose interest covers its region
        // (peer 1's does not), and team 1's corner tank cell never
        // reaches peer 9 near the top edge.
        let spawn_cell_5 = s.grid.object_at(s.start_of(5));
        let tank_cell_1 = s.grid.object_at(Pos::new(62, 46));
        assert!(!router.routes(1, spawn_cell_5), "third-party spawn suppressed");
        assert!(!router.routes(9, tank_cell_1), "third-party tank suppressed");
        // A plain interior cell far from peer 1's tank, its spawn and
        // every always-ship anchor is suppressed for peer 1...
        let far_plain = s.grid.object_at(Pos::new(30, 24));
        assert!(!router.routes(1, far_plain), "out-of-interest cell suppressed");
        // Every in-scenario team has at least its standing spawn
        // interest, so peer 9 still receives traffic around its spawn...
        let near_spawn_9 = s.grid.object_at(Pos::new(s.start_of(9).x, s.start_of(9).y + 2));
        assert!(router.routes(9, near_spawn_9));
        // ...while a peer the router never observed (out of scenario
        // range) conservatively gets everything.
        assert!(router.routes(200, far_plain));
    }

    #[test]
    fn router_interest_follows_the_observed_tank() {
        let s = Scenario::scaled(64, 1);
        let store = store_with_tanks(&s, &[(0, Pos::new(30, 20)), (1, Pos::new(34, 20))]);
        let mut router = ShardRouter::new(s.clone(), 0);
        DiffRouter::observe(&mut router, &store, LogicalTime::from_ticks(1));
        // Peer 1's interest box covers cells near its tank.
        let near = s.grid.object_at(Pos::new(36, 21));
        assert!(router.routes(1, near));
    }

    fn t(n: u64) -> LogicalTime {
        LogicalTime::from_ticks(n)
    }

    /// A router for node 0 on the 64-node grid: 64x48 cells, 8x6 regions
    /// of 8x8, interest radius 9.
    fn router_64() -> (Scenario, ShardRouter) {
        let s = Scenario::scaled(64, 1);
        assert_eq!(interest_radius(&s), 9);
        (s.clone(), ShardRouter::new(s, 0))
    }

    #[test]
    fn routes_everything_until_observed() {
        let (s, router) = router_64();
        assert!(router.routes(3, ObjectId(0)));
        assert!(router.routes(3, s.grid.object_at(Pos::new(63, 47))));
    }

    #[test]
    fn suppresses_out_of_interest_regions_after_observation() {
        let (s, mut router) = router_64();
        // Peer 1 sits at (2, 2): its interest is the 2x2 regions around
        // the top-left corner.
        router.note_position(1, Pos::new(2, 2), t(1));
        assert!(router.routes(1, ObjectId(0)), "own region routed");
        // Cell (63, 47) is in the far corner region.
        let far = s.grid.object_at(Pos::new(63, 47));
        assert!(!router.routes(1, far));
        // An unobserved peer still gets everything.
        assert!(router.routes(2, far));
    }

    #[test]
    fn boundary_crossing_couples_both_cells() {
        let (s, mut router) = router_64();
        // Peer 5 at (0, 20) is interested in region columns 0 and 1
        // (x < 16) only.
        router.note_position(5, Pos::new(0, 20), t(1));
        // Peer 9 (the mover) steps from (15, 20) in column 1 to (16, 20)
        // in column 2.
        let (src, dest) = (Pos::new(15, 20), Pos::new(16, 20));
        router.note_position(9, src, t(1));
        assert!(!router.routes(5, s.grid.object_at(dest)), "column 2 is outside peer 5's interest");
        router.note_position(9, dest, t(2));
        assert_eq!(router.handoffs.len(), 1);
        assert!(
            router.routes(5, s.grid.object_at(dest)),
            "...but the handoff couples it to column 1, so peer 5 gets it"
        );
        assert!(router.routes(5, s.grid.object_at(src)));
    }

    #[test]
    fn same_region_moves_record_no_handoff() {
        let (_, mut router) = router_64();
        router.note_position(9, Pos::new(2, 2), t(1));
        router.note_position(9, Pos::new(3, 2), t(2));
        assert!(router.handoffs.is_empty());
    }

    #[test]
    fn view_change_resets_interest_and_retires_handoffs() {
        let (s, mut router) = router_64();
        let far = s.grid.object_at(Pos::new(63, 47));
        router.note_position(1, Pos::new(2, 2), t(1));
        router.note_position(9, Pos::new(15, 20), t(1));
        router.note_position(9, Pos::new(16, 20), t(2));
        assert!(!router.routes(1, far));
        assert_eq!(router.handoffs.len(), 1);
        router.on_view_change(&[3], &[9]);
        assert_eq!(router.subs.epoch(), Epoch(1));
        assert!(router.routes(1, far), "interest reset to unknown");
        assert!(router.handoffs.is_empty(), "pre-barrier handoffs retired");
    }

    #[test]
    fn observation_rounds_retire_stale_handoffs() {
        let (_, mut router) = router_64();
        router.note_position(9, Pos::new(15, 20), t(1));
        router.note_position(9, Pos::new(16, 20), t(2));
        let empty = ObjectStore::new();
        router.observe(&empty, t(3));
        assert_eq!(router.handoffs.len(), 1, "fresh record survives");
        router.observe(&empty, t(HANDOFF_WINDOW_TICKS + 10));
        assert!(router.handoffs.is_empty());
    }

    proptest! {
        // ------------------------------------------------------------------
        // Interest monotonicity: within one epoch, every observation only
        // grows a node's interest set, and covered regions stay covered.
        // ------------------------------------------------------------------
        #[test]
        fn interest_updates_are_monotone_within_an_epoch(
            moves in proptest::collection::vec((0u16..32, 0u16..24, 0u16..6), 1..32),
            node in 0u16..4,
        ) {
            let mut subs = SubscriptionManager::new(RegionLattice::paper());
            let mut previous = None;
            for &(x, y, range) in &moves {
                subs.observe(node, x, y, range);
                let current = subs.interest_of(node).unwrap().clone();
                if let Some(prev) = previous {
                    prop_assert!(
                        current.is_superset_of(&prev),
                        "interest shrank within an epoch"
                    );
                }
                previous = Some(current);
            }
            // And the router built on top never *starts* suppressing an
            // object it once routed (same epoch, same peer). The paper
            // scenario's grid shards into the paper lattice.
            let mut router = ShardRouter::new(Scenario::paper(4, 1), 0);
            let probe = ObjectId(12 * 32 + 16);
            let mut routed_before = false;
            for (i, &(x, y, _)) in moves.iter().enumerate() {
                router.note_position(node, Pos::new(x, y), LogicalTime::from_ticks(i as u64 + 1));
                let routed_now = router.routes(node, probe);
                if routed_before {
                    prop_assert!(routed_now, "a routed object became suppressed mid-epoch");
                }
                routed_before = routed_now;
            }
        }
    }
}
