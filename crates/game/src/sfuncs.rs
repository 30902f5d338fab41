//! The game's semantic functions: BSYNC, MSYNC and MSYNC2 attributes.
//!
//! * **BSYNC** reuses [`sdso_core::EveryTick`]: every process re-exchanges
//!   with every other after each modification — a purely *temporal*
//!   worst-case.
//! * **MSYNC** "computes the logical exchange times with each process by
//!   halving the distance between the nearest tanks in any two teams",
//!   assuming worst-case mutual approach, and treats "any enemy tank in the
//!   same row or column […] as potentially affecting a local tank's next
//!   operation" — so it exchanges every tick once row/column alignment is
//!   possible within a tick.
//! * **MSYNC2** "refines this assumption by only exchanging […] with those
//!   processes whose tanks could have moved into the same row or column as
//!   a local tank, and the distance to those enemy tanks is less than d
//!   blocks" — alignment *and* proximity.
//!
//! # Symmetry
//!
//! A rendezvous schedule only works if both endpoints compute identical
//! times (see [`sdso_core::SFunction`]'s contract). These s-functions
//! derive the pair's schedule exclusively from (a) the two teams' tank
//! positions as recorded in the exchanged blocks — identical on both sides
//! immediately after a rendezvous — and (b) the static spawn points. Spawn
//! points participate as *ghost positions*: a destroyed or goal-scoring
//! tank teleports to its spawn, which worst-case movement from its last
//! known position cannot predict, so the pair must bound the interaction
//! time over the spawn positions too.

use sdso_core::{LogicalTime, ObjectId, ObjectStore, Replica, SFunction};
use sdso_net::NodeId;

use crate::block::Block;
use crate::scenario::Scenario;
use crate::world::Pos;

/// Extracts `team`'s tank positions from a replica of the world.
pub fn team_positions(store: &ObjectStore, scenario: &Scenario, team: NodeId) -> Vec<Pos> {
    let grid = scenario.grid;
    store
        .iter()
        .filter_map(|(id, replica)| {
            let block = Block::decode(replica.data())?;
            match block {
                Block::Tank { team: t, .. } if t == team => Some(grid.pos_of(id)),
                _ => None,
            }
        })
        .collect()
}

/// One tank-holding object of a replica of the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tank {
    /// The cell holding the tank.
    pub(crate) object: ObjectId,
    /// The tank's team.
    pub(crate) team: NodeId,
    /// The Lamport time of the cell's version.
    pub(crate) time: LogicalTime,
}

impl Tank {
    /// The tank `replica` of `object` holds, if it holds one.
    fn of(object: ObjectId, replica: &Replica) -> Option<Tank> {
        match Block::decode(replica.data())? {
            Block::Tank { team, .. } => Some(Tank { object, team, time: replica.version().time }),
            _ => None,
        }
    }
}

/// Every tank-holding object of one store, ascending by object, kept
/// current by re-reading only the replicas that changed since the last
/// look ([`ObjectStore::changed_since`]); a full scan happens only on the
/// first look and when [`ObjectStore::len`] moved. The runtime asks an
/// s-function for each due peer in turn after a rendezvous, and an
/// exchange changes a handful of cells, so a rendezvous costs a sweep of
/// the store's change stamps and a decode per changed cell, not a decode
/// of every replica.
///
/// A board follows the one store it is refreshed from: generations are
/// only comparable between observations of the same store.
#[derive(Debug, Clone, Default)]
pub(crate) struct TankBoard {
    tanks: Vec<Tank>,
    /// The store's `(generation, len)` as of the last refresh.
    seen: Option<(u64, usize)>,
    /// Full scans so far.
    pub(crate) rescans: u64,
}

impl TankBoard {
    /// Brings the board up to `store`'s contents; returns whether any
    /// tank entry changed.
    pub(crate) fn refresh(&mut self, store: &ObjectStore) -> bool {
        let now = (store.generation(), store.len());
        let moved = match self.seen {
            Some(seen) if seen == now => return false,
            Some((generation, len)) if len == now.1 => {
                let mut moved = false;
                for (object, replica) in store.changed_since(generation) {
                    moved |= self.update(object, Tank::of(object, replica));
                }
                moved
            }
            _ => {
                self.tanks.clear();
                self.tanks.extend(store.iter().filter_map(|(id, replica)| Tank::of(id, replica)));
                self.rescans += 1;
                true
            }
        };
        self.seen = Some(now);
        moved
    }

    /// Sets what `object` holds; returns whether the board changed.
    fn update(&mut self, object: ObjectId, tank: Option<Tank>) -> bool {
        match (self.tanks.binary_search_by_key(&object, |t| t.object), tank) {
            (Ok(at), Some(tank)) if self.tanks[at] == tank => false,
            (Ok(at), Some(tank)) => {
                self.tanks[at] = tank;
                true
            }
            (Ok(at), None) => {
                self.tanks.remove(at);
                true
            }
            (Err(at), Some(tank)) => {
                self.tanks.insert(at, tank);
                true
            }
            (Err(_), None) => false,
        }
    }

    /// The board's tanks, ascending by object.
    pub(crate) fn tanks(&self) -> &[Tank] {
        &self.tanks
    }
}

/// The candidate positions of `team` for lookahead purposes: its visible
/// tanks plus its spawn point (the ghost position respawns teleport to).
fn candidate_positions<'a>(
    tanks: &'a [Tank],
    scenario: &'a Scenario,
    team: NodeId,
) -> impl Iterator<Item = Pos> + Clone + 'a {
    let grid = scenario.grid;
    tanks
        .iter()
        .filter(move |t| t.team == team)
        .map(move |t| grid.pos_of(t.object))
        .chain(std::iter::once(scenario.start_of(team)))
}

/// Ticks until *any* cross-team tank pair could reach row/column alignment
/// (the MSYNC trigger), minimised over pairs and ghost positions.
fn ticks_to_any_alignment(
    ours: impl Iterator<Item = Pos>,
    theirs: impl Iterator<Item = Pos> + Clone,
) -> u64 {
    ours.flat_map(|m| theirs.clone().map(move |t| m.ticks_to_alignment(t)))
        .min()
        .unwrap_or(u64::MAX)
}

/// Ticks until any cross-team pair could be aligned **and** within `d`
/// blocks (the MSYNC2 trigger).
fn ticks_to_any_interaction(
    ours: impl Iterator<Item = Pos>,
    theirs: impl Iterator<Item = Pos> + Clone,
    d: u32,
) -> u64 {
    ours.flat_map(|m| {
        theirs.clone().map(move |t| m.ticks_to_alignment(t).max(m.ticks_to_within(t, d)))
    })
    .min()
    .unwrap_or(u64::MAX)
}

/// The MSYNC s-function.
#[derive(Debug, Clone)]
pub struct Msync {
    me: NodeId,
    scenario: Scenario,
    board: TankBoard,
}

impl Msync {
    /// Creates the s-function for process `me`.
    pub fn new(me: NodeId, scenario: Scenario) -> Self {
        Msync { me, scenario, board: TankBoard::default() }
    }
}

impl SFunction for Msync {
    fn next_exchange(
        &mut self,
        peer: NodeId,
        now: LogicalTime,
        view: &ObjectStore,
    ) -> Option<LogicalTime> {
        self.board.refresh(view);
        let (tanks, scenario) = (self.board.tanks(), &self.scenario);
        let delta = ticks_to_any_alignment(
            candidate_positions(tanks, scenario, self.me),
            candidate_positions(tanks, scenario, peer),
        );
        Some(now.plus(delta.max(1)))
    }
}

/// The MSYNC2 s-function.
#[derive(Debug, Clone)]
pub struct Msync2 {
    me: NodeId,
    scenario: Scenario,
    d: u32,
    board: TankBoard,
}

impl Msync2 {
    /// Creates the s-function for process `me`, with the scenario's
    /// relevance distance as `d`.
    pub fn new(me: NodeId, scenario: Scenario) -> Self {
        let d = scenario.relevance_distance();
        Msync2 { me, scenario, d, board: TankBoard::default() }
    }
}

impl SFunction for Msync2 {
    fn next_exchange(
        &mut self,
        peer: NodeId,
        now: LogicalTime,
        view: &ObjectStore,
    ) -> Option<LogicalTime> {
        self.board.refresh(view);
        let (tanks, scenario) = (self.board.tanks(), &self.scenario);
        let delta = ticks_to_any_interaction(
            candidate_positions(tanks, scenario, self.me),
            candidate_positions(tanks, scenario, peer),
            self.d,
        );
        Some(now.plus(delta.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a store holding a world with the given tank placements.
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
                    facing: crate::world::Direction::North,
                    fired: None,
                })
                .unwrap_or(Block::Empty);
            store.share(grid.object_at(pos), block.encode(scenario.block_bytes)).unwrap();
        }
        store
    }

    fn scenario() -> Scenario {
        // Starts in the corners-ish; two teams.
        Scenario::paper(2, 1)
    }

    /// The uncached definition of a team's candidates: a scan of the
    /// store per call, through the public [`team_positions`].
    fn scanned_candidates(store: &ObjectStore, scenario: &Scenario, team: NodeId) -> Vec<Pos> {
        let mut positions = team_positions(store, scenario, team);
        positions.push(scenario.start_of(team));
        positions
    }

    #[test]
    fn team_positions_finds_tanks() {
        let s = scenario();
        let store = store_with_tanks(&s, &[(0, Pos::new(3, 3)), (1, Pos::new(20, 10))]);
        assert_eq!(team_positions(&store, &s, 0), vec![Pos::new(3, 3)]);
        assert_eq!(team_positions(&store, &s, 1), vec![Pos::new(20, 10)]);
        assert!(team_positions(&store, &s, 5).is_empty());
    }

    #[test]
    fn msync_schedules_every_tick_when_aligned() {
        let s = scenario();
        // Same row — and make the spawn ghosts irrelevant by distance.
        let store = store_with_tanks(&s, &[(0, Pos::new(3, 10)), (1, Pos::new(25, 10))]);
        let mut f = Msync::new(0, s);
        let next = f.next_exchange(1, LogicalTime::from_ticks(5), &store).unwrap();
        assert_eq!(next, LogicalTime::from_ticks(6), "aligned → every tick");
    }

    #[test]
    fn msync_halves_the_axis_gap() {
        let s = scenario();
        // Rows differ by 8; columns far apart. Spawn ghosts may tighten the
        // bound, so compare against the full candidate-set computation.
        let store = store_with_tanks(&s, &[(0, Pos::new(3, 2)), (1, Pos::new(25, 10))]);
        let expected = ticks_to_any_alignment(
            scanned_candidates(&store, &s, 0).into_iter(),
            scanned_candidates(&store, &s, 1).into_iter(),
        )
        .max(1);
        let mut f = Msync::new(0, s);
        let next = f.next_exchange(1, LogicalTime::from_ticks(0), &store).unwrap();
        assert_eq!(next.as_ticks(), expected);
        // The pure pair term (without ghosts) is ceil(8/2) = 4, and ghosts
        // can only shorten it.
        assert!(expected <= 4);
        assert!(expected >= 1);
    }

    #[test]
    fn msync2_waits_longer_than_msync() {
        let s = Scenario::paper(2, 1);
        // Aligned but far apart: MSYNC fires every tick, MSYNC2 waits for
        // proximity.
        let store = store_with_tanks(&s, &[(0, Pos::new(2, 12)), (1, Pos::new(28, 12))]);
        let now = LogicalTime::from_ticks(0);
        let m1 = Msync::new(0, s.clone()).next_exchange(1, now, &store).unwrap();
        let m2 = Msync2::new(0, s).next_exchange(1, now, &store).unwrap();
        assert!(m2 >= m1, "MSYNC2 ({m2}) must not exchange more often than MSYNC ({m1})");
        assert_eq!(m1.as_ticks(), 1, "aligned → MSYNC every tick");
        assert!(m2.as_ticks() > 1, "far apart → MSYNC2 waits: {m2}");
    }

    #[test]
    fn schedules_are_symmetric() {
        // The load-bearing property: both endpoints compute the same time.
        let s = Scenario::paper(2, 3);
        for (pa, pb) in [
            (Pos::new(3, 3), Pos::new(20, 15)),
            (Pos::new(10, 10), Pos::new(10, 20)),
            (Pos::new(1, 1), Pos::new(2, 2)),
            (Pos::new(31, 0), Pos::new(0, 23)),
        ] {
            let store = store_with_tanks(&s, &[(0, pa), (1, pb)]);
            let now = LogicalTime::from_ticks(9);
            let a = Msync::new(0, s.clone()).next_exchange(1, now, &store);
            let b = Msync::new(1, s.clone()).next_exchange(0, now, &store);
            assert_eq!(a, b, "MSYNC asymmetric for {pa:?}/{pb:?}");
            let a2 = Msync2::new(0, s.clone()).next_exchange(1, now, &store);
            let b2 = Msync2::new(1, s.clone()).next_exchange(0, now, &store);
            assert_eq!(a2, b2, "MSYNC2 asymmetric for {pa:?}/{pb:?}");
        }
    }

    #[test]
    fn spawn_ghosts_bound_the_schedule() {
        let s = Scenario::paper(2, 1);
        // Both tanks sit right next to team 1's spawn while team 0's tank
        // is far from team 1's tank? Construct: team 1's tank far away, but
        // team 0's tank adjacent to team 1's spawn — a respawn would put
        // them in contact instantly, so the schedule must stay tight.
        let spawn1 = s.start_of(1);
        let near_spawn = Pos::new(spawn1.x, spawn1.y.saturating_sub(2));
        let far = Pos::new(
            (spawn1.x + s.grid.width / 2) % s.grid.width,
            (spawn1.y + s.grid.height / 2) % s.grid.height,
        );
        let store = store_with_tanks(&s, &[(0, near_spawn), (1, far)]);
        let mut f = Msync2::new(0, s);
        let next = f.next_exchange(1, LogicalTime::from_ticks(0), &store).unwrap();
        assert!(next.as_ticks() <= 2, "spawn ghost must keep the schedule tight, got {next}");
    }

    #[test]
    fn cached_schedules_equal_the_uncached_definition_and_scan_once_per_store_state() {
        use sdso_core::{Diff, ObjectId, Version};
        use sdso_net::DetRng;

        let s = Scenario::paper(16, 1);
        let grid = s.grid;
        // A few cells are registered only during the walk — each as a
        // phantom tank of some team — so the board must notice `len()`
        // move and rescan.
        let starts = s.starts();
        let mut late: Vec<Pos> =
            grid.iter().filter(|p| p.x % 7 == 3 && p.y % 5 == 2 && !starts.contains(p)).collect();
        let mut store = ObjectStore::new();
        for (idx, block) in s.initial_world().iter().enumerate() {
            let id = ObjectId(idx as u32);
            if !late.contains(&grid.pos_of(id)) {
                store.share(id, block.encode(s.block_bytes)).unwrap();
            }
        }
        let tank = |team: NodeId| Block::Tank {
            team,
            tank: 0,
            hp: 2,
            facing: crate::world::Direction::North,
            fired: None,
        };
        let mut at: Vec<Pos> = s.starts();
        let mut phantoms: Vec<Pos> = Vec::new();
        let (mut msync, mut msync2) = (Msync::new(0, s.clone()), Msync2::new(3, s.clone()));
        let mut rng = DetRng::new(0x5F_CAC4E);
        let mut lamport = 0u64;
        let (mut applied_steps, mut shares) = (0u64, 0u64);

        for step in 0..200u64 {
            if step % 16 == 8 {
                if let Some(pos) = late.pop() {
                    let team = rng.up_to(15) as u16;
                    store.share(grid.object_at(pos), tank(team).encode(s.block_bytes)).unwrap();
                    phantoms.push(pos);
                    shares += 1;
                }
            }
            // One tank moves to a free neighbouring cell — or, every
            // eighth step, dies back to its spawn — and the two cells
            // reach the store one of four ways.
            let team = rng.up_to(15) as u16;
            let from = at[usize::from(team)];
            let to = if step % 8 == 7 {
                s.start_of(team)
            } else {
                let dir = crate::world::Direction::ALL[rng.up_to(3) as usize];
                from.step(dir, grid).unwrap_or(from)
            };
            let unshared = store.replica(grid.object_at(to)).is_err();
            if to == from || at.contains(&to) || unshared {
                continue;
            }
            let how = rng.up_to(3) as u8;
            let stale = how == 3;
            for (pos, block) in [(from, Block::Empty), (to, tank(team))] {
                lamport += 1;
                let fresh = Version::new(LogicalTime::from_ticks(lamport), team);
                let (id, body) = (grid.object_at(pos), block.encode(s.block_bytes));
                match how {
                    0 => store.write(id, 0, &body, fresh).unwrap(),
                    1 => assert!(store.apply_remote(id, &Diff::single(0, body), fresh).unwrap()),
                    2 => store.replace(id, &body, fresh).unwrap(),
                    // Older than anything written: discarded, the store
                    // does not change and neither may the schedule.
                    _ => assert!(!store
                        .apply_remote(id, &Diff::single(0, body), Version::INITIAL)
                        .unwrap()),
                }
            }
            if !stale {
                at[usize::from(team)] = to;
                phantoms.retain(|&p| p != to);
                applied_steps += 1;
            }

            let now = LogicalTime::from_ticks(step);
            for peer in (0..16).filter(|&p| p != 0) {
                let bound = ticks_to_any_alignment(
                    scanned_candidates(&store, &s, 0).into_iter(),
                    scanned_candidates(&store, &s, peer).into_iter(),
                );
                assert_eq!(
                    msync.next_exchange(peer, now, &store),
                    Some(now.plus(bound.max(1))),
                    "MSYNC towards {peer} at step {step}"
                );
            }
            for peer in (0..16).filter(|&p| p != 3) {
                let bound = ticks_to_any_interaction(
                    scanned_candidates(&store, &s, 3).into_iter(),
                    scanned_candidates(&store, &s, peer).into_iter(),
                    s.relevance_distance(),
                );
                assert_eq!(
                    msync2.next_exchange(peer, now, &store),
                    Some(now.plus(bound.max(1))),
                    "MSYNC2 towards {peer} at step {step}"
                );
            }
            // The incremental board is the board a fresh full scan finds.
            let mut fresh = TankBoard::default();
            fresh.refresh(&store);
            assert_eq!(msync.board.tanks(), fresh.tanks(), "step {step} ({how})");
            assert_eq!(msync2.board.tanks(), fresh.tanks(), "step {step} ({how})");
            // Fifteen peers asked and any number of writes since: one
            // full scan for the first look and one per registration.
            assert_eq!(msync.board.rescans, 1 + shares, "step {step}");
            assert_eq!(msync2.board.rescans, 1 + shares, "step {step}");
        }
        assert!(applied_steps > 100, "the walk really moved tanks: {applied_steps}");
        assert!(shares > 5 && !phantoms.is_empty(), "{shares} phantoms registered");
        let mut seen: Vec<Pos> = (0..16).flat_map(|t| team_positions(&store, &s, t)).collect();
        seen.sort();
        at.extend(phantoms);
        at.sort();
        assert_eq!(seen, at, "the store holds the walk's board");
    }

    #[test]
    fn a_board_refresh_reports_only_tank_changes() {
        let s = scenario();
        let mut store = store_with_tanks(&s, &[(0, Pos::new(3, 3)), (1, Pos::new(20, 10))]);
        let mut board = TankBoard::default();
        assert!(board.refresh(&store), "the first look builds the board");
        assert!(!board.refresh(&store), "nothing changed");
        let v = |t: u64| sdso_core::Version::new(LogicalTime::from_ticks(t), 0);
        let empty = Block::Empty.encode(s.block_bytes);
        store.write(s.grid.object_at(Pos::new(9, 9)), 0, &empty, v(1)).unwrap();
        assert!(!board.refresh(&store), "an empty cell rewritten empty moves no tank");
        store.write(s.grid.object_at(Pos::new(3, 3)), 0, &empty, v(2)).unwrap();
        assert!(board.refresh(&store), "a tank left its cell");
        assert_eq!(board.tanks().len(), 1);
        assert_eq!(board.rescans, 1);
    }
}
