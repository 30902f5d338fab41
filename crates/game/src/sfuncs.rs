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

use sdso_core::{LogicalTime, ObjectStore, SFunction};
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

/// A value derived from a store's contents, rebuilt only when the store
/// has changed: `(generation, len)` unchanged means no replica's bytes or
/// version moved and no object was shared since (see
/// [`ObjectStore::generation`]). The runtime asks an s-function for each
/// due peer in turn after a rendezvous and nothing is written between
/// those calls, so one scan serves them all.
#[derive(Debug, Clone, Default)]
pub(crate) struct StoreMemo<T> {
    pub(crate) value: T,
    built_at: Option<(u64, usize)>,
    /// Rebuilds so far.
    pub(crate) builds: u64,
}

impl<T> StoreMemo<T> {
    pub(crate) fn get(&mut self, store: &ObjectStore, build: impl FnOnce(&ObjectStore) -> T) -> &T {
        let state = (store.generation(), store.len());
        if self.built_at != Some(state) {
            self.value = build(store);
            self.built_at = Some(state);
            self.builds += 1;
        }
        &self.value
    }
}

/// Every tank on the board as `(team, position)`, in ascending object
/// order — [`team_positions`] for all teams in one scan.
fn tanks_on(store: &ObjectStore, scenario: &Scenario) -> Vec<(NodeId, Pos)> {
    let grid = scenario.grid;
    store
        .iter()
        .filter_map(|(id, replica)| match Block::decode(replica.data())? {
            Block::Tank { team, .. } => Some((team, grid.pos_of(id))),
            _ => None,
        })
        .collect()
}

/// The candidate positions of `team` for lookahead purposes: its visible
/// tanks plus its spawn point (the ghost position respawns teleport to).
fn candidate_positions(tanks: &[(NodeId, Pos)], scenario: &Scenario, team: NodeId) -> Vec<Pos> {
    let mut positions: Vec<Pos> =
        tanks.iter().filter(|&&(t, _)| t == team).map(|&(_, pos)| pos).collect();
    positions.push(scenario.start_of(team));
    positions
}

/// Ticks until *any* cross-team tank pair could reach row/column alignment
/// (the MSYNC trigger), minimised over pairs and ghost positions.
fn ticks_to_any_alignment(ours: &[Pos], theirs: &[Pos]) -> u64 {
    ours.iter()
        .flat_map(|&m| theirs.iter().map(move |&t| m.ticks_to_alignment(t)))
        .min()
        .unwrap_or(u64::MAX)
}

/// Ticks until any cross-team pair could be aligned **and** within `d`
/// blocks (the MSYNC2 trigger).
fn ticks_to_any_interaction(ours: &[Pos], theirs: &[Pos], d: u32) -> u64 {
    ours.iter()
        .flat_map(|&m| {
            theirs.iter().map(move |&t| m.ticks_to_alignment(t).max(m.ticks_to_within(t, d)))
        })
        .min()
        .unwrap_or(u64::MAX)
}

/// The MSYNC s-function.
#[derive(Debug, Clone)]
pub struct Msync {
    me: NodeId,
    scenario: Scenario,
    board: StoreMemo<Vec<(NodeId, Pos)>>,
}

impl Msync {
    /// Creates the s-function for process `me`.
    pub fn new(me: NodeId, scenario: Scenario) -> Self {
        Msync { me, scenario, board: StoreMemo::default() }
    }
}

impl SFunction for Msync {
    fn next_exchange(
        &mut self,
        peer: NodeId,
        now: LogicalTime,
        view: &ObjectStore,
    ) -> Option<LogicalTime> {
        let scenario = &self.scenario;
        let tanks = self.board.get(view, |store| tanks_on(store, scenario));
        let delta = ticks_to_any_alignment(
            &candidate_positions(tanks, scenario, self.me),
            &candidate_positions(tanks, scenario, peer),
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
    board: StoreMemo<Vec<(NodeId, Pos)>>,
}

impl Msync2 {
    /// Creates the s-function for process `me`, with the scenario's
    /// relevance distance as `d`.
    pub fn new(me: NodeId, scenario: Scenario) -> Self {
        let d = scenario.relevance_distance();
        Msync2 { me, scenario, d, board: StoreMemo::default() }
    }
}

impl SFunction for Msync2 {
    fn next_exchange(
        &mut self,
        peer: NodeId,
        now: LogicalTime,
        view: &ObjectStore,
    ) -> Option<LogicalTime> {
        let scenario = &self.scenario;
        let tanks = self.board.get(view, |store| tanks_on(store, scenario));
        let delta = ticks_to_any_interaction(
            &candidate_positions(tanks, scenario, self.me),
            &candidate_positions(tanks, scenario, peer),
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
            &scanned_candidates(&store, &s, 0),
            &scanned_candidates(&store, &s, 1),
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
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use sdso_core::{Diff, ObjectId, Version};

        let s = Scenario::paper(16, 1);
        let mut store = ObjectStore::new();
        for (idx, block) in s.initial_world().iter().enumerate() {
            store.share(ObjectId(idx as u32), block.encode(s.block_bytes)).unwrap();
        }
        let tank = |team: NodeId| Block::Tank {
            team,
            tank: 0,
            hp: 2,
            facing: crate::world::Direction::North,
            fired: None,
        };
        let mut at: Vec<Pos> = s.starts();
        let (mut msync, mut msync2) = (Msync::new(0, s.clone()), Msync2::new(3, s.clone()));
        let mut rng = StdRng::seed_from_u64(0x5F_CAC4E);
        let mut lamport = 0u64;
        let mut applied_steps = 0u64;

        for step in 0..200u64 {
            // One tank moves to a free neighbouring cell — or, every
            // eighth step, dies back to its spawn — and the two cells
            // reach the store one of four ways.
            let team = rng.gen_range(0..16u16);
            let from = at[usize::from(team)];
            let to = if step % 8 == 7 {
                s.start_of(team)
            } else {
                let dir = crate::world::Direction::ALL[rng.gen_range(0..4usize)];
                from.step(dir, s.grid).unwrap_or(from)
            };
            if to == from || at.contains(&to) {
                continue;
            }
            let how = rng.gen_range(0..4u8);
            let stale = how == 3;
            for (pos, block) in [(from, Block::Empty), (to, tank(team))] {
                lamport += 1;
                let fresh = Version::new(LogicalTime::from_ticks(lamport), team);
                let (id, body) = (s.grid.object_at(pos), block.encode(s.block_bytes));
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
                applied_steps += 1;
            }

            let now = LogicalTime::from_ticks(step);
            for peer in (0..16).filter(|&p| p != 0) {
                let bound = ticks_to_any_alignment(
                    &scanned_candidates(&store, &s, 0),
                    &scanned_candidates(&store, &s, peer),
                );
                assert_eq!(
                    msync.next_exchange(peer, now, &store),
                    Some(now.plus(bound.max(1))),
                    "MSYNC towards {peer} at step {step}"
                );
            }
            for peer in (0..16).filter(|&p| p != 3) {
                let bound = ticks_to_any_interaction(
                    &scanned_candidates(&store, &s, 3),
                    &scanned_candidates(&store, &s, peer),
                    s.relevance_distance(),
                );
                assert_eq!(
                    msync2.next_exchange(peer, now, &store),
                    Some(now.plus(bound.max(1))),
                    "MSYNC2 towards {peer} at step {step}"
                );
            }
            // Fifteen peers asked, one scan — and none at all when the
            // only thing that happened was a discarded update.
            assert_eq!(msync.board.builds, applied_steps.max(1), "step {step} ({how})");
            assert_eq!(msync2.board.builds, applied_steps.max(1), "step {step} ({how})");
        }
        assert!(applied_steps > 100, "the walk really moved tanks: {applied_steps}");
        let mut seen: Vec<Pos> = (0..16).flat_map(|t| team_positions(&store, &s, t)).collect();
        seen.sort();
        at.sort();
        assert_eq!(seen, at, "the store holds the walk's board");
    }
}
