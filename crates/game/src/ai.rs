//! The per-tank decision function.
//!
//! Each iteration a tank "looks at all the blocks within range in each
//! direction, north, south, east and west" and then "generates a task to
//! modify a block object" (paper §4.1): fire at an aligned enemy in range,
//! otherwise move greedily toward the goal (avoiding obstacles, bombs and
//! occupied blocks), otherwise hold.
//!
//! The decision is a pure function of the local replica state, so any two
//! processes with identical relevant state reach identical conclusions —
//! which is what makes the lock-free lowest-ID-blocks contention rule sound
//! under the lookahead protocols' freshness guarantee.

use sdso_net::NodeId;
use sdso_protocols::yields_to;

use crate::block::Block;
use crate::scenario::Scenario;
use crate::world::{Direction, Grid, Pos};

/// What a tank decides to do this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Drive onto the (passable) neighbouring block.
    Move {
        /// The destination.
        to: Pos,
        /// The movement direction (becomes the new facing).
        dir: Direction,
    },
    /// Fire along `dir` at the enemy on `target`.
    Fire {
        /// The enemy-occupied block fired at.
        target: Pos,
        /// Firing direction (becomes the new facing).
        dir: Direction,
    },
    /// Do nothing (blocked, or yielding under the contention rule).
    Hold,
}

/// Read access to (a replica of) the shared world.
pub trait WorldView {
    /// The block at `pos`.
    fn block_at(&self, pos: Pos) -> Block;
}

impl<F: Fn(Pos) -> Block> WorldView for F {
    fn block_at(&self, pos: Pos) -> Block {
        self(pos)
    }
}

/// Chooses this tick's action for the tank of `me` at `pos`, navigating
/// toward `target` (usually the goal; a patrol waypoint after scoring).
///
/// Priorities: fire at the first aligned enemy within firing range; else
/// move toward the target (primary axis first, detours around blockages);
/// hold when fully blocked.
///
/// `arbitrate` enables the lowest-ID-blocks contention rule: it is the
/// *lock-free* protocols' substitute for locks (paper §3.2), sound only
/// when the s-function guarantees fresh enemy positions within the
/// contention margin. Lock-based protocols (EC, LRC) pass `false`: their
/// write locks already serialise entries into a block, and their replicas
/// outside the lockset may be stale, which would turn long-gone enemy
/// images into permanent phantom stand-offs.
pub fn decide(
    scenario: &Scenario,
    view: &impl WorldView,
    me: NodeId,
    pos: Pos,
    target: Pos,
    arbitrate: bool,
) -> Action {
    let grid = scenario.grid;

    // 1. Fire at the first enemy tank visible along a row/column within
    //    firing range (obstacles and other tanks block the line of sight).
    for dir in Direction::ALL {
        let mut cursor = pos;
        for _ in 0..scenario.fire_range() {
            let Some(next) = cursor.step(dir, grid) else {
                break;
            };
            cursor = next;
            match view.block_at(cursor) {
                Block::Tank { team, .. } if team != me => {
                    return Action::Fire { target: cursor, dir };
                }
                Block::Tank { .. } | Block::Obstacle => break, // sight blocked
                _ => {}
            }
        }
    }

    // 2. Move toward the target: try the larger-delta axis first, then the
    //    other axis, then the two perpendicular detours.
    for dir in preferred_directions(pos, target) {
        let Some(to) = pos.step(dir, grid) else {
            continue;
        };
        if !passable_for(scenario, view, me, to) {
            continue;
        }
        // Contention: an enemy adjacent to my target could drive onto it in
        // the same interval. The lowest ID yields (paper §3.2); freshness
        // within the 2-block margin is guaranteed by the s-functions.
        if arbitrate {
            if let Some(rival) = adjacent_enemy(view, grid, me, to) {
                if yields_to(me, rival) {
                    return Action::Hold;
                }
            }
        }
        return Action::Move { to, dir };
    }

    Action::Hold
}

/// Goal-seeking direction order: primary axis (larger delta) first, then
/// secondary, then the perpendicular detours away from the goal last.
fn preferred_directions(from: Pos, goal: Pos) -> [Direction; 4] {
    let dx = i32::from(goal.x) - i32::from(from.x);
    let dy = i32::from(goal.y) - i32::from(from.y);
    let x_dir = if dx >= 0 { Direction::East } else { Direction::West };
    let y_dir = if dy >= 0 { Direction::South } else { Direction::North };
    let x_back = if dx >= 0 { Direction::West } else { Direction::East };
    let y_back = if dy >= 0 { Direction::North } else { Direction::South };
    if dx.abs() >= dy.abs() {
        [x_dir, y_dir, y_back, x_back]
    } else {
        [y_dir, x_dir, x_back, y_back]
    }
}

/// Whether `me` may drive onto `to`: the block must be passable and must
/// not be a foreign team's spawn point (spawn points stay clear so respawns
/// are always well-defined).
fn passable_for(scenario: &Scenario, view: &impl WorldView, me: NodeId, to: Pos) -> bool {
    if !view.block_at(to).passable() {
        return false;
    }
    (0..scenario.teams).filter(|&t| t != me).all(|t| scenario.start_of(t) != to)
}

/// The highest-id enemy tank adjacent to `cell` (a potential same-interval
/// contender for it), if any.
fn adjacent_enemy(view: &impl WorldView, grid: Grid, me: NodeId, cell: Pos) -> Option<NodeId> {
    Direction::ALL
        .iter()
        .filter_map(|&d| cell.step(d, grid))
        .filter_map(|p| match view.block_at(p) {
            Block::Tank { team, .. } if team != me => Some(team),
            _ => None,
        })
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn view_of(map: BTreeMap<Pos, Block>) -> impl WorldView {
        move |pos: Pos| map.get(&pos).copied().unwrap_or(Block::Empty)
    }

    fn tank(team: NodeId) -> Block {
        Block::Tank { team, tank: 0, hp: 2, facing: Direction::North, fired: None }
    }

    fn scenario() -> Scenario {
        Scenario::paper(4, 3)
    }

    #[test]
    fn moves_toward_goal_on_empty_map() {
        let s = scenario();
        let view = view_of(BTreeMap::new());
        // Tank west of goal must head east.
        let action = decide(&s, &view, 0, Pos::new(2, 12), s.goal(), true);
        assert_eq!(action, Action::Move { to: Pos::new(3, 12), dir: Direction::East });
        // Tank north of goal must head south.
        let action = decide(&s, &view, 0, Pos::new(16, 2), s.goal(), true);
        assert_eq!(action, Action::Move { to: Pos::new(16, 3), dir: Direction::South });
    }

    #[test]
    fn fires_at_aligned_enemy_in_range() {
        let s = scenario();
        let enemy = Pos::new(13, 12);
        let view = view_of(BTreeMap::from([(enemy, tank(3))]));
        let action = decide(&s, &view, 0, Pos::new(10, 12), s.goal(), true);
        assert_eq!(action, Action::Fire { target: enemy, dir: Direction::East });
    }

    #[test]
    fn does_not_fire_through_obstacles() {
        let s = scenario();
        let view = view_of(BTreeMap::from([
            (Pos::new(12, 12), Block::Obstacle),
            (Pos::new(13, 12), tank(3)),
        ]));
        let action = decide(&s, &view, 0, Pos::new(10, 12), s.goal(), true);
        assert!(matches!(action, Action::Move { .. }), "sight blocked, so move: {action:?}");
    }

    #[test]
    fn does_not_fire_at_own_team() {
        let s = scenario();
        let view = view_of(BTreeMap::from([(Pos::new(11, 12), tank(0))]));
        let action = decide(&s, &view, 0, Pos::new(10, 12), s.goal(), true);
        assert!(!matches!(action, Action::Fire { .. }));
    }

    #[test]
    fn enemy_beyond_range_is_ignored() {
        let s = Scenario::paper(4, 1); // fire range 1
        let view = view_of(BTreeMap::from([(Pos::new(13, 12), tank(3))]));
        let action = decide(&s, &view, 0, Pos::new(10, 12), s.goal(), true);
        assert!(matches!(action, Action::Move { .. }));
    }

    #[test]
    fn detours_around_obstacles() {
        let s = scenario();
        // Direct eastward path blocked; go south (the secondary axis
        // toward the goal row) instead.
        let from = Pos::new(10, 10);
        let view = view_of(BTreeMap::from([(Pos::new(11, 10), Block::Obstacle)]));
        let action = decide(&s, &view, 0, from, s.goal(), true);
        assert_eq!(action, Action::Move { to: Pos::new(10, 11), dir: Direction::South });
    }

    #[test]
    fn lowest_id_yields_on_contested_cell() {
        let s = scenario();
        // Team 0 at (10,12) wants (11,12); enemy team 3 sits at (12,12),
        // adjacent to the target: contention. Lower id yields.
        let view = view_of(BTreeMap::from([(Pos::new(12, 12), tank(3))]));
        let action = decide(&s, &view, 0, Pos::new(10, 12), s.goal(), true);
        // Note: (12,12) is within fire range 3 and aligned, so team 0
        // actually fires first — use a diagonal contender to isolate the
        // contention rule.
        let _ = action;
        let view = view_of(BTreeMap::from([(Pos::new(11, 13), tank(3))]));
        let action = decide(&s, &view, 0, Pos::new(10, 12), s.goal(), true);
        assert_eq!(action, Action::Hold, "lower id yields: {action:?}");
        // The higher id proceeds in the mirror situation.
        let view = view_of(BTreeMap::from([(Pos::new(11, 13), tank(0))]));
        let action = decide(&s, &view, 3, Pos::new(10, 12), s.goal(), true);
        assert!(matches!(action, Action::Move { .. }));
    }

    #[test]
    fn never_enters_foreign_start() {
        let s = scenario();
        let me: NodeId = 0;
        // Find a start of another team and try to walk into it.
        let foreign = s.start_of(1);
        // Position the tank adjacent to it, on the goal side.
        let from = if foreign.x == 0 {
            Pos::new(foreign.x + 1, foreign.y)
        } else {
            Pos::new(foreign.x - 1, foreign.y)
        };
        let view = view_of(BTreeMap::new());
        if let Action::Move { to, .. } = decide(&s, &view, me, from, s.goal(), true) {
            assert_ne!(to, foreign, "foreign starts are off limits");
        }
    }

    #[test]
    fn fully_blocked_tank_holds() {
        let s = scenario();
        let from = Pos::new(10, 10);
        let mut map = BTreeMap::new();
        for d in Direction::ALL {
            map.insert(from.step(d, s.grid).unwrap(), Block::Obstacle);
        }
        let action = decide(&s, &view_of(map), 0, from, s.goal(), true);
        assert_eq!(action, Action::Hold);
    }
}
