//! Scenario configuration and deterministic world generation.
//!
//! Every process generates the identical initial world from the shared
//! [`Scenario`] (same seed ⇒ same placement), mirroring the paper's method:
//! "For all cases, we use the same random seed value to place the teams of
//! tanks in the shared environment."

use sdso_core::{RetryConfig, WireConfig};
use sdso_net::{DetRng, NodeId, SimSpan};

use crate::block::{Block, MIN_BLOCK_BYTES};
use crate::world::{Grid, Pos};

/// Points for reaching the goal.
pub const GOAL_POINTS: i64 = 50;

/// Full description of one game run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Grid dimensions (the paper: 32×24).
    pub grid: Grid,
    /// Number of teams = number of processes.
    pub teams: u16,
    /// Sensing range: how many blocks a tank sees in each of the four
    /// directions (the paper evaluates 1 and 3).
    pub range: u16,
    /// Placement seed.
    pub seed: u64,
    /// Iterations each process performs.
    pub ticks: u64,
    /// Encoded size of one block object, in bytes (Ext. A grows this).
    pub block_bytes: usize,
    /// Modelled wire size of every message (the paper: 2048 bytes).
    pub frame_wire_len: Option<u32>,
    /// Whether the slotted buffer merges per-object diffs.
    pub merge_diffs: bool,
    /// Per-link retransmission tuning. `None` (the paper's lossless
    /// testbed) adds zero overhead; chaos runs set it so drops and
    /// reordering are recovered via the resync path.
    pub reliability: Option<RetryConfig>,
    /// Wire-compression tunables. The library default: codec v2 at every
    /// node, one compressed frame per rendezvous from each link's first.
    /// [`WireConfig::v1`] reproduces the paper's absolute diff encoding and
    /// its (data, SYNC) frame pair byte-for-byte — the figure sweeps and
    /// the wire-diet sweep name it.
    pub wire: WireConfig,
}

impl Scenario {
    /// Bonus pick-ups on the paper's map; [`Scenario::bonuses`] scales
    /// them with the grid's area.
    pub const BONUSES: usize = 20;
    /// Bombs on the paper's map; see [`Scenario::bombs`].
    pub const BOMBS: usize = 10;
    /// Obstacles on the paper's map; see [`Scenario::obstacles`].
    pub const OBSTACLES: usize = 24;
    /// Hit points per tank.
    pub const TANK_HP: u8 = 2;
    /// Modelled CPU cost of inspecting one block during the look phase,
    /// calibrated to an R4400-class host like the two below.
    pub const LOOK_COST: SimSpan = SimSpan::from_micros(15);
    /// Modelled CPU cost of the per-tick decision.
    pub const DECIDE_COST: SimSpan = SimSpan::from_micros(150);
    /// Modelled CPU cost of one block write.
    pub const WRITE_COST: SimSpan = SimSpan::from_micros(25);

    /// The paper's evaluation configuration for a given process count and
    /// sensing range: 32×24 grid, one tank per team, 2048-byte frames,
    /// diff merging on, compute costs calibrated to an R4400-class host.
    ///
    /// # Panics
    ///
    /// Panics if `teams < 2` (the game needs at least two processes).
    pub fn paper(teams: u16, range: u16) -> Self {
        assert!(teams >= 2, "the game needs at least two teams");
        Scenario {
            grid: Grid::PAPER,
            teams,
            range,
            seed: 0x5D50_1997,
            ticks: 200,
            block_bytes: 64,
            frame_wire_len: Some(2048),
            merge_diffs: true,
            reliability: None,
            wire: WireConfig::default(),
        }
    }

    /// A scaled-up variant of the paper configuration for large clusters
    /// (64, 256+ teams): the grid grows by the smallest integer factor
    /// `k` that keeps the border perimeter at least twice the team count
    /// (so spawn points stay distinct with room between them), and item
    /// counts grow with the area (`k²`) to keep the map density
    /// comparable. Frames are modelled at payload size
    /// (`frame_wire_len: None`) — the paper's fixed 2048-byte frames
    /// would mask exactly the per-message savings interest routing is
    /// about.
    ///
    /// With `teams <= 54` this is the paper grid; 64 teams get 64×48,
    /// 256 teams get 160×120.
    ///
    /// # Panics
    ///
    /// Panics if `teams < 2`.
    pub fn scaled(teams: u16, range: u16) -> Self {
        let mut scenario = Scenario::paper(teams, range);
        let base = Grid::PAPER;
        let mut k = 1u32;
        while 2 * (u32::from(base.width) * k + u32::from(base.height) * k - 2)
            < 2 * u32::from(teams)
        {
            k += 1;
        }
        scenario.grid = Grid { width: base.width * k as u16, height: base.height * k as u16 };
        scenario.frame_wire_len = None;
        scenario
    }

    /// How many paper maps the grid's area holds: item counts grow with
    /// it, so a scaled map keeps the paper's density.
    fn area_factor(&self) -> usize {
        (self.grid.cells() / Grid::PAPER.cells()) as usize
    }

    /// Number of bonus pick-ups scattered on the map.
    pub fn bonuses(&self) -> usize {
        Scenario::BONUSES * self.area_factor()
    }

    /// Number of bombs.
    pub fn bombs(&self) -> usize {
        Scenario::BOMBS * self.area_factor()
    }

    /// Number of obstacles.
    pub fn obstacles(&self) -> usize {
        Scenario::OBSTACLES * self.area_factor()
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different tick count.
    pub fn with_ticks(mut self, ticks: u64) -> Self {
        self.ticks = ticks;
        self
    }

    /// Returns a copy with the reliability layer switched on.
    pub fn with_reliability(mut self, cfg: RetryConfig) -> Self {
        self.reliability = Some(cfg);
        self
    }

    /// Returns a copy with different wire-compression settings.
    pub fn with_wire(mut self, wire: WireConfig) -> Self {
        self.wire = wire;
        self
    }

    /// Returns a copy with a different block payload size.
    ///
    /// # Panics
    ///
    /// Panics if `bytes < MIN_BLOCK_BYTES`.
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes >= MIN_BLOCK_BYTES, "block payload too small");
        self.block_bytes = bytes;
        self
    }

    /// The goal position (grid centre).
    pub fn goal(&self) -> Pos {
        self.grid.center()
    }

    /// Team `team`'s fixed start position: teams are spread evenly along
    /// the border perimeter. Starts are permanent spawn points — world
    /// generation keeps them clear, and tanks never drive onto a foreign
    /// start — so respawns are always well-defined.
    ///
    /// # Panics
    ///
    /// Panics if `team >= self.teams`.
    pub fn start_of(&self, team: NodeId) -> Pos {
        assert!(team < self.teams, "team out of range");
        let w = u32::from(self.grid.width);
        let h = u32::from(self.grid.height);
        let perimeter = 2 * (w + h - 2);
        let offset = u64::from(team) * u64::from(perimeter) / u64::from(self.teams);
        perimeter_pos(self.grid, offset as u32)
    }

    /// Every team's start, indexed by team id.
    pub fn starts(&self) -> Vec<Pos> {
        (0..self.teams).map(|t| self.start_of(t)).collect()
    }

    /// Generates the initial world, identical on every process: goal at the
    /// centre, one tank per team at its start, and seed-placed bonuses,
    /// bombs and obstacles on free cells away from starts and goal.
    pub fn initial_world(&self) -> Vec<Block> {
        let mut world = vec![Block::Empty; self.grid.cells() as usize];
        let set = |world: &mut Vec<Block>, pos: Pos, block: Block| {
            world[self.grid.object_at(pos).0 as usize] = block;
        };

        set(&mut world, self.goal(), Block::Goal);
        let starts = self.starts();
        for (team, &start) in starts.iter().enumerate() {
            set(
                &mut world,
                start,
                Block::Tank {
                    team: team as NodeId,
                    tank: 0,
                    hp: Scenario::TANK_HP,
                    facing: crate::world::Direction::North,
                    fired: None,
                },
            );
        }

        // Keep a safety margin around spawn points and the goal.
        let reserved = |pos: Pos| {
            pos.manhattan(self.goal()) <= 2 || starts.iter().any(|&s| pos.manhattan(s) <= 2)
        };

        let mut rng = DetRng::new(self.seed);
        let place = |world: &mut Vec<Block>, rng: &mut DetRng, block: Block| {
            for _ in 0..10_000 {
                let x = rng.up_to(u64::from(self.grid.width) - 1) as u16;
                let y = rng.up_to(u64::from(self.grid.height) - 1) as u16;
                let pos = Pos::new(x, y);
                let idx = self.grid.object_at(pos).0 as usize;
                if world[idx] == Block::Empty && !reserved(pos) {
                    world[idx] = block;
                    return;
                }
            }
            // The grid is essentially full; skip the item.
        };
        for _ in 0..self.obstacles() {
            place(&mut world, &mut rng, Block::Obstacle);
        }
        for _ in 0..self.bombs() {
            place(&mut world, &mut rng, Block::Bomb);
        }
        for _ in 0..self.bonuses() {
            let points = 5 + rng.up_to(20) as u8;
            place(&mut world, &mut rng, Block::Bonus { points });
        }
        world
    }

    /// Team `team`'s patrol waypoint: its start reflected through the goal,
    /// clamped to the grid interior. After scoring, a tank first patrols
    /// here before heading back to the goal — this disperses play across
    /// the map the way the paper's run-until-goal games do, instead of
    /// permanently clustering every tank at the centre.
    ///
    /// # Panics
    ///
    /// Panics if `team >= self.teams`.
    pub fn patrol_of(&self, team: NodeId) -> Pos {
        let start = self.start_of(team);
        let goal = self.goal();
        let reflect = |s: u16, g: u16, max: u16| -> u16 {
            let r = 2 * i32::from(g) - i32::from(s);
            r.clamp(1, i32::from(max) - 2) as u16
        };
        Pos::new(
            reflect(start.x, goal.x, self.grid.width),
            reflect(start.y, goal.y, self.grid.height),
        )
    }

    /// Firing range: the paper ties it to the sensing range.
    pub fn fire_range(&self) -> u16 {
        self.range
    }

    /// The spatial-relevance radius `d`: a peer can affect this process's
    /// next operation when aligned and within `d` blocks — the larger of
    /// the sensing/fire range and the 2-block move-contention margin.
    pub fn relevance_distance(&self) -> u32 {
        u32::from(self.fire_range()).max(2)
    }
}

/// The border cell at clockwise perimeter offset `off` (0 = top-left).
fn perimeter_pos(grid: Grid, off: u32) -> Pos {
    let w = u32::from(grid.width);
    let h = u32::from(grid.height);
    let off = off % (2 * (w + h - 2));
    if off < w {
        Pos::new(off as u16, 0)
    } else if off < w + h - 1 {
        Pos::new((w - 1) as u16, (off - w + 1) as u16)
    } else if off < 2 * w + h - 2 {
        Pos::new((2 * w + h - 3 - off) as u16, (h - 1) as u16)
    } else {
        Pos::new(0, (2 * (w + h - 2) - off) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perimeter_walks_the_border() {
        let g = Grid { width: 4, height: 3 };
        // Perimeter length = 2*(4+3-2) = 10.
        let walk: Vec<Pos> = (0..10).map(|o| perimeter_pos(g, o)).collect();
        assert_eq!(walk[0], Pos::new(0, 0));
        assert_eq!(walk[3], Pos::new(3, 0));
        assert_eq!(walk[4], Pos::new(3, 1));
        assert_eq!(walk[5], Pos::new(3, 2));
        assert_eq!(walk[6], Pos::new(2, 2));
        assert_eq!(walk[8], Pos::new(0, 2));
        assert_eq!(walk[9], Pos::new(0, 1));
        // All distinct, all on the border.
        let mut unique = walk.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn starts_are_distinct_and_on_border() {
        let s = Scenario::paper(16, 1);
        let starts = s.starts();
        let mut unique = starts.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 16);
        for p in starts {
            assert!(
                p.x == 0 || p.y == 0 || p.x == s.grid.width - 1 || p.y == s.grid.height - 1,
                "{p:?} not on border"
            );
        }
    }

    #[test]
    fn world_generation_is_deterministic() {
        let s = Scenario::paper(4, 3);
        assert_eq!(s.initial_world(), s.initial_world());
        let other = s.clone().with_seed(7).initial_world();
        assert_ne!(s.initial_world(), other, "different seed, different map");
    }

    #[test]
    fn world_has_goal_tanks_and_items() {
        let s = Scenario::paper(4, 1);
        let world = s.initial_world();
        let goal_idx = s.grid.object_at(s.goal()).0 as usize;
        assert_eq!(world[goal_idx], Block::Goal);
        let tanks = world.iter().filter(|b| matches!(b, Block::Tank { .. })).count();
        assert_eq!(tanks, 4);
        let bonuses = world.iter().filter(|b| matches!(b, Block::Bonus { .. })).count();
        assert_eq!(bonuses, s.bonuses());
        let bombs = world.iter().filter(|b| matches!(b, Block::Bomb)).count();
        assert_eq!(bombs, s.bombs());
    }

    #[test]
    fn items_keep_clear_of_starts_and_goal() {
        let s = Scenario::paper(8, 1);
        let world = s.initial_world();
        let starts = s.starts();
        for pos in s.grid.iter() {
            let block = world[s.grid.object_at(pos).0 as usize];
            if matches!(block, Block::Obstacle | Block::Bomb | Block::Bonus { .. }) {
                assert!(pos.manhattan(s.goal()) > 2);
                assert!(starts.iter().all(|&st| pos.manhattan(st) > 2));
            }
        }
    }

    #[test]
    fn the_paper_scenario_runs_the_library_default_wire() {
        assert_eq!(Scenario::paper(2, 1).wire, WireConfig::default());
        assert_eq!(Scenario::scaled(64, 1).wire, WireConfig::compressed());
    }

    #[test]
    fn relevance_distance_has_contention_floor() {
        assert_eq!(Scenario::paper(2, 1).relevance_distance(), 2);
        assert_eq!(Scenario::paper(2, 3).relevance_distance(), 3);
    }

    #[test]
    fn tanks_start_at_their_start_positions() {
        let s = Scenario::paper(4, 1);
        let world = s.initial_world();
        for team in 0..4u16 {
            let start = s.start_of(team);
            match world[s.grid.object_at(start).0 as usize] {
                Block::Tank { team: t, hp, .. } => {
                    assert_eq!(t, team);
                    assert_eq!(hp, Scenario::TANK_HP);
                }
                other => panic!("expected team {team} tank at {start:?}, found {other:?}"),
            }
        }
    }
}
