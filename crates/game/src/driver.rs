//! The game driver: one loop for every protocol and every plan.
//!
//! The game logic itself ([`GameCore`]) is protocol-agnostic — it reads and
//! writes blocks through a [`BlockPort`]. [`run_node_with`] runs it to
//! completion in one loop — think, play the tick, pay the write cost,
//! exchange — under a [`RunPlan`]: planned joins and leaves, a crash
//! schedule, tracing. A static run ([`run_node`]) is that loop under the
//! empty plan.
//!
//! What differs between protocols sits behind one private trait with four
//! implementations: the lookahead family (BSYNC, MSYNC, MSYNC2,
//! MSYNC2-SHARD) writes through the S-DSO runtime and rendezvouses after
//! every iteration; entry consistency and LRC bracket each iteration in a
//! lockset; causal memory pushes every write. The loop, the plan
//! validator ([`RunPlan::views`]), the runtime builder, the join / leave /
//! crash / restart handling and the [`NodeStats`] assembly each exist
//! once.
//!
//! # The view-change barrier
//!
//! A change triggered at tick `T` proceeds in lock-step:
//!
//! 1. every old-view member runs its tick-`T` iteration — a leaver's
//!    iteration is [`GameCore::retire`], clearing its tank off the board;
//! 2. every old-view member performs one full barrier exchange in place
//!    of the tick's regular one: under the lookahead family a broadcast
//!    rendezvous ([`sdso_protocols::Lookahead::step_barrier`]), under EC a
//!    state-flush barrier ([`sdso_protocols::EntryConsistency::view_sync`]).
//!    All tick-`T` writes, including the leaver's tombstone, converge
//!    across the old view;
//! 3. leavers settle their reliability tails and exit with their stats;
//! 4. continuers apply the view change (epoch bump; leavers pruned from
//!    exchange list, slotted buffer, reliability links and transport;
//!    joiners scheduled);
//! 5. the donor — the lowest continuing member — pushes one O(objects)
//!    state snapshot to each joiner;
//! 6. joiners install the snapshot (replica bodies plus the logical-clock
//!    frontier) and enter the loop at tick `T + 1` in respawn limbo.
//!
//! Epoch stamps keep the transition safe under skew: rendezvous traffic
//! from a peer that already crossed the barrier is buffered until this
//! process catches up, residue from a departed peer is acknowledged and
//! dropped, and EC lock traffic from beyond the barrier is deferred until
//! the lock state it must land on exists.
//!
//! Tick numbering is global: a joiner's [`GameCore`] starts at the trigger
//! tick, so cross-team fire-record freshness windows stay comparable and
//! [`NodeStats::ticks`] reports the global tick a process reached (a
//! leaver reports its trigger tick, a crasher its crash tick).
//!
//! # The crash model
//!
//! Fail-stop at barrier granularity. A process scheduled to crash at tick
//! `C` runs its tick-`C` iteration and the tick's barrier like everyone
//! else, then dies abruptly: no reliability settling, no view change, no
//! farewell write — its tank freezes on the board exactly where the
//! barrier left it. Survivors observe the crash as the leave-flavoured
//! view change [`sdso_dur::crash_membership_plan`] derives for tick `C`,
//! so the regular churn machinery (epoch bump, slot compaction, link
//! pruning) executes the failure. Two things survive the crash, as they
//! would on a real host: the journal (`crate::durable`: WAL + snapshot
//! image, one record set per tick, logged after the tick's barrier and
//! before the view change) and the transport endpoint — a rebooted host
//! keeps its address.
//!
//! At its restart tick `R` the process replays the journal for its
//! pre-crash identity, clock frontier and game state, restores the
//! frontier, installs the rejoin view, drains crash-era residue frames,
//! pulls the donor's snapshot, and resumes at tick `R + 1`. Replaying the
//! same plan reproduces the same run.

use std::collections::{BTreeMap, BTreeSet};

use sdso_core::{
    DsoConfig, DsoError, DsoMetrics, EveryTick, LogicalTime, MembershipPlan, Never, ObjectId,
    ObjectStore, Obs, ObsSet, SFunction, SdsoRuntime, SendMode, ViewChange,
};
use sdso_dur::{crash_membership_plan, validate_crash_plan};
use sdso_net::{Endpoint, FaultPlan, NetMetricsSnapshot, NodeId, SimSpan};
use sdso_obs::EventKind;
use sdso_protocols::{
    CausalMemory, CausalMetrics, EcMetrics, EntryConsistency, LockMode, LockRequest, Lookahead,
    Lrc, LrcMetrics,
};

use crate::ai::{decide, Action};
use crate::block::{Block, FireRecord};
use crate::durable::{record_recovery, Journal};
use crate::scenario::{Scenario, GOAL_POINTS};
use crate::world::{Direction, Pos};

/// The protocols the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Broadcast lookahead: everyone, every tick.
    Bsync,
    /// Multicast lookahead on row/column alignment.
    Msync,
    /// Multicast lookahead on alignment and proximity.
    Msync2,
    /// Entry consistency (lock-based baseline).
    Entry,
    /// Lazy release consistency (Ext. D).
    Lrc,
    /// Causal memory (Ext. D).
    Causal,
    /// Multicast lookahead with region sharding: MSYNC2's interaction
    /// bound within a shared region group, a fixed aligned heartbeat
    /// across groups, and interest-routed diffs (the scaling extension;
    /// see [`crate::shard`]).
    Msync2Shard,
}

impl Protocol {
    /// The four protocols of the paper's evaluation, in its order.
    pub const PAPER: [Protocol; 4] =
        [Protocol::Entry, Protocol::Bsync, Protocol::Msync, Protocol::Msync2];

    /// All implemented protocols. `Msync2Shard` stays last: replay
    /// fixtures index into this array.
    pub const ALL: [Protocol; 7] = [
        Protocol::Entry,
        Protocol::Bsync,
        Protocol::Msync,
        Protocol::Msync2,
        Protocol::Lrc,
        Protocol::Causal,
        Protocol::Msync2Shard,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Bsync => "BSYNC",
            Protocol::Msync => "MSYNC",
            Protocol::Msync2 => "MSYNC2",
            Protocol::Entry => "EC",
            Protocol::Lrc => "LRC",
            Protocol::Causal => "CAUSAL",
            Protocol::Msync2Shard => "MSYNC2-SHARD",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one process reports after a run (the raw material for every
/// figure in the paper's evaluation).
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// This process's id.
    pub node: NodeId,
    /// Iterations performed.
    pub ticks: u64,
    /// Object modifications performed (Fig. 5's normaliser).
    pub modifications: u64,
    /// Game score.
    pub score: i64,
    /// Goal visits.
    pub goals: u64,
    /// Times this team's tank was destroyed.
    pub deaths: u64,
    /// Shots fired.
    pub shots: u64,
    /// Bonuses collected.
    pub bonuses: u64,
    /// Virtual (or wall) execution time of the whole run.
    pub exec_time: SimSpan,
    /// Modelled local compute time.
    pub compute_time: SimSpan,
    /// Transport counters (message/byte counts by class, blocked time).
    pub net: NetMetricsSnapshot,
    /// Transport counters up to the end of the last game tick, before the
    /// terminal measurement flush (the final barrier/settle that forces
    /// every replica to the globally newest versions so cross-replica
    /// oracles can compare worlds). This is the steady-state traffic a
    /// long-running deployment sustains — the basis for the sharding
    /// traffic gate, which must not be diluted by a flush that ships every
    /// suppressed diff once at shutdown.
    pub net_live: NetMetricsSnapshot,
    /// S-DSO runtime counters (exchange counts/times; zero under EC).
    pub dso: DsoMetrics,
    /// EC counters (lock waits/pulls; zero under the lookahead family).
    pub ec: EcMetrics,
    /// LRC counters (zero elsewhere).
    pub lrc: LrcMetrics,
    /// Causal-memory counters (zero elsewhere).
    pub causal: CausalMetrics,
    /// This process's final replica of the whole world (decoded blocks in
    /// row-major order) — the raw material for rendering and for
    /// cross-replica consistency oracles.
    pub final_world: Vec<Block>,
    /// Crash/restart cycles this process performed (crash runs only).
    pub recoveries: u64,
    /// WAL records replayed across all recoveries.
    pub wal_replayed: u64,
    /// Virtual time this process was absent from the group: from each
    /// crash instant to the completed rejoin (snapshot installed), summed
    /// over recoveries. The raw material for the recovery-time gate.
    pub recovery_time: SimSpan,
}

impl NodeStats {
    /// Execution time divided by modifications — the paper's Figure 5
    /// metric ("average execution time per process normalized by average
    /// number of object modifications").
    pub fn time_per_modification(&self) -> SimSpan {
        match self.exec_time.as_micros().checked_div(self.modifications) {
            None => SimSpan::ZERO,
            Some(per_mod) => SimSpan::from_micros(per_mod),
        }
    }
}

/// Read/write access to the shared world, as a specific protocol provides
/// it.
pub trait BlockPort {
    /// Reads the block at `pos`.
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    fn read_block(&self, pos: Pos) -> Result<Block, DsoError>;

    /// Writes the block at `pos`.
    ///
    /// # Errors
    ///
    /// Propagates store, lock and transport errors.
    fn write_block(&mut self, pos: Pos, block: Block) -> Result<(), DsoError>;
}

/// One team's tank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TankState {
    /// Current (or respawn-pending) position.
    pub pos: Pos,
    /// Hit points left.
    pub hp: u8,
    /// Facing.
    pub facing: Direction,
    /// False while waiting to respawn (one-tick limbo after destruction or
    /// a goal visit).
    pub alive: bool,
}

/// The protocol-agnostic game state of one process.
#[derive(Debug)]
pub struct GameCore {
    scenario: Scenario,
    me: NodeId,
    /// Whether the lock-free lowest-ID-blocks arbitration is in force (the
    /// lookahead family and causal memory; lock-based protocols rely on
    /// their locks instead).
    arbitrate: bool,
    /// Whether a clobbered own-tank cell is a hard error. True only under
    /// the lookahead family, whose freshness guarantees make arbitration
    /// infallible — a clobber there means a protocol bug, not a race.
    strict: bool,
    /// The team's tank (the paper fixes team size to one).
    pub tank: TankState,
    /// Iterations performed so far.
    pub tick: u64,
    /// Accumulated score.
    pub score: i64,
    /// Goal visits.
    pub goals: u64,
    /// Deaths.
    pub deaths: u64,
    /// Shots fired.
    pub shots: u64,
    /// Bonuses collected.
    pub bonuses: u64,
    /// Object writes performed.
    pub modifications: u64,
    /// Highest fire-record tick processed per enemy team (deduplication).
    processed_fires: BTreeMap<NodeId, u64>,
    /// Navigation detour after scoring (disperses play; see
    /// [`Scenario::patrol_of`]).
    waypoint: Option<Pos>,
}

impl GameCore {
    /// A fresh game state with the tank on its spawn point, using lock-free
    /// contention arbitration (the lookahead default).
    pub fn new(scenario: Scenario, me: NodeId) -> Self {
        GameCore::with_arbitration(scenario, me, true)
    }

    /// A fresh game state with explicit control over the contention rule
    /// (lock-based drivers pass `false`).
    pub fn with_arbitration(scenario: Scenario, me: NodeId, arbitrate: bool) -> Self {
        Self::with_flags(scenario, me, arbitrate, arbitrate)
    }

    /// Full control: `arbitrate` enables the lowest-ID-blocks rule,
    /// `strict` makes an own-cell clobber a hard protocol error (lookahead
    /// only — causal memory arbitrates on possibly-stale data and must
    /// tolerate the resulting last-writer-wins outcome).
    pub fn with_flags(scenario: Scenario, me: NodeId, arbitrate: bool, strict: bool) -> Self {
        let tank = TankState {
            pos: scenario.start_of(me),
            hp: scenario.tank_hp,
            facing: Direction::North,
            alive: true,
        };
        // Start with a patrol leg: teams cross the map to staggered
        // interior points before converging on the goal, decorrelating
        // their arrival times the way run-until-goal games do.
        let waypoint = Some(scenario.patrol_of(me));
        GameCore {
            scenario,
            me,
            arbitrate,
            strict,
            tank,
            tick: 0,
            score: 0,
            goals: 0,
            deaths: 0,
            shots: 0,
            bonuses: 0,
            modifications: 0,
            processed_fires: BTreeMap::new(),
            waypoint,
        }
    }

    /// Whether the next tick begins with a respawn write (EC includes the
    /// spawn cell in its lockset then — it is the tank's own cell).
    pub fn respawn_pending(&self) -> bool {
        !self.tank.alive
    }

    /// Serialises the dynamic game state — everything
    /// [`GameCore::with_flags`] cannot reconstruct from its arguments —
    /// for the crash-recovery WAL (`DurRecord::App`, tag 0).
    /// Fixed-width little-endian fields behind a leading version byte;
    /// the format is private to this crate.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(72 + 10 * self.processed_fires.len());
        out.push(1); // version
        out.extend_from_slice(&self.tank.pos.x.to_le_bytes());
        out.extend_from_slice(&self.tank.pos.y.to_le_bytes());
        out.push(self.tank.hp);
        out.push(self.tank.facing.index());
        out.push(u8::from(self.tank.alive));
        for word in
            [self.tick, self.goals, self.deaths, self.shots, self.bonuses, self.modifications]
        {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&self.score.to_le_bytes());
        match self.waypoint {
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.x.to_le_bytes());
                out.extend_from_slice(&p.y.to_le_bytes());
            }
            None => out.extend_from_slice(&[0; 5]),
        }
        out.extend_from_slice(&(self.processed_fires.len() as u16).to_le_bytes());
        for (&team, &tick) in &self.processed_fires {
            out.extend_from_slice(&team.to_le_bytes());
            out.extend_from_slice(&tick.to_le_bytes());
        }
        out
    }

    /// Rebuilds a core from [`GameCore::encode`] bytes over the
    /// constructor arguments a restarted process still knows (they are
    /// deterministic, so recovery does not persist them). Returns `None`
    /// on a foreign version or a truncated payload.
    pub fn decode(
        scenario: Scenario,
        me: NodeId,
        arbitrate: bool,
        strict: bool,
        bytes: &[u8],
    ) -> Option<Self> {
        let mut cur = StateCursor { bytes, pos: 0 };
        if cur.u8()? != 1 {
            return None;
        }
        let pos = Pos::new(cur.u16()?, cur.u16()?);
        let hp = cur.u8()?;
        let facing = Direction::from_index(cur.u8()?)?;
        let alive = cur.u8()? != 0;
        let [tick, goals, deaths, shots, bonuses, modifications] =
            [cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?];
        let score = i64::from_le_bytes(cur.take::<8>()?);
        let waypoint = match cur.u8()? {
            0 => {
                cur.take::<4>()?;
                None
            }
            _ => Some(Pos::new(cur.u16()?, cur.u16()?)),
        };
        let fires = cur.u16()?;
        let mut processed_fires = BTreeMap::new();
        for _ in 0..fires {
            let team = cur.u16()?;
            processed_fires.insert(team, cur.u64()?);
        }
        let mut core = GameCore::with_flags(scenario, me, arbitrate, strict);
        core.tank = TankState { pos, hp, facing, alive };
        core.tick = tick;
        core.score = score;
        core.goals = goals;
        core.deaths = deaths;
        core.shots = shots;
        core.bonuses = bonuses;
        core.modifications = modifications;
        core.processed_fires = processed_fires;
        core.waypoint = waypoint;
        Some(core)
    }

    fn write(&mut self, port: &mut impl BlockPort, pos: Pos, block: Block) -> Result<(), DsoError> {
        port.write_block(pos, block)?;
        self.modifications += 1;
        Ok(())
    }

    fn my_tank_block(&self, fired: Option<FireRecord>) -> Block {
        Block::Tank { team: self.me, tank: 0, hp: self.tank.hp, facing: self.tank.facing, fired }
    }

    /// Runs one game iteration: respawn if pending, absorb incoming fire,
    /// decide, act. Returns the number of object modifications made.
    ///
    /// # Errors
    ///
    /// Propagates port errors.
    pub fn run_tick(&mut self, port: &mut impl BlockPort) -> Result<u64, DsoError> {
        let mods_before = self.modifications;
        self.tick += 1;

        if !self.tank.alive {
            // One-tick limbo is over: materialise on the spawn point and
            // stop — the tank may only start acting once every process that
            // could contend with it has seen it at the spawn (this tick's
            // rendezvous delivers the write). Acting in the materialise
            // tick would let an invisible tank race an unaware neighbour
            // into the same block, bypassing the lowest-ID arbitration.
            self.tank.pos = self.scenario.start_of(self.me);
            self.tank.hp = self.scenario.tank_hp;
            self.tank.alive = true;
            let block = self.my_tank_block(None);
            self.write(port, self.tank.pos, block)?;
            return Ok(self.modifications - mods_before);
        }

        self.absorb_damage(port)?;
        if self.tank.alive && self.strict {
            // Freshness oracle: under the lookahead family nobody may ever
            // have driven onto this tank's block — the s-functions force
            // per-tick exchanges within contention distance and the
            // lowest-ID rule then picks a unique winner. A clobbered cell
            // here means those guarantees broke; fail loudly.
            let here = port.read_block(self.tank.pos)?;
            match here {
                Block::Tank { team, .. } if team == self.me => {}
                other => {
                    return Err(DsoError::ProtocolViolation(format!(
                        "process {}: own tank block at {:?} clobbered by {:?} —                          spatial consistency violated",
                        self.me, self.tank.pos, other
                    )));
                }
            }
        }
        if self.tank.alive {
            if self.waypoint.is_some_and(|w| self.tank.pos.manhattan(w) <= 2) {
                self.waypoint = None;
            }
            let target = self.waypoint.unwrap_or_else(|| self.scenario.goal());
            let view = |pos: Pos| port.read_block(pos).unwrap_or(Block::Empty);
            let action =
                decide(&self.scenario, &view, self.me, self.tank.pos, target, self.arbitrate);
            self.apply(action, port)?;
        }
        Ok(self.modifications - mods_before)
    }

    /// The team's final act before leaving the group: clear its tank off
    /// the board so the view-change barrier propagates the departure to
    /// every remaining process. Counts as this process's trigger-tick
    /// iteration. Returns the number of object modifications made.
    ///
    /// # Errors
    ///
    /// Propagates port errors.
    pub fn retire(&mut self, port: &mut impl BlockPort) -> Result<u64, DsoError> {
        let mods_before = self.modifications;
        self.tick += 1;
        if self.tank.alive {
            self.write(port, self.tank.pos, Block::Empty)?;
            self.tank.alive = false;
        }
        Ok(self.modifications - mods_before)
    }

    /// Victim-side damage: scan for enemy fire records targeting this
    /// tank's position. Records carry the shooter's iteration count; only
    /// records newer than the last processed one (per shooter) and at most
    /// two ticks old count — one tick of rendezvous delay plus one more for
    /// lock-based protocols, whose pulls deliver records an iteration later
    /// than the lookahead family's pushes.
    fn absorb_damage(&mut self, port: &mut impl BlockPort) -> Result<(), DsoError> {
        let grid = self.scenario.grid;
        let mut hits = 0u8;
        // A relevant shooter fired from within fire range of the targeted
        // cell and has moved at most two cells since (the freshness window),
        // so scanning the surrounding box is equivalent to scanning the
        // whole grid at a fraction of the cost.
        let radius = i32::from(self.scenario.fire_range) + 3;
        let (cx, cy) = (i32::from(self.tank.pos.x), i32::from(self.tank.pos.y));
        let xs =
            (cx - radius).max(0) as u16..=((cx + radius).min(i32::from(grid.width) - 1)) as u16;
        for pos in xs.flat_map(|x| {
            let ys = (cy - radius).max(0) as u16
                ..=((cy + radius).min(i32::from(grid.height) - 1)) as u16;
            ys.map(move |y| Pos::new(x, y))
        }) {
            let Block::Tank { team, fired: Some(record), .. } = port.read_block(pos)? else {
                continue;
            };
            if team == self.me || record.target != self.tank.pos {
                continue;
            }
            let last = self.processed_fires.get(&team).copied().unwrap_or(0);
            if record.tick <= last || record.tick + 1 < self.tick.saturating_sub(1) {
                continue;
            }
            self.processed_fires.insert(team, record.tick);
            hits += 1;
        }
        for _ in 0..hits {
            if self.tank.hp > 1 {
                self.tank.hp -= 1;
                // Re-publish the tank with its reduced hp.
                let block = self.my_tank_block(None);
                self.write(port, self.tank.pos, block)?;
            } else {
                self.die(port)?;
                break;
            }
        }
        Ok(())
    }

    /// Removes the tank from the board; it respawns at the next tick.
    fn die(&mut self, port: &mut impl BlockPort) -> Result<(), DsoError> {
        self.write(port, self.tank.pos, Block::Empty)?;
        self.deaths += 1;
        self.tank.alive = false;
        self.tank.pos = self.scenario.start_of(self.me);
        Ok(())
    }

    fn apply(&mut self, action: Action, port: &mut impl BlockPort) -> Result<(), DsoError> {
        match action {
            Action::Hold => Ok(()),
            Action::Fire { target, dir } => {
                self.tank.facing = dir;
                self.shots += 1;
                let record = FireRecord { target, tick: self.tick };
                let block = self.my_tank_block(Some(record));
                self.write(port, self.tank.pos, block)
            }
            Action::Move { to, dir } => {
                self.tank.facing = dir;
                match port.read_block(to)? {
                    Block::Bonus { points } => {
                        self.score += i64::from(points);
                        self.bonuses += 1;
                        self.complete_move(port, to)
                    }
                    Block::Bomb => {
                        // Drive onto the bomb: both vanish; respawn next
                        // tick.
                        self.write(port, to, Block::Empty)?;
                        self.die(port)
                    }
                    Block::Goal => {
                        self.score += GOAL_POINTS;
                        self.goals += 1;
                        self.waypoint = Some(self.scenario.patrol_of(self.me));
                        // Score and teleport home (the goal block itself is
                        // never overwritten).
                        self.write(port, self.tank.pos, Block::Empty)?;
                        self.tank.alive = false;
                        self.tank.pos = self.scenario.start_of(self.me);
                        Ok(())
                    }
                    Block::Empty => self.complete_move(port, to),
                    // The AI never targets these; replicas may race a tick
                    // behind, in which case holding is the safe outcome.
                    Block::Obstacle | Block::Tank { .. } => Ok(()),
                }
            }
        }
    }

    fn complete_move(&mut self, port: &mut impl BlockPort, to: Pos) -> Result<(), DsoError> {
        self.write(port, self.tank.pos, Block::Empty)?;
        self.tank.pos = to;
        let block = self.my_tank_block(None);
        self.write(port, to, block)
    }
}

/// Bounds-checked little-endian reader for [`GameCore::decode`].
struct StateCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl StateCursor<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let slice = self.bytes.get(self.pos..self.pos + N)?;
        self.pos += N;
        slice.try_into().ok()
    }
    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|b| b[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take::<2>().map(u16::from_le_bytes)
    }
    fn u64(&mut self) -> Option<u64> {
        self.take::<8>().map(u64::from_le_bytes)
    }
}

// ---------------------------------------------------------------------
// The run plan
// ---------------------------------------------------------------------

/// Everything a run is played under besides its scenario and protocol.
/// The default is the paper's setting: a static group, no crashes,
/// tracing off.
#[derive(Debug, Clone, Default)]
pub struct RunPlan {
    /// Planned joins and leaves; `None` is the static group of
    /// `scenario.teams` processes.
    pub membership: Option<MembershipPlan>,
    /// The fault plan. Its crash schedule is realised by the driver; its
    /// link faults belong to the transport (the harness hands them to the
    /// simulated cluster, real meshes wrap their endpoints).
    pub faults: Option<FaultPlan>,
    /// Per-node observability bundles; `None` traces nothing.
    pub obs: Option<ObsSet>,
}

impl RunPlan {
    /// Returns a copy that plays under the membership plan.
    pub fn with_membership(mut self, membership: MembershipPlan) -> Self {
        self.membership = Some(membership);
        self
    }

    /// Returns a copy that plays under the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Returns a copy whose nodes record into `obs`.
    pub fn with_obs(mut self, obs: ObsSet) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Checks the plan against the scenario and the protocol and returns
    /// the membership schedule it realises: the explicit one, the one its
    /// crashes derive (crash = leave at the crash tick, restart = join at
    /// the restart tick), or the static group. This is the one place that
    /// decides which (protocol × plan) combinations exist.
    ///
    /// # Errors
    ///
    /// [`DsoError::ProtocolViolation`] for a capacity other than
    /// `scenario.teams`, a trigger, crash or restart tick outside
    /// `1..scenario.ticks`, an unrealisable crash schedule, explicit view
    /// changes combined with crashes, and a non-static plan under LRC or
    /// causal memory (neither has a view-change barrier).
    pub fn views(
        &self,
        scenario: &Scenario,
        protocol: Protocol,
    ) -> Result<MembershipPlan, DsoError> {
        let violation = |why: String| Err(DsoError::ProtocolViolation(why));
        if scenario.team_size != 1 {
            return violation(
                "multi-tank teams are not implemented (the paper fixes team size to one)".into(),
            );
        }
        let teams = usize::from(scenario.teams);
        let static_group = MembershipPlan::static_group(teams);
        let explicit = self.membership.as_ref().unwrap_or(&static_group);
        let views = match &self.faults {
            Some(faults) if !faults.crashes.is_empty() => {
                if *explicit != static_group {
                    return violation(
                        "a plan with both view changes and crashes is not supported".into(),
                    );
                }
                if let Err(why) = validate_crash_plan(faults, teams) {
                    return violation(format!("unrealisable crash schedule: {why}"));
                }
                crash_membership_plan(teams, 0..scenario.teams, faults)
            }
            _ => explicit.clone(),
        };
        if views.capacity() != teams {
            return violation(format!(
                "the plan provisions {} slots for {teams} teams (one team per slot)",
                views.capacity()
            ));
        }
        if let Some((t, _)) = views.changes().iter().find(|(t, _)| !(1..scenario.ticks).contains(t))
        {
            return violation(format!(
                "view change, crash or restart at tick {t} falls outside the run (1..{})",
                scenario.ticks
            ));
        }
        if views != static_group && matches!(protocol, Protocol::Lrc | Protocol::Causal) {
            return violation(format!(
                "{protocol} has no view-change barrier; membership and crash plans cover \
                 BSYNC, MSYNC, MSYNC2, MSYNC2-SHARD and EC"
            ));
        }
        Ok(views)
    }
}

// ---------------------------------------------------------------------
// Protocol families
// ---------------------------------------------------------------------

/// What a protocol family contributes to the one game loop ([`drive`]):
/// how blocks are read and written, and what happens around an iteration.
/// Costs, plans, barriers, crashes and statistics are the loop's.
trait Family: Sized {
    type E: Endpoint;

    /// `(arbitrate, strict)` for [`GameCore::with_flags`]: lock-based
    /// families rely on their locks instead of the lowest-ID rule, and
    /// only the lookahead family's freshness makes a clobbered own cell a
    /// protocol bug — causal memory arbitrates on possibly-stale views, so
    /// races resolve by last-writer-wins and clobbers are tolerated.
    const FLAGS: (bool, bool);

    fn runtime_mut(&mut self) -> &mut SdsoRuntime<Self::E>;
    fn into_runtime(self) -> SdsoRuntime<Self::E>;
    fn read(&self, object: ObjectId) -> Result<&[u8], DsoError>;
    fn write(&mut self, object: ObjectId, bytes: &[u8]) -> Result<(), DsoError>;

    /// Services whatever arrived since the last iteration.
    fn begin_tick(&mut self) -> Result<(), DsoError> {
        Ok(())
    }

    /// Opens the iteration's critical section over `locks` (the lock-based
    /// families; the others never ask for the set).
    fn open(&mut self, _locks: impl FnOnce() -> Vec<LockRequest>) -> Result<(), DsoError> {
        Ok(())
    }

    /// Closes the critical section and performs the tick's exchange; on a
    /// view-change trigger tick the full barrier over the old view
    /// *replaces* it, keeping one logical tick per iteration.
    fn end_tick(&mut self, barrier: bool) -> Result<(), DsoError>;

    /// Turns the epoch after the barrier.
    fn apply_view_change(&mut self, _change: &ViewChange) -> Result<(), DsoError> {
        Err(DsoError::ProtocolViolation("this protocol has no view-change barrier".into()))
    }

    /// Terminal synchronisation: afterwards every replica of the final
    /// view holds the globally newest version of every object.
    fn finish(&mut self) -> Result<(), DsoError>;

    /// Adds the family's own counters to the report.
    fn report(&self, _stats: &mut NodeStats) {}
}

/// The game's s-functions behind one type: the runtime calls an s-function
/// through `&mut dyn` anyway, and this way the four lookahead protocols
/// share one instantiation of the loop and of the game logic.
struct AnySFunction(Box<dyn SFunction>);

impl SFunction for AnySFunction {
    fn next_exchange(
        &mut self,
        peer: NodeId,
        now: LogicalTime,
        view: &ObjectStore,
    ) -> Option<LogicalTime> {
        self.0.next_exchange(peer, now, view)
    }
    fn on_view_change(&mut self, joined: &[NodeId], left: &[NodeId]) {
        self.0.on_view_change(joined, left);
    }
}

impl<E: Endpoint> Family for Lookahead<E, AnySFunction> {
    type E = E;
    const FLAGS: (bool, bool) = (true, true);

    fn runtime_mut(&mut self) -> &mut SdsoRuntime<E> {
        Lookahead::runtime_mut(self)
    }
    fn into_runtime(self) -> SdsoRuntime<E> {
        Lookahead::into_runtime(self)
    }
    fn read(&self, object: ObjectId) -> Result<&[u8], DsoError> {
        Lookahead::runtime(self).read(object)
    }
    fn write(&mut self, object: ObjectId, bytes: &[u8]) -> Result<(), DsoError> {
        Lookahead::runtime_mut(self).write(object, 0, bytes)
    }
    fn end_tick(&mut self, barrier: bool) -> Result<(), DsoError> {
        if barrier { self.step_barrier() } else { self.step() }.map(drop)
    }
    fn apply_view_change(&mut self, change: &ViewChange) -> Result<(), DsoError> {
        Lookahead::apply_view_change(self, change)
    }
    fn finish(&mut self) -> Result<(), DsoError> {
        // One broadcast rendezvous flushes every buffered slot (MSYNC-family
        // slots for non-due peers would otherwise stay pending forever),
        // then the reliability layer — when on — retransmits until the tail
        // is acknowledged.
        let rt = Lookahead::runtime_mut(self);
        rt.exchange(true, SendMode::Broadcast, &mut Never)?;
        rt.settle().map(drop)
    }
}

/// Entry consistency plus the set of objects the open iteration modified
/// (what its release ships).
struct EcNode<E: Endpoint> {
    ec: EntryConsistency<E>,
    modified: BTreeSet<ObjectId>,
}

impl<E: Endpoint> Family for EcNode<E> {
    type E = E;
    const FLAGS: (bool, bool) = (false, false);

    fn runtime_mut(&mut self) -> &mut SdsoRuntime<E> {
        self.ec.runtime_mut()
    }
    fn into_runtime(self) -> SdsoRuntime<E> {
        self.ec.into_runtime()
    }
    fn read(&self, object: ObjectId) -> Result<&[u8], DsoError> {
        self.ec.read(object)
    }
    fn write(&mut self, object: ObjectId, bytes: &[u8]) -> Result<(), DsoError> {
        self.ec.write(object, 0, bytes)?;
        self.modified.insert(object);
        Ok(())
    }
    fn begin_tick(&mut self) -> Result<(), DsoError> {
        self.ec.service_pending()
    }
    fn open(&mut self, locks: impl FnOnce() -> Vec<LockRequest>) -> Result<(), DsoError> {
        self.ec.acquire(&locks())
    }
    fn end_tick(&mut self, barrier: bool) -> Result<(), DsoError> {
        // The caller has already advanced the write cost: locks are held
        // across it.
        self.ec.release_all(&std::mem::take(&mut self.modified))?;
        if barrier {
            // Flush barrier over the old view: all newest copies (a
            // leaver's tombstone, a crasher's frozen tank) disseminate
            // before the epoch turns.
            self.ec.view_sync()?;
        }
        Ok(())
    }
    fn apply_view_change(&mut self, change: &ViewChange) -> Result<(), DsoError> {
        self.ec.apply_view_change(change)
    }
    fn finish(&mut self) -> Result<(), DsoError> {
        self.ec.finish()?;
        // Pull-based EC leaves replicas stale wherever this process never
        // locked; the final-sync barrier disseminates every object's newest
        // version so snapshots agree across processes. The settle pass then
        // keeps retransmitting (and acknowledging) until the tail of the
        // barrier itself is delivered — without it, a process whose last
        // SyncDone was dropped would exit and leave its peers starving.
        self.ec.final_sync()?;
        self.ec.runtime_mut().settle().map(drop)
    }
    fn report(&self, stats: &mut NodeStats) {
        stats.ec = self.ec.metrics();
    }
}

/// LRC plus the locks the open iteration holds, in acquisition order.
struct LrcNode<E: Endpoint> {
    lrc: Lrc<E>,
    held: Vec<u32>,
}

impl<E: Endpoint> Family for LrcNode<E> {
    type E = E;
    const FLAGS: (bool, bool) = (false, false);

    fn runtime_mut(&mut self) -> &mut SdsoRuntime<E> {
        self.lrc.runtime_mut()
    }
    fn into_runtime(self) -> SdsoRuntime<E> {
        self.lrc.into_runtime()
    }
    fn read(&self, object: ObjectId) -> Result<&[u8], DsoError> {
        self.lrc.read(object)
    }
    fn write(&mut self, object: ObjectId, bytes: &[u8]) -> Result<(), DsoError> {
        self.lrc.write(object, 0, bytes)
    }
    fn begin_tick(&mut self) -> Result<(), DsoError> {
        self.lrc.service_pending()
    }
    fn open(&mut self, locks: impl FnOnce() -> Vec<LockRequest>) -> Result<(), DsoError> {
        // LRC locks are plain synchronisation variables; the game uses one
        // lock per block it would write-lock under EC, acquired in order.
        self.held =
            locks().iter().filter(|l| l.mode == LockMode::Write).map(|l| l.object.0).collect();
        self.held.sort_unstable();
        self.held.iter().try_for_each(|&lock| self.lrc.acquire(lock))
    }
    fn end_tick(&mut self, _barrier: bool) -> Result<(), DsoError> {
        self.held.iter().rev().try_for_each(|&lock| self.lrc.release(lock))
    }
    fn finish(&mut self) -> Result<(), DsoError> {
        self.lrc.finish()
    }
    fn report(&self, stats: &mut NodeStats) {
        stats.lrc = self.lrc.metrics();
    }
}

/// Causal memory: every write is pushed to all processes. Push-based and
/// non-blocking, so there is no exchange and no termination handshake.
impl<E: Endpoint> Family for CausalMemory<E> {
    type E = E;
    const FLAGS: (bool, bool) = (true, false);

    fn runtime_mut(&mut self) -> &mut SdsoRuntime<E> {
        CausalMemory::runtime_mut(self)
    }
    fn into_runtime(self) -> SdsoRuntime<E> {
        CausalMemory::into_runtime(self)
    }
    fn read(&self, object: ObjectId) -> Result<&[u8], DsoError> {
        CausalMemory::read(self, object)
    }
    fn write(&mut self, object: ObjectId, bytes: &[u8]) -> Result<(), DsoError> {
        CausalMemory::write(self, object, 0, bytes)
    }
    fn begin_tick(&mut self) -> Result<(), DsoError> {
        self.deliver_pending().map(drop)
    }
    fn end_tick(&mut self, _barrier: bool) -> Result<(), DsoError> {
        Ok(())
    }
    fn finish(&mut self) -> Result<(), DsoError> {
        Ok(())
    }
    fn report(&self, stats: &mut NodeStats) {
        stats.causal = self.metrics();
    }
}

/// The world as one protocol family provides it.
struct Port<'a, F> {
    node: &'a mut F,
    scenario: &'a Scenario,
}

impl<F: Family> BlockPort for Port<'_, F> {
    fn read_block(&self, pos: Pos) -> Result<Block, DsoError> {
        let bytes = self.node.read(self.scenario.grid.object_at(pos))?;
        Block::decode(bytes)
            .ok_or_else(|| DsoError::ProtocolViolation(format!("corrupt block at {pos:?}")))
    }
    fn write_block(&mut self, pos: Pos, block: Block) -> Result<(), DsoError> {
        let object = self.scenario.grid.object_at(pos);
        self.node.write(object, &block.encode(self.scenario.block_bytes))
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// Builds the runtime over the deterministic initial world, minus the
/// tanks of teams that are not initial members — their spawn points stay
/// clear until they join. Every process (joiners and restarted processes
/// included) shares the identical initial bodies, so a snapshot only ever
/// carries objects modified since the start.
fn build_runtime<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    views: &MembershipPlan,
    obs: Obs,
) -> Result<SdsoRuntime<E>, DsoError> {
    let config = DsoConfig {
        frame_wire_len: scenario.frame_wire_len,
        merge_diffs: scenario.merge_diffs,
        reliability: scenario.reliability,
        wire: scenario.wire,
    };
    let mut rt = SdsoRuntime::with_obs(endpoint, config, obs);
    let mut world = scenario.initial_world();
    for team in (0..scenario.teams).filter(|&team| !views.is_initial(team)) {
        world[scenario.grid.object_at(scenario.start_of(team)).0 as usize] = Block::Empty;
    }
    for (idx, block) in world.iter().enumerate() {
        rt.share(ObjectId(idx as u32), block.encode(scenario.block_bytes))?;
    }
    Ok(rt)
}

/// Brings a runtime into the group and returns the first game tick this
/// process executes. Initial members install the plan's initial view and
/// start at tick 1. A joiner installs the view of its join epoch and
/// blocks for the donor's snapshot; a restarted process (`rejoin_at`)
/// takes the same late-joiner path at its restart tick, draining the
/// crash-era residue (ghost ARQ frames, stale acks) addressed to its
/// previous incarnation first.
fn enter<E: Endpoint>(
    rt: &mut SdsoRuntime<E>,
    views: &MembershipPlan,
    rejoin_at: Option<u64>,
) -> Result<u64, DsoError> {
    let violation = |why: String| DsoError::ProtocolViolation(why);
    let me = rt.node_id();
    let join = match rejoin_at {
        Some(restart) => restart,
        None if views.is_initial(me) => {
            rt.set_membership(views.view_at(0));
            return Ok(1);
        }
        None => views.join_tick_of(me).ok_or_else(|| {
            violation(format!("process {me} is neither an initial member nor a planned joiner"))
        })?,
    };
    let change = views
        .change_at(join)
        .ok_or_else(|| violation(format!("tick {join} carries no view change for {me} to join")))?;
    let view = views.view_at(join);
    let donor = view
        .donor_for(change)
        .ok_or_else(|| violation("view change admits joiners but leaves no donor".into()))?;
    rt.set_membership(view);
    if rejoin_at.is_some() {
        rt.drain_crash_residue()?;
    }
    rt.await_snapshot(donor)?;
    Ok(join + 1)
}

/// Decodes a runtime's final replica of the whole grid.
fn snapshot_world<E: Endpoint>(rt: &SdsoRuntime<E>, scenario: &Scenario) -> Vec<Block> {
    scenario
        .grid
        .iter()
        .map(|pos| {
            rt.read(scenario.grid.object_at(pos))
                .ok()
                .and_then(Block::decode)
                .unwrap_or(Block::Empty)
        })
        .collect()
}

/// The paper's EC lockset: write locks on the tank's own block and the four
/// adjacent blocks (anywhere it might move), read locks on the remaining
/// aligned blocks within sensing range — 5 locks at range 1, 13 (5 write)
/// at range 3, fewer at the grid edge.
pub fn ec_lockset(scenario: &Scenario, pos: Pos) -> Vec<LockRequest> {
    let grid = scenario.grid;
    let mut locks = vec![LockRequest::write(grid.object_at(pos))];
    for dir in Direction::ALL {
        let mut cursor = pos;
        for step in 1..=scenario.range {
            let Some(next) = cursor.step(dir, grid) else {
                break;
            };
            cursor = next;
            let mode = if step == 1 { LockMode::Write } else { LockMode::Read };
            locks.push(LockRequest { object: grid.object_at(cursor), mode });
        }
    }
    locks
}

/// Runs one process of the game under the given protocol to completion
/// (`scenario.ticks` iterations) in the paper's setting — a static group,
/// no crashes, tracing off — and reports its statistics.
///
/// # Errors
///
/// Propagates transport, store and protocol errors.
pub fn run_node<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    protocol: Protocol,
) -> Result<NodeStats, DsoError> {
    run_node_with(endpoint, scenario, protocol, &RunPlan::default())
}

/// Runs one process of the game under `protocol` and `plan`. This is the
/// entry point the evaluation harness calls once per simulated (or real)
/// node; every slot of the transport runs it.
///
/// Under a membership plan, initial members play from tick 1, a planned
/// joiner blocks until its donor's snapshot arrives and plays from the
/// tick after its join, and a planned leaver exits at its trigger tick
/// with the stats it accumulated. Under a crash schedule, a process dies
/// abruptly at its crash tick and — if the event has a restart tick —
/// recovers from its journal and rejoins, finishing the game with its
/// pre-crash state; everyone else weathers the crash as a view change.
/// With tracing on, flight-recorder events (exchanges, rendezvous waits,
/// locks, view changes, snapshots, WAL replays) land in the node's
/// recorder and every counter in its registry.
///
/// # Errors
///
/// Rejects unsupported plans before any message is sent (see
/// [`RunPlan::views`]); propagates transport, store and protocol errors.
pub fn run_node_with<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    protocol: Protocol,
    plan: &RunPlan,
) -> Result<NodeStats, DsoError> {
    let views = plan.views(scenario, protocol)?;
    let me = endpoint.node_id();
    let world = || scenario.clone();
    let lookahead = |rt, sfunc: Box<dyn SFunction>| Lookahead::new(rt, AnySFunction(sfunc));
    match protocol {
        Protocol::Bsync => {
            drive(endpoint, scenario, plan, &views, &|rt| lookahead(rt, Box::new(EveryTick)))
        }
        Protocol::Msync => drive(endpoint, scenario, plan, &views, &|rt| {
            lookahead(rt, Box::new(crate::sfuncs::Msync::new(me, world())))
        }),
        Protocol::Msync2 => drive(endpoint, scenario, plan, &views, &|rt| {
            lookahead(rt, Box::new(crate::sfuncs::Msync2::new(me, world())))
        }),
        Protocol::Msync2Shard => drive(endpoint, scenario, plan, &views, &|mut rt| {
            rt.set_diff_router(Some(Box::new(crate::shard::ShardRouter::new(world(), me))));
            lookahead(rt, Box::new(crate::shard::ShardMsync2::new(me, world())))
        }),
        Protocol::Entry => drive(endpoint, scenario, plan, &views, &|rt| {
            Ok(EcNode { ec: EntryConsistency::new(rt), modified: BTreeSet::new() })
        }),
        Protocol::Lrc => drive(endpoint, scenario, plan, &views, &|rt| {
            Ok(LrcNode { lrc: Lrc::new(rt), held: Vec::new() })
        }),
        Protocol::Causal => {
            drive(endpoint, scenario, plan, &views, &|rt| Ok(CausalMemory::new(rt)))
        }
    }
}

/// How a process's run ended.
#[derive(PartialEq)]
enum Exit {
    /// Played the last tick.
    Finished,
    /// Left the group at its planned trigger tick.
    Left,
    /// Crashed with no restart scheduled.
    Died,
}

/// The one game loop: think → play the tick → write cost → exchange, with
/// the plan's view changes and crashes woven in at tick granularity.
fn drive<E: Endpoint, F: Family<E = E>>(
    endpoint: E,
    scenario: &Scenario,
    plan: &RunPlan,
    views: &MembershipPlan,
    make: &dyn Fn(SdsoRuntime<E>) -> Result<F, DsoError>,
) -> Result<NodeStats, DsoError> {
    let me = endpoint.node_id();
    let obs = plan.obs.as_ref().map_or_else(Obs::disabled, |set| set.node(me));
    let crashes = plan.faults.as_ref().map_or(&[][..], |f| &f.crashes);
    let crash = crashes.iter().find(|c| c.node == me).copied();
    let mut journal = Journal::new(!crashes.is_empty());
    // Accumulates what spans a process's incarnations: compute time and the
    // recovery counters.
    let mut tally = NodeStats::default();

    let mut rt = build_runtime(endpoint, scenario, views, obs.clone())?;
    let mut tick = enter(&mut rt, views, None)?;
    journal.ident(me, rt.membership().epoch())?;
    let mut node = make(rt)?;
    let mut core = GameCore::with_flags(scenario.clone(), me, F::FLAGS.0, F::FLAGS.1);
    if tick > 1 {
        // A late joiner begins in respawn limbo — its tank materialises on
        // the spawn at its first tick, the path a destroyed tank takes, so
        // no peer can contend with it before seeing it — with the global
        // tick counter aligned.
        core.tick = tick - 1;
        core.tank.alive = false;
    }
    // A crash is a leave only to the survivors.
    let leave_tick = views.leave_tick_of(me).filter(|_| crash.is_none());
    // Modelled compute per tick: the look phase plus the decision, then
    // the writes.
    let looks = scenario.look_cost.as_micros() * 4 * u64::from(scenario.range);
    let think = SimSpan::from_micros(looks) + scenario.decide_cost;

    let exit = loop {
        if tick > scenario.ticks {
            break Exit::Finished;
        }
        let leaving = leave_tick == Some(tick);
        node.begin_tick()?;
        node.runtime_mut().advance(think);

        // The paper's lockset — or, for a leaver's last iteration, only the
        // cell its tank stands on (if it has one).
        node.open(|| match leaving {
            false => ec_lockset(scenario, core.tank.pos),
            true if core.tank.alive => {
                vec![LockRequest::write(scenario.grid.object_at(core.tank.pos))]
            }
            true => Vec::new(),
        })?;
        let mods = {
            let mut port = Port { node: &mut node, scenario };
            if leaving {
                core.retire(&mut port)?
            } else {
                core.run_tick(&mut port)?
            }
        };
        let wc = SimSpan::from_micros(scenario.write_cost.as_micros() * mods);
        node.runtime_mut().advance(wc);
        tally.compute_time += think + wc;

        // Everyone in the old view — leaver and crasher included — takes
        // part in the trigger tick's barrier, so their tick's writes (the
        // tombstone, the frozen tank) converge before the epoch turns.
        let change = views.change_at(tick);
        node.end_tick(change.is_some())?;
        journal.tick(node.runtime_mut(), &core, tick, &obs)?;

        if leaving {
            break Exit::Left;
        }
        if crash.is_some_and(|c| c.crash_tick == tick) {
            let Some(back) = crash.and_then(|c| c.restart_tick) else {
                break Exit::Died;
            };
            (node, core) =
                restart(node, &mut journal, scenario, views, back, &obs, &mut tally, make)?;
            tick = back;
        } else if let Some(change) = change {
            node.apply_view_change(change)?;
            journal.ident(me, node.runtime_mut().membership().epoch())?;
            // The donor — the lowest continuing member — pushes one
            // O(objects) state snapshot to each joiner.
            if node.runtime_mut().membership().donor_for(change) == Some(me) {
                for &joiner in &change.joined {
                    node.runtime_mut().send_snapshot(joiner)?;
                }
            }
        }
        tick += 1;
    };

    // Deltas, not lifetime-cumulative: stats must cover this run only even
    // when the endpoint outlives it (TCP meshes, repeated runs).
    let net_live = node.runtime_mut().net_metrics_delta();
    match exit {
        Exit::Finished => node.finish()?,
        // The leaver's pending per-peer diff slots are compacted by the
        // view change at its peers, not leaked; it only settles its
        // reliability tails.
        Exit::Left => drop(node.runtime_mut().settle()?),
        // It died: no settling, no farewell.
        Exit::Died => {}
    }
    let rt = node.runtime_mut();
    let mut stats = NodeStats {
        node: me,
        ticks: core.tick,
        modifications: core.modifications,
        score: core.score,
        goals: core.goals,
        deaths: core.deaths,
        shots: core.shots,
        bonuses: core.bonuses,
        exec_time: rt.now().saturating_since(sdso_net::SimInstant::ZERO),
        net: net_live.merged(&rt.net_metrics_delta()),
        net_live,
        dso: rt.metrics(),
        final_world: snapshot_world(rt, scenario),
        ..tally
    };
    node.report(&mut stats);
    if exit == Exit::Died {
        // The endpoint must outlive the survivors' view-change settling, so
        // leak it the way a dead host's address outlives the process.
        std::mem::forget(node.into_runtime().into_endpoint());
    }
    Ok(stats)
}

/// Fail-stop and recovery. The volatile state (runtime, reliability
/// links, game core) vanishes; the journal and the endpoint — the disk and
/// the host's address — survive. The new incarnation replays the journal
/// for its pre-crash identity, clock frontier and game state, rejoins
/// through the late-joiner path and resumes at the tick after its restart
/// with its score, tank and fire-record history intact.
#[allow(clippy::too_many_arguments)]
fn restart<E: Endpoint, F: Family<E = E>>(
    node: F,
    journal: &mut Journal,
    scenario: &Scenario,
    views: &MembershipPlan,
    back: u64,
    obs: &Obs,
    tally: &mut NodeStats,
    make: &dyn Fn(SdsoRuntime<E>) -> Result<F, DsoError>,
) -> Result<(F, GameCore), DsoError> {
    let rt = node.into_runtime();
    let (me, down_at) = (rt.node_id(), rt.now());
    let endpoint = rt.into_endpoint();

    let recovered = journal.reopen(me)?;
    let mut core = GameCore::decode(scenario.clone(), me, F::FLAGS.0, F::FLAGS.1, &recovered.app)
        .ok_or_else(|| {
        DsoError::ProtocolViolation("recovered game state failed to decode".into())
    })?;
    let mut rt = build_runtime(endpoint, scenario, views, obs.clone())?;
    rt.restore_frontier(LogicalTime::from_ticks(recovered.time), recovered.lamport);
    let (records, truncated) = (recovered.records as u32, recovered.truncated as u32);
    obs.record(rt.now().as_micros(), EventKind::WalReplay, records, truncated, 0);
    enter(&mut rt, views, Some(back))?;
    let epoch = rt.membership().epoch();
    obs.record(rt.now().as_micros(), EventKind::Recover, u32::from(me), records, epoch.0);

    let downtime = rt.now().saturating_since(down_at);
    tally.recoveries += 1;
    tally.wal_replayed += recovered.records;
    tally.recovery_time += downtime;
    record_recovery(obs, recovered.records, downtime);
    journal.ident(me, epoch)?;
    let mut node = make(rt)?;

    // The tick counter aligns with the global tick, and the tank falls back
    // to the respawn path if its cell no longer holds it (defensive; while
    // the process is down its tank sits frozen and invulnerable, since fire
    // records are absorbed by the owning process).
    core.tick = back;
    if core.tank.alive {
        let here = Port { node: &mut node, scenario }.read_block(core.tank.pos)?;
        core.tank.alive = matches!(here, Block::Tank { team, .. } if team == me);
    }
    Ok((node, core))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory port for exercising GameCore in isolation: the world
    /// as a bare array of blocks, indexed like the shared objects.
    #[derive(Debug)]
    struct LocalPort {
        grid: crate::world::Grid,
        blocks: Vec<Block>,
    }

    impl LocalPort {
        fn from_world(scenario: &Scenario) -> Self {
            LocalPort { grid: scenario.grid, blocks: scenario.initial_world() }
        }
    }

    impl BlockPort for LocalPort {
        fn read_block(&self, pos: Pos) -> Result<Block, DsoError> {
            Ok(self.blocks[self.grid.object_at(pos).0 as usize])
        }
        fn write_block(&mut self, pos: Pos, block: Block) -> Result<(), DsoError> {
            self.blocks[self.grid.object_at(pos).0 as usize] = block;
            Ok(())
        }
    }

    fn scenario() -> Scenario {
        Scenario::paper(2, 1).with_ticks(50)
    }

    #[test]
    fn tank_progresses_toward_goal() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        let d0 = core.tank.pos.manhattan(s.goal());
        for _ in 0..10 {
            core.run_tick(&mut port).unwrap();
        }
        let d1 = core.tank.pos.manhattan(s.goal());
        assert!(d1 < d0, "tank should close in on the goal ({d0} -> {d1})");
        assert!(core.modifications > 0);
    }

    #[test]
    fn goal_visit_scores_and_respawns() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        for _ in 0..200 {
            core.run_tick(&mut port).unwrap();
            if core.goals > 0 {
                break;
            }
        }
        assert!(core.goals >= 1, "tank should reach the goal in 200 ticks");
        assert!(core.score >= GOAL_POINTS);
        // The goal block itself is never destroyed.
        assert_eq!(port.read_block(s.goal()).unwrap(), Block::Goal);
    }

    #[test]
    fn respawn_takes_one_limbo_tick() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        // Surround the spawn with a bomb on the tank's chosen path.
        // Simpler: force death directly.
        core.die(&mut port).unwrap();
        assert!(core.respawn_pending());
        assert_eq!(port.read_block(s.start_of(0)).unwrap(), Block::Empty);
        core.run_tick(&mut port).unwrap();
        assert!(core.tank.alive);
        assert!(matches!(
            port.read_block(core.tank.pos).unwrap(),
            Block::Tank { team: 0, .. } | Block::Empty
        ));
        assert_eq!(core.deaths, 1);
    }

    #[test]
    fn fire_record_damages_victim_once() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        let my_pos = core.tank.pos;
        // An enemy within firing distance has fired at our cell on its
        // tick 1 (records from shooters beyond fire range + movement slack
        // are irrelevant by construction and excluded from the scan).
        let enemy_pos = Pos::new(my_pos.x + 1, my_pos.y + 1);
        port.write_block(
            enemy_pos,
            Block::Tank {
                team: 1,
                tank: 0,
                hp: 2,
                facing: Direction::North,
                fired: Some(FireRecord { target: my_pos, tick: 1 }),
            },
        )
        .unwrap();
        let hp_before = core.tank.hp;
        core.run_tick(&mut port).unwrap();
        assert_eq!(core.tank.hp, hp_before - 1, "one hit absorbed");
        // The same record must not damage again.
        let hp_after = core.tank.hp;
        // Tank moved; put the record's target where the tank now is? No —
        // the record is stale (same shooter tick), so nothing happens.
        core.run_tick(&mut port).unwrap();
        assert_eq!(core.tank.hp, hp_after, "stale record ignored");
    }

    #[test]
    fn lethal_hit_kills_and_respawns() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        core.tank.hp = 1;
        let my_pos = core.tank.pos;
        port.write_block(
            Pos::new(my_pos.x + 1, my_pos.y + 1),
            Block::Tank {
                team: 1,
                tank: 0,
                hp: 2,
                facing: Direction::North,
                fired: Some(FireRecord { target: my_pos, tick: 1 }),
            },
        )
        .unwrap();
        core.run_tick(&mut port).unwrap();
        assert_eq!(core.deaths, 1);
        assert!(core.respawn_pending());
    }

    #[test]
    fn ec_lockset_sizes_match_paper() {
        // Interior position, range 1: 5 locks, all write.
        let s1 = Scenario::paper(4, 1);
        let locks = ec_lockset(&s1, Pos::new(10, 10));
        assert_eq!(locks.len(), 5);
        assert!(locks.iter().all(|l| l.mode == LockMode::Write));
        // Interior position, range 3: 13 locks, 5 write.
        let s3 = Scenario::paper(4, 3);
        let locks = ec_lockset(&s3, Pos::new(10, 10));
        assert_eq!(locks.len(), 13);
        assert_eq!(locks.iter().filter(|l| l.mode == LockMode::Write).count(), 5);
        // Corner position: clipped.
        let locks = ec_lockset(&s3, Pos::new(0, 0));
        assert_eq!(locks.len(), 7);
    }

    #[test]
    fn bonus_pickup_adds_score() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        // Plant a bonus straight on the tank's next step.
        let view = |pos: Pos| port.read_block(pos).unwrap_or(Block::Empty);
        let Action::Move { to, .. } = decide(&s, &view, 0, core.tank.pos, s.goal(), true) else {
            panic!("expected a move");
        };
        port.write_block(to, Block::Bonus { points: 10 }).unwrap();
        core.run_tick(&mut port).unwrap();
        assert_eq!(core.score, 10);
        assert_eq!(core.bonuses, 1);
        assert_eq!(core.tank.pos, to);
    }

    #[test]
    fn bomb_destroys_and_consumes() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        let view = |pos: Pos| port.read_block(pos).unwrap_or(Block::Empty);
        let Action::Move { to, .. } = decide(&s, &view, 0, core.tank.pos, s.goal(), true) else {
            panic!("expected a move");
        };
        port.write_block(to, Block::Bomb).unwrap();
        core.run_tick(&mut port).unwrap();
        assert_eq!(core.deaths, 1);
        assert!(core.respawn_pending());
        assert_eq!(port.read_block(to).unwrap(), Block::Empty, "bomb consumed");
    }

    /// What "every read is local" has to mean for the frame loop: the
    /// same seeded game, tick for tick, through a runtime's replica store
    /// (lookup, decode, encode, diff bookkeeping; recorder off, no
    /// exchange) costs a small multiple of playing it on a bare map of
    /// blocks. A fresh ratio on one host, both sides back to back, best of
    /// three (docs/ARCHITECTURE.md §9.5).
    #[test]
    #[ignore = "wall-clock ratio: run by the CI contracts job, in release"]
    fn contract_a_tick_through_the_runtime_costs_at_most_8x_the_in_memory_port() {
        use sdso_net::memory::MemoryHub;
        use std::hint::black_box;
        const TICKS: u32 = 20_000;
        let s = Scenario::paper(2, 1);
        let views = RunPlan::default().views(&s, Protocol::Bsync).unwrap();
        // Plays TICKS ticks on `port`: ns per tick, and how the game went.
        fn play(s: &Scenario, port: &mut impl BlockPort) -> (f64, (u64, i64)) {
            let mut core = GameCore::new(s.clone(), 0);
            let t0 = std::time::Instant::now();
            for _ in 0..TICKS {
                black_box(core.run_tick(port).unwrap());
            }
            (t0.elapsed().as_nanos() as f64 / f64::from(TICKS), (core.modifications, core.score))
        }
        fn best_of_3(mut run: impl FnMut() -> (f64, (u64, i64))) -> (f64, (u64, i64)) {
            let (a, b, c) = (run(), run(), run());
            (a.0.min(b.0).min(c.0), c.1)
        }
        let (in_memory, bare_game) = best_of_3(|| play(&s, &mut LocalPort::from_world(&s)));
        let (through_runtime, shared_game) = best_of_3(|| {
            let endpoint = MemoryHub::new(2).into_endpoints().remove(0);
            let rt = build_runtime(endpoint, &s, &views, Obs::disabled()).unwrap();
            let mut node = Lookahead::new(rt, AnySFunction(Box::new(EveryTick))).unwrap();
            play(&s, &mut Port { node: &mut node, scenario: &s })
        });
        assert_eq!(bare_game, shared_game, "one game on both ports");
        let ratio = through_runtime / in_memory;
        println!(
            "game tick: in-memory port {in_memory:.0} ns, through the runtime \
             {through_runtime:.0} ns, ratio {ratio:.1}x"
        );
        assert!(ratio <= 8.0, "a local tick costs {ratio:.1}x the in-memory port");
    }

    // --- the driver under plans (in-process channels: a bug here hangs) ---

    fn run_all(protocol: Protocol, scenario: &Scenario, plan: &RunPlan) -> Vec<NodeStats> {
        use sdso_net::memory::MemoryHub;
        let handles: Vec<_> = MemoryHub::new(usize::from(scenario.teams))
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                let (s, p) = (scenario.clone(), plan.clone());
                std::thread::spawn(move || run_node_with(ep, &s, protocol, &p))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect()
    }

    /// 4 capacity slots, 3 initial members; node 1 leaves and node 3
    /// joins at the same barrier.
    fn churn_plan() -> RunPlan {
        RunPlan::default().with_membership(
            MembershipPlan::new(4, [0, 1, 2]).with_change(4, ViewChange::new([3], [1])),
        )
    }

    /// Node 1 crashes at tick 3 and is back at tick 6; node 3 crashes at
    /// tick 7 for good.
    fn crash_plan() -> RunPlan {
        RunPlan::default()
            .with_faults(FaultPlan::new(23).with_crash(1, 3, Some(6)).with_crash(3, 7, None))
    }

    const DYNAMIC: [Protocol; 5] = [
        Protocol::Entry,
        Protocol::Bsync,
        Protocol::Msync,
        Protocol::Msync2,
        Protocol::Msync2Shard,
    ];

    #[test]
    fn every_barrier_protocol_plays_out_every_plan() {
        let scenario = Scenario::paper(4, 1).with_ticks(10);
        for protocol in DYNAMIC {
            let stats = run_all(protocol, &scenario, &churn_plan());
            assert_eq!(stats[1].ticks, 4, "{protocol}: the leaver exits at its trigger tick");
            assert_eq!(stats[0].ticks, 10);
            assert_eq!(stats[3].ticks, 10, "{protocol}: the joiner plays to the end");
            // Every final-view member converges to the identical world...
            assert_eq!(stats[0].final_world, stats[2].final_world, "{protocol}: 0 vs 2");
            assert_eq!(stats[0].final_world, stats[3].final_world, "{protocol}: 0 vs 3");
            // ...from which the leaver's tank is gone.
            let leaver_present =
                stats[0].final_world.iter().any(|b| matches!(b, Block::Tank { team: 1, .. }));
            assert!(!leaver_present, "{protocol}: leaver's tank must be gone");
            assert!(stats.iter().all(|s| s.recoveries == 0 && s.wal_replayed == 0));

            let stats = run_all(protocol, &scenario, &crash_plan());
            assert_eq!(stats[1].recoveries, 1, "{protocol}: one crash/restart cycle");
            assert!(stats[1].wal_replayed > 0, "{protocol}: the WAL replayed something");
            assert_eq!(stats[1].ticks, 10, "{protocol}: the restarted process finishes");
            assert_eq!(stats[3].ticks, 7, "{protocol}: the unrecovered crasher died at its tick");
            for survivor in [0, 2] {
                assert_eq!((stats[survivor].recoveries, stats[survivor].ticks), (0, 10));
            }
            // Live members — the restarted process included — converge.
            assert_eq!(stats[0].final_world, stats[1].final_world, "{protocol}: 0 vs 1");
            assert_eq!(stats[0].final_world, stats[2].final_world, "{protocol}: 0 vs 2");
        }
    }

    #[test]
    fn replaying_the_same_crash_plan_is_deterministic() {
        let scenario = Scenario::paper(4, 1).with_ticks(10);
        let a = run_all(Protocol::Msync, &scenario, &crash_plan());
        let b = run_all(Protocol::Msync, &scenario, &crash_plan());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.ticks, x.score), (y.ticks, y.score));
            assert_eq!(x.final_world, y.final_world, "node {}", x.node);
        }
    }

    #[test]
    fn snapshot_is_o_objects_not_o_history() {
        // Same plan, 4x the ticks before the join: the snapshot's byte
        // count must not grow with history, only with modified objects
        // (bounded by the object count).
        let sizes: Vec<u64> = [6u64, 24]
            .into_iter()
            .map(|join_tick| {
                let scenario = Scenario::paper(4, 1).with_ticks(join_tick + 2);
                let plan = RunPlan::default().with_membership(
                    MembershipPlan::new(4, [0, 1, 2]).with_change(join_tick, ViewChange::join([3])),
                );
                // The donor (node 0) counted the snapshot bytes it sent.
                run_all(Protocol::Bsync, &scenario, &plan)[0].dso.snapshot_bytes
            })
            .collect();
        assert!(sizes[0] > 0, "a snapshot was sent");
        let cells = u64::from(Scenario::paper(4, 1).grid.cells());
        let bound = cells * (64 + 32);
        assert!(
            sizes[1] <= bound && sizes[0] <= bound,
            "snapshot sizes {sizes:?} must stay O(objects), bound {bound}"
        );
    }

    #[test]
    fn unsupported_plans_are_typed_errors_before_any_message() {
        let scenario = Scenario::paper(4, 1).with_ticks(10);
        let crash = |node, at, back| {
            RunPlan::default().with_faults(FaultPlan::new(1).with_crash(node, at, back))
        };
        let change_at = |tick| {
            RunPlan::default().with_membership(
                MembershipPlan::new(4, [0, 1, 2]).with_change(tick, ViewChange::join([3])),
            )
        };
        let both = RunPlan { faults: crash(2, 3, None).faults, ..churn_plan() };
        let five_slots = RunPlan::default().with_membership(MembershipPlan::static_group(5));
        let rejected = [
            ("LRC has no barrier", Protocol::Lrc, churn_plan()),
            ("causal has no barrier", Protocol::Causal, churn_plan()),
            ("LRC cannot lose a member", Protocol::Lrc, crash(1, 2, None)),
            ("view changes and crashes", Protocol::Bsync, both),
            ("trigger at tick 0", Protocol::Bsync, change_at(0)),
            ("trigger at the last tick", Protocol::Bsync, change_at(10)),
            ("crash at tick 0", Protocol::Bsync, crash(1, 0, Some(4))),
            ("crash past the run", Protocol::Bsync, crash(1, 12, None)),
            ("restart at the last tick", Protocol::Bsync, crash(1, 2, Some(10))),
            ("crash of a node beyond the teams", Protocol::Bsync, crash(9, 2, None)),
            ("one slot too many", Protocol::Bsync, five_slots),
        ];
        for (what, protocol, plan) in rejected {
            // One endpoint on its own: a driver that sent or awaited
            // anything first would block here instead of returning.
            let ep = sdso_net::memory::MemoryHub::new(4).into_endpoints().remove(0);
            let err = run_node_with(ep, &scenario, protocol, &plan).unwrap_err();
            assert!(matches!(err, DsoError::ProtocolViolation(_)), "{what}: {err}");
        }
        for protocol in Protocol::ALL {
            assert!(RunPlan::default().views(&scenario, protocol).is_ok(), "{protocol}: static");
        }
        for protocol in DYNAMIC {
            assert!(churn_plan().views(&scenario, protocol).is_ok(), "{protocol}: churn");
            assert!(crash_plan().views(&scenario, protocol).is_ok(), "{protocol}: crash");
        }
    }

    #[test]
    fn game_core_round_trips_through_the_wal_codec() {
        let scenario = Scenario::paper(4, 1).with_ticks(10);
        let mut core = GameCore::new(scenario.clone(), 2);
        core.tick = 17;
        core.score = -3;
        core.goals = 1;
        core.deaths = 2;
        core.shots = 9;
        core.bonuses = 4;
        core.modifications = 55;
        core.tank.hp = 1;
        core.tank.alive = false;
        let bytes = core.encode();
        let back = GameCore::decode(scenario, 2, true, true, &bytes).expect("decodes");
        assert_eq!(back.encode(), bytes, "re-encode is identical");
        assert_eq!(back.tick, 17);
        assert_eq!(back.score, -3);
        assert_eq!(back.tank.hp, 1);
        assert!(!back.tank.alive);
        assert!(GameCore::decode(Scenario::paper(4, 1), 2, true, true, &bytes[..bytes.len() - 1])
            .is_none());
    }
}
