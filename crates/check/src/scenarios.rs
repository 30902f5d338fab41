//! Explorer scenarios: small 3-node protocol workloads whose invariants
//! are asserted after every explored delivery schedule.
//!
//! Each scenario builds a [`SimCluster`] with the explorer's
//! [`ReplayOracle`] installed, runs a short protocol workload, and checks:
//!
//! * **convergence** — all replicas byte-identical at the end of the run;
//! * **final values** — each single-writer object holds its writer's last
//!   write (an update applied out of slotted-buffer order, or dropped,
//!   would leave a stale byte); for EC, the shared counter equals the
//!   total number of lock-protected increments (mutual exclusion plus
//!   writer-push visibility: a lost update shows up as a smaller count);
//! * **logical-clock monotonicity** — every node's per-exchange times are
//!   strictly increasing;
//! * **progress** — no schedule may deadlock a node (a `Deadlock` error
//!   from the scheduler is itself a violation).
//!
//! The churn scenarios add dynamic membership on top: their **first**
//! choice point is synthetic — it selects the view-change trigger tick —
//! so the explorer enumerates join/leave timings crossed with delivery
//! orders. Their extra invariants: every final-view member converges, the
//! leaver's tombstone write survives the epoch turn, the joiner's writes
//! reach everyone, and under EC no lock grant or counter increment is
//! lost across the view change (a stuck view-change barrier surfaces as a
//! scheduler deadlock, which is a violation like any other).
//!
//! The codec-v2 scenario runs the lookahead workloads with
//! `WireConfig::compressed()` on every node, so what the oracle reorders
//! across senders are the fused `Data2` frames that carry their own SYNC,
//! from each link's first rendezvous on: BSYNC's workload, then MSYNC2's,
//! in every schedule.
//!
//! The codec-v2-arq scenario turns the ARQ on as well. Its synthetic first
//! choice point picks one of those two workloads and one frame fault (see
//! [`FrameFault`]): a fused frame lost and retransmitted, or one delivered
//! twice — what could deliver a fused frame twice or not at all,
//! interleaved with the delivery orders.

use std::collections::BTreeSet;
use std::sync::Arc;

use sdso_core::wire::{DsoMessage, Frame};
use sdso_core::{
    DsoConfig, DsoError, DsoMetrics, LogicalTime, MembershipPlan, MembershipView, Never, ObjectId,
    ObjectStore, RetryConfig, SdsoRuntime, SendMode, ViewChange, WireConfig,
};
use sdso_game::Journal;
use sdso_net::{
    Endpoint, Incoming, NetError, NetMetricsSnapshot, NodeId, Payload, PeerEvent, Recorder,
    SimInstant, SimSpan,
};
use sdso_protocols::{EntryConsistency, LockRequest, Lookahead};
use sdso_sim::{
    Candidate, DeliveryOracle, ExploreReport, Explorer, NetworkModel, ReplayOracle, SimCluster,
    SimEndpoint,
};

/// Every scenario runs this many nodes — enough for three-way delivery
/// races and a distance-2 pair for MSYNC2, small enough to keep a single
/// schedule under a millisecond.
pub const NODES: usize = 3;

/// Lock/increment/unlock rounds per node in the EC scenario.
pub const EC_ITERS: u8 = 4;

/// Capacity slots in the churn scenarios: three initial members plus one
/// planned joiner.
pub const CHURN_CAPACITY: usize = 4;

/// Game ticks (or EC rounds) a churn scenario runs for.
pub const CHURN_TICKS: u64 = 6;

/// Trigger ticks the synthetic first choice point selects between.
pub const CHURN_TRIGGERS: [u64; 3] = [2, 3, 4];

/// The member that leaves at the trigger tick.
const CHURN_LEAVER: NodeId = 1;

/// The member that joins at the trigger tick.
const CHURN_JOINER: NodeId = 3;

/// The leaver's final write — distinguishable from any tick number.
const CHURN_TOMBSTONE: u8 = 0xEE;

/// Ticks the crash-churn scenario runs for — long enough for a join, a
/// crash, a journal-backed rejoin, and a tail of live play.
pub const CRASH_TICKS: u64 = 8;

/// Crash ticks the synthetic first choice point selects between (offset
/// past the churn join at tick 2, with room for the restart).
pub const CRASH_TRIGGERS: [u64; 2] = [3, 4];

/// Ticks between a crash and its restart — the window during which the
/// dead host is partitioned from the group (survivor traffic towards it
/// queues as crash-era residue the restart must digest, not deliver).
const CRASH_RESTART_GAP: u64 = 2;

/// The member that crashes and recovers from its journal.
const CRASHER: NodeId = 1;

/// How often each pair of a lookahead run meets, and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Workload {
    /// Ticks between two rendezvous of ring neighbours, and of any other
    /// pair.
    gaps: (u64, u64),
    /// The last tick played. In a static group every pair is due at it, so
    /// the run ends converged.
    ticks: u64,
}

/// Barrier-synchronous: every pair meets every tick.
const BSYNC: Workload = Workload { gaps: (1, 1), ticks: 3 };

/// MSYNC stand-in: every pair meets every 2 ticks.
const MSYNC: Workload = Workload { gaps: (2, 2), ticks: 8 };

/// MSYNC2 stand-in: ring neighbours meet every 2 ticks, the distance-2
/// pair every 4 — distinct per-pair s-functions.
const MSYNC2: Workload = Workload { gaps: (2, 4), ticks: 12 };

/// Workloads every schedule of the codec-v2 scenario plays, in order: a
/// rendezvous with everyone every tick, then per-pair s-functions under
/// which fused frames of different ticks are in flight together.
const CODEC_V2_WORKLOADS: [Workload; 2] = [BSYNC, MSYNC2];

/// The codec-v2-arq scenario's workloads: BSYNC's for twice its usual
/// three ticks, so that the fault and its repair have ticks of fused frames
/// around them to interleave with, and MSYNC2's.
const ARQ_WORKLOADS: [Workload; 2] = [Workload { ticks: 6, ..BSYNC }, MSYNC2];

/// The node whose links the codec-v2-arq scenario faults.
const FAULTED: NodeId = 0;

/// The peer whose frame from [`FAULTED`] is lost or doubled.
const FAULT_PEER: NodeId = 1;

/// The frame faults the codec-v2-arq scenario's synthetic first choice
/// point selects between (crossed with [`ARQ_WORKLOADS`]).
const FRAME_FAULTS: [FrameFault; 2] = [FrameFault::Drop, FrameFault::Dup];

/// What happens, on node [`FAULTED`]'s side, to its first fused `Data2` to
/// [`FAULT_PEER`] in one schedule of the codec-v2-arq scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFault {
    /// Lost in flight: the retransmission must decode exactly once.
    Drop,
    /// Delivered twice: the copy must not be resolved again.
    Dup,
}

/// The protocol workload a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Barrier-synchronous: every pair rendezvouses every tick.
    Bsync,
    /// MSYNC stand-in: every pair rendezvouses every 2 ticks.
    Msync,
    /// MSYNC2 stand-in: ring neighbours every 2 ticks, the distance-2
    /// pair every 4 — distinct per-pair s-functions.
    Msync2,
    /// Entry consistency: a shared counter incremented under write locks.
    Ec,
    /// Dynamic membership over the lookahead family: one member leaves and
    /// one joins at an oracle-chosen trigger tick.
    Churn,
    /// Dynamic membership under EC: lock-protected counters incremented
    /// across a view change.
    ChurnEc,
    /// Crash faults on top of churn: a member joins mid-run, another
    /// fail-stops at an oracle-chosen tick (its host partitioned from the
    /// group while down) and rejoins from its journal with pre-crash state.
    CrashChurn,
    /// The compressed wire: BSYNC's workload, then MSYNC2's, with codec v2
    /// on at every node.
    CodecV2,
    /// One of [`Protocol::CodecV2`]'s workloads with the ARQ on, under one
    /// frame fault: a fused frame dropped or duplicated.
    CodecV2Arq,
}

impl Protocol {
    /// All scenarios, in CLI order.
    pub const ALL: [Protocol; 9] = [
        Protocol::Bsync,
        Protocol::Msync,
        Protocol::Msync2,
        Protocol::Ec,
        Protocol::Churn,
        Protocol::ChurnEc,
        Protocol::CrashChurn,
        Protocol::CodecV2,
        Protocol::CodecV2Arq,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Bsync => "bsync",
            Protocol::Msync => "msync",
            Protocol::Msync2 => "msync2",
            Protocol::Ec => "ec",
            Protocol::Churn => "churn",
            Protocol::ChurnEc => "churn-ec",
            Protocol::CrashChurn => "crash-churn",
            Protocol::CodecV2 => "codec-v2",
            Protocol::CodecV2Arq => "codec-v2-arq",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(s: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Ways the scenario's synthetic first choice point can go: trigger
    /// ticks, or workloads × frame faults. One where it has none.
    pub fn variants(self) -> usize {
        match self {
            Protocol::Churn | Protocol::ChurnEc => CHURN_TRIGGERS.len(),
            Protocol::CrashChurn => CRASH_TRIGGERS.len(),
            Protocol::CodecV2Arq => ARQ_WORKLOADS.len() * FRAME_FAULTS.len(),
            Protocol::Bsync
            | Protocol::Msync
            | Protocol::Msync2
            | Protocol::Ec
            | Protocol::CodecV2 => 1,
        }
    }
}

/// What one node reports back: per-step exchange times, a final snapshot
/// of every replica, and its runtime counters.
#[derive(Debug, PartialEq, Eq)]
struct NodeSnap {
    times: Vec<LogicalTime>,
    objects: Vec<(u32, Vec<u8>)>,
    metrics: DsoMetrics,
}

/// Adapts a protocol to the `Explorer`'s scenario signature.
pub fn scenario(protocol: Protocol) -> impl FnMut(Arc<ReplayOracle>) -> Result<(), String> {
    move |oracle| run_once(protocol, oracle)
}

/// Explores `protocol`'s schedules. Where the first choice point is
/// synthetic, each of its alternatives is explored on its own with an even
/// share of the run cap: the explorer's depth-first order would spend the
/// whole cap beneath the first one.
pub fn explore(protocol: Protocol, explorer: Explorer) -> ExploreReport {
    let variants = protocol.variants();
    if variants == 1 {
        return explorer.explore(scenario(protocol));
    }
    let share = Explorer::new(explorer.depth, explorer.max_runs / variants);
    let mut total = ExploreReport::default();
    for variant in 0..variants {
        let report = share.explore_from(vec![variant], scenario(protocol));
        total.runs += report.runs;
        total.distinct += report.distinct;
        total.max_choice_points = total.max_choice_points.max(report.max_choice_points);
        total.truncated |= report.truncated;
        if report.violation.is_some() {
            total.violation = report.violation;
            break;
        }
    }
    total
}

/// Runs one schedule of `protocol` under `oracle` and checks invariants.
///
/// # Errors
///
/// Returns a description of the first violated invariant (including any
/// node failing outright, e.g. a schedule-induced deadlock).
pub fn run_once(protocol: Protocol, oracle: Arc<ReplayOracle>) -> Result<(), String> {
    match protocol {
        Protocol::Bsync => run_lookahead_once(LookaheadRun::fixed(BSYNC, Wire::V1), &oracle),
        Protocol::Msync => run_lookahead_once(LookaheadRun::fixed(MSYNC, Wire::V1), &oracle),
        Protocol::Msync2 => run_lookahead_once(LookaheadRun::fixed(MSYNC2, Wire::V1), &oracle),
        Protocol::Ec => {
            let snaps = play(NODES, &oracle, ec_node)?;
            // Each round, every counter appears in exactly two of the three
            // staggered locksets, so it gains exactly two increments.
            let counters = converged(&snaps, MembershipView::full(NODES).members())?;
            counters_at(counters, 2 * EC_ITERS, "an update was lost or applied twice")
        }
        // The churn scenarios' first choice point is synthetic: it picks the
        // view-change trigger tick, so the explorer branches over join/leave
        // timings exactly like it branches over delivery races.
        Protocol::Churn => {
            let trigger = CHURN_TRIGGERS[oracle.choose(0, &synthetic(CHURN_TRIGGERS.len()))];
            let run = LookaheadRun {
                workload: Workload { ticks: CHURN_TICKS, ..BSYNC },
                wire: Wire::V2,
                plan: churn_plan(trigger),
                crash: None,
            };
            run_lookahead_once(run, &oracle).map_err(|e| format!("churn at tick {trigger}: {e}"))
        }
        Protocol::ChurnEc => {
            let trigger = CHURN_TRIGGERS[oracle.choose(0, &synthetic(CHURN_TRIGGERS.len()))];
            let counted = || {
                let snaps = play(CHURN_CAPACITY, &oracle, move |ep| churn_ec_node(ep, trigger))?;
                // Per counter: nodes 0 and 2 increment every round, the
                // leaver up to the trigger, the joiner after it — 3 *
                // CHURN_TICKS in total regardless of the trigger tick.
                let counters = converged(&snaps, churn_plan(trigger).final_view().members())?;
                counters_at(counters, (3 * CHURN_TICKS) as u8, "a lock grant or increment was lost")
            };
            counted().map_err(|e| format!("churn at tick {trigger}: {e}"))
        }
        Protocol::CrashChurn => {
            let crash = CRASH_TRIGGERS[oracle.choose(0, &synthetic(CRASH_TRIGGERS.len()))];
            let run = LookaheadRun {
                workload: Workload { ticks: CRASH_TICKS, ..BSYNC },
                wire: Wire::V2,
                plan: crash_churn_plan(crash),
                crash: Some(crash),
            };
            run_lookahead_once(run, &oracle).map_err(|e| format!("crash at tick {crash}: {e}"))
        }
        // One cluster after the other under the one oracle: the branching
        // depth spans the end of the first workload and the start of the
        // second.
        Protocol::CodecV2 => CODEC_V2_WORKLOADS.into_iter().try_for_each(|workload| {
            run_lookahead_once(LookaheadRun::fixed(workload, Wire::V2), &oracle)
        }),
        // One workload under one fault, the pair picked by the synthetic first
        // choice point: the branching depth then starts where that workload
        // does, whichever it is.
        Protocol::CodecV2Arq => {
            let case = oracle.choose(0, &synthetic(protocol.variants()));
            let fault = FRAME_FAULTS[case % FRAME_FAULTS.len()];
            let workload = ARQ_WORKLOADS[case / FRAME_FAULTS.len()];
            run_lookahead_once(LookaheadRun::fixed(workload, Wire::V2Arq(fault)), &oracle)
        }
    }
}

/// The candidates of a synthetic choice point with `arity` ways to go: the
/// explorer branches over them exactly like over a delivery race.
fn synthetic(arity: usize) -> Vec<Candidate> {
    (0..arity).map(|i| Candidate { from: i as NodeId, seq: i as u64, deliver_at: 0 }).collect()
}

/// Plays one schedule of `node` on `n` simulated nodes under `oracle` and
/// returns what each node reported.
fn play<F>(n: usize, oracle: &Arc<ReplayOracle>, node: F) -> Result<Vec<NodeSnap>, String>
where
    F: Fn(SimEndpoint) -> Result<NodeSnap, NetError> + Send + Sync + 'static,
{
    let outcome = SimCluster::new(n, NetworkModel::instant())
        .with_oracle(Arc::clone(oracle) as Arc<dyn DeliveryOracle>)
        .run(node)
        .map_err(|e| format!("cluster failed to run: {e}"))?;
    outcome
        .nodes
        .into_iter()
        .enumerate()
        .map(|(id, node)| node.result.map_err(|e| format!("node {id}: {e}")))
        .collect()
}

/// What a lookahead run's links speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    /// The paper's frames.
    V1,
    /// Codec v2 at every node.
    V2,
    /// Codec v2 over the ARQ, with one frame fault for it to repair.
    V2Arq(FrameFault),
}

impl Wire {
    fn config(self) -> DsoConfig {
        let config = DsoConfig::compact();
        match self {
            Wire::V1 => config.with_wire(WireConfig::v1()),
            Wire::V2 => config.with_wire(WireConfig::compressed()),
            Wire::V2Arq(_) => config
                .with_wire(WireConfig::compressed())
                .with_reliability(Some(RetryConfig::default())),
        }
    }

    fn fault(self) -> Option<FrameFault> {
        match self {
            Wire::V2Arq(fault) => Some(fault),
            Wire::V1 | Wire::V2 => None,
        }
    }
}

/// One run of the lookahead runner: how often each pair meets, what the
/// links speak, who is in the group when, and whether [`CRASHER`] crashes.
#[derive(Debug, Clone)]
struct LookaheadRun {
    workload: Workload,
    wire: Wire,
    plan: MembershipPlan,
    /// The tick [`CRASHER`] fail-stops at; it rejoins from its journal
    /// [`CRASH_RESTART_GAP`] ticks later, where the plan says it joins.
    crash: Option<u64>,
}

impl LookaheadRun {
    /// `workload` in a static group of [`NODES`] on `wire`.
    fn fixed(workload: Workload, wire: Wire) -> Self {
        LookaheadRun { workload, wire, plan: MembershipPlan::static_group(NODES), crash: None }
    }
}

/// Runs one schedule of a lookahead run and checks what it promises: on a
/// compressed wire every node fused a rendezvous, a frame fault left its
/// trace in the counters, and [`check_lookahead`]'s invariants hold. A node
/// stuck in a view-change barrier, or a restart stuck awaiting its
/// snapshot, shows up as a scheduler deadlock.
fn run_lookahead_once(run: LookaheadRun, oracle: &Arc<ReplayOracle>) -> Result<(), String> {
    let node_run = run.clone();
    let snaps = play(run.plan.capacity(), oracle, move |ep| lookahead_node(ep, &node_run))?;
    // A run that never fused a rendezvous explores nothing a v2 scenario is for.
    let fused = |snap: &NodeSnap| snap.metrics.rendezvous_fused;
    if let Some(id) = snaps.iter().position(|snap| run.wire != Wire::V1 && fused(snap) == 0) {
        return Err(format!("node {id} never sent a fused frame"));
    }
    // Nor does a fault that never bit: the lost frame was sent again, the
    // doubled one dropped once.
    let (faulted, peer) = (&snaps[usize::from(FAULTED)], &snaps[usize::from(FAULT_PEER)]);
    let fault = run.wire.fault();
    let unrepaired = match fault {
        Some(FrameFault::Drop) => faulted.metrics.retransmits == 0,
        Some(FrameFault::Dup) => peer.metrics.duplicates_dropped == 0,
        None => false,
    };
    if unrepaired {
        return Err(format!(
            "under {fault:?}: the fault left no trace in the counters (node {FAULTED}: {:?}; \
             node {FAULT_PEER}: {:?})",
            faulted.metrics, peer.metrics
        ));
    }
    check_lookahead(&run, &snaps)
}

/// One leave plus one join at the same barrier, `trigger` ticks in.
fn churn_plan(trigger: u64) -> MembershipPlan {
    MembershipPlan::new(CHURN_CAPACITY, [0, 1, 2])
        .with_change(trigger, ViewChange::new([CHURN_JOINER], [CHURN_LEAVER]))
}

/// The crash-churn membership plan: a planned join at tick 2, then the
/// crasher's leave at `crash` and its rejoin at `crash + gap`.
fn crash_churn_plan(crash: u64) -> MembershipPlan {
    MembershipPlan::new(CHURN_CAPACITY, [0, 1, 2])
        .with_change(2, ViewChange::join([CHURN_JOINER]))
        .with_change(crash, ViewChange::leave([CRASHER]))
        .with_change(crash + CRASH_RESTART_GAP, ViewChange::join([CRASHER]))
}

/// The lookahead runner. Every live member writes the tick into its own
/// object each tick, then meets whoever its gaps make due; at a tick that
/// carries a view change the old view meets in full instead, and the
/// continuers then apply the change. A planned leaver's last write is a
/// tombstone, and it settles out after the barrier.
///
/// When the run crashes [`CRASHER`], it journals every tick. At its crash
/// tick it fail-stops: runtime and s-function vanish, the journal and the
/// host's endpoint survive. While it is down its host is partitioned from
/// the group, so survivor traffic towards it queues as crash-era residue
/// that the restarted incarnation must drop (stale epochs, stale acks)
/// rather than deliver. It rejoins from its journal with pre-crash state.
fn lookahead_node(ep: SimEndpoint, run: &LookaheadRun) -> Result<NodeSnap, NetError> {
    let me = ep.node_id();
    let (near, far) = run.workload.gaps;
    let sfunc = move |peer: NodeId, now: LogicalTime, _: &ObjectStore| {
        Some(now.plus(if me.abs_diff(peer) == 1 { near } else { far }))
    };
    let build = |transport: Faulted| -> Result<SdsoRuntime<Faulted>, NetError> {
        let mut rt = SdsoRuntime::new(transport, run.wire.config());
        for id in 0..run.plan.capacity() as u32 {
            rt.share(ObjectId(id), vec![0u8; 4])?;
        }
        Ok(rt)
    };
    let crash = run.crash.filter(|_| me == CRASHER);
    // A crash is a leave only to the survivors.
    let leave = run.plan.leave_tick_of(me).filter(|_| crash.is_none());
    let fault = if me == FAULTED { run.wire.fault() } else { None };
    let mut rt = build(Faulted { inner: ep, fault })?;
    let mut tick = rt.enter(&run.plan, None)?;
    let mut la = Lookahead::new(rt, sfunc)?;
    let mut journal = Journal::default();
    let mut times = Vec::new();
    while tick <= run.workload.ticks {
        let value = if leave == Some(tick) { CHURN_TOMBSTONE } else { tick as u8 };
        la.runtime_mut().write(ObjectId(u32::from(me)), 0, &[value])?;
        let change = run.plan.change_at(tick);
        times.push(if change.is_some() { la.step_barrier() } else { la.step() }?.time);
        if leave == Some(tick) {
            let mut rt = la.into_runtime();
            rt.settle()?;
            return snapshot(&rt, times);
        }
        if crash.is_some() {
            journal.tick(la.runtime(), tick, vec![tick as u8]);
        }
        if crash == Some(tick) {
            let endpoint = la.into_runtime().into_endpoint();
            let recovered = journal.reopen(me)?;
            if recovered.app != [tick as u8] {
                return Err(NetError::from(DsoError::ProtocolViolation(format!(
                    "recovered state {:?} is not the crash-tick write {tick}",
                    recovered.app
                ))));
            }
            let mut rt = build(endpoint)?;
            rt.restore_frontier(LogicalTime::from_ticks(recovered.time), recovered.lamport);
            tick = rt.enter(&run.plan, Some(tick + CRASH_RESTART_GAP))?;
            la = Lookahead::new(rt, sfunc)?;
            continue;
        }
        if let Some(change) = change {
            la.apply_view_change(change)?;
        }
        tick += 1;
    }
    let mut rt = la.into_runtime();
    // A static group's last tick has every pair due; a group that changed
    // meets once more in full, across its final view.
    if !run.plan.changes().is_empty() {
        rt.exchange(SendMode::Broadcast, &mut Never)?;
    }
    rt.settle()?;
    snapshot(&rt, times)
}

/// The lookahead invariants: every node's clock strictly increases (across
/// a crash too: the restored frontier forbids reusing pre-crash times),
/// every final-view member holds the same objects, and each object holds
/// its writer's last write — a planned leaver's tombstone, otherwise the
/// last tick (a recovered crasher's resumed writes overwrite its pre-crash
/// value). A stale byte is an update dropped or applied out of order.
fn check_lookahead(run: &LookaheadRun, snaps: &[NodeSnap]) -> Result<(), String> {
    for (id, snap) in snaps.iter().enumerate() {
        if let Some(w) = snap.times.windows(2).find(|w| w[1] <= w[0]) {
            return Err(format!(
                "logical clock not strictly monotone on node {id}: {} then {}",
                w[0], w[1]
            ));
        }
    }
    let members = run.plan.final_view();
    for (obj, bytes) in converged(snaps, members.members())? {
        let stays = members.members().iter().any(|&m| u32::from(m) == *obj);
        let expected = if stays { run.workload.ticks as u8 } else { CHURN_TOMBSTONE };
        if bytes[0] != expected {
            return Err(format!(
                "object {obj} holds {} but its writer's last write was {expected}: an update \
                 was dropped or applied out of order",
                bytes[0]
            ));
        }
    }
    Ok(())
}

/// The objects every node in `members` holds, if they all hold the same.
fn converged<'a>(
    snaps: &'a [NodeSnap],
    members: &BTreeSet<NodeId>,
) -> Result<&'a [(u32, Vec<u8>)], String> {
    let mut ids = members.iter().map(|&m| usize::from(m));
    let first = ids.next().expect("a view is never empty");
    if let Some(id) = ids.find(|&id| snaps[id].objects != snaps[first].objects) {
        return Err(format!(
            "replica divergence: node {first} holds {:?}, node {id} holds {:?}",
            snaps[first].objects, snaps[id].objects
        ));
    }
    Ok(&snaps[first].objects)
}

/// Fails unless every EC counter in `objects` reached `expected`.
fn counters_at(objects: &[(u32, Vec<u8>)], expected: u8, why: &str) -> Result<(), String> {
    match objects.iter().find(|(_, bytes)| bytes[0] != expected) {
        Some((obj, bytes)) => {
            Err(format!("EC counter {obj} is {}, expected {expected}: {why}", bytes[0]))
        }
        None => Ok(()),
    }
}

/// The transport under every lookahead node: a [`SimEndpoint`] that is
/// transparent but for the [`FrameFault`] node [`FAULTED`] carries in a
/// codec-v2-arq schedule.
#[derive(Debug)]
struct Faulted {
    inner: SimEndpoint,
    /// The frame fault still to inject, if any.
    fault: Option<FrameFault>,
}

/// Whether `payload` is a sequenced `Data2` frame that carries its SYNC.
fn is_fused(payload: &Payload) -> bool {
    matches!(
        sdso_net::wire::decode(&payload.bytes),
        Ok(Frame::Env { inner: DsoMessage::Data2 { sync: true, .. }, .. })
    )
}

impl Endpoint for Faulted {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
        if self.fault.is_some() && to == FAULT_PEER && is_fused(&payload) {
            match self.fault.take() {
                Some(FrameFault::Drop) => return Ok(()),
                _ => self.inner.send(to, payload.clone())?,
            }
        }
        self.inner.send(to, payload)
    }
    fn recv(&mut self) -> Result<Incoming, NetError> {
        self.inner.recv()
    }
    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        self.inner.try_recv()
    }
    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        self.inner.recv_deadline(timeout)
    }
    fn advance(&mut self, dt: SimSpan) {
        self.inner.advance(dt);
    }
    fn now(&self) -> SimInstant {
        self.inner.now()
    }
    fn metrics(&self) -> NetMetricsSnapshot {
        self.inner.metrics()
    }
    fn metrics_delta(&mut self) -> NetMetricsSnapshot {
        self.inner.metrics_delta()
    }
    fn attach_recorder(&mut self, recorder: Recorder) {
        self.inner.attach_recorder(recorder);
    }
    fn remove_peer(&mut self, peer: NodeId) {
        self.inner.remove_peer(peer);
    }
    fn add_peer(&mut self, peer: NodeId) {
        self.inner.add_peer(peer);
    }
    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        self.inner.take_peer_events()
    }
}

/// EC: three shared counters whose managers are spread across all three
/// nodes (`manager_of` maps object id to node id). Each round every node
/// locks a staggered two-counter lockset — overlapping with its peers',
/// so grants genuinely race at every manager — and increments both.
fn ec_node(ep: SimEndpoint) -> Result<NodeSnap, NetError> {
    let me = ep.node_id();
    let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
    for id in 0..NODES as u32 {
        rt.share(ObjectId(id), vec![0u8; 1]).map_err(NetError::from)?;
    }
    let mut ec = EntryConsistency::new(rt);
    for round in 0..u32::from(EC_ITERS) {
        let first = (u32::from(me) + round) % NODES as u32;
        let lockset = [ObjectId(first), ObjectId((first + 1) % NODES as u32)];
        let requests: Vec<LockRequest> = lockset.iter().map(|&o| LockRequest::write(o)).collect();
        ec.acquire(&requests).map_err(NetError::from)?;
        for &counter in &lockset {
            let current = ec.read(counter).map_err(NetError::from)?[0];
            ec.write(counter, 0, &[current + 1]).map_err(NetError::from)?;
        }
        ec.release_all(&lockset.into_iter().collect::<BTreeSet<_>>()).map_err(NetError::from)?;
        ec.service_pending().map_err(NetError::from)?;
    }
    ec.finish().map_err(NetError::from)?;
    ec.final_sync().map_err(NetError::from)?;
    snapshot(ec.runtime(), Vec::new())
}

/// EC churn: three lock-protected counters, every member increments all
/// three each round. The managers straddle the view change (the leaver
/// manages one counter in the old view), so lock state genuinely
/// migrates. Three counters, not two, keep the schedule space above the
/// explorer's 600 at depth 12 now that a flush sends one `State` per
/// peer: with two it held 324 schedules in all.
fn churn_ec_node(ep: SimEndpoint, trigger: u64) -> Result<NodeSnap, NetError> {
    let me = ep.node_id();
    let plan = churn_plan(trigger);
    let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
    let lockset = [ObjectId(0), ObjectId(1), ObjectId(2)];
    for &obj in &lockset {
        rt.share(obj, vec![0u8; 1]).map_err(NetError::from)?;
    }
    let start = rt.enter(&plan, None)?;
    let mut ec = EntryConsistency::new(rt);
    let leave = plan.leave_tick_of(me);
    for round in start..=CHURN_TICKS {
        ec.service_pending().map_err(NetError::from)?;
        let requests: Vec<LockRequest> = lockset.iter().map(|&o| LockRequest::write(o)).collect();
        ec.acquire(&requests).map_err(NetError::from)?;
        for &counter in &lockset {
            let current = ec.read(counter).map_err(NetError::from)?[0];
            ec.write(counter, 0, &[current + 1]).map_err(NetError::from)?;
        }
        ec.release_all(&lockset.into_iter().collect::<BTreeSet<_>>()).map_err(NetError::from)?;
        let Some(change) = plan.change_at(round) else { continue };
        ec.view_sync().map_err(NetError::from)?;
        if leave == Some(round) {
            ec.runtime_mut().settle().map_err(NetError::from)?;
            return snapshot(ec.runtime(), Vec::new());
        }
        ec.apply_view_change(change).map_err(NetError::from)?;
    }
    ec.finish().map_err(NetError::from)?;
    ec.final_sync().map_err(NetError::from)?;
    ec.runtime_mut().settle().map_err(NetError::from)?;
    snapshot(ec.runtime(), Vec::new())
}

fn snapshot<E: Endpoint>(
    rt: &SdsoRuntime<E>,
    times: Vec<LogicalTime>,
) -> Result<NodeSnap, NetError> {
    let mut objects = Vec::new();
    for id in rt.object_ids() {
        objects.push((id.0, rt.read(id).map_err(NetError::from)?.to_vec()));
    }
    Ok(NodeSnap { times, objects, metrics: rt.metrics() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_passes_for_every_protocol() {
        for p in Protocol::ALL {
            run_once(p, Arc::new(ReplayOracle::new(Vec::new())))
                .unwrap_or_else(|e| panic!("{} under default schedule: {e}", p.name()));
        }
    }

    #[test]
    fn perturbed_schedules_still_satisfy_invariants() {
        for preset in [vec![1], vec![1, 1], vec![0, 1, 0, 1, 1]] {
            for p in Protocol::ALL {
                run_once(p, Arc::new(ReplayOracle::new(preset.clone())))
                    .unwrap_or_else(|e| panic!("{} under {preset:?}: {e}", p.name()));
            }
        }
    }

    #[test]
    fn every_churn_trigger_satisfies_invariants() {
        // Presets [0], [1], [2] resolve the synthetic first choice point to
        // each trigger tick in turn.
        for (i, &trigger) in CHURN_TRIGGERS.iter().enumerate() {
            for p in [Protocol::Churn, Protocol::ChurnEc] {
                run_once(p, Arc::new(ReplayOracle::new(vec![i])))
                    .unwrap_or_else(|e| panic!("{} trigger {trigger}: {e}", p.name()));
            }
        }
    }

    #[test]
    fn codec_v2_schedules_reach_into_the_second_workload() {
        // The explorer branches at the first 12 choice points of a run: they
        // must outlast BSYNC's, or MSYNC2's races would never be permuted.
        let of = |workload| {
            let oracle = Arc::new(ReplayOracle::new(Vec::new()));
            run_lookahead_once(LookaheadRun::fixed(workload, Wire::V2), &oracle).unwrap();
            oracle.trace().len()
        };
        let (first, second) = (of(BSYNC), of(MSYNC2));
        assert!(first < 12 && second > 0, "{first} then {second} choice points");
    }

    #[test]
    fn every_link_fault_is_injected_and_repaired() {
        // Each preset [i] resolves the synthetic first choice point to one
        // workload under one fault; `run_lookahead_once` fails a fault that left
        // no trace in the counters.
        for case in 0..Protocol::CodecV2Arq.variants() {
            run_once(Protocol::CodecV2Arq, Arc::new(ReplayOracle::new(vec![case])))
                .unwrap_or_else(|e| panic!("codec-v2-arq, case {case}: {e}"));
        }
    }

    #[test]
    fn every_crash_trigger_satisfies_invariants() {
        for (i, &crash) in CRASH_TRIGGERS.iter().enumerate() {
            run_once(Protocol::CrashChurn, Arc::new(ReplayOracle::new(vec![i])))
                .unwrap_or_else(|e| panic!("crash-churn at tick {crash}: {e}"));
        }
    }

    #[test]
    fn crash_churn_explorer_branches_over_crash_ticks_and_deliveries() {
        let report = Explorer::new(3, 24).explore(scenario(Protocol::CrashChurn));
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(
            report.distinct >= CRASH_TRIGGERS.len(),
            "the synthetic choice point alone yields one run per crash tick, got {}",
            report.distinct
        );
    }

    #[test]
    fn churn_explorer_branches_over_triggers_and_deliveries() {
        let report = Explorer::new(3, 24).explore(scenario(Protocol::Churn));
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(
            report.distinct >= CHURN_TRIGGERS.len(),
            "the synthetic choice point alone yields one run per trigger, got {}",
            report.distinct
        );
    }

    /// FNV-1a-64 of every choice point (receiver, arity, chosen, delivered)
    /// of `protocol`'s runs under a fixed preset list: the base presets,
    /// then each synthetic variant alone and followed by each base preset.
    fn schedule_space_hash(protocol: Protocol) -> u64 {
        const BASE: [&[usize]; 4] = [&[], &[1], &[1, 1], &[0, 1, 0, 1, 1]];
        let variants = (0..protocol.variants())
            .flat_map(|v| BASE.iter().map(move |tail| [&[v][..], tail].concat()));
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for preset in BASE.iter().map(|p| p.to_vec()).chain(variants) {
            let oracle = Arc::new(ReplayOracle::new(preset.clone()));
            run_once(protocol, Arc::clone(&oracle))
                .unwrap_or_else(|e| panic!("{} under {preset:?}: {e}", protocol.name()));
            for point in oracle.trace() {
                let (from, seq) = point.delivered;
                let words = [u64::from(point.receiver), point.arity as u64, point.chosen as u64];
                for word in words.into_iter().chain([u64::from(from), seq]) {
                    for b in word.to_le_bytes() {
                        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
            }
        }
        hash
    }

    #[test]
    fn schedule_spaces_are_pinned() {
        // A change that moves a message, a send order or a choice point in
        // any scenario moves its hash: re-pin only in a commit of its own.
        let pinned: [(Protocol, u64); 9] = [
            (Protocol::Bsync, 0xCDBC_E19B_CD4A_5765),
            (Protocol::Msync, 0xCE28_AFE4_EF06_2565),
            (Protocol::Msync2, 0x0C9D_BCFF_58A1_26A3),
            (Protocol::Ec, 0x57D7_229C_C3A4_BC87),
            (Protocol::Churn, 0x4957_925F_69EB_2C48),
            (Protocol::ChurnEc, 0x00B5_FB3B_26C0_3146),
            (Protocol::CrashChurn, 0xFF77_A562_0FAD_56DF),
            (Protocol::CodecV2, 0x09AA_DF20_3210_5F2E),
            (Protocol::CodecV2Arq, 0x062E_E635_D936_1886),
        ];
        for (protocol, expected) in pinned {
            let hash = schedule_space_hash(protocol);
            assert_eq!(hash, expected, "{}: {hash:#018X}", protocol.name());
        }
    }

    #[test]
    fn protocol_names_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::from_name(p.name()), Some(p));
        }
        assert_eq!(Protocol::from_name("nope"), None);
    }
}
