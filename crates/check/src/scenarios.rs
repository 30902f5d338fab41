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
//! `WireConfig::compressed()` on every link, so what the oracle reorders
//! across senders are `CodecOffer`s and the fused `Data2` frames that carry
//! their own SYNC: BSYNC's workload, then MSYNC2's, in every schedule.
//!
//! The codec-v2-arq scenario turns the ARQ on as well. Its synthetic first
//! choice point picks one of those two workloads and one link fault (see
//! [`LinkFault`]): a fused frame lost and retransmitted, one delivered
//! twice, the transport reporting a reconnect flap, or a loss with the flap
//! before its retransmission — what can take a link's XOR shadows out of
//! lockstep, interleaved with the delivery orders.

use std::collections::BTreeSet;
use std::sync::Arc;

use sdso_core::wire::DsoMessage;
use sdso_core::{
    DsoConfig, DsoError, DsoMetrics, EveryTick, LogicalTime, MembershipPlan, Never, ObjectId,
    ObjectStore, RetryConfig, SdsoRuntime, SendMode, ViewChange, WireConfig,
};
use sdso_dur::{DurRecord, DurStore};
use sdso_net::{
    Endpoint, Incoming, NetError, NetMetricsSnapshot, NodeId, Payload, PeerEvent, SimInstant,
    SimSpan,
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
/// crash, a WAL-backed rejoin, and a tail of live play.
pub const CRASH_TICKS: u64 = 8;

/// Crash ticks the synthetic first choice point selects between (offset
/// past the churn join at tick 2, with room for the restart).
pub const CRASH_TRIGGERS: [u64; 2] = [3, 4];

/// Ticks between a crash and its restart — the window during which the
/// dead host is partitioned from the group (survivor traffic towards it
/// queues as crash-era residue the restart must digest, not deliver).
const CRASH_RESTART_GAP: u64 = 2;

/// The member that crashes and recovers from its WAL.
const CRASHER: NodeId = 1;

/// Workloads every schedule of the codec-v2 scenario plays, in order: a
/// rendezvous with everyone every tick, then per-pair s-functions under
/// which offers and fused frames of different ticks are in flight together.
const CODEC_V2_WORKLOADS: [Protocol; 2] = [Protocol::Bsync, Protocol::Msync2];

/// The node whose links the codec-v2-arq scenario faults.
const FAULTED: NodeId = 0;

/// The peer whose frame from [`FAULTED`] is lost or doubled.
const FAULT_PEER: NodeId = 1;

/// The link faults the codec-v2-arq scenario's synthetic first choice point
/// selects between (crossed with [`CODEC_V2_WORKLOADS`]). The last is the
/// one a sender's shadows must not be reset for: the lost frame is sent
/// again after the flap, and still has to decode.
const LINK_FAULTS: [LinkFault; 5] = [
    LinkFault { frame: Some(FrameFault::Drop), flap: None },
    LinkFault { frame: Some(FrameFault::Dup), flap: None },
    LinkFault { frame: None, flap: Some(0) },
    LinkFault { frame: None, flap: Some(1) },
    LinkFault { frame: Some(FrameFault::Drop), flap: Some(0) },
];

/// Ticks BSYNC's workload runs for under the ARQ: twice its usual three, so
/// that a flap halfway leaves the offers time to cross again.
const ARQ_BSYNC_TICKS: u8 = 6;

/// What goes wrong in one schedule of the codec-v2-arq scenario, on node
/// [`FAULTED`]'s side. The default: nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LinkFault {
    /// The fate of its first fused `Data2` to [`FAULT_PEER`].
    frame: Option<FrameFault>,
    /// This many ticks past the workload's midpoint the transport reports
    /// every link down and up again: both negotiations start over, through
    /// `SdsoRuntime::drain_departures`, and must come back to fused frames.
    flap: Option<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFault {
    /// Lost in flight: the retransmission must decode exactly once, against
    /// the shadow it was built on.
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
    /// group while down) and rejoins from its WAL with pre-crash state.
    CrashChurn,
    /// The wire format negotiated per link: BSYNC's workload, then
    /// MSYNC2's, with codec v2 offered by every node.
    CodecV2,
    /// One of [`Protocol::CodecV2`]'s workloads with the ARQ on, under one
    /// link fault: a fused frame dropped or duplicated, a reconnect flap.
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
    /// ticks, or workloads × link faults. One where it has none.
    pub fn variants(self) -> usize {
        match self {
            Protocol::Churn | Protocol::ChurnEc => CHURN_TRIGGERS.len(),
            Protocol::CrashChurn => CRASH_TRIGGERS.len(),
            Protocol::CodecV2Arq => CODEC_V2_WORKLOADS.len() * LINK_FAULTS.len(),
            Protocol::Bsync
            | Protocol::Msync
            | Protocol::Msync2
            | Protocol::Ec
            | Protocol::CodecV2 => 1,
        }
    }

    /// Ticks the lookahead scenarios run for (the last tick is chosen so
    /// every pair's s-function is due, forcing full convergence).
    fn ticks(self) -> u8 {
        match self {
            Protocol::Bsync => 3,
            Protocol::Msync => 8,
            Protocol::Msync2 => 12,
            Protocol::Ec
            | Protocol::Churn
            | Protocol::ChurnEc
            | Protocol::CrashChurn
            | Protocol::CodecV2
            | Protocol::CodecV2Arq => 0,
        }
    }
}

/// What one node reports back: per-step exchange times, a final snapshot
/// of every replica, its runtime counters, and — where its links flapped —
/// how many rendezvous it had sent as one fused frame by then.
#[derive(Debug, PartialEq, Eq)]
struct NodeSnap {
    times: Vec<LogicalTime>,
    objects: Vec<(u32, Vec<u8>)>,
    metrics: DsoMetrics,
    fused_at_flap: Option<u64>,
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
        Protocol::Churn | Protocol::ChurnEc => run_churn_once(protocol, oracle),
        Protocol::CrashChurn => run_crash_churn_once(oracle),
        // One cluster after the other under the one oracle: the branching
        // depth spans the end of the first workload and the start of the
        // second, where the offers cross.
        Protocol::CodecV2 => CODEC_V2_WORKLOADS
            .into_iter()
            .try_for_each(|workload| run_static_once(workload, Wire::V2, &oracle)),
        // One workload under one fault, the pair picked by the synthetic first
        // choice point: the branching depth then starts where that workload
        // does, whichever it is.
        Protocol::CodecV2Arq => {
            let case = oracle.choose(0, &synthetic(protocol.variants()));
            let fault = LINK_FAULTS[case % LINK_FAULTS.len()];
            let workload = CODEC_V2_WORKLOADS[case / LINK_FAULTS.len()];
            run_static_once(workload, Wire::V2Arq(fault), &oracle)
        }
        Protocol::Bsync | Protocol::Msync | Protocol::Msync2 | Protocol::Ec => {
            run_static_once(protocol, Wire::V1, &oracle)
        }
    }
}

/// The candidates of a synthetic choice point with `arity` ways to go: the
/// explorer branches over them exactly like over a delivery race.
fn synthetic(arity: usize) -> Vec<Candidate> {
    (0..arity).map(|i| Candidate { from: i as NodeId, seq: i as u64, deliver_at: 0 }).collect()
}

/// What a static-group workload's links speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    /// The paper's frames.
    V1,
    /// Codec v2 offered by every node.
    V2,
    /// Codec v2 over the ARQ, with one link fault for it to repair.
    V2Arq(LinkFault),
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

    fn fault(self) -> LinkFault {
        match self {
            Wire::V2Arq(fault) => fault,
            Wire::V1 | Wire::V2 => LinkFault::default(),
        }
    }

    /// Ticks `workload` runs for on this wire.
    fn ticks(self, workload: Protocol) -> u8 {
        match (self, workload) {
            (Wire::V2Arq(_), Protocol::Bsync) => ARQ_BSYNC_TICKS,
            _ => workload.ticks(),
        }
    }
}

/// Runs one schedule of a static-group workload on the given wire.
fn run_static_once(
    workload: Protocol,
    wire: Wire,
    oracle: &Arc<ReplayOracle>,
) -> Result<(), String> {
    let cluster = SimCluster::new(NODES, NetworkModel::instant())
        .with_oracle(Arc::clone(oracle) as Arc<dyn DeliveryOracle>);
    let outcome = match workload {
        Protocol::Ec => cluster.run(ec_node),
        _ => cluster.run(move |ep| lookahead_node(ep, workload, wire)),
    }
    .map_err(|e| format!("cluster failed to run: {e}"))?;
    let mut snaps = Vec::with_capacity(NODES);
    for (id, node) in outcome.nodes.into_iter().enumerate() {
        snaps.push(node.result.map_err(|e| format!("{} node {id}: {e}", workload.name()))?);
    }
    // A run that never left v1 explores nothing a v2 scenario is for.
    let fused = |snap: &NodeSnap| snap.metrics.rendezvous_fused;
    if let Some(id) = snaps.iter().position(|snap| wire != Wire::V1 && fused(snap) == 0) {
        return Err(format!("{} node {id} never sent a fused frame", workload.name()));
    }
    // Nor does a fault that never bit: the lost frame was sent again, the
    // doubled one dropped once, the flapped links are back to fused frames.
    let (faulted, peer) = (&snaps[usize::from(FAULTED)], &snaps[usize::from(FAULT_PEER)]);
    let fault = wire.fault();
    let unrepaired = match fault.frame {
        Some(FrameFault::Drop) => faulted.metrics.retransmits == 0,
        Some(FrameFault::Dup) => peer.metrics.duplicates_dropped == 0,
        None => false,
    };
    let still_v1 = faulted.fused_at_flap.is_none_or(|then| fused(faulted) <= then);
    if unrepaired || (fault.flap.is_some() && still_v1) {
        return Err(format!(
            "{} under {fault:?}: the fault left no trace in the counters (node {FAULTED}: {:?}, \
             fused at the flap: {:?}; node {FAULT_PEER}: {:?})",
            workload.name(),
            faulted.metrics,
            faulted.fused_at_flap,
            peer.metrics
        ));
    }
    check_invariants(workload, wire.ticks(workload), &snaps)
}

/// Runs one schedule of a churn scenario. The first choice point is
/// synthetic: it picks the view-change trigger tick out of
/// [`CHURN_TRIGGERS`], so the explorer branches over join/leave timings
/// exactly like it branches over delivery races.
///
/// # Errors
///
/// Returns a description of the first violated invariant; a node stuck in
/// the view-change barrier shows up as a scheduler deadlock here.
fn run_churn_once(protocol: Protocol, oracle: Arc<ReplayOracle>) -> Result<(), String> {
    let trigger = CHURN_TRIGGERS[oracle.choose(0, &synthetic(CHURN_TRIGGERS.len()))];
    let cluster = SimCluster::new(CHURN_CAPACITY, NetworkModel::instant())
        .with_oracle(oracle as Arc<dyn DeliveryOracle>);
    let outcome = match protocol {
        Protocol::ChurnEc => cluster.run(move |ep| churn_ec_node(ep, trigger)),
        _ => cluster.run(move |ep| churn_lookahead_node(ep, trigger)),
    }
    .map_err(|e| format!("cluster failed to run: {e}"))?;
    let mut snaps = Vec::with_capacity(CHURN_CAPACITY);
    for (id, node) in outcome.nodes.into_iter().enumerate() {
        snaps.push(node.result.map_err(|e| format!("churn trigger {trigger}, node {id}: {e}"))?);
    }
    check_churn_invariants(protocol, trigger, &snaps)
}

/// One leave plus one join at the same barrier, `trigger` ticks in.
fn churn_plan(trigger: u64) -> MembershipPlan {
    MembershipPlan::new(CHURN_CAPACITY, [0, 1, 2])
        .with_change(trigger, ViewChange::new([CHURN_JOINER], [CHURN_LEAVER]))
}

/// Runs one schedule of the crash-churn scenario: node 3 joins at tick 2
/// (churn), node 1 fail-stops at the oracle-chosen crash tick and rejoins
/// [`CRASH_RESTART_GAP`] ticks later from its WAL. While down, the dead
/// host is effectively partitioned from the group: survivor traffic
/// towards it queues on its enduring endpoint as crash-era residue, which
/// the restarted incarnation must drop (stale epochs, stale acks) rather
/// than deliver — the composition the residue drain exists for.
///
/// # Errors
///
/// Returns a description of the first violated invariant; a restart stuck
/// awaiting its snapshot shows up as a scheduler deadlock here.
fn run_crash_churn_once(oracle: Arc<ReplayOracle>) -> Result<(), String> {
    let crash = CRASH_TRIGGERS[oracle.choose(0, &synthetic(CRASH_TRIGGERS.len()))];
    let cluster = SimCluster::new(CHURN_CAPACITY, NetworkModel::instant())
        .with_oracle(oracle as Arc<dyn DeliveryOracle>);
    let outcome = cluster
        .run(move |ep| crash_churn_node(ep, crash))
        .map_err(|e| format!("cluster failed to run: {e}"))?;
    let mut snaps = Vec::with_capacity(CHURN_CAPACITY);
    for (id, node) in outcome.nodes.into_iter().enumerate() {
        snaps.push(node.result.map_err(|e| format!("crash at tick {crash}, node {id}: {e}"))?);
    }
    check_crash_churn_invariants(crash, &snaps)
}

/// The crash-churn membership plan: a planned join at tick 2, then the
/// crasher's leave at `crash` and its rejoin at `crash + gap`.
fn crash_churn_plan(crash: u64) -> MembershipPlan {
    MembershipPlan::new(CHURN_CAPACITY, [0, 1, 2])
        .with_change(2, ViewChange::join([CHURN_JOINER]))
        .with_change(crash, ViewChange::leave([CRASHER]))
        .with_change(crash + CRASH_RESTART_GAP, ViewChange::join([CRASHER]))
}

/// Crash-churn node: every live member writes the tick into its own
/// object each tick; the crasher additionally WAL-logs its state so the
/// post-crash incarnation proves it rejoined with pre-crash identity.
fn crash_churn_node(ep: SimEndpoint, crash: u64) -> Result<NodeSnap, NetError> {
    let me = ep.node_id();
    let plan = crash_churn_plan(crash);
    let restart = crash + CRASH_RESTART_GAP;
    let build = |ep: SimEndpoint| -> Result<SdsoRuntime<SimEndpoint>, NetError> {
        let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
        for id in 0..CHURN_CAPACITY as u32 {
            rt.share(ObjectId(id), vec![0u8; 4]).map_err(NetError::from)?;
        }
        Ok(rt)
    };
    let mut rt = build(ep)?;
    let mut store = DurStore::in_memory();
    let start = churn_enter(&mut rt, &plan, me)?;
    let mut la = Lookahead::new(rt, EveryTick).map_err(NetError::from)?;
    let mut times = Vec::new();
    let mut tick = start;
    loop {
        while tick <= CRASH_TICKS {
            la.runtime_mut()
                .write(ObjectId(u32::from(me)), 0, &[tick as u8])
                .map_err(NetError::from)?;
            let change = plan.change_at(tick);
            let report = if change.is_some() {
                la.step_barrier().map_err(NetError::from)?
            } else {
                la.step().map_err(NetError::from)?
            };
            times.push(report.time);
            if me == CRASHER {
                let (time, lamport) =
                    (la.runtime().logical_now().as_ticks(), la.runtime().lamport());
                let epoch = la.runtime().membership().epoch().0;
                store
                    .append(&DurRecord::Ident { node: me, epoch })
                    .and_then(|()| store.append(&DurRecord::Tick { time, lamport }))
                    .and_then(|()| {
                        store.append(&DurRecord::App { tag: 0, bytes: vec![tick as u8] })
                    })
                    .map_err(|e| {
                        NetError::from(DsoError::ProtocolViolation(format!("WAL append: {e}")))
                    })?;
                if tick == crash {
                    break;
                }
            }
            if let Some(change) = change {
                la.apply_view_change(change).map_err(NetError::from)?;
                if la.runtime().membership().donor_for(change) == Some(me) {
                    for &joiner in &change.joined {
                        la.runtime_mut().send_snapshot(joiner).map_err(NetError::from)?;
                    }
                }
            }
            tick += 1;
        }
        if me != CRASHER || tick > CRASH_TICKS {
            break;
        }
        // Fail-stop: volatile state vanishes; the WAL bytes and the host's
        // endpoint survive. While down, the group sees a leave.
        let endpoint = la.into_runtime().into_endpoint();
        let (wal, snap) = store.into_bytes();
        let (recovered_store, image) = DurStore::from_bytes(wal, snap)
            .map_err(|e| NetError::from(DsoError::ProtocolViolation(format!("recovery: {e}"))))?;
        store = recovered_store;
        let violation = |what: String| NetError::from(DsoError::ProtocolViolation(what));
        if image.ident().map(|(node, _)| node) != Some(me) {
            return Err(violation("recovered identity does not match the crasher".into()));
        }
        let state = image
            .app_state(0)
            .ok_or_else(|| violation("recovered WAL holds no app state".into()))?;
        if state != [crash as u8] {
            return Err(violation(format!(
                "recovered state {state:?} is not the crash-tick write {crash}"
            )));
        }
        let (time, lamport) = image.frontier();
        let mut rt = build(endpoint)?;
        rt.restore_frontier(LogicalTime::from_ticks(time), lamport);
        let change = plan.change_at(restart).expect("restart tick carries the rejoin");
        let view = plan.view_at(restart);
        let donor = view.donor_for(change).expect("a survivor donates the snapshot");
        rt.set_membership(view);
        rt.drain_crash_residue().map_err(NetError::from)?;
        rt.await_snapshot(donor).map_err(NetError::from)?;
        la = Lookahead::new(rt, EveryTick).map_err(NetError::from)?;
        tick = restart + 1;
    }
    let mut rt = la.into_runtime();
    rt.exchange(true, SendMode::Broadcast, &mut Never).map_err(NetError::from)?;
    rt.settle().map_err(NetError::from)?;
    snapshot(&rt, times)
}

fn check_crash_churn_invariants(crash: u64, snaps: &[NodeSnap]) -> Result<(), String> {
    for (id, snap) in snaps.iter().enumerate() {
        // Monotone across the crash too: the restored frontier forbids the
        // restarted incarnation from reusing pre-crash timestamps.
        for w in snap.times.windows(2) {
            if w[1] <= w[0] {
                return Err(format!(
                    "logical clock not strictly monotone on node {id} across a crash at \
                     {crash}: {} then {}",
                    w[0], w[1]
                ));
            }
        }
    }
    // Every node is a final-view member here — the crasher came back.
    for (id, snap) in snaps.iter().enumerate().skip(1) {
        if snap.objects != snaps[0].objects {
            return Err(format!(
                "replica divergence after crash at tick {crash}: node 0 holds {:?}, \
                 node {id} holds {:?}",
                snaps[0].objects, snap.objects
            ));
        }
    }
    // Every object ends at its writer's last live tick: survivors and the
    // joiner write through the final tick, and the recovered crasher's
    // resumed writes overwrite its pre-crash value.
    for (obj, bytes) in &snaps[0].objects {
        let expected = CRASH_TICKS as u8;
        if bytes[0] != expected {
            return Err(format!(
                "object {obj} holds {} after crash at tick {crash}, expected {expected}: \
                 a write was lost across the crash/recovery cycle",
                bytes[0]
            ));
        }
    }
    Ok(())
}

/// Brings a churn node into the group: initial members install the
/// initial view, the joiner installs its join-epoch view and blocks for
/// the donor's snapshot. Returns the node's first tick.
fn churn_enter<E: Endpoint>(
    rt: &mut SdsoRuntime<E>,
    plan: &MembershipPlan,
    me: NodeId,
) -> Result<u64, NetError> {
    if plan.is_initial(me) {
        rt.set_membership(plan.view_at(0));
        return Ok(1);
    }
    let join = plan.join_tick_of(me).expect("non-initial churn node joins");
    let change = plan.change_at(join).expect("join tick carries its change");
    let view = plan.view_at(join);
    let donor = view.donor_for(change).expect("a continuing member remains");
    rt.set_membership(view);
    rt.await_snapshot(donor).map_err(NetError::from)?;
    Ok(join + 1)
}

/// BSYNC-style churn: every member writes the tick into its own object
/// each tick; the leaver's last write is a tombstone. At the trigger the
/// old view runs the barrier exchange, the leaver settles out, continuers
/// apply the change and the donor pushes the joiner its snapshot.
fn churn_lookahead_node(ep: SimEndpoint, trigger: u64) -> Result<NodeSnap, NetError> {
    let me = ep.node_id();
    let plan = churn_plan(trigger);
    let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
    for id in 0..CHURN_CAPACITY as u32 {
        rt.share(ObjectId(id), vec![0u8; 4]).map_err(NetError::from)?;
    }
    let start = churn_enter(&mut rt, &plan, me)?;
    let mut la = Lookahead::new(rt, EveryTick).map_err(NetError::from)?;
    let leave = plan.leave_tick_of(me);
    let mut times = Vec::new();
    for tick in start..=CHURN_TICKS {
        let value = if leave == Some(tick) { CHURN_TOMBSTONE } else { tick as u8 };
        la.runtime_mut().write(ObjectId(u32::from(me)), 0, &[value]).map_err(NetError::from)?;
        let Some(change) = plan.change_at(tick) else {
            times.push(la.step().map_err(NetError::from)?.time);
            continue;
        };
        times.push(la.step_barrier().map_err(NetError::from)?.time);
        if leave == Some(tick) {
            let mut rt = la.into_runtime();
            rt.settle().map_err(NetError::from)?;
            return snapshot(&rt, times);
        }
        la.apply_view_change(change).map_err(NetError::from)?;
        if la.runtime().membership().donor_for(change) == Some(me) {
            for &joiner in &change.joined {
                la.runtime_mut().send_snapshot(joiner).map_err(NetError::from)?;
            }
        }
    }
    let mut rt = la.into_runtime();
    rt.exchange(true, SendMode::Broadcast, &mut Never).map_err(NetError::from)?;
    rt.settle().map_err(NetError::from)?;
    snapshot(&rt, times)
}

/// EC churn: two lock-protected counters, every member increments both
/// each round. The managers straddle the view change (the leaver manages
/// one counter in the old view), so lock state genuinely migrates.
fn churn_ec_node(ep: SimEndpoint, trigger: u64) -> Result<NodeSnap, NetError> {
    let me = ep.node_id();
    let plan = churn_plan(trigger);
    let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
    let lockset = [ObjectId(0), ObjectId(1)];
    for &obj in &lockset {
        rt.share(obj, vec![0u8; 1]).map_err(NetError::from)?;
    }
    let start = churn_enter(&mut rt, &plan, me)?;
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
        if ec.runtime().membership().donor_for(change) == Some(me) {
            for &joiner in &change.joined {
                ec.runtime_mut().send_snapshot(joiner).map_err(NetError::from)?;
            }
        }
    }
    ec.finish().map_err(NetError::from)?;
    ec.final_sync().map_err(NetError::from)?;
    ec.runtime_mut().settle().map_err(NetError::from)?;
    snapshot(ec.runtime(), Vec::new())
}

fn check_churn_invariants(
    protocol: Protocol,
    trigger: u64,
    snaps: &[NodeSnap],
) -> Result<(), String> {
    for (id, snap) in snaps.iter().enumerate() {
        for w in snap.times.windows(2) {
            if w[1] <= w[0] {
                return Err(format!(
                    "logical clock not strictly monotone on node {id}: {} then {}",
                    w[0], w[1]
                ));
            }
        }
    }
    // Every final-view member (all but the leaver) converges.
    let survivors: Vec<usize> =
        (0..CHURN_CAPACITY).filter(|&id| id != usize::from(CHURN_LEAVER)).collect();
    for &id in &survivors[1..] {
        if snaps[id].objects != snaps[survivors[0]].objects {
            return Err(format!(
                "replica divergence after churn at tick {trigger}: node {} holds {:?}, \
                 node {id} holds {:?}",
                survivors[0], snaps[survivors[0]].objects, snaps[id].objects
            ));
        }
    }
    let converged = &snaps[survivors[0]].objects;
    match protocol {
        Protocol::ChurnEc => {
            // Per counter: nodes 0 and 2 increment every round, the leaver
            // up to the trigger, the joiner after it — 3 * CHURN_TICKS in
            // total regardless of the trigger tick.
            let expected = (3 * CHURN_TICKS) as u8;
            for (obj, bytes) in converged {
                if bytes[0] != expected {
                    return Err(format!(
                        "EC counter {obj} is {} after churn at tick {trigger}, expected \
                         {expected}: a lock grant or increment was lost across the view change",
                        bytes[0]
                    ));
                }
            }
        }
        Protocol::Churn => {
            for (obj, bytes) in converged {
                let expected = if *obj == u32::from(CHURN_LEAVER) {
                    CHURN_TOMBSTONE // the leaver's final write survives
                } else {
                    CHURN_TICKS as u8 // last write of a full participant
                };
                if bytes[0] != expected {
                    return Err(format!(
                        "object {obj} holds {} after churn at tick {trigger}, expected \
                         {expected}: an update was dropped across the epoch turn",
                        bytes[0]
                    ));
                }
            }
        }
        _ => unreachable!("static protocols use check_invariants"),
    }
    Ok(())
}

/// BSYNC / MSYNC / MSYNC2: every node owns one object and writes the tick
/// number into it before each exchange. Every tick starts by draining the
/// transport's link events, as a deployment's driver does; only
/// [`LinkFault::flap`] ever queues any.
fn lookahead_node(ep: SimEndpoint, protocol: Protocol, wire: Wire) -> Result<NodeSnap, NetError> {
    let me = ep.node_id();
    let fault = if me == FAULTED { wire.fault() } else { LinkFault::default() };
    let transport = Faulted { inner: ep, fault: fault.frame, events: Vec::new() };
    let mut rt = SdsoRuntime::new(transport, wire.config());
    for id in 0..NODES as u32 {
        rt.share(ObjectId(id), vec![0u8; 4]).map_err(NetError::from)?;
    }
    let sfunc = move |peer: NodeId, now: LogicalTime, _store: &ObjectStore| {
        let gap = match protocol {
            Protocol::Bsync => 1,
            Protocol::Msync => 2,
            Protocol::Msync2 => {
                if me.abs_diff(peer) == 1 {
                    2
                } else {
                    4
                }
            }
            Protocol::Ec
            | Protocol::Churn
            | Protocol::ChurnEc
            | Protocol::CrashChurn
            | Protocol::CodecV2
            | Protocol::CodecV2Arq => {
                unreachable!("EC, churn and crash have dedicated node runners; codec v2 picks one")
            }
        };
        Some(now.plus(gap))
    };
    let mut la = Lookahead::new(rt, sfunc).map_err(NetError::from)?;
    let mut times = Vec::new();
    let mut fused_at_flap = None;
    let ticks = wire.ticks(protocol);
    for tick in 1..=ticks {
        let rt = la.runtime_mut();
        if fault.flap.is_some_and(|late| tick == ticks / 2 + late) {
            rt.endpoint_mut().flap();
            fused_at_flap = Some(rt.metrics().rendezvous_fused);
        }
        if let Some(change) = rt.drain_departures() {
            return Err(NetError::from(DsoError::ProtocolViolation(format!(
                "a flap that cancels out proposed {change:?}"
            ))));
        }
        rt.write(ObjectId(u32::from(me)), 0, &[tick]).map_err(NetError::from)?;
        times.push(la.step().map_err(NetError::from)?.time);
    }
    let mut rt = la.into_runtime();
    rt.settle().map_err(NetError::from)?;
    Ok(NodeSnap { fused_at_flap, ..snapshot(&rt, times)? })
}

/// The transport under every lookahead node: a [`SimEndpoint`] that is
/// transparent but for the [`LinkFault`] node [`FAULTED`] carries in a
/// codec-v2-arq schedule.
#[derive(Debug)]
struct Faulted {
    inner: SimEndpoint,
    /// The frame fault still to inject, if any.
    fault: Option<FrameFault>,
    /// Link events queued for [`Endpoint::take_peer_events`].
    events: Vec<PeerEvent>,
}

impl Faulted {
    /// Every link goes down and comes back, as a reconnecting transport
    /// reports it.
    fn flap(&mut self) {
        let me = self.node_id();
        for peer in (0..self.num_nodes() as NodeId).filter(|&peer| peer != me) {
            self.events.extend([PeerEvent::Down(peer), PeerEvent::Up(peer)]);
        }
    }
}

/// Whether `payload` is a sequenced `Data2` frame that carries its SYNC.
fn is_fused(payload: &Payload) -> bool {
    let Ok(DsoMessage::Env { inner, .. }) = sdso_net::wire::decode(&payload.bytes) else {
        return false;
    };
    matches!(*inner, DsoMessage::Data2 { sync: true, .. })
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
    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        std::mem::take(&mut self.events)
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

fn snapshot<E: Endpoint>(
    rt: &SdsoRuntime<E>,
    times: Vec<LogicalTime>,
) -> Result<NodeSnap, NetError> {
    let mut objects = Vec::new();
    for id in rt.object_ids() {
        objects.push((id.0, rt.read(id).map_err(NetError::from)?.to_vec()));
    }
    Ok(NodeSnap { times, objects, metrics: rt.metrics(), fused_at_flap: None })
}

fn check_invariants(protocol: Protocol, last_write: u8, snaps: &[NodeSnap]) -> Result<(), String> {
    for (id, snap) in snaps.iter().enumerate() {
        for w in snap.times.windows(2) {
            if w[1] <= w[0] {
                return Err(format!(
                    "logical clock not strictly monotone on node {id}: {} then {}",
                    w[0], w[1]
                ));
            }
        }
    }
    for (id, snap) in snaps.iter().enumerate().skip(1) {
        if snap.objects != snaps[0].objects {
            return Err(format!(
                "replica divergence: node 0 holds {:?}, node {id} holds {:?}",
                snaps[0].objects, snap.objects
            ));
        }
    }
    match protocol {
        Protocol::Ec => {
            // Each round, every counter appears in exactly two of the three
            // staggered locksets, so it gains exactly two increments.
            let expected = 2 * EC_ITERS;
            for (obj, bytes) in &snaps[0].objects {
                if bytes[0] != expected {
                    return Err(format!(
                        "EC counter {obj} is {}, expected {expected} (2 increments x \
                         {EC_ITERS} rounds): an update was lost or applied twice",
                        bytes[0]
                    ));
                }
            }
        }
        _ => {
            for (obj, bytes) in &snaps[0].objects {
                if bytes[0] != last_write {
                    return Err(format!(
                        "object {obj} holds {} but its writer's last write was {last_write}: \
                         an update was dropped or applied out of order",
                        bytes[0]
                    ));
                }
            }
        }
    }
    Ok(())
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
            run_static_once(workload, Wire::V2, &oracle).unwrap();
            oracle.trace().len()
        };
        let (first, second) = (of(Protocol::Bsync), of(Protocol::Msync2));
        assert!(first < 12 && second > 0, "{first} then {second} choice points");
    }

    #[test]
    fn every_link_fault_is_injected_and_repaired() {
        // Each preset [i] resolves the synthetic first choice point to one
        // workload under one fault; `run_static_once` fails a fault that left
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

    #[test]
    fn protocol_names_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::from_name(p.name()), Some(p));
        }
        assert_eq!(Protocol::from_name("nope"), None);
    }
}
