use crate::membership::{Epoch, MembershipPlan, MembershipView, ViewChange};
use bytes::Bytes;
use sdso_net::wire::Wire;
use sdso_net::{Endpoint, MsgClass, NodeId, SimSpan};
use sdso_obs::{EventKind, Obs};

use crate::clock::{LogicalClock, LogicalTime};
use crate::config::DsoConfig;
use crate::diff::Diff;
use crate::error::DsoError;
use crate::exchange_list::ExchangeList;
use crate::metrics::{DsoCounters, DsoMetrics};
use crate::object::{ObjectId, Version};
use crate::router::DiffRouter;
use crate::session::{AppMessage, Reset, Session};
use crate::sfunction::SFunction;
use crate::slotted_buffer::SlottedBuffer;
use crate::store::ObjectStore;
use crate::wire::{DsoMessage, WireUpdate};

/// How `exchange` chooses its recipients (the paper's `send_t how`
/// argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Exchange with the subset of peers the exchange list says are due —
    /// normal operation.
    Multicast,
    /// Force an immediate flush to every remote process, overriding the
    /// exchange list.
    Broadcast,
}

/// What one `exchange` call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeReport<'a> {
    /// The logical time of this exchange (post-tick).
    pub time: LogicalTime,
    /// The peers exchanged with, in id order: the runtime's own list, which
    /// the next exchange refills.
    pub peers: &'a [NodeId],
    /// Updates shipped to those peers (after merging).
    pub updates_sent: usize,
    /// Remote updates applied locally during the rendezvous.
    pub updates_applied: usize,
}

/// The S-DSO runtime: one per process.
///
/// Owns the process's object replicas, logical clock, exchange list and
/// slotted buffer — everything Fig. 4 names — and implements the paper's
/// library interface — `share`, `sync_get` and, centrally,
/// [`SdsoRuntime::exchange`] (Fig. 4).
///
/// The runtime is transport-generic: `E` may be the in-process transport,
/// the reactor mesh, or the virtual-time simulator endpoint. The endpoint
/// lives one layer down, in the session, which hands this kernel
/// exactly-once, in-order logical messages whatever the transport does.
#[derive(Debug)]
pub struct SdsoRuntime<E: Endpoint> {
    /// The reliable, possibly compressed channel to every peer (and the
    /// transport endpoint under it).
    session: Session<E>,
    config: DsoConfig,
    store: ObjectStore,
    clock: LogicalClock,
    exchange_list: ExchangeList,
    buffer: SlottedBuffer,
    /// Local modifications since the last `exchange`, one per object in
    /// ascending object order, each with the Lamport stamp of the newest
    /// write folded in.
    current_mods: Vec<WireUpdate>,
    /// The updates one peer's slot drained into its batch, reused from peer
    /// to peer.
    batch: Vec<WireUpdate>,
    /// Which of `current_mods` that batch ships beside them.
    picks: Vec<usize>,
    /// Diffs of past intervals, kept for their storage: the next write to
    /// an object with no pending modification rewrites one.
    spare: Vec<Diff>,
    /// The peers an exchange meets, kept for its storage from one exchange
    /// to the next.
    due: Vec<NodeId>,
    /// The due peers whose SYNC a rendezvous still awaits.
    outstanding: Vec<NodeId>,
    /// Lamport clock for version stamps. Distinct from the logical
    /// (rendezvous-tick) clock: ticks count exchanges and are *not*
    /// comparable across processes, while version stamps must order
    /// causally-related writes of different processes — otherwise a
    /// slow-ticking process's fresh write would lose last-writer-wins
    /// against a fast process's stale one.
    lamport: u64,
    /// The membership view every exchange is computed under. Starts as the
    /// full static group (the paper's fixed cluster); churn-aware drivers
    /// install an explicit initial view and advance it at view-change
    /// barriers.
    view: MembershipView,
    /// Interest router consulted by live multicast exchanges, when one is
    /// installed (see [`crate::DiffRouter`]). Broadcast exchanges ignore
    /// it, so barriers and the terminal sync always flush every slot.
    router: Option<Box<dyn DiffRouter>>,
    /// This node's observability bundle (recorder + registry).
    obs: Obs,
    /// Live `dso.*` counters in the bundle's registry.
    counters: DsoCounters,
}

impl<E: Endpoint> SdsoRuntime<E> {
    /// Wraps a transport endpoint into an S-DSO runtime with observability
    /// disabled (counters still work; no events are traced).
    pub fn new(endpoint: E, config: DsoConfig) -> Self {
        SdsoRuntime::with_obs(endpoint, config, Obs::disabled())
    }

    /// Wraps a transport endpoint into an S-DSO runtime recording into
    /// `obs`: the runtime's counters register in the bundle's registry and
    /// its flight recorder is attached to the endpoint, so transport-level
    /// send/recv events land in the same per-node ring as the runtime's
    /// exchange and rendezvous events.
    pub fn with_obs(mut endpoint: E, config: DsoConfig, obs: Obs) -> Self {
        let me = endpoint.node_id();
        let n = endpoint.num_nodes();
        endpoint.attach_recorder(obs.recorder().clone());
        // Reset the delta baseline so net_metrics_delta covers this
        // runtime's lifetime even when the endpoint saw earlier traffic.
        let _ = endpoint.metrics_delta();
        let counters = DsoCounters::in_registry(obs.registry());
        SdsoRuntime {
            session: Session::new(endpoint, config, obs.clone(), counters.clone()),
            config,
            store: ObjectStore::new(),
            clock: LogicalClock::new(),
            exchange_list: ExchangeList::new(),
            buffer: SlottedBuffer::new(n, me, config.merge_diffs),
            current_mods: Vec::new(),
            batch: Vec::new(),
            picks: Vec::new(),
            spare: Vec::new(),
            due: Vec::new(),
            outstanding: Vec::new(),
            lamport: 0,
            view: MembershipView::full(n),
            router: None,
            obs,
            counters,
        }
    }

    /// This process's node id.
    pub fn node_id(&self) -> NodeId {
        self.session.endpoint.node_id()
    }

    /// Cluster size.
    pub fn num_nodes(&self) -> usize {
        self.session.endpoint.num_nodes()
    }

    /// The logical clock's current time.
    pub fn logical_now(&self) -> LogicalTime {
        self.clock.now()
    }

    /// The Lamport clock's current value (the write-stamp frontier).
    pub fn lamport(&self) -> u64 {
        self.lamport
    }

    /// The transport clock (virtual or wall time).
    pub fn now(&self) -> sdso_net::SimInstant {
        self.session.endpoint.now()
    }

    /// Models `dt` of local computation (no-op on real transports).
    pub fn advance(&mut self, dt: SimSpan) {
        self.session.endpoint.advance(dt);
    }

    /// Runtime-level counters (a by-value view over the live `dso.*`
    /// registry counters).
    pub fn metrics(&self) -> DsoMetrics {
        self.counters.view()
    }

    /// Transport-level counters, cumulative for the endpoint's lifetime.
    pub fn net_metrics(&self) -> sdso_net::NetMetricsSnapshot {
        self.session.endpoint.metrics()
    }

    /// Transport-level counters since the previous delta read (correct for
    /// per-run accounting over a reused transport).
    pub fn net_metrics_delta(&mut self) -> sdso_net::NetMetricsSnapshot {
        self.session.endpoint.metrics_delta()
    }

    /// This runtime's observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Direct access to the transport (for protocol layers that manage
    /// their own timing instrumentation).
    pub fn endpoint_mut(&mut self) -> &mut E {
        &mut self.session.endpoint
    }

    /// Consumes the runtime, returning the transport. A crash-simulating
    /// driver keeps the endpoint's identity (and its virtual clock) across
    /// a restart while every piece of volatile protocol state — clocks,
    /// buffers, reliability windows — is dropped on the floor, exactly as
    /// a process crash would.
    pub fn into_endpoint(self) -> E {
        self.session.endpoint
    }

    /// Restores the logical-time and Lamport frontiers a restarted process
    /// recovered from stable storage (snapshot + WAL replay), before it
    /// rejoins the group. Both clocks only move forward, so restoring is
    /// idempotent against fresher in-memory state.
    pub fn restore_frontier(&mut self, time: LogicalTime, lamport: u64) {
        self.clock.advance_to(time);
        self.lamport = self.lamport.max(lamport);
    }

    /// The exchange list (for inspection by tests and protocol layers).
    pub fn exchange_list(&self) -> &ExchangeList {
        &self.exchange_list
    }

    /// Installs (or, with `None`, removes) the interest router consulted
    /// by live multicast exchanges. Pending updates the router suppresses
    /// stay buffered (merged) in the destination's slot and flush at the
    /// next broadcast exchange, so convergence is unaffected — only live
    /// traffic shrinks to the interest set.
    pub fn set_diff_router(&mut self, router: Option<Box<dyn DiffRouter>>) {
        self.router = router;
    }

    // ------------------------------------------------------------------
    // Membership (epoch-scoped views, view-change barriers, snapshots)
    // ------------------------------------------------------------------

    /// The membership view exchanges are currently computed under.
    pub fn membership(&self) -> &MembershipView {
        &self.view
    }

    /// The current membership epoch (stamped on all rendezvous traffic).
    pub fn epoch(&self) -> Epoch {
        self.view.epoch()
    }

    /// Brings this process into the group `plan` schedules and returns the
    /// first tick it plays. An initial member installs the plan's initial
    /// view and plays from tick 1. A planned joiner installs the view of
    /// its join epoch and blocks for the donor's snapshot (see
    /// [`SdsoRuntime::push_snapshots`]), then plays from the tick after its
    /// join. A restarted process passes its restart tick as `rejoin` and
    /// takes the joiner's path at that tick, after [`SdsoRuntime::restore_frontier`].
    ///
    /// A restarted process reuses its pre-crash endpoint (a rebooted host
    /// keeps its address), so frames addressed to the dead incarnation —
    /// barrier duplicates, leaver-settling retransmits, acks for sends
    /// that died with it — are still queued when it rejoins. On a fresh
    /// reliability layer their stale sequence numbers would squat in the
    /// out-of-order buffer and shadow live frames at colliding sequence
    /// numbers, so before awaiting the snapshot a rejoin drops every
    /// sequenced frame stamped before the rejoin view's epoch, unacked
    /// (the sender reset that link when it pruned the crashed member), and
    /// every ack (this incarnation has sent nothing an ack could cover).
    /// Fresh traffic that overtook the drain — the snapshot, or early
    /// rendezvous frames from peers already past the rejoin barrier — is
    /// admitted and queued for the next blocking receive.
    ///
    /// # Errors
    ///
    /// [`DsoError::ProtocolViolation`] for a plan whose capacity is not the
    /// transport's node count, a process the plan neither starts with nor
    /// admits at its join (or `rejoin`) tick, a join tick that leaves no
    /// donor, or a snapshot stamped with another epoch; transport errors.
    pub fn enter(&mut self, plan: &MembershipPlan, rejoin: Option<u64>) -> Result<u64, DsoError> {
        let violation = |why: String| DsoError::ProtocolViolation(why);
        let me = self.node_id();
        if plan.capacity() != self.num_nodes() {
            return Err(violation(format!(
                "the plan provisions {} slots for {} nodes",
                plan.capacity(),
                self.num_nodes()
            )));
        }
        let join = match rejoin {
            Some(restart) => restart,
            None if plan.is_initial(me) => {
                self.adopt_view(plan.view_at(0));
                return Ok(1);
            }
            None => plan.join_tick_of(me).ok_or_else(|| {
                violation(format!("process {me} is neither an initial member nor a planned joiner"))
            })?,
        };
        let change = plan.change_at(join).ok_or_else(|| {
            violation(format!("tick {join} carries no view change for {me} to join"))
        })?;
        let view = plan.view_at(join);
        if !view.contains(me) {
            return Err(violation(format!("the view change at tick {join} does not admit {me}")));
        }
        let donor = view
            .donor_for(change)
            .ok_or_else(|| violation("view change admits joiners but leaves no donor".into()))?;
        self.adopt_view(view);
        if rejoin.is_some() {
            self.session.drain_residue()?;
        }
        self.await_snapshot(donor)?;
        Ok(join + 1)
    }

    /// Applies one view change at a barrier: prunes departed peers from
    /// every data structure (exchange list, slotted buffer, session links
    /// and the deliveries queued from them, transport), bumps the epoch,
    /// activates slots for joiners and asks the s-function for their first
    /// exchange times, and fires the s-function's membership-delta hook.
    ///
    /// Call this after the barrier exchange of the trigger tick has
    /// completed (every old-view member has flushed and converged) — the
    /// paper's static assumption holds within each epoch, and this method
    /// is the only transition between epochs.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::ProtocolViolation`] if the change is invalid
    /// against the current view, or if the s-function schedules a
    /// non-future first exchange for a joiner.
    pub fn apply_view_change(
        &mut self,
        change: &ViewChange,
        sfunc: &mut dyn SFunction,
    ) -> Result<(), DsoError> {
        let now = self.clock.now();
        // Validate against an unmodified view before touching anything.
        let mut next_view = self.view.clone();
        next_view
            .apply(change)
            .map_err(|e| DsoError::ProtocolViolation(format!("invalid view change: {e}")))?;

        // A continuer may still hold unacknowledged barrier frames for a
        // leaver (every copy lost in flight). Forgetting them below would
        // strand the leaver in its barrier with nobody left to retransmit,
        // so drain each departing link first, while the leaver is still a
        // member and acks flow normally.
        for &leaver in &change.left {
            if leaver != self.node_id() {
                self.session.settle_link(leaver)?;
            }
        }
        for &leaver in &change.left {
            self.exchange_list.remove(leaver);
            if self.buffer.has_peer(leaver) {
                let orphaned = self.buffer.remove_peer(leaver);
                self.counters.slots_compacted.add(orphaned.len() as u64);
            }
            self.session.reset(leaver, Reset::Left);
            self.session.endpoint.remove_peer(leaver);
        }
        self.install_view(next_view);
        for &joiner in &change.joined {
            if joiner == self.node_id() {
                continue;
            }
            self.session.endpoint.add_peer(joiner);
            if !self.buffer.has_peer(joiner) {
                self.buffer.add_peer(joiner);
            }
            if let Some(t) = sfunc.next_exchange(joiner, now, &self.store) {
                if t <= now {
                    return Err(DsoError::ProtocolViolation(
                        "s-function scheduled a non-future exchange for a joiner".into(),
                    ));
                }
                self.exchange_list.schedule(joiner, t);
            }
        }
        let joined: Vec<NodeId> = change.joined.iter().copied().collect();
        let left: Vec<NodeId> = change.left.iter().copied().collect();
        sfunc.on_view_change(&joined, &left);
        if let Some(router) = &mut self.router {
            router.on_view_change(&joined, &left);
        }
        self.counters.view_changes.inc();
        self.obs.record(
            self.now().as_micros(),
            EventKind::ViewChange,
            self.view.epoch().0,
            joined.len() as u32,
            left.len() as u32,
        );
        Ok(())
    }

    /// Pushes one state snapshot to each joiner of `change` if this process
    /// is its donor — the lowest continuing member, whose post-barrier
    /// replicas are what every joiner must converge to — and does nothing
    /// otherwise. Protocols call it last in their view change, after the
    /// new view is installed and the protocol's own state has turned with
    /// it; the joiner is blocked in [`SdsoRuntime::enter`] until it arrives.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn push_snapshots(&mut self, change: &ViewChange) -> Result<(), DsoError> {
        if self.view.donor_for(change) != Some(self.node_id()) {
            return Ok(());
        }
        change.joined.iter().try_for_each(|&joiner| self.send_snapshot(joiner))
    }

    /// Pushes a state snapshot to a late joiner: every object modified
    /// since initialisation as a from-zero diff (the joiner shares the
    /// same initial bodies, so pristine objects need no transfer), plus
    /// this donor's logical-time and Lamport frontiers. O(objects) bytes,
    /// never O(history).
    fn send_snapshot(&mut self, to: NodeId) -> Result<(), DsoError> {
        let updates: Vec<WireUpdate> = self
            .store
            .iter()
            .filter(|(_, replica)| replica.version() != Version::INITIAL)
            .map(|(id, replica)| WireUpdate {
                object: id,
                diff: Diff::single(0, replica.data().to_vec()),
                version: replica.version(),
            })
            .collect();
        let msg = DsoMessage::Snapshot {
            epoch: self.view.epoch(),
            time: self.clock.now(),
            lamport: self.lamport,
            updates,
        };
        let bytes = sdso_net::wire::encode(&msg).len();
        self.counters.snapshots_sent.inc();
        self.counters.snapshot_bytes.add(bytes as u64);
        self.obs.record(
            self.now().as_micros(),
            EventKind::SnapshotSend,
            u32::from(to),
            bytes as u32,
            self.view.epoch().0,
        );
        self.session.send(to, msg)
    }

    /// Blocks until the designated donor's snapshot arrives, then installs
    /// it: object bodies apply under last-writer-wins, the logical clock
    /// jumps to the donor's frontier, and the Lamport clock folds in the
    /// donor's stamp. Rendezvous traffic from other members that overtakes
    /// the snapshot stays queued in the session for the joiner's first
    /// exchanges, app messages for [`SdsoRuntime::recv_app`]; object traffic
    /// is serviced as usual.
    ///
    /// Fails with [`DsoError::ProtocolViolation`] if the snapshot is
    /// stamped with a different epoch than this view's.
    fn await_snapshot(&mut self, donor: NodeId) -> Result<(), DsoError> {
        let serviced = |msg: &DsoMessage| not_app(msg) && msg.rendezvous_time().is_none();
        loop {
            match self.session.recv_patiently(serviced)? {
                (from, DsoMessage::Snapshot { epoch, time, lamport, updates }) if from == donor => {
                    if epoch != self.view.epoch() {
                        return Err(DsoError::ProtocolViolation(format!(
                            "snapshot from {from} stamped {epoch}, joiner is at {}",
                            self.view.epoch()
                        )));
                    }
                    self.apply_updates(&updates)?;
                    self.lamport = self.lamport.max(lamport);
                    self.clock.advance_to(time);
                    self.counters.snapshots_installed.inc();
                    self.obs.record(
                        self.now().as_micros(),
                        EventKind::SnapshotInstall,
                        u32::from(from),
                        updates.len() as u32,
                        epoch.0,
                    );
                    return Ok(());
                }
                (from, other) => self.dispatch(from, other)?,
            }
        }
    }

    /// Makes `view` the view of both layers: the kernel computes exchanges
    /// under it, the session filters sends and residue by it.
    fn install_view(&mut self, view: MembershipView) {
        self.session.set_view(view.clone());
        self.view = view;
    }

    /// Installs the view a process enters under, then deactivates
    /// slotted-buffer slots for non-members and activates slots for
    /// members, so buffered diffs accumulate for exactly the view's remote
    /// peers.
    fn adopt_view(&mut self, view: MembershipView) {
        self.install_view(view);
        let me = self.node_id();
        for peer in 0..self.num_nodes() as NodeId {
            if peer == me {
                continue;
            }
            match (self.view.contains(peer), self.buffer.has_peer(peer)) {
                (false, true) => {
                    let orphaned = self.buffer.remove_peer(peer);
                    self.counters.slots_compacted.add(orphaned.len() as u64);
                }
                (true, false) => self.buffer.add_peer(peer),
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Object registration and local access
    // ------------------------------------------------------------------

    /// Registers a shared object with its initial contents. All processes
    /// must register the same objects with identical contents during program
    /// initialisation (S-DSO declares everything shared once, up front; it
    /// has no `unshare`).
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::AlreadyShared`] on duplicate registration.
    pub fn share(&mut self, id: ObjectId, initial: Vec<u8>) -> Result<(), DsoError> {
        self.store.share(id, initial)
    }

    /// Reads an object's local replica: one store lookup, and — the
    /// paper's premise that every read is local — no clock unless a
    /// recorder is listening.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    #[inline]
    pub fn read(&self, id: ObjectId) -> Result<&[u8], DsoError> {
        let replica = self.store.replica(id)?;
        // `now()` is a clock_gettime on real transports and the scheduler
        // mutex in the simulator: only a recorded read pays for it.
        if self.obs.recorder().enabled() {
            self.obs.record(
                self.now().as_micros(),
                EventKind::ObjectRead,
                id.0,
                replica.version().time.as_ticks() as u32,
                0,
            );
        }
        Ok(replica.data())
    }

    /// The bytes `id` was registered with at [`SdsoRuntime::share`] —
    /// identical at every process — whatever its replica holds now.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    pub fn registered(&self, id: ObjectId) -> Result<&[u8], DsoError> {
        self.store.registered(id)
    }

    /// An object's current version stamp.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] if `id` was never shared.
    pub fn version_of(&self, id: ObjectId) -> Result<Version, DsoError> {
        Ok(self.store.replica(id)?.version())
    }

    /// Every shared object's id, in ascending order.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.store.iter().map(|(id, _)| id).collect()
    }

    /// Writes `bytes` at `offset` into the local replica and records the
    /// change for distribution at the next `exchange`.
    ///
    /// The write is stamped with this process's Lamport clock (advanced by
    /// one), so causally later writes always win last-writer-wins at every
    /// replica regardless of how far the processes' rendezvous-tick clocks
    /// have drifted apart.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] or [`DsoError::OutOfBounds`].
    pub fn write(&mut self, id: ObjectId, offset: u32, bytes: &[u8]) -> Result<(), DsoError> {
        self.lamport += 1;
        let stamp = Version::new(LogicalTime::from_ticks(self.lamport), self.node_id());
        self.store.write(id, offset, bytes, stamp)?;
        let merging = match self.current_mods.binary_search_by_key(&id, |u| u.object) {
            Err(at) => {
                let mut diff = self.spare.pop().unwrap_or_default();
                diff.reset_to(offset, bytes);
                self.current_mods.insert(at, WireUpdate { object: id, diff, version: stamp });
                false
            }
            Ok(at) => {
                let pending = &mut self.current_mods[at];
                pending.diff.merge_run(offset, bytes);
                pending.version = pending.version.max(stamp);
                true
            }
        };
        if self.obs.recorder().enabled() {
            let at = self.now().as_micros();
            if merging {
                self.obs.record(at, EventKind::DiffMerge, id.0, 0, 0);
            }
            self.obs.record(
                at,
                EventKind::ObjectWrite,
                id.0,
                stamp.time.as_ticks() as u32,
                bytes.len() as u32,
            );
        }
        Ok(())
    }

    /// Applies a remote diff if (and only if) `version` is newer than the
    /// replica's current stamp, folding the stamp into this process's
    /// Lamport clock. Returns whether the diff was applied.
    ///
    /// Protocol layers that transport updates themselves (LRC intervals,
    /// causal pushes) must use this — not [`SdsoRuntime::write_local`] —
    /// for *remote* writes, so concurrent writes to one object resolve by
    /// the same last-writer-wins order on every replica.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`], or a codec error if the diff
    /// exceeds the object's bounds.
    pub fn apply_remote(
        &mut self,
        id: ObjectId,
        diff: &Diff,
        version: Version,
    ) -> Result<bool, DsoError> {
        self.lamport = self.lamport.max(version.time.as_ticks());
        self.store.apply_remote(id, diff, version)
    }

    /// Writes `bytes` at `offset` with an explicit version stamp, *without*
    /// recording the change for exchange distribution.
    ///
    /// Pull-based protocols (entry consistency) use this: their updates
    /// propagate via `sync_get` pulls guarded by locks, so feeding the
    /// slotted buffer would both leak memory and double-ship state.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] or [`DsoError::OutOfBounds`].
    pub fn write_local(
        &mut self,
        id: ObjectId,
        offset: u32,
        bytes: &[u8],
        version: Version,
    ) -> Result<(), DsoError> {
        self.store.write(id, offset, bytes, version)
    }

    // ------------------------------------------------------------------
    // The exchange engine (paper Fig. 4)
    // ------------------------------------------------------------------

    /// Seeds the exchange list by asking the s-function for an initial
    /// exchange time for every remote peer in the current membership view
    /// (called once after `share`s). The schedule is seeded from the
    /// logical clock's current time — zero at program initialisation, or a
    /// late joiner's snapshot frontier.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::ProtocolViolation`] if the s-function schedules a
    /// non-future time.
    pub fn init_schedule(&mut self, sfunc: &mut dyn SFunction) -> Result<(), DsoError> {
        let me = self.node_id();
        let now = self.clock.now();
        for peer in self.view.peers_of(me) {
            if let Some(t) = sfunc.next_exchange(peer, now, &self.store) {
                if t <= now {
                    return Err(DsoError::ProtocolViolation(
                        "s-function scheduled a non-future exchange".into(),
                    ));
                }
                self.exchange_list.schedule(peer, t);
            }
        }
        Ok(())
    }

    /// Performs one exchange: advances the logical clock, ships buffered
    /// and current-interval updates to the due peers, blocks until those
    /// peers reciprocate, and re-runs the s-function to reschedule them.
    ///
    /// This is the paper's
    /// `exchange(shared_obj, resync_flag, how, s_func, arg)`. The Rust API
    /// drops the first argument, because the runtime already tracks every
    /// modified object, and `resync_flag`, because every protocol the paper
    /// evaluates waits for its SYNCs. It carries `arg` inside the
    /// s-function closure.
    ///
    /// The wait has no deadline of its own: with reliability on, the
    /// session's [`DsoError::Timeout`] bounds it; with it off, only the
    /// simulator's deadlock detection does.
    ///
    /// # Errors
    ///
    /// Returns transport errors, or [`DsoError::ProtocolViolation`] when a
    /// peer's rendezvous traffic contradicts the symmetric schedule (a
    /// message stamped in the logical past, a rendezvous from a peer that
    /// is not due, or a non-rendezvous message during the wait).
    pub fn exchange(
        &mut self,
        how: SendMode,
        sfunc: &mut dyn SFunction,
    ) -> Result<ExchangeReport<'_>, DsoError> {
        let started = self.now();
        let t = self.clock.tick();

        let mut due = std::mem::take(&mut self.due);
        match how {
            SendMode::Broadcast => {
                let me = self.node_id();
                due.clear();
                due.extend(self.view.members().iter().filter(|&&peer| peer != me));
            }
            SendMode::Multicast => self.exchange_list.due(t, &mut due),
        }
        self.obs.record(
            started.as_micros(),
            EventKind::ExchangeBegin,
            t.as_ticks() as u32,
            due.len() as u32,
            0,
        );

        // An installed interest router filters *live* multicast traffic
        // down to each peer's interest set; broadcast exchanges (epoch
        // barriers, the terminal sync) always flush everything, which is
        // what keeps routing a pure deferral rather than a loss.
        let route_live = matches!(how, SendMode::Multicast) && self.router.is_some();
        if route_live {
            if let Some(router) = &mut self.router {
                router.observe(&self.store, t);
            }
        }

        // Ship (data, SYNC) pairs to every due peer: its slot content plus
        // this interval's modifications (both interest-filtered when a
        // router is active). The slot's updates are moved out of it; a
        // modification is merged into the slot's update for its object, or
        // else shipped by reference — the compressed wire encodes straight
        // from `current_mods`, and only a v1 `Data` message copies it.
        let router = self.router.as_deref().filter(|_| route_live);
        let dedup = self.config.wire.codec_v2;
        let (mut updates_sent, mut suppressed, mut deduped) = (0usize, 0u64, 0u64);
        for &peer in &due {
            let (batch, picks) = (&mut self.batch, &mut self.picks);
            // Empty unless a failed send left it so.
            batch.clear();
            match router {
                Some(router) => {
                    self.buffer.drain_slot_filtered(peer, |o| router.routes(peer, o), batch);
                    suppressed += self.buffer.slot_len(peer) as u64;
                }
                None => batch.extend(self.buffer.drain_slot(peer)),
            }
            if dedup {
                deduped += coalesce_drained(batch);
            }
            picks.clear();
            for (i, u) in self.current_mods.iter().enumerate() {
                if router.is_some_and(|router| !router.routes(peer, u.object)) {
                    suppressed += 1;
                    continue;
                }
                // A slot drains in object order, one update per object
                // once coalesced.
                let pending = match dedup {
                    true => batch.binary_search_by_key(&u.object, |kept| kept.object).ok(),
                    false => None,
                };
                match pending {
                    Some(at) => {
                        let kept = &mut batch[at];
                        kept.diff.merge_in_place(&u.diff);
                        kept.version = kept.version.max(u.version);
                        deduped += 1;
                    }
                    None => picks.push(i),
                }
            }
            updates_sent += batch.len() + picks.len();
            let current = (&self.current_mods[..], &picks[..]);
            self.session.send_rendezvous(peer, t, batch, current)?;
        }
        if suppressed > 0 {
            self.counters.shard_suppressed.add(suppressed);
        }
        if deduped > 0 {
            self.counters.batch_deduped.add(deduped);
        }

        // Buffer this interval's modifications for everyone not exchanged
        // with now — including due peers whose interest excluded an object,
        // so the next broadcast (or an interest-covered later exchange)
        // still delivers it.
        for u in &self.current_mods {
            match router {
                Some(router) => {
                    let recipients: Vec<NodeId> =
                        due.iter().copied().filter(|&p| router.routes(p, u.object)).collect();
                    self.buffer.buffer_for_all(u.object, &u.diff, u.version, &recipients);
                }
                None => self.buffer.buffer_for_all(u.object, &u.diff, u.version, &due),
            }
        }
        self.spare.extend(self.current_mods.drain(..).map(|u| u.diff));

        let updates_applied = if due.is_empty() { 0 } else { self.await_rendezvous(t, &due)? };

        // Re-run the s-function for the peers just exchanged with.
        for &peer in &due {
            self.exchange_list.remove(peer);
            if let Some(next) = sfunc.next_exchange(peer, t, &self.store) {
                if next <= t {
                    return Err(DsoError::ProtocolViolation(
                        "s-function scheduled a non-future exchange".into(),
                    ));
                }
                self.exchange_list.schedule(peer, next);
            }
        }

        self.counters.exchanges.inc();
        self.counters.rendezvous_peers.add(due.len() as u64);
        self.counters.updates_sent.add(updates_sent as u64);
        let ended = self.now();
        let elapsed = ended.saturating_since(started).as_micros();
        self.counters.exchange_time_micros.add(elapsed);
        self.counters.exchange_latency.observe(elapsed);
        self.obs.record(
            ended.as_micros(),
            EventKind::ExchangeEnd,
            t.as_ticks() as u32,
            updates_sent as u32,
            updates_applied as u32,
        );
        self.due = due;
        Ok(ExchangeReport { time: t, peers: &self.due, updates_sent, updates_applied })
    }

    /// Blocks until every due peer's `(data, SYNC)` pair for tick `t` has
    /// arrived, applying updates as they come — first those already queued
    /// in the session. A half stamped after `t` stays queued for its own
    /// exchange (the paper's "buffer data").
    fn await_rendezvous(&mut self, t: LogicalTime, due: &[NodeId]) -> Result<usize, DsoError> {
        let mut applied = 0usize;
        let mut outstanding = std::mem::take(&mut self.outstanding);
        outstanding.clear();
        outstanding.extend_from_slice(due);
        let wait_start = self.now();
        self.obs.record(
            wait_start.as_micros(),
            EventKind::RendezvousWaitBegin,
            t.as_ticks() as u32,
            outstanding.len() as u32,
            0,
        );
        // A past epoch's residue never gets here: the session dropped it.
        let due_now = |msg: &DsoMessage| msg.rendezvous_time().is_none_or(|time| time <= t);
        while !outstanding.is_empty() {
            match self.session.recv(due_now)? {
                (from, DsoMessage::Data { time, updates, .. })
                    if time == t && due.contains(&from) =>
                {
                    applied += self.apply_updates(&updates)?;
                    self.session.recycle(updates);
                }
                (from, DsoMessage::Sync { time, .. })
                    if time == t && outstanding.contains(&from) =>
                {
                    // Rendezvous with `from` complete.
                    outstanding.retain(|&p| p != from);
                }
                (from, DsoMessage::Data { time, .. }) => {
                    return Err(DsoError::ProtocolViolation(format!(
                        "data from {from} stamped {time} during rendezvous at {t}"
                    )));
                }
                (from, DsoMessage::Sync { time, .. }) => {
                    return Err(DsoError::ProtocolViolation(format!(
                        "SYNC from {from} stamped {time} during rendezvous at {t}"
                    )));
                }
                (_, DsoMessage::Snapshot { .. }) => {} // duplicate of an installed snapshot
                (from, other) => {
                    return Err(DsoError::ProtocolViolation(format!(
                        "unexpected {other:?} from {from} during rendezvous at {t}"
                    )));
                }
            }
        }
        let wait_end = self.now();
        let waited = wait_end.saturating_since(wait_start).as_micros();
        self.counters.exchange_wait_micros.add(waited);
        self.counters.wait_latency.observe(waited);
        self.obs.record(
            wait_end.as_micros(),
            EventKind::RendezvousWaitEnd,
            t.as_ticks() as u32,
            0,
            0,
        );
        self.outstanding = outstanding;
        Ok(applied)
    }

    fn apply_updates(&mut self, updates: &[WireUpdate]) -> Result<usize, DsoError> {
        let mut applied = 0usize;
        for u in updates {
            // Lamport receive rule: fold every observed stamp into the
            // local clock so later local writes causally dominate.
            self.lamport = self.lamport.max(u.version.time.as_ticks());
            if self.store.apply_remote(u.object, &u.diff, u.version)? {
                applied += 1;
                self.counters.updates_applied.inc();
            } else {
                self.counters.updates_stale.inc();
            }
        }
        Ok(applied)
    }

    /// Best-effort tail flush of the reliability layer: keeps receiving
    /// (and retransmitting on timeout) until every peer has acknowledged
    /// everything this process sent, then returns `true`. Returns `false`
    /// when the retry budget runs out or all peers have already exited —
    /// whatever was still unacknowledged is then undeliverable.
    ///
    /// Call this at the end of a run so that peers still waiting on lost
    /// traffic can recover; a no-op without a reliability config. Object
    /// traffic that arrives meanwhile is serviced; app and rendezvous
    /// messages stay queued in the session.
    ///
    /// # Errors
    ///
    /// Returns transport errors other than end-of-run conditions.
    pub fn settle(&mut self) -> Result<bool, DsoError> {
        let serviced = |msg: &DsoMessage| not_app(msg) && msg.rendezvous_time().is_none();
        loop {
            if let Some(acked) = self.session.settle_recv()? {
                return Ok(acked);
            }
            while let Some((from, msg)) = self.session.take(serviced) {
                self.dispatch(from, msg)?;
            }
        }
    }

    // ------------------------------------------------------------------
    // Get/app plumbing (used by pull-based protocols such as EC)
    // ------------------------------------------------------------------

    /// Pulls an object's current body from `peer`, blocking until it
    /// arrives and has been applied (`sync_get`) — the call entry
    /// consistency uses "to pull the up-to-date copy of an object from the
    /// owner".
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn sync_get(&mut self, peer: NodeId, id: ObjectId) -> Result<(), DsoError> {
        self.session.send(peer, DsoMessage::GetReq { object: id })?;
        loop {
            let (from, msg) = self.session.recv(not_app)?;
            let reply =
                from == peer && matches!(msg, DsoMessage::GetRep { object, .. } if object == id);
            self.dispatch(from, msg)?;
            if reply {
                return Ok(());
            }
        }
    }

    /// Sends protocol-layer messages, each `(peer, message)` under the
    /// accounting `class`, in order: each run of consecutive messages to
    /// one peer goes out as one transport write. Each message is encoded
    /// once, straight into its frame.
    ///
    /// # Errors
    ///
    /// Returns transport errors; the messages before the failing run have
    /// been sent.
    pub fn send_app<'m, M: Wire + 'm>(
        &mut self,
        class: MsgClass,
        msgs: impl IntoIterator<Item = (NodeId, &'m M)>,
    ) -> Result<(), DsoError> {
        self.session.write(msgs.into_iter().map(|(peer, body)| (peer, AppMessage { class, body })))
    }

    /// Blocks until the next protocol-layer message arrives and decodes it,
    /// servicing object traffic (`GetReq`, `GetRep`) internally along the
    /// way.
    ///
    /// # Errors
    ///
    /// Returns transport errors, a codec error for a message that does not
    /// decode as an `M`, or a protocol violation if rendezvous traffic shows
    /// up (exchange- and pull-based protocols must not be mixed on one
    /// runtime).
    pub fn recv_app<M: Wire>(&mut self) -> Result<(NodeId, M), DsoError> {
        loop {
            match self.session.recv(|_| true)? {
                (from, DsoMessage::App { bytes, .. }) => return decode_app(from, bytes),
                (from, msg) => self.dispatch(from, msg)?,
            }
        }
    }

    /// Non-blocking variant of [`SdsoRuntime::recv_app`]: drains whatever
    /// already arrived.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a protocol violation on rendezvous
    /// traffic.
    pub fn try_recv_app<M: Wire>(&mut self) -> Result<Option<(NodeId, M)>, DsoError> {
        loop {
            match self.session.recv_now(|_| true)? {
                Some((from, DsoMessage::App { bytes, .. })) => {
                    return decode_app(from, bytes).map(Some)
                }
                Some((from, msg)) => self.dispatch(from, msg)?,
                None => return Ok(None),
            }
        }
    }

    /// Services one logical message outside a rendezvous: object traffic
    /// is answered or applied. App messages are [`SdsoRuntime::recv_app`]'s
    /// alone.
    fn dispatch(&mut self, from: NodeId, msg: DsoMessage) -> Result<(), DsoError> {
        match msg {
            DsoMessage::GetReq { object } => {
                let replica = self.store.replica(object)?;
                let rep = DsoMessage::GetRep {
                    object,
                    version: replica.version(),
                    body: replica.data().to_vec(),
                };
                self.session.send(from, rep)?;
            }
            DsoMessage::GetRep { object, version, body } => {
                self.lamport = self.lamport.max(version.time.as_ticks());
                self.store.replace_if_newer(object, &body, version)?;
            }
            DsoMessage::App { .. } => {
                return Err(DsoError::ProtocolViolation(format!(
                    "App from {from} reached dispatch, which only recv_app may take"
                )));
            }
            // A duplicate of a snapshot this process already installed.
            DsoMessage::Snapshot { .. } => {}
            DsoMessage::Data { .. } | DsoMessage::Sync { .. } => {
                return Err(DsoError::ProtocolViolation(format!(
                    "rendezvous message from {from} outside an exchange"
                )));
            }
            // A compressed batch is the session's to resolve into plain
            // `Data` below this layer; one reaching dispatch means a receive
            // path skipped the session.
            other @ DsoMessage::Data2 { .. } => {
                return Err(DsoError::ProtocolViolation(format!(
                    "session-layer message {other:?} from {from} reached dispatch"
                )));
            }
        }
        Ok(())
    }
}

/// Decodes a protocol layer's message from the body of its `App`, then hands
/// the frame's storage, which the body shared, back to this thread's pool.
fn decode_app<M: Wire>(from: NodeId, body: Bytes) -> Result<(NodeId, M), DsoError> {
    let msg = sdso_net::wire::decode(&body).map_err(DsoError::Net);
    sdso_net::pool::thread_pool(|pool| pool.reclaim(body));
    Ok((from, msg?))
}

/// Every message but a protocol layer's own, which waits in the session for
/// [`SdsoRuntime::recv_app`].
fn not_app(msg: &DsoMessage) -> bool {
    !matches!(msg, DsoMessage::App { .. })
}

/// Coalesces the same-object updates a slot drained into `batch` — only
/// consecutive, as a slot holds them in object order — into the first of
/// them: diffs merged in shipping order (later bytes win overlaps, exactly as
/// the receiver would have applied them one by one), the newest version stamp
/// kept. Returns how many updates it folded away. Pure batch shrinkage —
/// receivers see identical final state.
fn coalesce_drained(batch: &mut Vec<WireUpdate>) -> u64 {
    let before = batch.len();
    batch.dedup_by(|later, kept| {
        let same = later.object == kept.object;
        if same {
            kept.diff.merge_in_place(&later.diff);
            kept.version = kept.version.max(later.version);
        }
        same
    });
    (before - batch.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfunction::{EveryTick, Never};
    use crate::wound;
    use sdso_obs::TraceConfig;
    use sdso_sim::{NetworkModel, SimCluster, SimEndpoint};

    /// A runtime sharing objects 1 and 2 (8 zero bytes each) on an
    /// every-tick schedule.
    fn shared<E: Endpoint>(ep: E, config: DsoConfig) -> SdsoRuntime<E> {
        let mut rt = SdsoRuntime::new(ep, config);
        rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
        rt.share(ObjectId(2), vec![0u8; 8]).unwrap();
        rt.init_schedule(&mut EveryTick).unwrap();
        rt
    }

    /// Runs `f` on both nodes of an instant simulator and hands back what
    /// each returned. A node that panics fails the test.
    fn simulate<T, F>(f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(SimEndpoint) -> T + Send + Sync + 'static,
    {
        let run = SimCluster::new(2, NetworkModel::instant()).run(move |ep| Ok(f(ep)));
        run.unwrap().into_results().unwrap()
    }

    #[test]
    fn compressed_exchange_sends_data2_from_the_first_round_and_converges() {
        use crate::config::WireConfig;
        let done = simulate(|ep| {
            let mut rt = shared(ep, DsoConfig::compact().with_wire(WireConfig::compressed()));
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            for round in 0..4u8 {
                rt.write(obj, usize::from(round) as u32, &[me as u8 + 1]).unwrap();
                rt.exchange(SendMode::Multicast, &mut EveryTick).unwrap();
                // No handshake: the first batch is already compressed.
                assert_eq!(rt.metrics().codec_v2_sent, u64::from(round) + 1);
            }
            assert_eq!(rt.metrics().codec_v2_fallbacks, 0);
            rt
        });
        // Bit-identical convergence: same final bytes as an uncompressed
        // pair applying the same writes would produce.
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap(), &[1, 1, 1, 1, 0, 0, 0, 0]);
            assert_eq!(rt.read(ObjectId(2)).unwrap(), &[2, 2, 2, 2, 0, 0, 0, 0]);
        }
    }

    #[test]
    fn a_data2_into_a_v1_node_is_a_protocol_violation_not_a_hang() {
        use crate::config::WireConfig;
        simulate(|ep| {
            // A cluster that mixes wires: node 0 compresses, node 1 runs v1.
            let wire = if ep.node_id() == 0 { WireConfig::compressed() } else { WireConfig::v1() };
            let mut rt = shared(ep, DsoConfig::compact().with_wire(wire));
            let me = rt.node_id();
            rt.write(ObjectId(u32::from(me) + 1), 0, &[me as u8 + 1; 4]).unwrap();
            // Each side sends before it receives: node 0 takes node 1's v1
            // pair, node 1 refuses node 0's `Data2`.
            match rt.exchange(SendMode::Multicast, &mut EveryTick) {
                Ok(_) => assert_eq!(me, 0),
                Err(DsoError::ProtocolViolation(why)) => {
                    assert_eq!(me, 1);
                    assert!(why.contains("Data2"), "{why}");
                }
                Err(e) => panic!("node {me}: {e}"),
            }
        });
    }

    #[test]
    fn a_data2_naming_an_unshared_object_fails_at_apply_and_grows_nothing() {
        use crate::config::WireConfig;
        // Three objects at ids 0..3. Id u32::MAX (a table indexed by id
        // would need 96 GiB) and id 3, one past the last object, decode —
        // the codec holds no per-object state — and the store refuses them.
        for object in [u32::MAX, 3] {
            let mut eps = wound::group(2);
            let config = DsoConfig::compact().with_wire(WireConfig::compressed());
            let mut rt = SdsoRuntime::new(eps.remove(0), config);
            let mut peer = eps.remove(0);
            for id in 0..3 {
                rt.share(ObjectId(id), vec![0u8; 4]).unwrap();
            }
            let update = WireUpdate {
                object: ObjectId(object),
                diff: Diff::single(0, vec![1, 2, 3, 4]),
                version: Version::new(LogicalTime::from_ticks(1), 1),
            };
            let mut scratch = sdso_net::wire::WireWriter::new();
            let blob = crate::codec::encode_updates([update].iter(), &mut scratch).unwrap();
            let time = LogicalTime::from_ticks(1);
            let fused = DsoMessage::Data2 { epoch: Epoch::ZERO, time, blob, sync: true };
            peer.send(0, fused.into_payload(None)).unwrap();
            rt.exchange_list.schedule(1, time);
            let err = rt.exchange(SendMode::Multicast, &mut Never).unwrap_err();
            assert!(matches!(err, DsoError::UnknownObject(ObjectId(id)) if id == object), "{err}");
            assert_eq!(rt.object_ids(), [ObjectId(0), ObjectId(1), ObjectId(2)], "id {object}");
        }
    }

    #[test]
    fn dedup_updates_coalesces_same_object_batches() {
        let v = |t: u64, w: u16| Version::new(LogicalTime::from_ticks(t), w);
        let update = |object: u32, offset: u32, bytes: Vec<u8>, version: Version| WireUpdate {
            object: ObjectId(object),
            diff: Diff::single(offset, bytes),
            version,
        };
        // What a slot drains with merging off: object 1 twice, oldest first.
        let mut batch = vec![
            update(1, 0, vec![1, 1], v(1, 0)),
            update(1, 1, vec![2, 2], v(3, 0)),
            update(2, 4, vec![9], v(2, 0)),
        ];
        assert_eq!(coalesce_drained(&mut batch), 1);
        let objects: Vec<u32> = batch.iter().map(|u| u.object.0).collect();
        assert_eq!(objects, [1, 2], "first occurrences, in shipping order");
        assert_eq!(batch[0].version, v(3, 0), "merged update keeps the newest stamp");
        let mut body = [0u8; 4];
        batch[0].diff.apply(&mut body).unwrap();
        assert_eq!(body, [1, 2, 2, 0], "later bytes win overlaps, as one-by-one application");
        assert_eq!(batch[1].object, ObjectId(2));
    }

    #[test]
    fn an_exchange_merges_a_modification_into_its_objects_buffered_update() {
        use crate::config::WireConfig;
        // Node 0 meets node 1 at t1 while node 2's slot fills, then meets
        // node 2 at t2 with a fresh write to an object already buffered.
        let wire = WireConfig::compressed();
        let mut eps = wound::group(3);
        let mut rt = SdsoRuntime::new(eps.remove(0), DsoConfig::compact().with_wire(wire));
        let (mut one, mut two) = (eps.remove(0), eps.remove(0));
        for id in 1..=2 {
            rt.share(ObjectId(id), vec![0u8; 8]).unwrap();
        }
        let sync = |t: u64| {
            let time = LogicalTime::from_ticks(t);
            DsoMessage::Sync { epoch: Epoch::ZERO, time }.into_payload(None)
        };
        rt.exchange_list.schedule(1, LogicalTime::from_ticks(1));
        rt.write(ObjectId(1), 0, &[1, 1]).unwrap();
        rt.write(ObjectId(2), 0, &[7]).unwrap();
        one.send(0, sync(1)).unwrap();
        rt.exchange(SendMode::Multicast, &mut Never).unwrap();
        assert_eq!(rt.buffer.slot_len(2), 2, "both writes wait for node 2");

        rt.exchange_list.schedule(2, LogicalTime::from_ticks(2));
        rt.write(ObjectId(1), 1, &[2, 2]).unwrap();
        two.send(0, sync(2)).unwrap();
        let report = rt.exchange(SendMode::Multicast, &mut Never).unwrap();
        assert_eq!(report.updates_sent, 2);
        assert_eq!(rt.metrics().batch_deduped, 1, "object 1's write merged into its slot entry");
        let frame = sdso_net::wire::decode::<DsoMessage>(&two.recv().unwrap().payload.bytes);
        let Ok(DsoMessage::Data2 { blob, .. }) = frame else {
            panic!("node 2 gets one compressed frame");
        };
        let mut updates = Vec::new();
        crate::codec::decode_updates(&blob, &mut updates).unwrap();
        let objects: Vec<u32> = updates.iter().map(|u| u.object.0).collect();
        assert_eq!(objects, [1, 2], "one update per object, in object order");
        let mut body = [0u8; 8];
        updates[0].diff.apply(&mut body).unwrap();
        assert_eq!(body[..3], [1, 2, 2], "the later write wins, as applied one by one");
    }

    #[test]
    fn a_rendezvous_half_from_the_logical_future_waits_in_the_session_for_its_exchange() {
        // Reliability on only so that a wait for traffic that never comes
        // times out instead of hanging.
        let retry = crate::config::RetryConfig { rto: SimSpan::from_millis(1), max_retries: 3 };
        let mut eps = wound::group(3);
        let config = DsoConfig::compact().with_reliability(Some(retry));
        let mut rt = SdsoRuntime::new(eps.remove(0), config);
        for id in 1..=2 {
            rt.share(ObjectId(id), vec![0u8; 4]).unwrap();
        }
        let pair = |peer: NodeId, t: u64| {
            let (epoch, time) = (Epoch::ZERO, LogicalTime::from_ticks(t));
            let update = WireUpdate {
                object: ObjectId(u32::from(peer)),
                diff: Diff::single(0, vec![peer as u8; 4]),
                version: Version::new(LogicalTime::from_ticks(1), peer),
            };
            [
                DsoMessage::Data { epoch, time, updates: vec![update] },
                DsoMessage::Sync { epoch, time },
            ]
        };
        // Peer 2's t2 pair overtakes peer 1's t1 pair; each pair is the first
        // two frames on its link.
        for (peer, t) in [(2, 2), (1, 1)] {
            for (seq, inner) in (0..).zip(pair(peer, t)) {
                let env = crate::wire::pooled_frame(inner.class(), None, |w| {
                    sdso_net::wire::Wire::encode(
                        &crate::wire::Frame::Env { seq, ack: 0, inner },
                        w,
                    );
                });
                eps[usize::from(peer) - 1].send(0, env).unwrap();
            }
        }
        rt.exchange_list.schedule(1, LogicalTime::from_ticks(1));
        rt.exchange_list.schedule(2, LogicalTime::from_ticks(2));
        let first = rt.exchange(SendMode::Multicast, &mut Never).unwrap();
        assert_eq!((first.peers, first.updates_applied), (&[1][..], 1));
        assert_eq!(rt.read(ObjectId(2)).unwrap(), [0; 4], "t2's data is not applied at t1");
        let second = rt.exchange(SendMode::Multicast, &mut Never).unwrap();
        assert_eq!((second.peers, second.updates_applied), (&[2][..], 1));
        assert_eq!(rt.read(ObjectId(2)).unwrap(), [2; 4]);
        assert_eq!(rt.session.take(|_| true), None, "nothing is left queued");
    }

    #[test]
    fn an_app_message_met_by_sync_get_waits_for_recv_app() {
        let mut eps = wound::group(2);
        let mut rt = SdsoRuntime::new(eps.remove(0), DsoConfig::compact());
        let mut peer = eps.remove(0);
        rt.share(ObjectId(1), vec![0u8; 4]).unwrap();
        let app = |id| DsoMessage::App {
            class: MsgClass::Control,
            bytes: sdso_net::wire::encode(&ObjectId(id)),
        };
        let version = Version::new(LogicalTime::from_ticks(1), 1);
        let reply = DsoMessage::GetRep { object: ObjectId(1), version, body: vec![9; 4] };
        // The first app message arrives before the reply sync_get waits for;
        // the second, after it, would be what recv_app returns were the first lost.
        for msg in [app(7), reply, app(8)] {
            peer.send(0, msg.into_payload(None)).unwrap();
        }
        rt.sync_get(1, ObjectId(1)).unwrap();
        assert_eq!(rt.read(ObjectId(1)).unwrap(), [9; 4]);
        assert_eq!(rt.recv_app().unwrap(), (1, ObjectId(7)));
        assert_eq!(rt.recv_app().unwrap(), (1, ObjectId(8)));
    }

    /// A restarted process's mailbox holds what its donor sent the previous
    /// incarnation: here a frame under the very sequence number the donor's
    /// fresh link gives the snapshot. `enter` drops that residue before it
    /// awaits the snapshot; the other way round the residue takes the
    /// sequence number and the snapshot is dropped as its duplicate.
    #[test]
    fn a_rejoin_drops_the_residue_before_it_awaits_the_snapshot() {
        use crate::config::RetryConfig;
        let retry = RetryConfig { rto: SimSpan::from_millis(1), max_retries: 8 };
        let config = DsoConfig::compact().with_reliability(Some(retry));
        let rejoin = ViewChange::join([1]);
        let plan = MembershipPlan::new(2, [0, 1])
            .with_change(3, ViewChange::leave([1]))
            .with_change(5, rejoin.clone());
        let mut eps = wound::group(2);
        let mut donor = SdsoRuntime::new(eps.remove(0), config);
        donor.share(ObjectId(1), vec![0; 4]).unwrap();
        assert_eq!(donor.enter(&plan, None).unwrap(), 1);
        // Sequence number 0 to the first incarnation, which crashes unread.
        let time = LogicalTime::from_ticks(2);
        donor.session.send(1, DsoMessage::Sync { epoch: Epoch::ZERO, time }).unwrap();
        donor.session.reset(1, Reset::Left);
        // At the rejoin, sequence number 0 again, on the fresh link.
        donor.write(ObjectId(1), 0, &[9; 4]).unwrap();
        donor.install_view(plan.view_at(5));
        donor.push_snapshots(&rejoin).unwrap();

        let mut restarted = SdsoRuntime::new(eps.remove(0), config);
        restarted.share(ObjectId(1), vec![0; 4]).unwrap();
        assert_eq!(restarted.enter(&plan, Some(5)).unwrap(), 6);
        assert_eq!(restarted.read(ObjectId(1)).unwrap(), [9; 4]);
        let seen = restarted.metrics();
        assert_eq!((seen.snapshots_installed, seen.cross_epoch_dropped), (1, 1));
        assert_eq!(seen.duplicates_dropped, 0);
    }

    #[test]
    fn enter_rejects_a_plan_that_does_not_admit_this_process() {
        let mut eps = wound::group(3);
        let mut rt = SdsoRuntime::new(eps.remove(2), DsoConfig::compact());
        let refused = |r: Result<u64, DsoError>| matches!(r, Err(DsoError::ProtocolViolation(_)));
        assert!(refused(rt.enter(&MembershipPlan::new(4, [0, 1, 2]), None)), "capacity");
        assert!(refused(rt.enter(&MembershipPlan::new(3, [0, 1]), None)), "never admitted");
        let plan = MembershipPlan::new(3, [0, 1, 2]).with_change(4, ViewChange::leave([2]));
        assert!(refused(rt.enter(&plan, Some(4))), "a rejoin at its own leave");
        assert_eq!(rt.enter(&plan, None).unwrap(), 1, "an initial member plays from tick 1");
    }

    #[test]
    fn exchange_propagates_writes_both_ways() {
        let done = simulate(|ep| {
            let mut rt = shared(ep, DsoConfig::compact());
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            rt.write(obj, 0, &[me as u8 + 1; 4]).unwrap();
            let report = rt.exchange(SendMode::Multicast, &mut EveryTick).unwrap();
            assert_eq!(report.time, LogicalTime::from_ticks(1));
            assert_eq!(report.peers.len(), 1);
            rt
        });
        for rt in &done {
            assert_eq!(&rt.read(ObjectId(1)).unwrap()[..4], &[1, 1, 1, 1]);
            assert_eq!(&rt.read(ObjectId(2)).unwrap()[..4], &[2, 2, 2, 2]);
        }
    }

    #[test]
    fn concurrent_writes_to_one_object_converge_lww() {
        let done = simulate(|ep| {
            let mut rt = shared(ep, DsoConfig::compact());
            let me = rt.node_id();
            // Both write the same object in the same interval.
            rt.write(ObjectId(1), 0, &[me as u8 + 10; 8]).unwrap();
            rt.exchange(SendMode::Multicast, &mut EveryTick).unwrap();
            rt
        });
        // Same tick, higher writer id wins everywhere.
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap(), &[11u8; 8]);
        }
    }

    #[test]
    fn repeated_exchanges_tick_the_clock() {
        let done = simulate(|ep| {
            let mut rt = shared(ep, DsoConfig::compact());
            for i in 0..5u8 {
                rt.write(ObjectId(1), 0, &[i]).unwrap();
                rt.exchange(SendMode::Multicast, &mut EveryTick).unwrap();
            }
            rt
        });
        for rt in &done {
            assert_eq!(rt.logical_now(), LogicalTime::from_ticks(5));
            assert_eq!(rt.metrics().exchanges, 5);
        }
    }

    #[test]
    fn sync_get_pulls_remote_state() {
        simulate(|ep| {
            let mut rt = shared(ep, DsoConfig::compact());
            if rt.node_id() == 0 {
                rt.sync_get(1, ObjectId(1)).unwrap(); // pulls (identical) state
                rt.send_app(MsgClass::Control, [(1, &ObjectId(2))]).unwrap();
            } else {
                // Node 1 answers node 0's GetReq inside its pump, then returns.
                let (_, bye): (_, ObjectId) = rt.recv_app().unwrap();
                assert_eq!(bye, ObjectId(2));
            }
        });
    }

    #[test]
    fn stale_version_dropped_on_apply() {
        let mut done = simulate(|ep| {
            let mut rt = shared(ep, DsoConfig::compact());
            // Node 0 (A) writes at tick 1 (clock 0 → stamp 1); node 1 (B)
            // writes the same object at stamp 1 too but with higher id.
            let body = if rt.node_id() == 0 { 5 } else { 7 };
            rt.write(ObjectId(1), 0, &[body; 8]).unwrap();
            rt.exchange(SendMode::Multicast, &mut EveryTick).unwrap();
            rt
        });
        let b = done.pop().unwrap();
        let a = done.pop().unwrap();
        assert_eq!(a.read(ObjectId(1)).unwrap(), &[7; 8]);
        assert_eq!(b.read(ObjectId(1)).unwrap(), &[7; 8]);
        assert_eq!(b.metrics().updates_stale, 1, "A's tied-but-lower write dropped at B");
    }

    #[test]
    fn frame_padding_applies_to_all_runtime_traffic() {
        let eps = wound::group(2);
        let mut runtimes: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let mut rt = SdsoRuntime::new(ep, DsoConfig::paper());
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt
            })
            .collect();
        runtimes[0].send_app(MsgClass::Data, [(1, &ObjectId(1))]).unwrap();
        let sent = runtimes[0].net_metrics();
        assert_eq!(sent.data_sent.bytes, 2048);
    }

    #[test]
    fn broadcast_mode_ignores_schedule() {
        // Without init_schedule, multicast exchanges with nobody; broadcast
        // must still reach the peer.
        let done = simulate(|ep| {
            let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
            rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
            rt.write(ObjectId(1), 0, &[rt.node_id() as u8 + 1]).unwrap();
            let report = rt.exchange(SendMode::Broadcast, &mut EveryTick).unwrap();
            assert_eq!(report.peers.len(), 1);
            rt
        });
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap()[0], 2);
        }
    }

    #[test]
    fn lossy_exchange_recovers_via_resync() {
        use sdso_net::{FaultPlan, FaultyEndpoint};
        let plan = FaultPlan::new(7).with_drop(0.3).with_dup(0.1);
        let retry = crate::RetryConfig { rto: SimSpan::from_millis(5), max_retries: 400 };
        let cfg = DsoConfig::compact().with_reliability(Some(retry));
        let done = simulate(move |ep| {
            let mut rt = SdsoRuntime::new(FaultyEndpoint::new(ep, plan.clone()), cfg);
            rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
            rt.init_schedule(&mut EveryTick).unwrap();
            for i in 0..10u8 {
                rt.write(ObjectId(1), 0, &[(rt.node_id() as u8 + 1) * 10 + i]).unwrap();
                rt.exchange(SendMode::Multicast, &mut EveryTick).unwrap();
            }
            rt.settle().unwrap();
            rt
        });
        assert_eq!(
            done[0].read(ObjectId(1)).unwrap(),
            done[1].read(ObjectId(1)).unwrap(),
            "replicas converge despite a 30% drop / 10% dup link"
        );
        let m = done[0].metrics().merged(&done[1].metrics());
        let faults = done[0].net_metrics().merged(&done[1].net_metrics());
        assert!(faults.drops_injected > 0, "the plan really dropped traffic");
        assert!(
            m.resyncs > 0 && m.retransmits > 0,
            "lost rendezvous messages were recovered by timeout resync, got {m:?}"
        );
    }

    #[test]
    fn reliability_off_adds_no_wire_overhead() {
        // The EC fast path and the paper-fidelity metrics depend on plain
        // (unenveloped) traffic when reliability is off.
        let mut eps = wound::group(2);
        let b = eps.pop().unwrap();
        let mut a = SdsoRuntime::new(eps.pop().unwrap(), DsoConfig::compact());
        a.share(ObjectId(1), vec![0u8; 8]).unwrap();
        a.send_app(MsgClass::Data, [(1, &ObjectId(1))]).unwrap();
        let sent = a.net_metrics();
        assert_eq!(sent.data_sent.msgs, 1);
        drop(b);
    }

    /// How the runtime under test meets the raw peers' input.
    #[derive(Debug, Clone, Copy)]
    enum Wait {
        /// A multicast exchange at tick 1 in which only peer 1 is due.
        Rendezvous,
        /// A pull-mode wait for the next protocol-layer message.
        RecvApp,
    }

    /// A name, how the runtime waits, what the raw peers send it, and what
    /// the error must say.
    type Case = (&'static str, Wait, Vec<(NodeId, DsoMessage)>, &'static str);

    #[test]
    fn peer_input_that_breaks_the_rendezvous_rules_is_rejected_loudly() {
        let (epoch, past, now) = (Epoch::ZERO, LogicalTime::ZERO, LogicalTime::from_ticks(1));
        let data = |time| DsoMessage::Data { epoch, time, updates: vec![] };
        let sync = |time| DsoMessage::Sync { epoch, time };
        let app = || DsoMessage::App { class: MsgClass::Control, bytes: vec![7].into() };
        // Each row's offending input comes first; what follows it would
        // end the wait cleanly, so a missing check fails instead of hanging.
        let cases: [Case; 5] = [
            (
                "data stamped in the past",
                Wait::Rendezvous,
                vec![(1, data(past)), (1, sync(now))],
                "data from 1 stamped 0 during rendezvous at 1",
            ),
            (
                "SYNC stamped in the past",
                Wait::Rendezvous,
                vec![(1, sync(past)), (1, sync(now))],
                "SYNC from 1 stamped 0 during rendezvous at 1",
            ),
            (
                "SYNC from a peer that is not due",
                Wait::Rendezvous,
                vec![(2, sync(now)), (1, sync(now))],
                "SYNC from 2 stamped 1 during rendezvous at 1",
            ),
            (
                "app message during a rendezvous",
                Wait::Rendezvous,
                vec![(1, app()), (1, sync(now))],
                "unexpected App",
            ),
            (
                "SYNC reaching a pull-mode wait",
                Wait::RecvApp,
                vec![(1, sync(now)), (1, app())],
                "rendezvous message from 1 outside an exchange",
            ),
        ];
        for (name, wait, inputs, expected) in cases {
            let mut eps = wound::group(3);
            let mut rt = SdsoRuntime::new(eps.remove(0), DsoConfig::compact());
            rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
            let mut only_peer_1 =
                |peer: NodeId, now: LogicalTime, _: &ObjectStore| (peer == 1).then(|| now.plus(1));
            rt.init_schedule(&mut only_peer_1).unwrap();
            for (from, msg) in inputs {
                let raw = &mut eps[usize::from(from) - 1];
                raw.send(0, msg.into_payload(None)).unwrap();
            }
            let outcome = match wait {
                Wait::Rendezvous => rt.exchange(SendMode::Multicast, &mut only_peer_1).map(drop),
                Wait::RecvApp => rt.recv_app::<ObjectId>().map(drop),
            };
            match outcome {
                Err(DsoError::ProtocolViolation(why)) => {
                    assert!(why.contains(expected), "{name}: {why}");
                }
                other => panic!("{name}: expected a protocol violation, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_object_write_rejected() {
        let mut a = shared(wound::group(2).remove(0), DsoConfig::compact());
        assert!(matches!(a.write(ObjectId(99), 0, &[1]), Err(DsoError::UnknownObject(_))));
    }

    // --- local access: one lookup, and a clock only for a live recorder ---

    /// 1 000 reads with 100 writes interleaved (one before every tenth
    /// read), over two 8-byte objects.
    fn thousand_reads_hundred_writes<E: Endpoint>(rt: &mut SdsoRuntime<E>) {
        rt.share(ObjectId(0), vec![0u8; 8]).unwrap();
        rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
        for i in 0..1000u32 {
            if i % 10 == 0 {
                let w = i / 10;
                rt.write(ObjectId(w % 2), w % 7, &[w as u8, 0xEE][..1 + (w % 2) as usize]).unwrap();
            }
            rt.read(ObjectId(i % 2)).unwrap();
        }
    }

    #[test]
    fn local_access_with_recording_off_never_reads_the_clock() {
        let endpoint = wound::group(2).remove(0);
        let mut rt = SdsoRuntime::with_obs(endpoint, DsoConfig::compact(), Obs::disabled());
        thousand_reads_hundred_writes(&mut rt);
        assert_eq!(rt.endpoint_mut().now_calls.get(), 0);
        assert_eq!(rt.read(ObjectId(1)).unwrap()[1..3], [99, 0xEE], "the last write landed");
    }

    #[test]
    fn local_access_with_recording_on_records_every_read_and_write() {
        let obs = Obs::new(0, TraceConfig::full());
        let endpoint = wound::group(2).remove(0);
        let mut rt = SdsoRuntime::with_obs(endpoint, DsoConfig::compact(), obs.clone());
        thousand_reads_hundred_writes(&mut rt);

        let counts = obs.recorder().counts();
        assert_eq!(counts[EventKind::ObjectRead as usize], 1000);
        assert_eq!(counts[EventKind::ObjectWrite as usize], 100);
        // Every write but the first to each object folds into the open interval.
        assert_eq!(counts[EventKind::DiffMerge as usize], 98);

        let of = |kind| -> Vec<(u32, u32, u32)> {
            let events = obs.recorder().events();
            events.iter().filter(|e| e.kind == kind).map(|e| (e.a, e.b, e.c)).collect()
        };
        // (object, version ticks, 0): the version is the Lamport stamp of
        // the newest write to that object so far.
        let reads = of(EventKind::ObjectRead);
        assert_eq!(reads[0], (0, 1, 0), "object 0 after write 1");
        assert_eq!(reads[1], (1, 0, 0), "object 1 never written yet");
        assert_eq!(reads[999], (1, 100, 0), "object 1 after write 100");
        // (object, stamp ticks, bytes written).
        let writes = of(EventKind::ObjectWrite);
        assert_eq!(writes[0], (0, 1, 1));
        assert_eq!(writes[1], (1, 2, 2));
        assert_eq!(writes[99], (1, 100, 2));
        // A merge is recorded just ahead of the write that caused it.
        let kinds: Vec<EventKind> = obs
            .recorder()
            .events()
            .iter()
            .map(|e| e.kind)
            .filter(|&k| k != EventKind::ObjectRead)
            .collect();
        assert_eq!(kinds[..2], [EventKind::ObjectWrite; 2], "first writes open the interval");
        assert_eq!(kinds[2..4], [EventKind::DiffMerge, EventKind::ObjectWrite]);
    }

    #[test]
    fn a_traced_bsync_run_records_its_reads_writes_and_merges() {
        let done = simulate(|ep| {
            let obs = Obs::new(ep.node_id(), TraceConfig::full());
            let mut rt = SdsoRuntime::with_obs(ep, DsoConfig::compact(), obs);
            rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
            rt.share(ObjectId(2), vec![0u8; 8]).unwrap();
            rt.init_schedule(&mut EveryTick).unwrap();
            let own = ObjectId(1 + u32::from(rt.node_id()));
            for round in 0..5u8 {
                rt.write(own, 0, &[round]).unwrap();
                rt.write(own, 4, &[round]).unwrap();
                rt.read(ObjectId(1)).unwrap();
                rt.read(ObjectId(2)).unwrap();
                rt.exchange(SendMode::Multicast, &mut EveryTick).unwrap();
            }
            rt
        });
        for rt in &done {
            let counts = rt.obs().recorder().counts();
            assert_eq!(counts[EventKind::ObjectRead as usize], 10);
            assert_eq!(counts[EventKind::ObjectWrite as usize], 10);
            // The second write of every interval merges; the exchange
            // closes the interval, so the next first write does not.
            assert_eq!(counts[EventKind::DiffMerge as usize], 5);
            assert_eq!(counts[EventKind::ExchangeBegin as usize], 5);
            assert_eq!(counts[EventKind::ExchangeEnd as usize], 5);
        }
        assert_eq!(done[0].read(ObjectId(2)).unwrap(), done[1].read(ObjectId(2)).unwrap());
    }
}
