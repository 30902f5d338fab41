use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sdso_member::{leave_change_from_events, Epoch, MembershipView, ViewChange};
use sdso_net::{Endpoint, MsgClass, NodeId, PeerEvent, SimSpan};
use sdso_obs::{EventKind, Obs};

use crate::clock::{LogicalClock, LogicalTime};
use crate::config::DsoConfig;
use crate::diff::Diff;
use crate::error::DsoError;
use crate::exchange_list::ExchangeList;
use crate::metrics::{DsoCounters, DsoMetrics};
use crate::object::{ObjectId, Version};
use crate::router::DiffRouter;
use crate::session::{Reset, Session};
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
pub struct ExchangeReport {
    /// The logical time of this exchange (post-tick).
    pub time: LogicalTime,
    /// The peers exchanged with.
    pub peers: Vec<NodeId>,
    /// Updates shipped to those peers (after merging).
    pub updates_sent: usize,
    /// Remote updates applied locally during the rendezvous.
    pub updates_applied: usize,
}

/// An event surfaced to code layered above the runtime by the message pump
/// (`Put`/`GetReq` traffic is serviced internally and never surfaces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An [`DsoMessage::App`] message from a peer protocol layer.
    App {
        /// Sender.
        from: NodeId,
        /// Accounting class the sender declared.
        class: MsgClass,
        /// The embedded encoding.
        bytes: Vec<u8>,
    },
    /// A `GetRep` arrived (and was already applied if newer).
    GetRep {
        /// Replier.
        from: NodeId,
        /// The object it carried.
        object: ObjectId,
    },
    /// An acknowledgement of an earlier `sync_put`.
    Ack {
        /// Acknowledging peer.
        from: NodeId,
    },
}

#[derive(Debug, Default)]
struct EarlyEntry {
    updates: Vec<WireUpdate>,
    sync: bool,
}

/// The S-DSO runtime: one per process.
///
/// Owns the process's object replicas, logical clock, exchange list and
/// slotted buffer — everything Fig. 4 names — and implements the paper's
/// library interface — `share`,
/// `async_put`, `sync_put`, `async_get`, `sync_get` and, centrally,
/// [`SdsoRuntime::exchange`] (Fig. 4).
///
/// The runtime is transport-generic: `E` may be the in-process transport,
/// the TCP mesh, or the virtual-time simulator endpoint. The endpoint
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
    /// Local modifications since the last `exchange`, per object, with the
    /// Lamport stamp of the newest write folded in.
    current_mods: BTreeMap<ObjectId, (Diff, Version)>,
    /// Lamport clock for version stamps. Distinct from the logical
    /// (rendezvous-tick) clock: ticks count exchanges and are *not*
    /// comparable across processes, while version stamps must order
    /// causally-related writes of different processes — otherwise a
    /// slow-ticking process's fresh write would lose last-writer-wins
    /// against a fast process's stale one.
    lamport: u64,
    /// Rendezvous messages stamped in the logical future, buffered per
    /// (peer, time) until this process's clock reaches them.
    early: BTreeMap<(NodeId, LogicalTime), EarlyEntry>,
    /// App messages received while waiting for something else.
    app_inbox: VecDeque<(NodeId, MsgClass, Vec<u8>)>,
    /// `sync_put` acknowledgements received so far.
    acks_received: u64,
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
            current_mods: BTreeMap::new(),
            lamport: 0,
            early: BTreeMap::new(),
            app_inbox: VecDeque::new(),
            acks_received: 0,
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

    /// Discards crash-era residue sitting in this endpoint's receive
    /// queue, admitting anything already stamped for the current view.
    ///
    /// A restarted process reuses its pre-crash endpoint (a rebooted host
    /// keeps its address), so frames addressed to the dead incarnation —
    /// barrier duplicates, leaver-settling retransmits, acks for sends
    /// that died with it — are still queued when recovery completes. On a
    /// fresh reliability layer their stale sequence numbers would squat in
    /// the out-of-order buffer and shadow live frames at colliding
    /// sequence numbers, so they must never reach the admit path: any
    /// sequenced frame stamped before this view's epoch is dropped
    /// unacked (the sender reset that link when it pruned the crashed
    /// member), and any ack is dropped too (this incarnation has sent
    /// nothing an ack could cover). Fresh traffic that overtook the drain
    /// — a snapshot, or early rendezvous frames from peers already past
    /// the rejoin barrier — is admitted through the regular reliability
    /// path and queued for the next blocking receive.
    ///
    /// Call after [`SdsoRuntime::set_membership`] with the rejoin view and
    /// before [`SdsoRuntime::await_snapshot`]. Without a reliability layer
    /// there is no sequence state to protect (the epoch checks already
    /// drop stale traffic on delivery) and this is a no-op. Returns the
    /// number of residue frames dropped.
    ///
    /// # Errors
    ///
    /// Returns transport and codec errors.
    pub fn drain_crash_residue(&mut self) -> Result<u64, DsoError> {
        self.session.drain_residue(&self.store)
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

    /// Installs an explicit membership view, reconciling the slotted
    /// buffer so exactly the view's remote members have active slots.
    /// Called once at startup by churn-aware drivers: initial members
    /// install the plan's initial view; a late joiner installs the view of
    /// the epoch it joins in (then obtains state via
    /// [`SdsoRuntime::await_snapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if the view's capacity differs from the transport's node
    /// count, or if this process is not a member of the view.
    pub fn set_membership(&mut self, view: MembershipView) {
        assert_eq!(
            view.capacity(),
            self.num_nodes(),
            "membership capacity must match the transport"
        );
        assert!(view.contains(self.node_id()), "set_membership: local process not in view");
        self.install_view(view);
        self.reconcile_buffer_slots();
    }

    /// Applies one view change at a barrier: prunes departed peers from
    /// every data structure (exchange list, slotted buffer, session
    /// links, early-arrival buffer, transport), bumps the epoch, activates
    /// slots for joiners and asks the s-function for their first exchange
    /// times, and fires the s-function's membership-delta hook.
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
                self.session.settle_link(leaver, &self.store)?;
            }
        }
        for &leaver in &change.left {
            self.exchange_list.remove(leaver);
            if self.buffer.has_peer(leaver) {
                let orphaned = self.buffer.remove_peer(leaver);
                self.counters.slots_compacted.add(orphaned.len() as u64);
            }
            self.session.reset(leaver, Reset::Left);
            self.early.retain(|&(peer, _), _| peer != leaver);
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

    /// Drains the transport's queued link events and folds them into the
    /// leave-side [`ViewChange`] they imply under the current view: peers
    /// whose link ended the drain down (the reactor's graceful teardown
    /// after a lost connection, or `TcpMesh` exhausting its reconnect
    /// budget) become leavers; reconnect flaps cancel out. Returns `None`
    /// when no live member departed.
    ///
    /// This is a *proposal*, not an applied change: the caller decides when
    /// the barrier happens and feeds the change to
    /// [`SdsoRuntime::apply_view_change`] — typically after the tick's
    /// exchange completes, so every surviving member applies the same
    /// change at the same logical time.
    pub fn drain_departures(&mut self) -> Option<ViewChange> {
        let events = self.session.endpoint.take_peer_events();
        // Any link flap invalidates codec negotiation with that peer —
        // even when the flap cancels out of the membership change below.
        for event in &events {
            let (PeerEvent::Down(peer) | PeerEvent::Up(peer)) = *event;
            self.session.reset(peer, Reset::Flapped);
        }
        let change = leave_change_from_events(&self.view, &events);
        if change.is_empty() {
            None
        } else {
            Some(change)
        }
    }

    /// Pushes a state snapshot to a late joiner: every object modified
    /// since initialisation as a from-zero diff (the joiner shares the
    /// same initial bodies, so pristine objects need no transfer), plus
    /// this donor's logical-time and Lamport frontiers. O(objects) bytes,
    /// never O(history). Returns the encoded snapshot size in bytes.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn send_snapshot(&mut self, to: NodeId) -> Result<usize, DsoError> {
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
        self.session.send(to, msg)?;
        Ok(bytes)
    }

    /// Blocks until the designated donor's snapshot arrives, then installs
    /// it: object bodies apply under last-writer-wins, the logical clock
    /// jumps to the donor's frontier, and the Lamport clock folds in the
    /// donor's stamp. Rendezvous traffic from other members that overtakes
    /// the snapshot is early-buffered for the joiner's first exchanges;
    /// protocol traffic is queued or serviced as usual.
    ///
    /// Returns the installed snapshot's logical time.
    ///
    /// # Errors
    ///
    /// Returns transport errors, or [`DsoError::ProtocolViolation`] if the
    /// snapshot is stamped with a different epoch than this view's.
    pub fn await_snapshot(&mut self, donor: NodeId) -> Result<LogicalTime, DsoError> {
        loop {
            let (from, msg) = self.session.recv_patiently(&self.store)?;
            match msg {
                DsoMessage::Snapshot { epoch, time, lamport, updates } if from == donor => {
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
                    return Ok(time);
                }
                DsoMessage::Data { epoch, time, updates } if epoch >= self.view.epoch() => {
                    self.file_early(from, time, Some(updates));
                }
                DsoMessage::Sync { epoch, time } if epoch >= self.view.epoch() => {
                    self.file_early(from, time, None);
                }
                DsoMessage::Data { .. } | DsoMessage::Sync { .. } => {
                    self.counters.cross_epoch_dropped.inc();
                }
                other => {
                    if let Some(Event::App { from, class, bytes }) = self.dispatch(from, other)? {
                        self.app_inbox.push_back((from, class, bytes));
                    }
                }
            }
        }
    }

    /// Makes `view` the view of both layers: the kernel computes exchanges
    /// under it, the session filters sends and residue by it.
    fn install_view(&mut self, view: MembershipView) {
        self.session.set_view(view.clone());
        self.view = view;
    }

    /// Deactivates slotted-buffer slots for non-members and activates
    /// slots for members, so buffered diffs accumulate for exactly the
    /// current view's remote peers.
    fn reconcile_buffer_slots(&mut self) {
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
    /// recorder is listening. sdso-check: hot-path
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
        let diff = Diff::single(offset, bytes.to_vec());
        let merging = match self.current_mods.entry(id) {
            Entry::Vacant(slot) => {
                slot.insert((diff, stamp));
                false
            }
            Entry::Occupied(mut slot) => {
                let (merged, newest) = slot.get_mut();
                merged.merge_in_place(&diff);
                *newest = (*newest).max(stamp);
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
    /// and current-interval updates to the due peers, optionally blocks
    /// until those peers reciprocate (`resync`), and re-runs the s-function
    /// to reschedule them.
    ///
    /// `resync` selects one of two *cluster-wide* disciplines: either every
    /// process rendezvouses (`true`, the lookahead protocols) or every
    /// process pushes and opportunistically drains (`false`). The two must
    /// not be mixed against one peer — a pusher never replies with the
    /// stamped pair a resync-mode peer waits for, and the engine rejects
    /// the resulting logically-stale traffic loudly rather than hanging.
    ///
    /// This is the paper's
    /// `exchange(shared_obj, resync_flag, how, s_func, arg)`; the Rust
    /// API drops the first argument (the runtime already tracks every
    /// modified object) and carries `arg` inside the s-function closure.
    ///
    /// # Errors
    ///
    /// Returns transport errors, or [`DsoError::ProtocolViolation`] when a
    /// peer's rendezvous traffic contradicts the symmetric schedule (a
    /// message stamped in the logical past, a rendezvous from a peer that
    /// is not due, or a non-rendezvous message during the wait).
    pub fn exchange(
        &mut self,
        resync: bool,
        how: SendMode,
        sfunc: &mut dyn SFunction,
    ) -> Result<ExchangeReport, DsoError> {
        self.exchange_with_budget(resync, how, sfunc, None).map(|(report, _)| report)
    }

    /// [`SdsoRuntime::exchange`] with a bounded rendezvous wait: if the
    /// due peers have not all reciprocated within `budget`, the still-owed
    /// peers are declared unresponsive, the rendezvous completes without
    /// them, and their ids are returned alongside the report.
    ///
    /// This is the crash-detection half of the MSYNC fix: the unbounded
    /// rendezvous parks forever on a vanished peer, while the reliability
    /// layer's retry budget is the wrong tool (it trips on *network*
    /// silence, not on one peer's). The caller — normally a crash-aware
    /// protocol layer — escalates a non-empty unresponsive set to the
    /// membership layer as an abrupt leave rather than stalling the group.
    ///
    /// # Errors
    ///
    /// Exactly [`SdsoRuntime::exchange`]'s errors; budget exhaustion is a
    /// report, not an error.
    pub fn exchange_bounded(
        &mut self,
        resync: bool,
        how: SendMode,
        sfunc: &mut dyn SFunction,
        budget: SimSpan,
    ) -> Result<(ExchangeReport, Vec<NodeId>), DsoError> {
        self.exchange_with_budget(resync, how, sfunc, Some(budget))
    }

    fn exchange_with_budget(
        &mut self,
        resync: bool,
        how: SendMode,
        sfunc: &mut dyn SFunction,
        budget: Option<SimSpan>,
    ) -> Result<(ExchangeReport, Vec<NodeId>), DsoError> {
        let started = self.now();
        let t = self.clock.tick();

        let due: Vec<NodeId> = match how {
            SendMode::Broadcast => self.view.peers_of(self.node_id()),
            SendMode::Multicast => self.exchange_list.due(t),
        };
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
        // router is active).
        let current: Vec<(ObjectId, (Diff, Version))> =
            std::mem::take(&mut self.current_mods).into_iter().collect();
        let mut updates_sent = 0usize;
        let mut suppressed = 0u64;
        for &peer in &due {
            let mut updates: Vec<WireUpdate> = {
                let buffer = &mut self.buffer;
                match self.router.as_deref().filter(|_| route_live) {
                    Some(router) => buffer.drain_slot_filtered(peer, |o| router.routes(peer, o)),
                    None => buffer.drain_slot(peer),
                }
            }
            .into_iter()
            .map(|p| WireUpdate { object: p.object, diff: p.diff, version: p.version })
            .collect();
            if route_live {
                suppressed += self.buffer.slot_len(peer) as u64;
            }
            for (object, (diff, version)) in &current {
                match self.router.as_deref().filter(|_| route_live) {
                    Some(router) if !router.routes(peer, *object) => suppressed += 1,
                    _ => updates.push(WireUpdate {
                        object: *object,
                        diff: diff.clone(),
                        version: *version,
                    }),
                }
            }
            if self.config.wire.batch_dedup {
                self.dedup_updates(&mut updates);
            }
            updates_sent += updates.len();
            self.session.send_rendezvous(peer, t, updates, &self.store)?;
        }
        if suppressed > 0 {
            self.counters.shard_suppressed.add(suppressed);
        }

        // Buffer this interval's modifications for everyone not exchanged
        // with now — including due peers whose interest excluded an object,
        // so the next broadcast (or an interest-covered later exchange)
        // still delivers it.
        for (object, (diff, version)) in &current {
            match self.router.as_deref().filter(|_| route_live) {
                Some(router) => {
                    let recipients: Vec<NodeId> =
                        due.iter().copied().filter(|&p| router.routes(p, *object)).collect();
                    self.buffer.buffer_for_all(*object, diff, *version, &recipients);
                }
                None => self.buffer.buffer_for_all(*object, diff, *version, &due),
            }
        }

        let mut updates_applied = 0usize;
        let mut unresponsive = Vec::new();
        if resync && !due.is_empty() {
            (updates_applied, unresponsive) = self.await_rendezvous(t, &due, budget)?;
        } else if !resync {
            // Push mode never blocks, but it must still *drain*: peers'
            // pushed updates would otherwise accumulate unboundedly and
            // never be applied. Application is version-gated, so arrival
            // order does not matter.
            updates_applied = self.drain_pushed()?;
        }

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
        Ok((ExchangeReport { time: t, peers: due, updates_sent, updates_applied }, unresponsive))
    }

    /// Non-blocking drain used by push-mode exchanges: applies every
    /// already-arrived `Data` (last-writer-wins handles ordering) and
    /// discards `SYNC` markers (push mode has no rendezvous to complete).
    fn drain_pushed(&mut self) -> Result<usize, DsoError> {
        let mut applied = 0usize;
        while let Some((from, msg)) = self.session.recv_now(&self.store)? {
            match msg {
                DsoMessage::Data { epoch, updates, .. } => {
                    if epoch < self.view.epoch() {
                        self.counters.cross_epoch_dropped.inc();
                    } else {
                        applied += self.apply_updates(&updates)?;
                    }
                }
                DsoMessage::Sync { .. } => {}
                DsoMessage::SnapshotReq { .. } => {
                    self.send_snapshot(from)?;
                }
                DsoMessage::Snapshot { .. } => {} // duplicate of an installed snapshot
                other => {
                    return Err(DsoError::ProtocolViolation(format!(
                        "unexpected {other:?} from {from} during push-mode drain"
                    )));
                }
            }
        }
        Ok(applied)
    }

    /// Blocks until every due peer's `(data, SYNC)` pair for tick `t` has
    /// arrived, applying updates as they come and buffering early traffic.
    ///
    /// With a `budget`, the whole wait is bounded: peers still owing their
    /// pair when the budget runs out are returned as unresponsive (second
    /// element) and the rendezvous completes without them.
    fn await_rendezvous(
        &mut self,
        t: LogicalTime,
        due: &[NodeId],
        budget: Option<SimSpan>,
    ) -> Result<(usize, Vec<NodeId>), DsoError> {
        let mut applied = 0usize;
        let mut outstanding: BTreeSet<NodeId> = due.iter().copied().collect();

        // Consume rendezvous traffic that arrived before we got here.
        for &peer in due {
            if let Some(entry) = self.early.remove(&(peer, t)) {
                applied += self.apply_updates(&entry.updates)?;
                if entry.sync {
                    outstanding.remove(&peer);
                }
            }
        }

        let wait_start = self.now();
        let deadline = budget.map(|b| wait_start + b);
        let mut unresponsive: Vec<NodeId> = Vec::new();
        self.obs.record(
            wait_start.as_micros(),
            EventKind::RendezvousWaitBegin,
            t.as_ticks() as u32,
            outstanding.len() as u32,
            0,
        );
        while !outstanding.is_empty() {
            let (from, msg) = match deadline {
                None => self.session.recv(&self.store)?,
                Some(d) => match self.session.recv_until(d, &self.store)? {
                    Some(m) => m,
                    None => {
                        // Budget exhausted: whoever still owes a pair is
                        // declared unresponsive and the rendezvous closes
                        // without them. The caller escalates to the
                        // membership layer (or errors) — the engine itself
                        // must not invent a view change mid-exchange.
                        unresponsive = outstanding.iter().copied().collect();
                        break;
                    }
                },
            };
            // Cross-epoch traffic never errors the engine: residue from a
            // peer that has since left is dropped (and counted), traffic
            // from a peer that is an epoch ahead is buffered by its
            // logical time like any early arrival.
            if msg.epoch().is_some_and(|e| e < self.view.epoch()) {
                self.counters.cross_epoch_dropped.inc();
                continue;
            }
            match msg {
                DsoMessage::Data { time, updates, .. } => {
                    if time == t && due.contains(&from) {
                        applied += self.apply_updates(&updates)?;
                    } else if time > t {
                        self.file_early(from, time, Some(updates));
                    } else {
                        return Err(DsoError::ProtocolViolation(format!(
                            "data from {from} stamped {time} during rendezvous at {t}"
                        )));
                    }
                }
                DsoMessage::Sync { time, .. } => {
                    if time == t && outstanding.remove(&from) {
                        // Rendezvous with `from` complete.
                    } else if time > t {
                        self.file_early(from, time, None);
                    } else {
                        return Err(DsoError::ProtocolViolation(format!(
                            "SYNC from {from} stamped {time} during rendezvous at {t}"
                        )));
                    }
                }
                DsoMessage::SnapshotReq { .. } => {
                    self.send_snapshot(from)?;
                }
                DsoMessage::Snapshot { .. } => {} // duplicate of an installed snapshot
                other => {
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
            unresponsive.len() as u32,
            0,
        );
        Ok((applied, unresponsive))
    }

    /// Buffers one half of a rendezvous pair stamped in the logical future
    /// (`None` is the SYNC half) until this process's clock reaches it.
    fn file_early(&mut self, from: NodeId, time: LogicalTime, updates: Option<Vec<WireUpdate>>) {
        self.counters.early_buffered.inc();
        let entry = self.early.entry((from, time)).or_default();
        match updates {
            Some(updates) => entry.updates.extend(updates),
            None => entry.sync = true,
        }
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

    /// Coalesces same-object updates in an outgoing batch into one update
    /// each: diffs merged in shipping order (later bytes win overlaps,
    /// exactly as the receiver would have applied them one by one), the
    /// newest version stamp kept. Pure batch shrinkage — receivers see
    /// identical final state.
    fn dedup_updates(&mut self, updates: &mut Vec<WireUpdate>) {
        if updates.len() < 2 {
            return;
        }
        let mut slots: BTreeMap<ObjectId, usize> = BTreeMap::new();
        let mut merged: Vec<WireUpdate> = Vec::with_capacity(updates.len());
        let mut removed = 0u64;
        for u in updates.drain(..) {
            match slots.get(&u.object) {
                Some(&i) => {
                    let kept = &mut merged[i];
                    kept.diff.merge_in_place(&u.diff);
                    kept.version = kept.version.max(u.version);
                    removed += 1;
                }
                None => {
                    slots.insert(u.object, merged.len());
                    merged.push(u);
                }
            }
        }
        *updates = merged;
        if removed > 0 {
            self.counters.batch_deduped.add(removed);
        }
    }

    /// Best-effort tail flush of the reliability layer: keeps receiving
    /// (and retransmitting on timeout) until every peer has acknowledged
    /// everything this process sent, then returns `true`. Returns `false`
    /// when the retry budget runs out or all peers have already exited —
    /// whatever was still unacknowledged is then undeliverable.
    ///
    /// Call this at the end of a run so that peers still waiting on lost
    /// traffic can recover; a no-op without a reliability config.
    ///
    /// # Errors
    ///
    /// Returns transport errors other than end-of-run conditions.
    pub fn settle(&mut self) -> Result<bool, DsoError> {
        loop {
            if let Some(acked) = self.session.settle_recv(&self.store)? {
                return Ok(acked);
            }
            while let Some((from, msg)) = self.session.pop_ready() {
                self.absorb_settled(from, msg)?;
            }
        }
    }

    /// Files a logical message that arrived during [`SdsoRuntime::settle`]:
    /// object traffic is serviced, app messages are queued, late rendezvous
    /// traffic is buffered (future) or ignored (already satisfied).
    fn absorb_settled(&mut self, from: NodeId, msg: DsoMessage) -> Result<(), DsoError> {
        if msg.epoch().is_some_and(|e| e < self.view.epoch()) {
            self.counters.cross_epoch_dropped.inc();
            return Ok(());
        }
        match msg {
            DsoMessage::Data { time, updates, .. } if time > self.clock.now() => {
                self.file_early(from, time, Some(updates));
            }
            DsoMessage::Sync { time, .. } if time > self.clock.now() => {
                self.file_early(from, time, None);
            }
            DsoMessage::Data { .. } | DsoMessage::Sync { .. } => {}
            other => {
                if let Some(Event::App { from, class, bytes }) = self.dispatch(from, other)? {
                    self.app_inbox.push_back((from, class, bytes));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Put/get/app plumbing (used by pull-based protocols such as EC)
    // ------------------------------------------------------------------

    /// Pushes an object's full body to `peer` without waiting (`async_put`).
    ///
    /// # Errors
    ///
    /// Returns transport errors or [`DsoError::UnknownObject`].
    pub fn async_put(&mut self, peer: NodeId, id: ObjectId) -> Result<(), DsoError> {
        let replica = self.store.replica(id)?;
        let msg = DsoMessage::Put {
            object: id,
            version: replica.version(),
            body: replica.data().to_vec(),
            wants_ack: false,
        };
        self.session.send(peer, msg)
    }

    /// Pushes an object's full body to `peer` and blocks until the peer
    /// acknowledges receipt (`sync_put`).
    ///
    /// # Errors
    ///
    /// Returns transport errors or [`DsoError::UnknownObject`].
    pub fn sync_put(&mut self, peer: NodeId, id: ObjectId) -> Result<(), DsoError> {
        let replica = self.store.replica(id)?;
        let msg = DsoMessage::Put {
            object: id,
            version: replica.version(),
            body: replica.data().to_vec(),
            wants_ack: true,
        };
        self.session.send(peer, msg)?;
        let target = self.acks_received + 1;
        while self.acks_received < target {
            match self.recv_event()? {
                Event::App { from, class, bytes } => {
                    self.app_inbox.push_back((from, class, bytes));
                }
                Event::Ack { .. } | Event::GetRep { .. } => {}
            }
        }
        Ok(())
    }

    /// Requests an object's current body from `peer` without blocking
    /// (`async_get`); the reply is applied whenever the message pump next
    /// runs.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn async_get(&mut self, peer: NodeId, id: ObjectId) -> Result<(), DsoError> {
        self.session.send(peer, DsoMessage::GetReq { object: id })
    }

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
            match self.recv_event()? {
                Event::GetRep { from, object } if from == peer && object == id => return Ok(()),
                Event::App { from, class, bytes } => {
                    self.app_inbox.push_back((from, class, bytes));
                }
                Event::GetRep { .. } | Event::Ack { .. } => {}
            }
        }
    }

    /// Sends protocol-layer bytes to `peer` with an explicit accounting
    /// class.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn send_app(
        &mut self,
        peer: NodeId,
        class: MsgClass,
        bytes: Vec<u8>,
    ) -> Result<(), DsoError> {
        self.session.send(peer, DsoMessage::App { class, bytes })
    }

    /// Blocks until the next protocol-layer message arrives, servicing
    /// object traffic (`Put`, `GetReq`, `GetRep`, `Ack`) internally along
    /// the way.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a protocol violation if rendezvous
    /// traffic shows up (exchange- and pull-based protocols must not be
    /// mixed on one runtime).
    pub fn recv_app(&mut self) -> Result<(NodeId, Vec<u8>), DsoError> {
        if let Some((from, _class, bytes)) = self.app_inbox.pop_front() {
            return Ok((from, bytes));
        }
        loop {
            match self.recv_event()? {
                Event::App { from, bytes, .. } => return Ok((from, bytes)),
                Event::GetRep { .. } | Event::Ack { .. } => {}
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
    pub fn try_recv_app(&mut self) -> Result<Option<(NodeId, Vec<u8>)>, DsoError> {
        if let Some((from, _class, bytes)) = self.app_inbox.pop_front() {
            return Ok(Some((from, bytes)));
        }
        while let Some(event) = self.try_recv_event()? {
            if let Event::App { from, bytes, .. } = event {
                return Ok(Some((from, bytes)));
            }
        }
        Ok(None)
    }

    /// Blocking message pump: receives one message, services object traffic
    /// internally, and surfaces everything else as an [`Event`].
    ///
    /// # Errors
    ///
    /// Returns transport errors or a protocol violation on rendezvous
    /// traffic.
    pub fn recv_event(&mut self) -> Result<Event, DsoError> {
        loop {
            let (from, msg) = self.session.recv(&self.store)?;
            if let Some(event) = self.dispatch(from, msg)? {
                return Ok(event);
            }
        }
    }

    /// Non-blocking message pump.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a protocol violation on rendezvous
    /// traffic.
    pub fn try_recv_event(&mut self) -> Result<Option<Event>, DsoError> {
        while let Some((from, msg)) = self.session.recv_now(&self.store)? {
            if let Some(event) = self.dispatch(from, msg)? {
                return Ok(Some(event));
            }
        }
        Ok(None)
    }

    /// Services one logical message; returns an event if it must surface
    /// to the caller.
    fn dispatch(&mut self, from: NodeId, msg: DsoMessage) -> Result<Option<Event>, DsoError> {
        match msg {
            DsoMessage::Put { object, version, body, wants_ack } => {
                self.lamport = self.lamport.max(version.time.as_ticks());
                self.store.replace_if_newer(object, &body, version)?;
                if wants_ack {
                    self.session.send(from, DsoMessage::Ack)?;
                }
                Ok(None)
            }
            DsoMessage::GetReq { object } => {
                let replica = self.store.replica(object)?;
                let rep = DsoMessage::GetRep {
                    object,
                    version: replica.version(),
                    body: replica.data().to_vec(),
                };
                self.session.send(from, rep)?;
                Ok(None)
            }
            DsoMessage::GetRep { object, version, body } => {
                self.lamport = self.lamport.max(version.time.as_ticks());
                self.store.replace_if_newer(object, &body, version)?;
                Ok(Some(Event::GetRep { from, object }))
            }
            DsoMessage::Ack => {
                self.acks_received += 1;
                Ok(Some(Event::Ack { from }))
            }
            DsoMessage::App { class, bytes } => Ok(Some(Event::App { from, class, bytes })),
            DsoMessage::SnapshotReq { .. } => {
                self.send_snapshot(from)?;
                Ok(None)
            }
            // A duplicate of a snapshot this process already installed.
            DsoMessage::Snapshot { .. } => Ok(None),
            DsoMessage::Data { .. } | DsoMessage::Sync { .. } => Err(DsoError::ProtocolViolation(
                format!("rendezvous message from {from} outside an exchange"),
            )),
            // Envelopes, sequence acks, codec offers and compressed batches
            // are the session's vocabulary, consumed or resolved into plain
            // `Data` below this layer; one reaching dispatch means a receive
            // path skipped the session.
            other => Err(DsoError::ProtocolViolation(format!(
                "session-layer message {other:?} from {from} reached dispatch"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfunction::EveryTick;
    use sdso_net::memory::{MemoryEndpoint, MemoryHub};
    use sdso_net::{Incoming, NetError, Payload};
    use sdso_obs::TraceConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn pair_with(config: DsoConfig) -> Vec<SdsoRuntime<MemoryEndpoint>> {
        MemoryHub::new(2)
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                let mut rt = SdsoRuntime::new(ep, config);
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt.share(ObjectId(2), vec![0u8; 8]).unwrap();
                rt.init_schedule(&mut EveryTick).unwrap();
                rt
            })
            .collect()
    }

    fn pair() -> Vec<SdsoRuntime<MemoryEndpoint>> {
        pair_with(DsoConfig::compact())
    }

    /// Runs both runtimes' closures on separate threads (exchange blocks).
    fn run_pair<E, F>(mut runtimes: Vec<SdsoRuntime<E>>, f: F) -> Vec<SdsoRuntime<E>>
    where
        E: Endpoint + 'static,
        F: Fn(&mut SdsoRuntime<E>) + Send + Sync + 'static + Copy,
    {
        let handles: Vec<_> = runtimes
            .drain(..)
            .map(|mut rt| {
                std::thread::spawn(move || {
                    f(&mut rt);
                    rt
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn compressed_exchange_negotiates_lazily_and_converges() {
        use crate::config::WireConfig;
        let runtimes = pair_with(DsoConfig::compact().with_wire(WireConfig::compressed()));
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            for round in 0..4u8 {
                rt.write(obj, usize::from(round) as u32, &[me as u8 + 1]).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
                if round == 0 {
                    // Offers cross during the first exchange, so its data
                    // had to go out v1 absolute.
                    assert_eq!(rt.metrics().codec_v2_sent, 0);
                }
            }
            // Every post-negotiation batch went out compressed.
            assert_eq!(rt.metrics().codec_v2_sent, 3);
            assert_eq!(rt.metrics().codec_v2_fallbacks, 0);
        });
        // Bit-identical convergence: same final bytes as an uncompressed
        // pair applying the same writes would produce.
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap(), &[1, 1, 1, 1, 0, 0, 0, 0]);
            assert_eq!(rt.read(ObjectId(2)).unwrap(), &[2, 2, 2, 2, 0, 0, 0, 0]);
        }
    }

    #[test]
    fn compressed_node_interops_with_uncompressed_peer() {
        use crate::config::WireConfig;
        let runtimes: Vec<_> = MemoryHub::new(2)
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                // Node 0 wants compression; node 1 has it off and must
                // simply ignore the offer.
                let wire =
                    if ep.node_id() == 0 { WireConfig::compressed() } else { WireConfig::v1() };
                let mut rt = SdsoRuntime::new(ep, DsoConfig::compact().with_wire(wire));
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt.share(ObjectId(2), vec![0u8; 8]).unwrap();
                rt.init_schedule(&mut EveryTick).unwrap();
                rt
            })
            .collect();
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            for _ in 0..3 {
                rt.write(obj, 0, &[me as u8 + 1; 4]).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            }
            // The peer never offers back, so node 0 stays on v1 forever.
            assert_eq!(rt.metrics().codec_v2_sent, 0);
        });
        for rt in &done {
            assert_eq!(&rt.read(ObjectId(1)).unwrap()[..4], &[1; 4]);
            assert_eq!(&rt.read(ObjectId(2)).unwrap()[..4], &[2; 4]);
        }
    }

    #[test]
    fn codec_version_downgrades_after_reconnect() {
        use crate::config::WireConfig;
        let runtimes = pair_with(DsoConfig::compact().with_wire(WireConfig::compressed()));
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            let mut round = 0u8;
            let mut step = |rt: &mut SdsoRuntime<MemoryEndpoint>| {
                rt.write(obj, u32::from(round % 8), &[me as u8 + 1]).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
                round += 1;
            };
            step(rt);
            step(rt); // Negotiated: this batch went out v2.
            assert_eq!(rt.metrics().codec_v2_sent, 1);
            if me == 0 {
                // What drain_departures does when node 1's link flaps:
                // forget the negotiation, restart the compressed stream.
                rt.session.reset(1, Reset::Flapped);
            }
            let before = rt.metrics().codec_v2_sent;
            step(rt); // Node 0 re-offers; its data goes v1 this round.
            if me == 0 {
                assert_eq!(
                    rt.metrics().codec_v2_sent,
                    before,
                    "a downgraded link must not send compressed batches"
                );
            }
            // The repeat offer makes the peer re-offer; within two more
            // rounds both replies have crossed and v2 resumes.
            step(rt);
            step(rt);
            assert!(
                rt.metrics().codec_v2_sent > before,
                "renegotiation must restore the compressed encoding"
            );
        });
        // The downgrade round, the v1 rounds, and the restored-v2 rounds
        // must all have applied: full bit-identical convergence.
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap(), &[1, 1, 1, 1, 1, 0, 0, 0]);
            assert_eq!(rt.read(ObjectId(2)).unwrap(), &[2, 2, 2, 2, 2, 0, 0, 0]);
        }
    }

    #[test]
    fn dedup_updates_coalesces_same_object_batches() {
        let mut rt = pair().remove(0);
        let v = |t: u64, w: u16| Version::new(LogicalTime::from_ticks(t), w);
        let mut updates = vec![
            WireUpdate { object: ObjectId(1), diff: Diff::single(0, vec![1, 1]), version: v(1, 0) },
            WireUpdate { object: ObjectId(2), diff: Diff::single(4, vec![9]), version: v(2, 0) },
            WireUpdate { object: ObjectId(1), diff: Diff::single(1, vec![2, 2]), version: v(3, 0) },
        ];
        rt.dedup_updates(&mut updates);
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].object, ObjectId(1));
        assert_eq!(updates[0].version, v(3, 0), "merged update keeps the newest stamp");
        let mut body = [0u8; 4];
        updates[0].diff.apply(&mut body).unwrap();
        assert_eq!(body, [1, 2, 2, 0], "later bytes win overlaps, as one-by-one application");
        assert_eq!(updates[1].object, ObjectId(2));
        assert_eq!(rt.metrics().batch_deduped, 1);
    }

    #[test]
    fn drain_departures_proposes_leave_for_dead_links() {
        let mut eps = MemoryHub::new(3).into_endpoints();
        drop(eps.pop().unwrap()); // Node 2 dies: its channels close.
        let mut rt = SdsoRuntime::new(eps.remove(0), DsoConfig::compact());
        assert!(rt.drain_departures().is_none(), "no link events before any traffic");
        // Sending into the closed channel surfaces the dead link.
        assert!(rt.endpoint_mut().send(2, sdso_net::Payload::control(vec![0u8])).is_err());
        assert_eq!(rt.drain_departures(), Some(ViewChange::leave([2])));
        assert!(rt.drain_departures().is_none(), "the drain consumes its events");
    }

    #[test]
    fn exchange_propagates_writes_both_ways() {
        let runtimes = pair();
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            let obj = if me == 0 { ObjectId(1) } else { ObjectId(2) };
            rt.write(obj, 0, &[me as u8 + 1; 4]).unwrap();
            let report = rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            assert_eq!(report.time, LogicalTime::from_ticks(1));
            assert_eq!(report.peers.len(), 1);
        });
        for rt in &done {
            assert_eq!(&rt.read(ObjectId(1)).unwrap()[..4], &[1, 1, 1, 1]);
            assert_eq!(&rt.read(ObjectId(2)).unwrap()[..4], &[2, 2, 2, 2]);
        }
    }

    #[test]
    fn concurrent_writes_to_one_object_converge_lww() {
        let runtimes = pair();
        let done = run_pair(runtimes, |rt| {
            let me = rt.node_id();
            // Both write the same object in the same interval.
            rt.write(ObjectId(1), 0, &[me as u8 + 10; 8]).unwrap();
            rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
        });
        // Same tick, higher writer id wins everywhere.
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap(), &[11u8; 8]);
        }
    }

    #[test]
    fn repeated_exchanges_tick_the_clock() {
        let runtimes = pair();
        let done = run_pair(runtimes, |rt| {
            for i in 0..5u8 {
                rt.write(ObjectId(1), 0, &[i]).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            }
        });
        for rt in &done {
            assert_eq!(rt.logical_now(), LogicalTime::from_ticks(5));
            assert_eq!(rt.metrics().exchanges, 5);
        }
    }

    #[test]
    fn sync_put_transfers_and_acknowledges() {
        let mut runtimes = pair();
        let mut b = runtimes.pop().unwrap();
        let mut a = runtimes.pop().unwrap();
        let t = std::thread::spawn(move || {
            // B services the put via its pump (waits for an app message that
            // A sends afterwards as a completion signal).
            let (_, bytes) = b.recv_app().unwrap();
            assert_eq!(bytes, b"done");
            assert_eq!(b.read(ObjectId(1)).unwrap(), &[9u8; 8]);
            b
        });
        a.write(ObjectId(1), 0, &[9u8; 8]).unwrap();
        a.sync_put(1, ObjectId(1)).unwrap();
        a.send_app(1, MsgClass::Control, b"done".to_vec()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn sync_get_pulls_remote_state() {
        let mut runtimes = pair();
        let mut b = runtimes.pop().unwrap();
        let mut a = runtimes.pop().unwrap();
        let t = std::thread::spawn(move || {
            // B answers A's GetReq inside its pump, then returns.
            let (_, bytes) = b.recv_app().unwrap();
            assert_eq!(bytes, b"bye");
            b
        });
        // Make B's copy the newer one first.
        a.sync_get(1, ObjectId(1)).unwrap(); // pulls (identical) state
        a.send_app(1, MsgClass::Control, b"bye".to_vec()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn stale_version_dropped_on_apply() {
        let mut runtimes = pair();
        let mut b = runtimes.pop().unwrap();
        let mut a = runtimes.pop().unwrap();
        // A writes at tick 1 (clock 0 → stamp 1).
        a.write(ObjectId(1), 0, &[5; 8]).unwrap();
        let t = std::thread::spawn(move || {
            // B writes the same object at stamp 1 too but with higher id.
            b.write(ObjectId(1), 0, &[7; 8]).unwrap();
            b.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            b
        });
        a.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
        let b = t.join().unwrap();
        assert_eq!(a.read(ObjectId(1)).unwrap(), &[7; 8]);
        assert_eq!(b.read(ObjectId(1)).unwrap(), &[7; 8]);
        assert_eq!(b.metrics().updates_stale, 1, "A's tied-but-lower write dropped at B");
    }

    #[test]
    fn frame_padding_applies_to_all_runtime_traffic() {
        let eps = MemoryHub::new(2).into_endpoints();
        let mut runtimes: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let mut rt = SdsoRuntime::new(ep, DsoConfig::paper());
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt
            })
            .collect();
        runtimes[0].async_put(1, ObjectId(1)).unwrap();
        let sent = runtimes[0].net_metrics();
        assert_eq!(sent.data_sent.bytes, 2048);
    }

    #[test]
    fn broadcast_mode_ignores_schedule() {
        // Without init_schedule, multicast exchanges with nobody; broadcast
        // must still reach the peer.
        let eps = MemoryHub::new(2).into_endpoints();
        let runtimes: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt
            })
            .collect();
        let done = run_pair(runtimes, |rt| {
            rt.write(ObjectId(1), 0, &[rt.node_id() as u8 + 1]).unwrap();
            let report = rt.exchange(true, SendMode::Broadcast, &mut EveryTick).unwrap();
            assert_eq!(report.peers.len(), 1);
        });
        for rt in &done {
            assert_eq!(rt.read(ObjectId(1)).unwrap()[0], 2);
        }
    }

    #[test]
    fn push_mode_does_not_block() {
        // resync = false: the sender pushes and proceeds without replies.
        let mut runtimes = pair();
        let mut b = runtimes.pop().unwrap();
        let mut a = runtimes.pop().unwrap();
        a.write(ObjectId(1), 0, &[3]).unwrap();
        let report = a.exchange(false, SendMode::Multicast, &mut EveryTick).unwrap();
        assert_eq!(report.updates_applied, 0);
        // B's own (resync) exchange consumes A's pushed pair — A's push
        // already satisfied B's wait, so B completes without A blocking.
        let t = std::thread::spawn(move || {
            b.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            assert_eq!(b.read(ObjectId(1)).unwrap()[0], 3);
            b
        });
        t.join().unwrap();
        let _ = a;
    }

    #[test]
    fn lossy_exchange_recovers_via_resync() {
        use sdso_net::{FaultPlan, FaultyEndpoint};
        let plan = FaultPlan::new(7).with_drop(0.3).with_dup(0.1);
        let retry = crate::RetryConfig { rto: SimSpan::from_millis(5), max_retries: 400 };
        let cfg = DsoConfig::compact().with_reliability(Some(retry));
        let runtimes: Vec<_> = MemoryHub::new(2)
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                let mut rt = SdsoRuntime::new(FaultyEndpoint::new(ep, plan.clone()), cfg);
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt.init_schedule(&mut EveryTick).unwrap();
                rt
            })
            .collect();
        let done = run_pair(runtimes, |rt| {
            for i in 0..10u8 {
                rt.write(ObjectId(1), 0, &[(rt.node_id() as u8 + 1) * 10 + i]).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            }
            rt.settle().unwrap();
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
        let mut eps = MemoryHub::new(2).into_endpoints();
        let b = eps.pop().unwrap();
        let mut a = SdsoRuntime::new(eps.pop().unwrap(), DsoConfig::compact());
        a.share(ObjectId(1), vec![0u8; 8]).unwrap();
        a.async_put(1, ObjectId(1)).unwrap();
        let sent = a.net_metrics();
        assert_eq!(sent.data_sent.msgs, 1);
        drop(b);
    }

    #[test]
    fn unknown_object_write_rejected() {
        let mut runtimes = pair();
        let a = &mut runtimes[0];
        assert!(matches!(a.write(ObjectId(99), 0, &[1]), Err(DsoError::UnknownObject(_))));
    }

    // --- local access: one lookup, and a clock only for a live recorder ---

    /// An endpoint that counts its `now()` calls.
    struct ClockCounting {
        inner: MemoryEndpoint,
        now_calls: Arc<AtomicU64>,
    }

    impl Endpoint for ClockCounting {
        fn node_id(&self) -> NodeId {
            self.inner.node_id()
        }
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }
        fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
            self.inner.send(to, payload)
        }
        fn recv(&mut self) -> Result<Incoming, NetError> {
            self.inner.recv()
        }
        fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
            self.inner.try_recv()
        }
        fn advance(&mut self, dt: SimSpan) {
            self.inner.advance(dt);
        }
        fn now(&self) -> sdso_net::SimInstant {
            self.now_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.now()
        }
        fn metrics(&self) -> sdso_net::NetMetricsSnapshot {
            self.inner.metrics()
        }
    }

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
        let now_calls = Arc::new(AtomicU64::new(0));
        let inner = MemoryHub::new(2).into_endpoints().remove(0);
        let endpoint = ClockCounting { inner, now_calls: now_calls.clone() };
        let mut rt = SdsoRuntime::with_obs(endpoint, DsoConfig::compact(), Obs::disabled());
        thousand_reads_hundred_writes(&mut rt);
        assert_eq!(now_calls.load(Ordering::Relaxed), 0);
        assert_eq!(rt.read(ObjectId(1)).unwrap()[1..3], [99, 0xEE], "the last write landed");
    }

    #[test]
    fn local_access_with_recording_on_records_every_read_and_write() {
        let obs = Obs::new(0, TraceConfig::full());
        let endpoint = MemoryHub::new(2).into_endpoints().remove(0);
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
        let runtimes: Vec<_> = MemoryHub::new(2)
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                let obs = Obs::new(ep.node_id(), TraceConfig::full());
                let mut rt = SdsoRuntime::with_obs(ep, DsoConfig::compact(), obs);
                rt.share(ObjectId(1), vec![0u8; 8]).unwrap();
                rt.share(ObjectId(2), vec![0u8; 8]).unwrap();
                rt.init_schedule(&mut EveryTick).unwrap();
                rt
            })
            .collect();
        let done = run_pair(runtimes, |rt| {
            let own = ObjectId(1 + u32::from(rt.node_id()));
            for round in 0..5u8 {
                rt.write(own, 0, &[round]).unwrap();
                rt.write(own, 4, &[round]).unwrap();
                rt.read(ObjectId(1)).unwrap();
                rt.read(ObjectId(2)).unwrap();
                rt.exchange(true, SendMode::Multicast, &mut EveryTick).unwrap();
            }
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
