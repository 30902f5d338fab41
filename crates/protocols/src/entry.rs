//! Entry consistency (EC), the paper's lock-based baseline.
//!
//! Implemented "as efficiently as possible within the framework of S-DSO"
//! (paper §4): each object is associated with one lock; lock managers are
//! distributed evenly and statically across the processes (the manager of
//! object *k* is process *k mod n*); each manager maintains the queue of
//! pending requests and the identity of the owner of the most up-to-date
//! object copy. Processes acquire exclusive write-locks or shared
//! read-locks; acquiring a lock "ensures that updates to the locked object
//! are pulled from the owner of the up-to-date copy" via `sync_get`.
//!
//! Deadlock prevention follows the enhancement the paper says lock-based
//! protocols need: locksets are acquired in totally-ordered (object-id)
//! order. While waiting for its own grants, a process keeps servicing other
//! processes' lock traffic and object pulls, so managers never stall the
//! cluster.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sdso_core::{
    Diff, DsoError, Epoch, LogicalTime, Never, ObjectId, SdsoRuntime, Version, ViewChange,
};
use sdso_net::wire::{Wire, WireReader, WireWriter};
use sdso_net::{Endpoint, EventKind, MsgClass, NetError, NodeId, SimSpan};

/// The `mode` operand for flight-recorder lock events.
fn obs_mode(mode: LockMode) -> u32 {
    match mode {
        LockMode::Read => 0,
        LockMode::Write => 1,
    }
}

/// Lock acquisition modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Shared read lock: any number of concurrent readers.
    Read,
    /// Exclusive write lock.
    Write,
}

impl Wire for LockMode {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            LockMode::Read => 0,
            LockMode::Write => 1,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        match r.get_u8()? {
            0 => Ok(LockMode::Read),
            1 => Ok(LockMode::Write),
            b => Err(NetError::Codec(format!("invalid lock mode {b:#x}"))),
        }
    }
}

/// One entry of a lockset: which object, in which mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRequest {
    /// The object to lock.
    pub object: ObjectId,
    /// Read or write.
    pub mode: LockMode,
}

impl LockRequest {
    /// A shared-read request.
    pub fn read(object: ObjectId) -> Self {
        LockRequest { object, mode: LockMode::Read }
    }

    /// An exclusive-write request.
    pub fn write(object: ObjectId) -> Self {
        LockRequest { object, mode: LockMode::Write }
    }
}

/// EC's wire messages (all control class, per the paper's accounting).
///
/// `Acquire` and `SyncDone` carry the sender's membership epoch: both can
/// legitimately arrive from a process that has already crossed a
/// view-change barrier this manager is still waiting in, and acting on
/// them under the doomed pre-change lock state would lose the grant (or
/// mis-count the barrier). Future-epoch copies are deferred until
/// [`EntryConsistency::apply_view_change`] brings this process level.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EcMessage {
    Acquire {
        object: ObjectId,
        mode: LockMode,
        epoch: Epoch,
    },
    Grant {
        object: ObjectId,
        owner: NodeId,
        version: Version,
    },
    Release {
        object: ObjectId,
        modified: bool,
        version: Version,
    },
    /// Fixed-length runs: "I have finished my iterations but keep serving".
    Done,
    /// Flush push, one per peer: every object this process wrote last,
    /// with its version and the diff from its registered body to its
    /// current one. The receiver rebuilds the body from its own
    /// registered copy — every process registers the same bodies — so an
    /// empty diff still carries a body: the registered one.
    State {
        entries: Vec<(ObjectId, Version, Diff)>,
    },
    /// Final-sync barrier: "I have pushed all my owned state".
    SyncDone {
        epoch: Epoch,
    },
}

const TAG_ACQUIRE: u8 = 1;
const TAG_GRANT: u8 = 2;
const TAG_RELEASE: u8 = 3;
const TAG_DONE: u8 = 4;
const TAG_STATE: u8 = 5;
const TAG_SYNC_DONE: u8 = 6;

impl Wire for EcMessage {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            EcMessage::Acquire { object, mode, epoch } => {
                w.put_u8(TAG_ACQUIRE);
                object.encode(w);
                mode.encode(w);
                w.put_u32(epoch.0);
            }
            EcMessage::Grant { object, owner, version } => {
                w.put_u8(TAG_GRANT);
                object.encode(w);
                w.put_u16(*owner);
                version.encode(w);
            }
            EcMessage::Release { object, modified, version } => {
                w.put_u8(TAG_RELEASE);
                object.encode(w);
                w.put_bool(*modified);
                version.encode(w);
            }
            EcMessage::Done => w.put_u8(TAG_DONE),
            EcMessage::State { entries } => {
                w.put_u8(TAG_STATE);
                w.put_seq(entries, |w, (object, version, diff)| {
                    object.encode(w);
                    version.encode(w);
                    diff.encode(w);
                });
            }
            EcMessage::SyncDone { epoch } => {
                w.put_u8(TAG_SYNC_DONE);
                w.put_u32(epoch.0);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        match r.get_u8()? {
            TAG_ACQUIRE => Ok(EcMessage::Acquire {
                object: ObjectId::decode(r)?,
                mode: LockMode::decode(r)?,
                epoch: Epoch(r.get_u32()?),
            }),
            TAG_GRANT => Ok(EcMessage::Grant {
                object: ObjectId::decode(r)?,
                owner: r.get_u16()?,
                version: Version::decode(r)?,
            }),
            TAG_RELEASE => Ok(EcMessage::Release {
                object: ObjectId::decode(r)?,
                modified: r.get_bool()?,
                version: Version::decode(r)?,
            }),
            TAG_DONE => Ok(EcMessage::Done),
            TAG_STATE => Ok(EcMessage::State {
                entries: r.get_seq(|r| {
                    Ok((ObjectId::decode(r)?, Version::decode(r)?, Diff::decode(r)?))
                })?,
            }),
            TAG_SYNC_DONE => Ok(EcMessage::SyncDone { epoch: Epoch(r.get_u32()?) }),
            tag => Err(NetError::Codec(format!("unknown EcMessage tag {tag:#x}"))),
        }
    }
}

/// Manager-side state of one lock.
#[derive(Debug)]
struct ManagedLock {
    readers: BTreeSet<NodeId>,
    writer: Option<NodeId>,
    queue: VecDeque<(NodeId, LockMode)>,
    /// The process holding the most up-to-date copy, and its version.
    owner: NodeId,
    version: Version,
}

impl ManagedLock {
    fn new(manager: NodeId) -> Self {
        ManagedLock {
            readers: BTreeSet::new(),
            writer: None,
            queue: VecDeque::new(),
            owner: manager,
            version: Version::INITIAL,
        }
    }

    fn compatible(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Read => self.writer.is_none(),
            LockMode::Write => self.writer.is_none() && self.readers.is_empty(),
        }
    }

    fn add_holder(&mut self, who: NodeId, mode: LockMode) {
        match mode {
            LockMode::Read => {
                self.readers.insert(who);
            }
            LockMode::Write => self.writer = Some(who),
        }
    }

    fn remove_holder(&mut self, who: NodeId) {
        if self.writer == Some(who) {
            self.writer = None;
        } else {
            self.readers.remove(&who);
        }
    }
}

/// Entry-consistency protocol counters (the inputs to the paper's Fig. 8
/// overhead breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EcMetrics {
    /// Locks acquired in total.
    pub acquires: u64,
    /// Acquires satisfied by the manager-local fast path (no messages).
    pub local_grants: u64,
    /// Object bodies pulled from owners after grants.
    pub pulls: u64,
    /// Time from sending a lockset's first request until all its grants
    /// arrived (excludes pull time).
    pub lock_wait: SimSpan,
    /// Time spent pulling object bodies from owners.
    pub pull_time: SimSpan,
}

impl EcMetrics {
    /// Element-wise sum for cluster-wide aggregation.
    pub fn merged(&self, other: &EcMetrics) -> EcMetrics {
        EcMetrics {
            acquires: self.acquires + other.acquires,
            local_grants: self.local_grants + other.local_grants,
            pulls: self.pulls + other.pulls,
            lock_wait: self.lock_wait + other.lock_wait,
            pull_time: self.pull_time + other.pull_time,
        }
    }
}

/// One process of an entry-consistent application.
///
/// The typical iteration mirrors the paper's game loop:
///
/// 1. [`EntryConsistency::acquire`] a sorted lockset (reads for the visible
///    range, writes for the cells a move may touch);
/// 2. read replicas and decide;
/// 3. [`EntryConsistency::write`] under the write locks;
/// 4. [`EntryConsistency::release_all`] (owners recorded at the managers).
#[derive(Debug)]
pub struct EntryConsistency<E: Endpoint> {
    runtime: SdsoRuntime<E>,
    managed: BTreeMap<ObjectId, ManagedLock>,
    /// Grants received but not yet consumed by `acquire`: `(object, owner,
    /// version)`, one per object.
    granted: Vec<(ObjectId, NodeId, Version)>,
    /// Locks currently held by this process, one per object.
    held: Vec<(ObjectId, LockMode)>,
    /// The lockset `acquire` works through, sorted; kept for its storage.
    lockset: Vec<LockRequest>,
    /// What the current call has yet to send, in order; kept for its
    /// storage ([`EntryConsistency::flush`]).
    out: Vec<(NodeId, EcMessage)>,
    /// Peers that have announced the end of their run.
    dones_seen: usize,
    /// Peers that have completed their final-sync state pushes.
    sync_dones_seen: usize,
    /// Epoch-stamped messages from peers that already crossed a
    /// view-change barrier this process has not reached yet; drained
    /// after [`EntryConsistency::apply_view_change`].
    deferred: VecDeque<(NodeId, EcMessage)>,
    metrics: EcMetrics,
}

impl<E: Endpoint> EntryConsistency<E> {
    /// Wraps a runtime whose objects are already shared.
    pub fn new(runtime: SdsoRuntime<E>) -> Self {
        EntryConsistency {
            runtime,
            managed: BTreeMap::new(),
            granted: Vec::new(),
            held: Vec::new(),
            lockset: Vec::new(),
            out: Vec::new(),
            dones_seen: 0,
            sync_dones_seen: 0,
            deferred: VecDeque::new(),
            metrics: EcMetrics::default(),
        }
    }

    /// The manager of `object` in a cluster of `n`: process `object mod n`
    /// ("the lock managers are distributed evenly and statically amongst
    /// the processors"). The static-membership special case of
    /// [`EntryConsistency::manager_of_view`].
    pub fn manager_of(object: ObjectId, n: usize) -> NodeId {
        (object.0 % n as u32) as NodeId
    }

    /// The manager of `object` under the current membership view: the live
    /// members sorted ascending, indexed by `object mod |members|`. With
    /// the full static group this is the paper's `object mod n`; under
    /// churn the mapping re-distributes manager duty over exactly the
    /// processes that exist.
    pub fn manager_of_view(&self, object: ObjectId) -> NodeId {
        let members = self.runtime.membership().members();
        let idx = object.0 as usize % members.len();
        // The index is in range by construction; a view always contains at
        // least this process, so the fallback cannot be reached.
        members.iter().copied().nth(idx).unwrap_or_else(|| self.runtime.node_id())
    }

    /// The underlying runtime (object reads, metrics).
    pub fn runtime(&self) -> &SdsoRuntime<E> {
        &self.runtime
    }

    /// Mutable runtime access.
    pub fn runtime_mut(&mut self) -> &mut SdsoRuntime<E> {
        &mut self.runtime
    }

    /// Dismantles the lock layer, returning the underlying runtime. Any
    /// outstanding grants or queued requests are abandoned — callers model
    /// a process that stops participating abruptly (crash-fault paths) or
    /// one that has already released everything.
    pub fn into_runtime(self) -> SdsoRuntime<E> {
        self.runtime
    }

    /// Protocol counters.
    pub fn metrics(&self) -> EcMetrics {
        self.metrics
    }

    /// Acquires every lock in `locks`, in ascending object-id order
    /// (deadlock prevention by total ordering), pulling stale object copies
    /// from their owners as grants arrive.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; duplicate objects in one lockset, or
    /// a request for a lock this process already holds (locksets do not
    /// nest), are a [`DsoError::ProtocolViolation`].
    pub fn acquire(&mut self, locks: &[LockRequest]) -> Result<(), DsoError> {
        let mut sorted = std::mem::take(&mut self.lockset);
        sorted.clear();
        sorted.extend_from_slice(locks);
        sorted.sort_by_key(|l| l.object);
        let acquired = self.acquire_sorted(&sorted);
        self.lockset = sorted;
        acquired
    }

    /// [`EntryConsistency::acquire`] of a lockset sorted by object.
    fn acquire_sorted(&mut self, sorted: &[LockRequest]) -> Result<(), DsoError> {
        for pair in sorted.windows(2) {
            if pair[0].object == pair[1].object {
                return Err(DsoError::ProtocolViolation(format!(
                    "lockset contains {} twice",
                    pair[0].object
                )));
            }
        }
        let me = self.runtime.node_id();
        for &req in sorted {
            if self.held.iter().any(|&(object, _)| object == req.object) {
                return Err(DsoError::ProtocolViolation(format!(
                    "lock {} already held; locksets do not nest",
                    req.object
                )));
            }
            let wait_start = self.runtime.now();
            self.runtime.obs().record(
                wait_start.as_micros(),
                EventKind::LockAcquire,
                req.object.0,
                obs_mode(req.mode),
                0,
            );
            let manager = self.manager_of_view(req.object);
            if manager == me {
                self.metrics.local_grants += 1;
                self.local_acquire(req.object, req.mode)?;
            } else {
                let epoch = self.runtime.epoch();
                let acquire = EcMessage::Acquire { object: req.object, mode: req.mode, epoch };
                self.out.push((manager, acquire));
                self.flush()?;
            }
            // Wait for the grant (self-grants land in `granted` too).
            let (owner, version) = loop {
                if let Some(at) = self.granted.iter().position(|g| g.0 == req.object) {
                    let (_, owner, version) = self.granted.swap_remove(at);
                    break (owner, version);
                }
                self.pump_one()?;
            };
            let granted_at = self.runtime.now();
            self.runtime.obs().record(
                granted_at.as_micros(),
                EventKind::LockGrant,
                req.object.0,
                obs_mode(req.mode),
                0,
            );
            self.metrics.lock_wait += granted_at.saturating_since(wait_start);
            self.metrics.acquires += 1;
            self.held.push((req.object, req.mode));
            // Pull the up-to-date copy if ours is stale.
            if owner != me && version > self.runtime.version_of(req.object)? {
                let pull_start = self.runtime.now();
                self.runtime.sync_get(owner, req.object)?;
                self.metrics.pulls += 1;
                self.metrics.pull_time += self.runtime.now().saturating_since(pull_start);
            }
        }
        Ok(())
    }

    /// Writes under a held write lock, bumping the object's version.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::ProtocolViolation`] if the write lock is not
    /// held, plus any store error.
    pub fn write(&mut self, object: ObjectId, offset: u32, bytes: &[u8]) -> Result<(), DsoError> {
        if !self.held.contains(&(object, LockMode::Write)) {
            return Err(DsoError::ProtocolViolation(format!(
                "write to {object} without an exclusive lock"
            )));
        }
        let me = self.runtime.node_id();
        let old = self.runtime.version_of(object)?;
        let version = Version::new(LogicalTime::from_ticks(old.time.as_ticks() + 1), me);
        self.runtime.write_local(object, offset, bytes, version)
    }

    /// Reads an object (valid for any held lock; EC only guarantees
    /// freshness for objects in the current lockset).
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] for unshared objects.
    pub fn read(&self, object: ObjectId) -> Result<&[u8], DsoError> {
        self.runtime.read(object)
    }

    /// Releases every held lock, telling each manager whether the object
    /// was modified (so it can update the owner pointer). The Releases and
    /// the Grants they free at this process's own managers go out in order,
    /// each run of consecutive messages to one peer as one write.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn release_all(&mut self, modified: &BTreeSet<ObjectId>) -> Result<(), DsoError> {
        let me = self.runtime.node_id();
        let mut held = std::mem::take(&mut self.held);
        held.sort_unstable_by_key(|&(object, _)| object);
        for (object, _mode) in held.drain(..) {
            self.runtime.obs().record(
                self.runtime.now().as_micros(),
                EventKind::LockRelease,
                object.0,
                0,
                0,
            );
            let was_modified = modified.contains(&object);
            let version = match self.runtime.version_of(object) {
                Ok(version) => version,
                Err(e) => {
                    // A release that fails sends none of what it queued.
                    self.out.clear();
                    return Err(e);
                }
            };
            let manager = self.manager_of_view(object);
            if manager == me {
                self.local_release(object, me, was_modified, version);
            } else {
                let release = EcMessage::Release { object, modified: was_modified, version };
                self.out.push((manager, release));
            }
        }
        self.held = held;
        self.flush()
    }

    /// Announces the end of this process's run, then keeps serving manager
    /// duties (grants, releases, pulls) until every other process has
    /// announced too. Required for fixed-length runs: a finished process
    /// may still manage locks and own up-to-date copies that others need.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn finish(&mut self) -> Result<(), DsoError> {
        let me = self.runtime.node_id();
        let peers = self.runtime.membership().peers_of(me);
        self.runtime
            .send_app(MsgClass::Control, peers.iter().map(|&peer| (peer, &EcMessage::Done)))?;
        while self.dones_seen < peers.len() {
            self.pump_one()?;
        }
        Ok(())
    }

    /// Disseminates final object state so every replica converges before
    /// its terminal snapshot. Must be called after [`EntryConsistency::finish`]
    /// (every process has stopped iterating).
    ///
    /// Each process pushes every object whose replica it wrote last — by
    /// construction the globally newest version of an object lives at its
    /// writer — to every peer, and receivers apply each body
    /// version-gated, so every live replica ends holding every newest
    /// body. A second barrier (`SyncDone`) keeps everyone serving until
    /// all pushes have landed. The pushes are control-class termination
    /// traffic, not part of the paper's measured data exchange; see
    /// [`EntryConsistency::view_sync`] for their shape.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn final_sync(&mut self) -> Result<(), DsoError> {
        self.view_sync()
    }

    /// Flush barrier over the current view: every member pushes its
    /// last-written objects and waits for every other member's pushes,
    /// leaving all live replicas convergent. The push is one `State` per
    /// peer, sent only by a member that wrote some object last: each
    /// object rides as the diff from its registered body, which every
    /// process holds (S-DSO registers identical bodies everywhere, a late
    /// joiner and a restarted process included), so a flush costs the
    /// bytes the run changed, not whole bodies. Reusable — the
    /// barrier counter resets on completion — so churn drivers run one
    /// flush per view change (with no locks held) before
    /// [`EntryConsistency::apply_view_change`], and a leaver's newest
    /// writes are disseminated before it exits.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn view_sync(&mut self) -> Result<(), DsoError> {
        let me = self.runtime.node_id();
        let peers = self.runtime.membership().peers_of(me);
        let mut entries = Vec::new();
        for object in self.runtime.object_ids() {
            let version = self.runtime.version_of(object)?;
            if version.writer != me || version.time == LogicalTime::ZERO {
                continue;
            }
            let diff = Diff::between(self.runtime.registered(object)?, self.runtime.read(object)?);
            entries.push((object, version, diff));
        }
        if !entries.is_empty() {
            let state = EcMessage::State { entries };
            self.runtime.send_app(MsgClass::Control, peers.iter().map(|&peer| (peer, &state)))?;
        }
        let sync_done = EcMessage::SyncDone { epoch: self.runtime.epoch() };
        self.runtime.send_app(MsgClass::Control, peers.iter().map(|&peer| (peer, &sync_done)))?;
        while self.sync_dones_seen < peers.len() {
            self.pump_one()?;
        }
        self.sync_dones_seen = 0;
        Ok(())
    }

    /// Applies one membership change at a view-change barrier.
    ///
    /// Contract: every member of the *old* view has completed a
    /// [`EntryConsistency::view_sync`] flush with no locks held, so all
    /// live replicas hold the newest copy of every object and no lock or
    /// pull traffic is in flight. Under that contract lock state restarts
    /// from scratch in the new view: a leaver's holds and queue entries
    /// are implicitly revoked, and ownership of every object transfers to
    /// its (re-mapped) manager. The fresh `Version::INITIAL` owner floor
    /// is correct post-flush — no grant can name a newer copy than the
    /// acquirer already holds, so no stale pull is ever issued. Last, the
    /// donor pushes each joiner its snapshot.
    ///
    /// # Errors
    ///
    /// Propagates runtime view-change and transport failures.
    pub fn apply_view_change(&mut self, change: &ViewChange) -> Result<(), DsoError> {
        self.runtime.apply_view_change(change, &mut Never)?;
        self.managed.clear();
        self.granted.clear();
        // Replay traffic from peers that crossed this barrier first: their
        // new-epoch acquires now land on the fresh lock state (re-deferring
        // anything stamped even further ahead).
        let deferred = std::mem::take(&mut self.deferred);
        for (from, msg) in deferred {
            self.handle(from, msg)?;
        }
        self.runtime.push_snapshots(change)
    }

    /// Services any pending protocol traffic without blocking; call freely
    /// between iterations so manager duties don't lag behind.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn service_pending(&mut self) -> Result<(), DsoError> {
        while let Some((from, msg)) = self.runtime.try_recv_app()? {
            self.handle(from, msg)?;
        }
        Ok(())
    }

    /// Blocks on one message and services it.
    fn pump_one(&mut self) -> Result<(), DsoError> {
        let (from, msg) = self.runtime.recv_app()?;
        self.handle(from, msg)
    }

    /// Manager-side + client-side message dispatch. Epoch-stamped messages
    /// from beyond the next view-change barrier are deferred, not acted on:
    /// granting (or barrier-counting) them under lock state the barrier is
    /// about to reset would leak the grant when
    /// [`EntryConsistency::apply_view_change`] clears it.
    fn handle(&mut self, from: NodeId, msg: EcMessage) -> Result<(), DsoError> {
        if let EcMessage::Acquire { epoch, .. } | EcMessage::SyncDone { epoch } = msg {
            if epoch > self.runtime.epoch() {
                self.deferred.push_back((from, msg));
                return Ok(());
            }
        }
        match msg {
            EcMessage::Acquire { object, mode, epoch: _ } => {
                let me = self.runtime.node_id();
                let lock = self.managed.entry(object).or_insert_with(|| ManagedLock::new(me));
                if lock.queue.is_empty() && lock.compatible(mode) {
                    lock.add_holder(from, mode);
                    let (owner, version) = (lock.owner, lock.version);
                    self.deliver_grant(from, object, owner, version);
                } else {
                    lock.queue.push_back((from, mode));
                }
            }
            EcMessage::Release { object, modified, version } => {
                self.local_release(object, from, modified, version);
            }
            EcMessage::Grant { object, owner, version } => self.note_grant(object, owner, version),
            EcMessage::Done => self.dones_seen += 1,
            EcMessage::State { entries } => {
                for (object, version, diff) in entries {
                    let mut body = self.runtime.registered(object)?.to_vec();
                    diff.apply(&mut body).map_err(DsoError::Net)?;
                    self.runtime.apply_remote(object, &Diff::single(0, body), version)?;
                }
            }
            EcMessage::SyncDone { epoch: _ } => self.sync_dones_seen += 1,
        }
        self.flush()
    }

    /// Acquire when this process is the manager: grant immediately when
    /// possible, otherwise enqueue self and wait via the pump.
    fn local_acquire(&mut self, object: ObjectId, mode: LockMode) -> Result<(), DsoError> {
        let me = self.runtime.node_id();
        let epoch = self.runtime.epoch();
        self.handle(me, EcMessage::Acquire { object, mode, epoch })
    }

    /// Release processing at the manager (local or remote requester); the
    /// Grants it frees for remote waiters are queued on `self.out`.
    fn local_release(&mut self, object: ObjectId, who: NodeId, modified: bool, version: Version) {
        let me = self.runtime.node_id();
        let lock = self.managed.entry(object).or_insert_with(|| ManagedLock::new(me));
        lock.remove_holder(who);
        if modified {
            lock.owner = who;
            lock.version = version;
        }
        // Grant queued requests in FIFO order, batching compatible heads.
        while let Some(lock) = self.managed.get_mut(&object) {
            let Some(&(next, mode)) = lock.queue.front() else { break };
            if !lock.compatible(mode) {
                break;
            }
            lock.queue.pop_front();
            lock.add_holder(next, mode);
            let (owner, version) = (lock.owner, lock.version);
            self.deliver_grant(next, object, owner, version);
        }
    }

    /// Grants `object` to `to`: at once when `to` is this process, else as
    /// a Grant queued on `self.out`.
    fn deliver_grant(&mut self, to: NodeId, object: ObjectId, owner: NodeId, version: Version) {
        if to == self.runtime.node_id() {
            self.note_grant(object, owner, version);
        } else {
            self.out.push((to, EcMessage::Grant { object, owner, version }));
        }
    }

    /// Files a grant of `object` for `acquire`, replacing an unconsumed one.
    fn note_grant(&mut self, object: ObjectId, owner: NodeId, version: Version) {
        match self.granted.iter_mut().find(|g| g.0 == object) {
            Some(grant) => *grant = (object, owner, version),
            None => self.granted.push((object, owner, version)),
        }
    }

    /// Sends what `self.out` holds in order, each run of consecutive
    /// messages to one peer as one transport write, and empties it.
    fn flush(&mut self) -> Result<(), DsoError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let out = self.out.iter().map(|(to, msg)| (*to, msg));
        let sent = self.runtime.send_app(MsgClass::Control, out);
        self.out.clear();
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_core::DsoConfig;
    use sdso_sim::{NetworkModel, SimCluster, SimEndpoint};

    type Process = EntryConsistency<SimEndpoint>;

    /// Runs `f` on every process of an `n`-process instant simulator, each
    /// sharing `objects` zeroed objects of `size` bytes, and hands back what
    /// each returned. A process that panics fails the test.
    ///
    /// Among equal clocks the simulator runs the lowest id first, so a
    /// process 0 that never waits finishes before process 1 takes a
    /// message: a test may hand-drive process 0, then read what reached
    /// process 1.
    fn cluster_of<T, F>(n: usize, objects: u32, size: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Process) -> T + Send + Sync + 'static,
    {
        let run = SimCluster::new(n, NetworkModel::instant()).run(move |ep| {
            let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
            for id in 0..objects {
                rt.share(ObjectId(id), vec![0u8; size]).unwrap();
            }
            Ok(f(EntryConsistency::new(rt)))
        });
        run.unwrap().into_results().unwrap()
    }

    fn cluster<T, F>(n: usize, objects: u32, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Process) -> T + Send + Sync + 'static,
    {
        cluster_of(n, objects, 8, f)
    }

    /// Runs `f` on process 0 of `n`; the others are only there to be
    /// addressed.
    fn at_process_0(n: usize, objects: u32, f: impl Fn(&mut Process) + Send + Sync + 'static) {
        cluster(n, objects, move |mut node| {
            if node.runtime().node_id() == 0 {
                f(&mut node);
            }
        });
    }

    fn v(ticks: u64, writer: NodeId) -> Version {
        Version::new(LogicalTime::from_ticks(ticks), writer)
    }

    #[test]
    fn wire_roundtrip() {
        for msg in [
            EcMessage::Acquire { object: ObjectId(5), mode: LockMode::Write, epoch: Epoch(3) },
            EcMessage::SyncDone { epoch: Epoch(7) },
            EcMessage::Grant {
                object: ObjectId(5),
                owner: 2,
                version: Version::new(LogicalTime::from_ticks(9), 1),
            },
            EcMessage::Release {
                object: ObjectId(5),
                modified: true,
                version: Version::new(LogicalTime::from_ticks(10), 0),
            },
        ] {
            let decoded: EcMessage = sdso_net::wire::decode(&sdso_net::wire::encode(&msg)).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn state_roundtrips_its_entries_and_their_diffs() {
        let registered = [0u8; 64];
        let mut written = registered;
        written[3] = 1;
        written[20..24].copy_from_slice(&[2, 3, 4, 5]);
        written[63] = 6;
        let runs = Diff::between(&registered, &written);
        assert_eq!(runs.run_count(), 3);
        let msg = EcMessage::State {
            entries: vec![(ObjectId(2), v(4, 1), Diff::empty()), (ObjectId(7), v(9, 1), runs)],
        };
        let decoded: EcMessage = sdso_net::wire::decode(&sdso_net::wire::encode(&msg)).unwrap();
        assert_eq!(decoded, msg);
    }

    /// A peer's stale image of an object whose newest body is its
    /// registered one: the newest writer's diff is empty, and the peer
    /// must still end holding the registered bytes at the newest version.
    #[test]
    fn an_empty_diff_overwrites_a_stale_image() {
        let object = ObjectId(0);
        let nodes = cluster(2, 1, move |mut node| {
            node.runtime_mut().write_local(object, 0, &[5], v(1, 1)).unwrap();
            if node.runtime().node_id() == 0 {
                node.runtime_mut().write_local(object, 0, &[0], v(2, 0)).unwrap();
                assert_eq!(node.read(object).unwrap(), node.runtime().registered(object).unwrap());
            }
            node.view_sync().unwrap();
            node
        });
        for node in &nodes {
            assert_eq!(node.read(object).unwrap(), &[0u8; 8]);
            assert_eq!(node.runtime().version_of(object).unwrap(), v(2, 0));
        }
    }

    /// A flush sends one `State` to each peer, whatever number of objects
    /// it carries, and its size follows the bytes that changed: a 4 KiB
    /// object with one changed byte costs tens of bytes, not its body.
    #[test]
    fn a_flush_sends_one_state_per_peer_sized_by_the_changed_bytes() {
        let flushed = cluster_of(3, 4, 4096, |mut node| {
            if node.runtime().node_id() == 0 {
                for (id, at) in [(0, 17), (2, 4095)] {
                    node.runtime_mut().write_local(ObjectId(id), at, &[9], v(1, 0)).unwrap();
                }
            }
            let before = node.runtime().net_metrics().control_sent;
            node.view_sync().unwrap();
            (before, node)
        });
        let before = flushed[0].0;
        let nodes: Vec<_> = flushed.into_iter().map(|(_, node)| node).collect();
        let sent = nodes[0].runtime().net_metrics().control_sent;
        let (msgs, bytes) = (sent.msgs - before.msgs, sent.bytes - before.bytes);
        assert_eq!(msgs, 4, "one State and one SyncDone to each of two peers");
        let sync_done = sdso_net::wire::encode(&EcMessage::SyncDone { epoch: Epoch::ZERO }).len();
        let state = bytes / 2 - sync_done as u64;
        assert!(state < 256, "a State of two one-byte diffs took {state} bytes");
        for node in &nodes {
            assert_eq!(node.read(ObjectId(0)).unwrap()[17], 9);
            assert_eq!(node.read(ObjectId(2)).unwrap()[4095], 9);
            assert_eq!(node.runtime().version_of(ObjectId(2)).unwrap(), v(1, 0));
        }
        // Peers that wrote nothing last send no State at all.
        let quiet = nodes[1].runtime().net_metrics().control_sent.msgs;
        assert_eq!(quiet, 2, "a SyncDone to each peer, no State");
    }

    #[test]
    fn manager_assignment_is_static_and_even() {
        let counts = (0..32u32).fold([0usize; 4], |mut acc, id| {
            acc[usize::from(Process::manager_of(ObjectId(id), 4))] += 1;
            acc
        });
        assert_eq!(counts, [8, 8, 8, 8]);
    }

    #[test]
    fn local_lock_no_messages() {
        // One node: every manager is local; no traffic at all.
        at_process_0(1, 4, |node| {
            node.acquire(&[LockRequest::write(ObjectId(0))]).unwrap();
            node.write(ObjectId(0), 0, &[7]).unwrap();
            node.release_all(&BTreeSet::from([ObjectId(0)])).unwrap();
            assert_eq!(node.runtime().net_metrics().total_sent(), 0);
            assert_eq!(node.metrics().local_grants, 1);
        });
    }

    #[test]
    fn write_without_lock_rejected() {
        at_process_0(1, 1, |node| {
            assert!(matches!(
                node.write(ObjectId(0), 0, &[1]),
                Err(DsoError::ProtocolViolation(_))
            ));
        });
    }

    #[test]
    fn writes_propagate_through_pull() {
        // Node 0 writes object 1 (managed by node 1); node 1 then reads it.
        // Each ends in `finish`, which serves manager duties and pulls until
        // the other is done too.
        cluster(2, 2, |mut node| {
            if node.runtime().node_id() == 0 {
                node.acquire(&[LockRequest::write(ObjectId(1))]).unwrap();
                node.write(ObjectId(1), 0, &[42]).unwrap();
                node.release_all(&BTreeSet::from([ObjectId(1)])).unwrap();
            } else {
                // Serve manager duties until node 0's release lands (owner
                // of object 1 becomes node 0), then acquire & read.
                while node.managed.get(&ObjectId(1)).is_none_or(|l| l.owner != 0) {
                    node.pump_one().unwrap();
                }
                node.acquire(&[LockRequest::read(ObjectId(1))]).unwrap();
                assert_eq!(node.read(ObjectId(1)).unwrap()[0], 42);
                assert_eq!(node.metrics().pulls, 1);
                node.release_all(&BTreeSet::new()).unwrap();
            }
            node.finish().unwrap();
        });
    }

    #[test]
    fn release_all_sends_one_batch_per_run_of_messages_to_one_peer() {
        use sdso_net::{Recorder, TraceConfig};
        cluster(2, 4, |mut node| {
            if node.runtime().node_id() == 1 {
                node.service_pending().unwrap();
                assert!(node.granted.iter().any(|g| g.0 == ObjectId(0)), "the freed Grant arrived");
                assert_eq!(node.managed[&ObjectId(1)].owner, 0);
                assert_eq!(node.managed[&ObjectId(3)].owner, 0);
                return;
            }
            let recorder = Recorder::new(0, TraceConfig::counters());
            node.runtime_mut().endpoint_mut().attach_recorder(recorder.clone());
            // Node 0 manages object 0 and holds it, with node 1 queued behind;
            // it also holds objects 1 and 3, which node 1 manages.
            node.acquire(&[LockRequest::write(ObjectId(0))]).unwrap();
            let acquire = EcMessage::Acquire {
                object: ObjectId(0),
                mode: LockMode::Write,
                epoch: Epoch::ZERO,
            };
            node.handle(1, acquire).unwrap();
            node.held.push((ObjectId(1), LockMode::Write));
            node.held.push((ObjectId(3), LockMode::Write));
            node.release_all(&BTreeSet::from([ObjectId(1), ObjectId(3)])).unwrap();
            let counts = recorder.counts();
            assert_eq!(counts[EventKind::Send as usize], 3, "a Grant and two Releases");
            assert_eq!(counts[EventKind::BatchSend as usize], 1, "all three in one write");
        });
    }

    /// A release that fails partway (here, on an object that is not shared)
    /// sends nothing, then or with a later call.
    #[test]
    fn a_failed_release_leaves_nothing_to_send() {
        cluster(2, 4, |mut node| {
            if node.runtime().node_id() == 1 {
                node.service_pending().unwrap();
                assert!(!node.managed.contains_key(&ObjectId(1)), "object 1's Release went out");
                return;
            }
            node.held.push((ObjectId(1), LockMode::Write));
            node.held.push((ObjectId(9), LockMode::Write));
            let failed = node.release_all(&BTreeSet::new());
            assert!(matches!(failed, Err(DsoError::UnknownObject(_))), "{failed:?}");
            node.release_all(&BTreeSet::new()).unwrap();
        });
    }

    #[test]
    fn duplicate_lockset_rejected() {
        at_process_0(1, 2, |node| {
            let (r, w) = (LockRequest::read, LockRequest::write);
            // Adjacent and apart: only the sort brings a split duplicate
            // together, so the check sees it before any lock is taken.
            let adjacent = [r(ObjectId(0)), w(ObjectId(0))];
            let apart = [w(ObjectId(0)), w(ObjectId(1)), r(ObjectId(0))];
            for lockset in [&adjacent[..], &apart[..]] {
                let err = node.acquire(lockset).unwrap_err();
                assert!(
                    matches!(&err, DsoError::ProtocolViolation(m) if m.contains("twice")),
                    "{lockset:?}: {err}"
                );
                assert!(node.held.is_empty(), "{lockset:?} took a lock before its rejection");
            }
        });
    }

    #[test]
    fn queued_writer_waits_for_reader_release() {
        // Node 0 exercises its manager queueing logic directly through
        // handle; the simulated contenders (9, …) are real cluster members
        // whose endpoints simply never read their grants.
        at_process_0(10, 1, |node| {
            // A remote reader (fictitious node id 0 is us; use handle with from=0
            // only for self) — instead simulate: we hold the read lock, then a
            // queued self-write must wait. Single-node can't deadlock because
            // release drains the queue.
            node.acquire(&[LockRequest::read(ObjectId(0))]).unwrap();
            // A (simulated) remote writer request goes into the queue.
            node.handle(
                9,
                EcMessage::Acquire {
                    object: ObjectId(0),
                    mode: LockMode::Write,
                    epoch: Epoch::ZERO,
                },
            )
            .unwrap();
            assert_eq!(node.managed[&ObjectId(0)].queue.len(), 1);
            node.release_all(&BTreeSet::new()).unwrap();
            // Release drained the queue: the writer got the lock.
            assert_eq!(node.managed[&ObjectId(0)].queue.len(), 0);
            assert_eq!(node.managed[&ObjectId(0)].writer, Some(9));
        });
    }

    #[test]
    fn manager_mapping_follows_the_view() {
        at_process_0(4, 4, |node| {
            let plan = sdso_core::MembershipPlan::new(4, [0, 2, 3]);
            assert_eq!(node.runtime_mut().enter(&plan, None).unwrap(), 1);
            // Members sorted {0, 2, 3}: object k maps to the k-mod-3rd member,
            // never to absent node 1.
            assert_eq!(node.manager_of_view(ObjectId(0)), 0);
            assert_eq!(node.manager_of_view(ObjectId(1)), 2);
            assert_eq!(node.manager_of_view(ObjectId(2)), 3);
            assert_eq!(node.manager_of_view(ObjectId(3)), 0);
        });
    }

    #[test]
    fn view_change_revokes_leaver_holds_and_remaps() {
        use sdso_core::ViewChange;
        // Node 0 manages object 0 and has granted a write lock to node 3;
        // node 3 then leaves at a barrier without releasing.
        at_process_0(4, 2, |node| {
            node.handle(
                3,
                EcMessage::Acquire {
                    object: ObjectId(0),
                    mode: LockMode::Write,
                    epoch: Epoch::ZERO,
                },
            )
            .unwrap();
            assert_eq!(node.managed[&ObjectId(0)].writer, Some(3));
            node.apply_view_change(&ViewChange::leave([3])).unwrap();
            assert!(node.managed.is_empty(), "the leaver's hold is revoked");
            // Fresh acquires succeed under the new 3-member view (objects 0
            // and 1 both manage locally at node 0 now: {0,1,2}[k mod 3]).
            node.acquire(&[LockRequest::write(ObjectId(0))]).unwrap();
            node.write(ObjectId(0), 0, &[5]).unwrap();
            node.release_all(&BTreeSet::from([ObjectId(0)])).unwrap();
            assert_eq!(node.managed[&ObjectId(0)].owner, 0);
        });
    }

    #[test]
    fn future_epoch_acquire_defers_until_the_barrier() {
        use sdso_core::ViewChange;
        // A peer one barrier ahead acquires under epoch 1 while this
        // manager is still at epoch 0 (inside the view-change barrier):
        // acting on it now would grant under lock state the view change is
        // about to clear, silently losing the lock.
        at_process_0(4, 2, |node| {
            node.handle(
                2,
                EcMessage::Acquire { object: ObjectId(0), mode: LockMode::Write, epoch: Epoch(1) },
            )
            .unwrap();
            assert!(node.managed.is_empty(), "future-epoch acquire must not touch lock state");
            node.apply_view_change(&ViewChange::leave([3])).unwrap();
            assert_eq!(
                node.managed[&ObjectId(0)].writer,
                Some(2),
                "deferred acquire granted once the barrier is crossed"
            );
        });
    }

    #[test]
    fn fifo_prevents_queue_jumping() {
        at_process_0(10, 1, |node| {
            let acq = |mode| EcMessage::Acquire { object: ObjectId(0), mode, epoch: Epoch::ZERO };
            // Simulated remote writer holds the lock...
            node.handle(7, acq(LockMode::Write)).unwrap();
            // ...a remote writer queues...
            node.handle(8, acq(LockMode::Write)).unwrap();
            // ...then a compatible-looking reader must still queue behind it.
            node.handle(9, acq(LockMode::Read)).unwrap();
            assert_eq!(node.managed[&ObjectId(0)].queue.len(), 2);
            // First release grants the writer only; second grants the reader.
            node.handle(
                7,
                EcMessage::Release {
                    object: ObjectId(0),
                    modified: false,
                    version: Version::INITIAL,
                },
            )
            .unwrap();
            assert_eq!(node.managed[&ObjectId(0)].writer, Some(8));
            assert_eq!(node.managed[&ObjectId(0)].queue.len(), 1);
        });
    }
}
