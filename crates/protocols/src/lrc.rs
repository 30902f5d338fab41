//! Lazy release consistency (LRC), Treadmarks-style.
//!
//! "With LRC, updates to shared data are propagated when locks are
//! transferred between processes. Unlike EC, LRC has no explicit
//! associations between shared data and synchronization primitives. […]
//! data dependencies are recorded using vector timestamps, and a
//! history-based mechanism determines what data modifications have to be
//! transferred with the lock" (paper §2.3). The paper chose EC over LRC as
//! its baseline precisely because "LRC must include information about
//! changes to all shared data objects" — this implementation exists to
//! quantify that in the Ext. D ablation.
//!
//! Structure: every lock has a statically-placed manager that tracks the
//! lock's last releaser. An acquirer asks the manager, which queues or
//! grants; the grant names the last releaser. The acquirer then sends the
//! releaser its vector timestamp; the releaser replies with every interval
//! (vector-stamped batch of write diffs, its own and relayed third-party
//! ones) the acquirer has not yet seen. Intervals are applied in vector
//! order. Diffs travel eagerly with the intervals (the original system's
//! lazy-diff fetch is a bandwidth optimisation orthogonal to the message
//! pattern measured here).

use std::collections::{BTreeMap, VecDeque};

use sdso_core::{Diff, DsoError, ObjectId, SdsoRuntime, Version};
use sdso_net::wire::{Wire, WireReader, WireWriter};
use sdso_net::{Endpoint, MsgClass, NetError, NodeId, SimSpan};

use crate::vector_clock::VectorClock;

/// A lock identifier (LRC locks are not tied to objects).
pub type LockId = u32;

/// One write inside an interval.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IntervalWrite {
    object: ObjectId,
    diff: Diff,
}

impl Wire for IntervalWrite {
    fn encode(&self, w: &mut WireWriter) {
        self.object.encode(w);
        self.diff.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(IntervalWrite { object: ObjectId::decode(r)?, diff: Diff::decode(r)? })
    }
}

/// A vector-stamped batch of writes performed by one process between two
/// release points.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Interval {
    owner: NodeId,
    /// The owner's interval index (its own vector component).
    index: u64,
    /// The owner's full vector clock at the closing release: the causal
    /// position of this interval. Receivers apply intervals in an order
    /// extending this partial order (component sums), so a write from an
    /// earlier lock epoch can never land on top of a later one.
    vc: VectorClock,
    writes: Vec<IntervalWrite>,
}

impl Interval {
    /// A total-order key extending the causal partial order: if interval a
    /// happened-before b then `a.vc` is componentwise ≤ with a strictly
    /// smaller sum. Concurrent intervals (true data races under LRC) order
    /// deterministically by owner.
    fn causal_key(&self) -> (u64, NodeId, u64) {
        let sum: u64 = (0..self.vc.len() as NodeId).map(|p| self.vc.get(p)).sum();
        (sum, self.owner, self.index)
    }
}

impl Wire for Interval {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.owner);
        w.put_u64(self.index);
        self.vc.encode(w);
        w.put_seq(&self.writes, |w, iw| iw.encode(w));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(Interval {
            owner: r.get_u16()?,
            index: r.get_u64()?,
            vc: VectorClock::decode(r)?,
            writes: r.get_seq(IntervalWrite::decode)?,
        })
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum LrcMessage {
    /// To a lock's manager.
    Acquire { lock: LockId },
    /// Manager → acquirer: the lock is yours; sync with `last_releaser`
    /// (`u16::MAX` when the lock was never released — nothing to fetch).
    Grant { lock: LockId, last_releaser: NodeId },
    /// Acquirer → last releaser: send me what I lack (my vector enclosed).
    IntervalReq { vc: VectorClock },
    /// Releaser → acquirer: the missing intervals.
    Intervals { intervals: Vec<Interval> },
    /// To the manager: done with the lock.
    Release { lock: LockId },
    /// Fixed-length runs: the sender finished its iterations.
    Done,
}

const TAG_ACQUIRE: u8 = 1;
const TAG_GRANT: u8 = 2;
const TAG_IREQ: u8 = 3;
const TAG_INTERVALS: u8 = 4;
const TAG_RELEASE: u8 = 5;
const TAG_DONE: u8 = 6;

impl Wire for LrcMessage {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            LrcMessage::Acquire { lock } => {
                w.put_u8(TAG_ACQUIRE);
                w.put_u32(*lock);
            }
            LrcMessage::Grant { lock, last_releaser } => {
                w.put_u8(TAG_GRANT);
                w.put_u32(*lock);
                w.put_u16(*last_releaser);
            }
            LrcMessage::IntervalReq { vc } => {
                w.put_u8(TAG_IREQ);
                vc.encode(w);
            }
            LrcMessage::Intervals { intervals } => {
                w.put_u8(TAG_INTERVALS);
                w.put_seq(intervals, |w, i| i.encode(w));
            }
            LrcMessage::Release { lock } => {
                w.put_u8(TAG_RELEASE);
                w.put_u32(*lock);
            }
            LrcMessage::Done => w.put_u8(TAG_DONE),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        match r.get_u8()? {
            TAG_ACQUIRE => Ok(LrcMessage::Acquire { lock: r.get_u32()? }),
            TAG_GRANT => Ok(LrcMessage::Grant { lock: r.get_u32()?, last_releaser: r.get_u16()? }),
            TAG_IREQ => Ok(LrcMessage::IntervalReq { vc: VectorClock::decode(r)? }),
            TAG_INTERVALS => Ok(LrcMessage::Intervals { intervals: r.get_seq(Interval::decode)? }),
            TAG_RELEASE => Ok(LrcMessage::Release { lock: r.get_u32()? }),
            TAG_DONE => Ok(LrcMessage::Done),
            tag => Err(NetError::Codec(format!("unknown LrcMessage tag {tag:#x}"))),
        }
    }
}

/// Manager-side state of one LRC lock.
#[derive(Debug)]
struct ManagedLock {
    held_by: Option<NodeId>,
    queue: VecDeque<NodeId>,
    last_releaser: Option<NodeId>,
}

impl ManagedLock {
    fn new() -> Self {
        ManagedLock { held_by: None, queue: VecDeque::new(), last_releaser: None }
    }
}

/// LRC protocol counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LrcMetrics {
    /// Lock acquisitions completed.
    pub acquires: u64,
    /// Intervals shipped to other processes.
    pub intervals_sent: u64,
    /// Intervals received and applied.
    pub intervals_applied: u64,
    /// Time blocked waiting for grants and interval transfers.
    pub lock_wait: SimSpan,
}

/// One process of an LRC application.
#[derive(Debug)]
pub struct Lrc<E: Endpoint> {
    runtime: SdsoRuntime<E>,
    vc: VectorClock,
    /// Writes of the current (open) interval.
    open_writes: BTreeMap<ObjectId, Diff>,
    /// Every interval this process knows (its own and relayed), keyed by
    /// (owner, index).
    log: BTreeMap<(NodeId, u64), Interval>,
    managed: BTreeMap<LockId, ManagedLock>,
    /// Grants received, keyed by lock.
    grants: BTreeMap<LockId, NodeId>,
    /// Interval bundles received (from a releaser) awaiting the acquire
    /// that requested them.
    interval_replies: VecDeque<Vec<Interval>>,
    dones_seen: usize,
    metrics: LrcMetrics,
}

impl<E: Endpoint> Lrc<E> {
    /// Wraps a runtime whose objects are already shared.
    pub fn new(runtime: SdsoRuntime<E>) -> Self {
        let n = runtime.num_nodes();
        Lrc {
            runtime,
            vc: VectorClock::new(n),
            open_writes: BTreeMap::new(),
            log: BTreeMap::new(),
            managed: BTreeMap::new(),
            grants: BTreeMap::new(),
            interval_replies: VecDeque::new(),
            dones_seen: 0,
            metrics: LrcMetrics::default(),
        }
    }

    /// The lock manager of `lock` in a cluster of `n`.
    pub fn manager_of(lock: LockId, n: usize) -> NodeId {
        (lock % n as u32) as NodeId
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &SdsoRuntime<E> {
        &self.runtime
    }

    /// Mutable runtime access.
    pub fn runtime_mut(&mut self) -> &mut SdsoRuntime<E> {
        &mut self.runtime
    }

    /// Dismantles the protocol layer, returning the underlying runtime.
    pub fn into_runtime(self) -> SdsoRuntime<E> {
        self.runtime
    }

    /// Protocol counters.
    pub fn metrics(&self) -> LrcMetrics {
        self.metrics
    }

    /// Reads an object's local replica.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] for unshared objects.
    pub fn read(&self, object: ObjectId) -> Result<&[u8], DsoError> {
        self.runtime.read(object)
    }

    /// Writes into the current interval (call between acquire and release).
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    pub fn write(&mut self, object: ObjectId, offset: u32, bytes: &[u8]) -> Result<(), DsoError> {
        let me = self.runtime.node_id();
        let stamp = Version::new(sdso_core::LogicalTime::from_ticks(self.vc.get(me) + 1), me);
        self.runtime.write_local(object, offset, bytes, stamp)?;
        let diff = Diff::single(offset, bytes.to_vec());
        self.open_writes.entry(object).or_default().merge_in_place(&diff);
        Ok(())
    }

    /// Acquires `lock`, fetching and applying every interval the last
    /// releaser has that this process lacks.
    ///
    /// # Errors
    ///
    /// Propagates transport and store errors.
    pub fn acquire(&mut self, lock: LockId) -> Result<(), DsoError> {
        let me = self.runtime.node_id();
        let n = self.runtime.num_nodes();
        let manager = Self::manager_of(lock, n);
        let wait_start = self.runtime.now();
        if manager == me {
            self.handle(me, LrcMessage::Acquire { lock })?;
        } else {
            self.send(manager, MsgClass::Control, LrcMessage::Acquire { lock })?;
        }
        let releaser = loop {
            if let Some(releaser) = self.grants.remove(&lock) {
                break releaser;
            }
            self.pump_one()?;
        };
        if releaser != u16::MAX && releaser != me {
            self.send(
                releaser,
                MsgClass::Control,
                LrcMessage::IntervalReq { vc: self.vc.clone() },
            )?;
            let intervals = loop {
                if let Some(intervals) = self.interval_replies.pop_front() {
                    break intervals;
                }
                self.pump_one()?;
            };
            self.apply_intervals(intervals)?;
        }
        self.metrics.lock_wait += self.runtime.now().saturating_since(wait_start);
        self.metrics.acquires += 1;
        Ok(())
    }

    /// Releases `lock`, closing the current interval.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn release(&mut self, lock: LockId) -> Result<(), DsoError> {
        let me = self.runtime.node_id();
        let n = self.runtime.num_nodes();
        // Close the interval: even an empty one advances the vector so
        // acquirers can tell releases apart.
        self.vc.increment(me);
        let index = self.vc.get(me);
        let writes = std::mem::take(&mut self.open_writes)
            .into_iter()
            .map(|(object, diff)| IntervalWrite { object, diff })
            .collect();
        self.log.insert((me, index), Interval { owner: me, index, vc: self.vc.clone(), writes });

        let manager = Self::manager_of(lock, n);
        if manager == me {
            self.handle(me, LrcMessage::Release { lock })?;
        } else {
            self.send(manager, MsgClass::Control, LrcMessage::Release { lock })?;
        }
        Ok(())
    }

    /// Announces the end of this process's run, then keeps serving lock
    /// and interval traffic until every other process has announced too.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn finish(&mut self) -> Result<(), DsoError> {
        let me = self.runtime.node_id();
        for peer in 0..self.runtime.num_nodes() as NodeId {
            if peer != me {
                self.send(peer, MsgClass::Control, LrcMessage::Done)?;
            }
        }
        while self.dones_seen < self.runtime.num_nodes() - 1 {
            self.pump_one()?;
        }
        Ok(())
    }

    /// Services any pending protocol traffic without blocking.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn service_pending(&mut self) -> Result<(), DsoError> {
        while let Some((from, msg)) = self.runtime.try_recv_app()? {
            self.handle(from, msg)?;
        }
        Ok(())
    }

    fn pump_one(&mut self) -> Result<(), DsoError> {
        let (from, msg) = self.runtime.recv_app()?;
        self.handle(from, msg)
    }

    fn handle(&mut self, from: NodeId, msg: LrcMessage) -> Result<(), DsoError> {
        match msg {
            LrcMessage::Acquire { lock } => {
                let state = self.managed.entry(lock).or_insert_with(ManagedLock::new);
                if state.held_by.is_none() && state.queue.is_empty() {
                    state.held_by = Some(from);
                    let releaser = state.last_releaser.unwrap_or(u16::MAX);
                    self.deliver_grant(from, lock, releaser)?;
                } else {
                    state.queue.push_back(from);
                }
                Ok(())
            }
            LrcMessage::Release { lock } => {
                let state = self.managed.entry(lock).or_insert_with(ManagedLock::new);
                state.last_releaser = Some(from);
                state.held_by = None;
                if let Some(next) = state.queue.pop_front() {
                    state.held_by = Some(next);
                    let releaser = state.last_releaser.unwrap_or(u16::MAX);
                    self.deliver_grant(next, lock, releaser)?;
                }
                Ok(())
            }
            LrcMessage::Grant { lock, last_releaser } => {
                self.grants.insert(lock, last_releaser);
                Ok(())
            }
            LrcMessage::IntervalReq { vc } => {
                // Ship every interval the requester lacks, in (owner, index)
                // order. LRC "must include information about changes to all
                // shared data objects" — this is exactly the cost the paper
                // calls out.
                let missing: Vec<Interval> =
                    self.log.values().filter(|i| i.index > vc.get(i.owner)).cloned().collect();
                self.metrics.intervals_sent += missing.len() as u64;
                self.send(from, MsgClass::Data, LrcMessage::Intervals { intervals: missing })
            }
            LrcMessage::Intervals { intervals } => {
                self.interval_replies.push_back(intervals);
                Ok(())
            }
            LrcMessage::Done => {
                self.dones_seen += 1;
                Ok(())
            }
        }
    }

    fn apply_intervals(&mut self, intervals: Vec<Interval>) -> Result<(), DsoError> {
        // Apply in causal order (vector sums extend the happened-before
        // partial order along lock chains); truly concurrent intervals are
        // unsynchronised races whose outcome LRC leaves to the application,
        // resolved here deterministically by owner id.
        let mut sorted = intervals;
        sorted.sort_by_key(Interval::causal_key);
        for interval in sorted {
            if interval.index <= self.vc.get(interval.owner) {
                continue; // already seen
            }
            let (sum, owner, _) = interval.causal_key();
            let stamp = Version::new(sdso_core::LogicalTime::from_ticks(sum), owner);
            for write in &interval.writes {
                // Version-gated: a concurrent interval with a smaller causal
                // key must not overwrite a larger one that was applied in an
                // earlier fetch — every replica resolves the race the same
                // way.
                self.runtime.apply_remote(write.object, &write.diff, stamp)?;
            }
            self.metrics.intervals_applied += 1;
            // Advance knowledge to cover the whole interval and record it
            // for relay to later acquirers.
            self.vc.merge(&interval.vc);
            self.log.insert((interval.owner, interval.index), interval);
        }
        Ok(())
    }

    fn deliver_grant(
        &mut self,
        to: NodeId,
        lock: LockId,
        releaser: NodeId,
    ) -> Result<(), DsoError> {
        if to == self.runtime.node_id() {
            self.grants.insert(lock, releaser);
            Ok(())
        } else {
            self.send(to, MsgClass::Control, LrcMessage::Grant { lock, last_releaser: releaser })
        }
    }

    fn send(&mut self, to: NodeId, class: MsgClass, msg: LrcMessage) -> Result<(), DsoError> {
        self.runtime.send_app(class, [(to, &msg)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_core::DsoConfig;
    use sdso_sim::{NetworkModel, SimCluster, SimEndpoint};

    /// Runs `f` on every process of an `n`-process instant simulator, each
    /// sharing objects 0..4, and hands back what each returned. A process
    /// that panics fails the test.
    fn cluster<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Lrc<SimEndpoint>) -> T + Send + Sync + 'static,
    {
        let run = SimCluster::new(n, NetworkModel::instant()).run(move |ep| {
            let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
            for id in 0..4u32 {
                rt.share(ObjectId(id), vec![0u8; 4]).unwrap();
            }
            Ok(f(Lrc::new(rt)))
        });
        run.unwrap().into_results().unwrap()
    }

    #[test]
    fn message_wire_roundtrip() {
        let msgs = [
            LrcMessage::Acquire { lock: 3 },
            LrcMessage::Grant { lock: 3, last_releaser: 1 },
            LrcMessage::IntervalReq { vc: VectorClock::new(2) },
            LrcMessage::Intervals {
                intervals: vec![Interval {
                    owner: 1,
                    index: 4,
                    vc: VectorClock::new(2),
                    writes: vec![IntervalWrite {
                        object: ObjectId(2),
                        diff: Diff::single(0, vec![1]),
                    }],
                }],
            },
            LrcMessage::Release { lock: 3 },
        ];
        for msg in msgs {
            let decoded: LrcMessage =
                sdso_net::wire::decode(&sdso_net::wire::encode(&msg)).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn lock_transfer_carries_updates() {
        // Each ends in `finish`, which serves lock and interval traffic
        // until the other is done too.
        let metrics = cluster(2, |mut node| {
            if node.runtime().node_id() == 0 {
                // Lock 0 is managed by node 0.
                node.acquire(0).unwrap();
                node.write(ObjectId(1), 0, &[5]).unwrap();
                node.release(0).unwrap();
            } else {
                node.acquire(0).unwrap();
                assert_eq!(node.read(ObjectId(1)).unwrap()[0], 5, "update travelled with lock");
                node.release(0).unwrap();
            }
            node.finish().unwrap();
            node.metrics()
        });
        assert_eq!(metrics[1].intervals_applied, 1);
        assert!(metrics[0].intervals_sent >= 1);
    }

    #[test]
    fn second_acquire_does_not_refetch_seen_intervals() {
        cluster(1, |mut node| {
            node.acquire(0).unwrap();
            node.write(ObjectId(0), 0, &[1]).unwrap();
            node.release(0).unwrap();
            // Re-acquiring our own lock needs no interval transfer.
            node.acquire(0).unwrap();
            node.release(0).unwrap();
            assert_eq!(node.metrics().intervals_applied, 0);
            assert_eq!(node.runtime().net_metrics().total_sent(), 0);
        });
    }

    #[test]
    fn empty_interval_still_closes_epoch() {
        cluster(1, |mut node| {
            node.acquire(7).unwrap();
            node.release(7).unwrap();
            assert_eq!(node.vc.get(0), 1, "release advances the vector");
        });
    }
}
