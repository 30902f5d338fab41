//! Causal memory — a push-based protocol with vector-clock delivery.
//!
//! The paper (§2.3) argues causal memory suits scientific codes but not
//! interactive shared-world applications: every write is pushed to *all*
//! processes ("causal memory cannot determine which subset of processes
//! should be informed of such changes"). This implementation exists to
//! quantify that argument in the Ext. D ablation: it delivers writes in
//! causal order via CBCAST-style vector timestamps and counts the resulting
//! traffic.

use sdso_core::{Diff, DsoError, LogicalTime, ObjectId, SdsoRuntime, Version};
use sdso_net::wire::{Wire, WireReader, WireWriter};
use sdso_net::{Endpoint, MsgClass, NetError, NodeId};

use crate::vector_clock::VectorClock;

/// One causally-broadcast write.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CausalMsg {
    vc: VectorClock,
    object: ObjectId,
    diff: Diff,
}

impl Wire for CausalMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.vc.encode(w);
        self.object.encode(w);
        self.diff.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(CausalMsg {
            vc: VectorClock::decode(r)?,
            object: ObjectId::decode(r)?,
            diff: Diff::decode(r)?,
        })
    }
}

/// Causal-memory protocol counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CausalMetrics {
    /// Writes broadcast by this process.
    pub writes_pushed: u64,
    /// Remote writes delivered (applied) in causal order.
    pub delivered: u64,
    /// Messages that had to wait in the delay queue for causal
    /// predecessors.
    pub delayed: u64,
}

/// One process of a causal-memory application.
///
/// Every [`CausalMemory::write`] is immediately pushed to all other
/// processes; [`CausalMemory::deliver_pending`] (non-blocking) or
/// [`CausalMemory::deliver_blocking`] applies incoming writes respecting
/// causal order.
#[derive(Debug)]
pub struct CausalMemory<E: Endpoint> {
    runtime: SdsoRuntime<E>,
    /// This process's knowledge: one entry per process.
    known: VectorClock,
    /// This process's write counter (its own component mirror).
    delay_queue: Vec<(NodeId, CausalMsg)>,
    metrics: CausalMetrics,
}

impl<E: Endpoint> CausalMemory<E> {
    /// Wraps a runtime whose objects are already shared.
    pub fn new(runtime: SdsoRuntime<E>) -> Self {
        let n = runtime.num_nodes();
        CausalMemory {
            runtime,
            known: VectorClock::new(n),
            delay_queue: Vec::new(),
            metrics: CausalMetrics::default(),
        }
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
    pub fn metrics(&self) -> CausalMetrics {
        self.metrics
    }

    /// This process's causal knowledge vector.
    pub fn clock(&self) -> &VectorClock {
        &self.known
    }

    /// Reads an object's local replica (causal memory reads are always
    /// local).
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::UnknownObject`] for unshared objects.
    pub fn read(&self, object: ObjectId) -> Result<&[u8], DsoError> {
        self.runtime.read(object)
    }

    /// The total-order stamp for a write whose vector clock is `vc` by
    /// `writer`: component sums strictly grow along causal chains, so a
    /// causally later write always wins last-writer-wins at every replica;
    /// truly concurrent writes tie-break deterministically by writer id.
    fn stamp_of(vc: &VectorClock, writer: NodeId) -> Version {
        let sum: u64 = (0..vc.len() as NodeId).map(|p| vc.get(p)).sum();
        Version::new(LogicalTime::from_ticks(sum), writer)
    }

    /// Writes locally and pushes the update to every other process.
    ///
    /// # Errors
    ///
    /// Propagates store and transport errors.
    pub fn write(&mut self, object: ObjectId, offset: u32, bytes: &[u8]) -> Result<(), DsoError> {
        let me = self.runtime.node_id();
        self.known.increment(me);
        let stamp = Self::stamp_of(&self.known, me);
        self.runtime.write_local(object, offset, bytes, stamp)?;
        let msg = CausalMsg {
            vc: self.known.clone(),
            object,
            diff: Diff::single(offset, bytes.to_vec()),
        };
        let encoded = sdso_net::wire::encode(&msg).to_vec();
        for peer in 0..self.runtime.num_nodes() as NodeId {
            if peer != me {
                self.runtime.send_app(peer, MsgClass::Data, encoded.clone())?;
            }
        }
        self.metrics.writes_pushed += 1;
        Ok(())
    }

    /// Applies every already-received remote write whose causal
    /// predecessors have been delivered. Non-blocking.
    ///
    /// # Errors
    ///
    /// Propagates transport and store errors.
    pub fn deliver_pending(&mut self) -> Result<usize, DsoError> {
        let mut delivered = 0usize;
        while let Some((from, bytes)) = self.runtime.try_recv_app()? {
            let msg: CausalMsg = sdso_net::wire::decode(&bytes).map_err(DsoError::Net)?;
            delivered += self.enqueue_and_drain(from, msg)?;
        }
        Ok(delivered)
    }

    /// Blocks until at least one remote write has been delivered.
    ///
    /// # Errors
    ///
    /// Propagates transport and store errors.
    pub fn deliver_blocking(&mut self) -> Result<usize, DsoError> {
        loop {
            let (from, bytes) = self.runtime.recv_app()?;
            let msg: CausalMsg = sdso_net::wire::decode(&bytes).map_err(DsoError::Net)?;
            let n = self.enqueue_and_drain(from, msg)?;
            if n > 0 {
                return Ok(n);
            }
        }
    }

    fn enqueue_and_drain(&mut self, from: NodeId, msg: CausalMsg) -> Result<usize, DsoError> {
        if !self.known.is_next_from(&msg.vc, from) {
            self.metrics.delayed += 1;
        }
        self.delay_queue.push((from, msg));
        let mut delivered = 0usize;
        loop {
            let next =
                self.delay_queue.iter().position(|(p, m)| self.known.is_next_from(&m.vc, *p));
            let Some(idx) = next else { break };
            let (p, m) = self.delay_queue.swap_remove(idx);
            // Version-gated application: two concurrent writes to one
            // object resolve by the same (causal-sum, writer) order on
            // every replica, whatever the delivery interleaving.
            let stamp = Self::stamp_of(&m.vc, p);
            self.runtime.apply_remote(m.object, &m.diff, stamp)?;
            self.known.merge(&m.vc);
            self.metrics.delivered += 1;
            delivered += 1;
        }
        Ok(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_core::DsoConfig;
    use sdso_net::memory::{MemoryEndpoint, MemoryHub};

    fn cluster(n: usize) -> Vec<CausalMemory<MemoryEndpoint>> {
        MemoryHub::new(n)
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
                for id in 0..4u32 {
                    rt.share(ObjectId(id), vec![0u8; 4]).unwrap();
                }
                CausalMemory::new(rt)
            })
            .collect()
    }

    #[test]
    fn writes_reach_everyone() {
        let mut nodes = cluster(3);
        nodes[0].write(ObjectId(0), 0, &[7]).unwrap();
        for node in nodes.iter_mut().skip(1) {
            let delivered = node.deliver_blocking().unwrap();
            assert_eq!(delivered, 1);
            assert_eq!(node.read(ObjectId(0)).unwrap()[0], 7);
        }
    }

    #[test]
    fn causal_order_respected_across_forwarders() {
        let mut nodes = cluster(3);
        // w1 at node 0.
        nodes[0].write(ObjectId(0), 0, &[1]).unwrap();
        // Node 1 sees w1, then writes w2 (causally after w1).
        nodes[1].deliver_blocking().unwrap();
        nodes[1].write(ObjectId(1), 0, &[2]).unwrap();
        // Node 2 receives w2 *first* (pull it from the queue before w1 by
        // manipulating arrival: both are in flight; deliverability decides).
        // Regardless of arrival order, after draining everything node 2 has
        // both writes and w2 was never applied before w1.
        let mut total = 0;
        while total < 2 {
            total += nodes[2].deliver_blocking().unwrap();
        }
        assert_eq!(nodes[2].read(ObjectId(0)).unwrap()[0], 1);
        assert_eq!(nodes[2].read(ObjectId(1)).unwrap()[0], 2);
    }

    #[test]
    fn out_of_order_message_is_delayed_not_dropped() {
        let mut nodes = cluster(2);
        // Two writes from node 0; deliver both at node 1 and check both
        // applied in order.
        nodes[0].write(ObjectId(0), 0, &[1]).unwrap();
        nodes[0].write(ObjectId(0), 1, &[2]).unwrap();
        let mut total = 0;
        while total < 2 {
            total += nodes[1].deliver_blocking().unwrap();
        }
        assert_eq!(&nodes[1].read(ObjectId(0)).unwrap()[..2], &[1, 2]);
        assert_eq!(nodes[1].metrics().delivered, 2);
    }

    #[test]
    fn traffic_scales_with_cluster_size() {
        let mut nodes = cluster(3);
        nodes[0].write(ObjectId(0), 0, &[1]).unwrap();
        assert_eq!(nodes[0].runtime().net_metrics().data_sent.msgs, 2, "push to all");
    }
}
