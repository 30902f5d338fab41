use crate::error::NetError;
use crate::message::{Incoming, Payload};
use crate::metrics::NetMetricsSnapshot;
use crate::time::{SimInstant, SimSpan};

/// Identifies a node (process) within a cluster. Node ids are dense:
/// `0..num_nodes`.
pub type NodeId = u16;

/// A first-class link/membership event surfaced by a transport, consumed
/// via [`Endpoint::take_peer_events`]. Transports queue these instead of
/// burying link failures inside send errors, so the layers above can react
/// (and the flight recorder can trace) when a peer goes away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEvent {
    /// The link to this peer went down, for good: the peer is gone, and
    /// every later send to it fails with [`NetError::Disconnected`] unless
    /// the peer was removed from the group.
    Down(NodeId),
}

/// The transport abstraction every consistency protocol is written against.
///
/// An endpoint belongs to exactly one node of a fixed-size cluster and can
/// exchange [`Payload`]s with every other node. Two implementations exist:
///
/// * `reactor::ReactorEndpoint` — a real-socket mesh driven by one `poll(2)`
///   loop per endpoint (every unix), the moral equivalent of the original
///   system's socket layer: its links are Unix-domain socket pairs inside
///   one process, where the original's were TCP connections across hosts;
/// * `sdso_sim::SimEndpoint` — deterministic virtual time over a modelled
///   network, used for the paper's evaluation figures.
///
/// # Time
///
/// [`Endpoint::now`] reports microseconds since a transport-defined epoch —
/// wall time for real transports, virtual time in the simulator.
/// [`Endpoint::advance`] models local computation: the simulator advances the
/// node's virtual clock, real transports treat it as a no-op (the computation
/// itself already took wall time).
///
/// # Defaults
///
/// Only [`Endpoint::send_batch`] and [`Endpoint::broadcast`] have default
/// bodies, because each is derived from [`Endpoint::send`]. Every other
/// method is stated by each implementor, so a wrapper that forgets to
/// forward one fails to compile instead of silently dropping behaviour.
pub trait Endpoint: Send {
    /// This node's id.
    fn node_id(&self) -> NodeId;

    /// Number of nodes in the cluster.
    fn num_nodes(&self) -> usize;

    /// Sends `payload` to `to`. Non-blocking (transports buffer).
    ///
    /// Progress may be tied to this endpoint's own calls: the reactor
    /// transport writes what the socket takes here, and only later calls on
    /// the same endpoint (a receive, `take_peer_events`, another send) flush
    /// the rest or read anything. Callers block in a receive after they
    /// send, which is all that asks; one that sends and then only computes
    /// may leave a remainder queued until its next call.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidPeer`] if `to` is out of range or equal to
    /// this node, and [`NetError::Disconnected`] if the peer is gone.
    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError>;

    /// Sends several payloads to `to` back-to-back, preserving order.
    ///
    /// Semantically identical to calling [`Endpoint::send`] once per payload
    /// — same delivery order, same per-message metrics and trace events.
    /// Transports with real per-write costs (locks, syscalls) override this
    /// to flush the whole batch in one write; the default simply loops.
    ///
    /// # Errors
    ///
    /// Propagates the first send failure; earlier payloads in the batch may
    /// already have been sent.
    fn send_batch(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        for payload in payloads {
            self.send(to, payload)?;
        }
        Ok(())
    }

    /// Receives the next message, blocking until one is available.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if no message can ever arrive
    /// again, and [`NetError::Deadlock`] if the virtual-time scheduler proves
    /// the whole cluster is blocked.
    fn recv(&mut self) -> Result<Incoming, NetError>;

    /// Receives the next message if one is already available.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if no message can ever arrive again.
    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError>;

    /// Receives the next message, giving up after `timeout` (measured on
    /// this node's clock) and returning `Ok(None)`.
    ///
    /// Both in-tree transports bound the wait; resilience layers rely on it
    /// to turn lost messages into retransmissions instead of hangs.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Endpoint::recv`].
    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError>;

    /// Models `dt` of local computation on this node.
    fn advance(&mut self, dt: SimSpan);

    /// Current time on this node's clock.
    fn now(&self) -> SimInstant;

    /// Snapshot of this endpoint's traffic counters, cumulative since the
    /// endpoint was created.
    fn metrics(&self) -> NetMetricsSnapshot;

    /// Traffic counters accumulated since the previous `metrics_delta`
    /// call on this endpoint (since creation for the first call).
    ///
    /// Use this for per-run accounting over a reused transport; the
    /// cumulative [`Endpoint::metrics`] double-counts back-to-back runs.
    fn metrics_delta(&mut self) -> NetMetricsSnapshot;

    /// Attaches a flight recorder: subsequent sends/receives (and fault
    /// verdicts, for fault-injecting transports) are recorded as events
    /// stamped with this endpoint's clock.
    fn attach_recorder(&mut self, recorder: sdso_obs::Recorder);

    /// Marks the link to `peer` as administratively removed (the peer left
    /// the group): send failures on it become expected and are dropped
    /// silently instead of surfacing as transport errors. A no-op on a
    /// transport that does not track per-peer liveness.
    fn remove_peer(&mut self, peer: NodeId);

    /// (Re-)activates the link to `peer` (the peer joined the group).
    /// Inverse of [`Endpoint::remove_peer`].
    fn add_peer(&mut self, peer: NodeId);

    /// Drains link events observed since the previous call: one
    /// [`PeerEvent::Down`] per peer whose link the transport found torn.
    /// No link comes back; a transport without links returns none.
    fn take_peer_events(&mut self) -> Vec<PeerEvent>;

    /// Sends a copy of `payload` to every other node in the cluster.
    ///
    /// # Errors
    ///
    /// Propagates the first send failure.
    fn broadcast(&mut self, payload: &Payload) -> Result<(), NetError> {
        let me = self.node_id();
        for peer in 0..self.num_nodes() as NodeId {
            if peer != me {
                self.send(peer, payload.clone())?;
            }
        }
        Ok(())
    }
}

/// A boxed endpoint is an endpoint: every method — including the two with
/// default bodies — forwards to the inner transport, so boxing never
/// silently downgrades behaviour (batched writes stay batched, peer events
/// still surface). This is what lets harness code hand the runtime one
/// uniform type whichever transport built the cluster.
impl Endpoint for Box<dyn Endpoint + Send> {
    fn node_id(&self) -> NodeId {
        (**self).node_id()
    }
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
        (**self).send(to, payload)
    }
    fn send_batch(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        (**self).send_batch(to, payloads)
    }
    fn recv(&mut self) -> Result<Incoming, NetError> {
        (**self).recv()
    }
    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        (**self).try_recv()
    }
    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        (**self).recv_deadline(timeout)
    }
    fn advance(&mut self, dt: SimSpan) {
        (**self).advance(dt);
    }
    fn now(&self) -> SimInstant {
        (**self).now()
    }
    fn metrics(&self) -> NetMetricsSnapshot {
        (**self).metrics()
    }
    fn metrics_delta(&mut self) -> NetMetricsSnapshot {
        (**self).metrics_delta()
    }
    fn attach_recorder(&mut self, recorder: sdso_obs::Recorder) {
        (**self).attach_recorder(recorder);
    }
    fn remove_peer(&mut self, peer: NodeId) {
        (**self).remove_peer(peer);
    }
    fn add_peer(&mut self, peer: NodeId) {
        (**self).add_peer(peer);
    }
    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        (**self).take_peer_events()
    }
    fn broadcast(&mut self, payload: &Payload) -> Result<(), NetError> {
        (**self).broadcast(payload)
    }
}

/// Validates a destination node id against the cluster size and self-sends.
///
/// # Errors
///
/// Returns [`NetError::InvalidPeer`] when the peer is this node itself or out
/// of range.
pub(crate) fn check_peer(me: NodeId, to: NodeId, num_nodes: usize) -> Result<(), NetError> {
    if to == me || usize::from(to) >= num_nodes {
        return Err(NetError::InvalidPeer { peer: to, cluster: num_nodes });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_peer_rejects_self_and_out_of_range() {
        assert!(check_peer(0, 0, 4).is_err());
        assert!(check_peer(0, 4, 4).is_err());
        assert!(check_peer(0, 3, 4).is_ok());
    }

    #[cfg(unix)]
    #[test]
    fn boxed_endpoint_forwards_to_the_inner_transport() {
        let mut eps = crate::reactor::ReactorMesh::local(2).unwrap();
        let mut b: Box<dyn Endpoint + Send> = Box::new(eps.pop().unwrap());
        let mut a: Box<dyn Endpoint + Send> = Box::new(eps.pop().unwrap());
        assert_eq!(a.node_id(), 0);
        assert_eq!(a.num_nodes(), 2);
        a.send(1, Payload::control(vec![1u8])).unwrap();
        a.send_batch(1, vec![Payload::data(vec![2u8]), Payload::control(vec![3u8])]).unwrap();
        let classes: Vec<u8> = (0..3).map(|_| b.recv().unwrap().payload.bytes[0]).collect();
        assert_eq!(classes, vec![1, 2, 3]);
        assert_eq!(a.metrics().total_sent(), 3);
        assert!(b.take_peer_events().is_empty());
    }
}
