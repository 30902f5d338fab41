//! In-process transport backed by `std::sync::mpsc` channels.
//!
//! Every node of a [`MemoryHub`] runs on its own OS thread; message delivery
//! is immediate (no modelled latency). This transport is the workhorse for
//! unit and property tests of protocol logic; timing-sensitive evaluation
//! uses the virtual-time simulator instead.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Instant;

use sdso_obs::{EventKind, Recorder};

use crate::endpoint::{check_peer, Endpoint, NodeId, PeerEvent};
use crate::error::NetError;
use crate::message::{Incoming, Payload};
use crate::metrics::{obs_class, NetMetrics, NetMetricsSnapshot};
use crate::time::{SimInstant, SimSpan};

/// Builder for a fully-connected in-process cluster.
///
/// # Example
///
/// ```
/// use sdso_net::{memory::MemoryHub, Endpoint, Payload};
///
/// # fn main() -> Result<(), sdso_net::NetError> {
/// let endpoints = MemoryHub::new(3).into_endpoints();
/// assert_eq!(endpoints.len(), 3);
/// assert_eq!(endpoints[2].node_id(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemoryHub {
    endpoints: Vec<MemoryEndpoint>,
}

impl MemoryHub {
    /// Creates a hub of `n` mutually connected nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `NodeId::MAX`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cluster must have at least one node");
        assert!(n <= usize::from(NodeId::MAX), "cluster too large");
        let start = Instant::now();
        let channels: Vec<(Sender<Incoming>, Receiver<Incoming>)> =
            (0..n).map(|_| channel()).collect();
        let senders: Vec<Sender<Incoming>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let endpoints = channels
            .into_iter()
            .enumerate()
            .map(|(id, (_, rx))| MemoryEndpoint {
                id: id as NodeId,
                num_nodes: n,
                peers: senders.clone(),
                rx,
                start,
                metrics: NetMetrics::new(),
                recorder: Recorder::disabled(),
                active: vec![true; n],
                down_noted: vec![false; n],
                peer_events: Vec::new(),
            })
            .collect();
        MemoryHub { endpoints }
    }

    /// Consumes the hub, yielding one endpoint per node, indexed by node id.
    pub fn into_endpoints(self) -> Vec<MemoryEndpoint> {
        self.endpoints
    }
}

/// One node's endpoint in a [`MemoryHub`] cluster.
#[derive(Debug)]
pub struct MemoryEndpoint {
    id: NodeId,
    num_nodes: usize,
    peers: Vec<Sender<Incoming>>,
    rx: Receiver<Incoming>,
    start: Instant,
    metrics: NetMetrics,
    recorder: Recorder,
    /// Membership flags: a removed peer's link drops send failures silently
    /// instead of surfacing them (the peer is expected to be gone). While
    /// the removed peer's endpoint is still alive, delivery still works —
    /// a leaver keeps receiving acks while it settles.
    active: Vec<bool>,
    down_noted: Vec<bool>,
    peer_events: Vec<PeerEvent>,
}

impl MemoryEndpoint {
    /// Queues a [`PeerEvent::Down`] (once per downtime) when a peer's
    /// receive channel is found closed.
    fn note_peer_down(&mut self, peer: NodeId) {
        let idx = usize::from(peer);
        if self.down_noted[idx] {
            return;
        }
        self.down_noted[idx] = true;
        self.peer_events.push(PeerEvent::Down(peer));
        self.recorder.record(self.now().as_micros(), EventKind::PeerDown, u32::from(peer), 0, 0);
    }

    fn note_recv(&self, msg: &Incoming) {
        self.metrics.record_recv(msg.payload.class, msg.payload.wire_len());
        self.recorder.record(
            self.now().as_micros(),
            EventKind::Recv,
            u32::from(msg.from),
            obs_class(msg.payload.class),
            msg.payload.wire_len(),
        );
    }
}

impl Endpoint for MemoryEndpoint {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
        check_peer(self.id, to, self.num_nodes)?;
        let idx = usize::from(to);
        if self.down_noted[idx] {
            // The peer is gone: nothing is sent, and nothing counted.
            return if self.active[idx] { Err(NetError::Disconnected) } else { Ok(()) };
        }
        self.metrics.record_send(payload.class, payload.wire_len());
        self.recorder.record(
            self.now().as_micros(),
            EventKind::Send,
            u32::from(to),
            obs_class(payload.class),
            payload.wire_len(),
        );
        if self.peers[idx].send(Incoming { from: self.id, payload }).is_err() {
            self.note_peer_down(to);
            if self.active[idx] {
                return Err(NetError::Disconnected);
            }
        }
        Ok(())
    }

    fn send_batch(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        let msgs = payloads.len();
        let wire_bytes: u64 = payloads.iter().map(|p| u64::from(p.wire_len())).sum();
        for payload in payloads {
            self.send(to, payload)?;
        }
        if msgs > 0 {
            self.metrics.record_batch(msgs, wire_bytes);
            self.recorder.record(
                self.now().as_micros(),
                EventKind::BatchSend,
                u32::from(to),
                msgs as u32,
                wire_bytes as u32,
            );
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Incoming, NetError> {
        let before = self.now();
        let msg = self.rx.recv().map_err(|_| NetError::Disconnected)?;
        self.metrics.record_blocked(self.now().saturating_since(before));
        self.note_recv(&msg);
        Ok(msg)
    }

    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        match self.rx.try_recv() {
            Ok(msg) => {
                self.note_recv(&msg);
                Ok(Some(msg))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        let before = self.now();
        match self.rx.recv_timeout(std::time::Duration::from_micros(timeout.as_micros())) {
            Ok(msg) => {
                self.metrics.record_blocked(self.now().saturating_since(before));
                self.note_recv(&msg);
                Ok(Some(msg))
            }
            Err(RecvTimeoutError::Timeout) => {
                self.metrics.record_blocked(self.now().saturating_since(before));
                Ok(None)
            }
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    fn advance(&mut self, _dt: SimSpan) {
        // Local computation already consumed real wall time.
    }

    fn now(&self) -> SimInstant {
        SimInstant::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn metrics(&self) -> NetMetricsSnapshot {
        self.metrics.snapshot()
    }

    fn metrics_delta(&mut self) -> NetMetricsSnapshot {
        self.metrics.snapshot_delta()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    fn remove_peer(&mut self, peer: NodeId) {
        self.active[usize::from(peer)] = false;
    }

    fn add_peer(&mut self, peer: NodeId) {
        let idx = usize::from(peer);
        self.active[idx] = true;
        self.down_noted[idx] = false;
    }

    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        std::mem::take(&mut self.peer_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgClass;

    #[test]
    fn point_to_point_delivery() {
        let mut eps = MemoryHub::new(2).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, Payload::data(vec![1, 2, 3])).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.from, 0);
        assert_eq!(&got.payload.bytes[..], &[1, 2, 3]);
    }

    #[test]
    fn broadcast_reaches_everyone_but_self() {
        let mut eps = MemoryHub::new(4).into_endpoints();
        eps[0].broadcast(&Payload::control(vec![7])).unwrap();
        for ep in eps.iter_mut().skip(1) {
            let got = ep.recv().unwrap();
            assert_eq!(got.from, 0);
        }
        assert!(eps[0].try_recv().unwrap().is_none());
    }

    #[test]
    fn self_send_rejected() {
        let mut eps = MemoryHub::new(2).into_endpoints();
        assert!(matches!(
            eps[0].send(0, Payload::control(vec![])),
            Err(NetError::InvalidPeer { .. })
        ));
    }

    #[test]
    fn fifo_per_sender() {
        let mut eps = MemoryHub::new(2).into_endpoints();
        for i in 0..10u8 {
            eps[0].send(1, Payload::data(vec![i])).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(eps[1].recv().unwrap().payload.bytes[0], i);
        }
    }

    #[test]
    fn metrics_count_sends_and_recvs() {
        let mut eps = MemoryHub::new(2).into_endpoints();
        eps[0].send(1, Payload::data(vec![0; 16]).with_wire_len(2048)).unwrap();
        eps[0].send(1, Payload::control(vec![0; 4])).unwrap();
        let s = eps[0].metrics();
        assert_eq!(s.data_sent.msgs, 1);
        assert_eq!(s.data_sent.bytes, 2048);
        assert_eq!(s.control_sent.msgs, 1);
        let _ = eps[1].recv().unwrap();
        let _ = eps[1].recv().unwrap();
        let r = eps[1].metrics();
        assert_eq!(r.total_recv(), 2);
        assert_eq!(r.data_recv.bytes, 2048);
        let _ = MsgClass::Data; // silence unused import lint in some cfgs
    }

    #[test]
    fn send_batch_delivers_in_order_with_per_message_metrics() {
        let mut eps = MemoryHub::new(2).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send_batch(
            1,
            vec![Payload::data(vec![1]), Payload::control(vec![2]), Payload::data(vec![3])],
        )
        .unwrap();
        for expect in [1u8, 2, 3] {
            assert_eq!(b.recv().unwrap().payload.bytes[0], expect);
        }
        // Per-message accounting is unchanged by batching.
        let s = a.metrics();
        assert_eq!(s.total_sent(), 3);
    }

    #[test]
    fn removed_peer_still_receives_while_alive() {
        let mut eps = MemoryHub::new(2).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.remove_peer(1);
        a.send(1, Payload::control(vec![9])).unwrap();
        assert_eq!(b.recv().unwrap().payload.bytes[0], 9);
    }

    #[test]
    fn send_to_removed_exited_peer_is_silently_dropped() {
        let mut eps = MemoryHub::new(2).into_endpoints();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.remove_peer(1);
        drop(b);
        a.send(1, Payload::control(vec![1])).unwrap();
        assert_eq!(a.take_peer_events(), vec![PeerEvent::Down(1)]);
    }

    #[test]
    fn unexpected_peer_exit_errors_and_queues_one_down_event() {
        let mut eps = MemoryHub::new(2).into_endpoints();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        drop(b);
        assert!(matches!(a.send(1, Payload::data(vec![1])), Err(NetError::Disconnected)));
        assert!(matches!(a.send(1, Payload::data(vec![2])), Err(NetError::Disconnected)));
        // The repeated failure is reported but the event is queued once.
        assert_eq!(a.take_peer_events(), vec![PeerEvent::Down(1)]);
        assert!(a.take_peer_events().is_empty());
    }

    #[test]
    fn cross_thread_usage() {
        let mut eps = MemoryHub::new(2).into_endpoints();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            let got = b.recv().unwrap();
            assert_eq!(&got.payload.bytes[..], b"ping");
            b.send(0, Payload::control(b"pong".as_ref())).unwrap();
        });
        a.send(1, Payload::control(b"ping".as_ref())).unwrap();
        assert_eq!(&a.recv().unwrap().payload.bytes[..], b"pong");
        t.join().unwrap();
    }
}
