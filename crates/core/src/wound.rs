//! A test endpoint that several nodes share from one thread.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sdso_net::{
    unpoisoned, Endpoint, Incoming, NetError, NetMetrics, NetMetricsSnapshot, NodeId, Payload,
    PeerEvent, Recorder, SimInstant, SimSpan,
};

/// Every node's inbox, indexed by node id; `None` once its endpoint dropped.
type Inboxes = Arc<Mutex<Vec<Option<VecDeque<Incoming>>>>>;

/// An in-process endpoint on a hand-wound clock shared by its whole group:
/// time passes only when a test winds it or a bounded wait runs out, so
/// every link timer fires exactly where the test puts it. A send lands in
/// the peer's inbox at once. No thread, wall clock or recorder is involved,
/// so a test drives every node of the group from one thread, and a receive
/// that would wait for good fails instead.
#[derive(Debug)]
pub(crate) struct Wound {
    id: NodeId,
    inboxes: Inboxes,
    micros: Arc<AtomicU64>,
    metrics: NetMetrics,
    /// Per peer, `false` once [`Endpoint::remove_peer`] took it out.
    active: Vec<bool>,
    /// The peers whose dropped endpoint a send already reported.
    down: Vec<bool>,
    events: Vec<PeerEvent>,
    /// Each transport write, as `(peer, messages)`.
    pub(crate) writes: Vec<(NodeId, usize)>,
    /// How often [`Endpoint::now`] was read.
    pub(crate) now_calls: Cell<u64>,
}

/// Nodes `0..n` on one clock at zero.
pub(crate) fn group(n: usize) -> Vec<Wound> {
    let inboxes: Inboxes = Arc::new(Mutex::new((0..n).map(|_| Some(VecDeque::new())).collect()));
    let micros = Arc::new(AtomicU64::new(0));
    (0..n as NodeId)
        .map(|id| Wound {
            id,
            inboxes: inboxes.clone(),
            micros: micros.clone(),
            metrics: NetMetrics::new(),
            active: vec![true; n],
            down: vec![false; n],
            events: Vec::new(),
            writes: Vec::new(),
            now_calls: Cell::new(0),
        })
        .collect()
}

impl Wound {
    /// Puts `payloads` in `to`'s inbox as one transport write, checked as
    /// the real transports check a send: to itself or beyond the group is
    /// `InvalidPeer`, to a removed peer is dropped silently and uncounted,
    /// and to a dropped peer fails with `Disconnected`, whose first failure
    /// queues one `Down`.
    fn deliver(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        let (p, cluster) = (usize::from(to), self.active.len());
        if to == self.id || p >= cluster {
            return Err(NetError::InvalidPeer { peer: to, cluster });
        }
        if !self.active[p] {
            return Ok(());
        }
        let mut inboxes = unpoisoned(self.inboxes.lock());
        let Some(inbox) = &mut inboxes[p] else {
            if !std::mem::replace(&mut self.down[p], true) {
                self.events.push(PeerEvent::Down(to));
            }
            return Err(NetError::Disconnected);
        };
        self.writes.push((to, payloads.len()));
        for payload in payloads {
            self.metrics.record_send(payload.class, payload.wire_len());
            inbox.push_back(Incoming { from: self.id, payload });
        }
        Ok(())
    }
}

impl Drop for Wound {
    fn drop(&mut self) {
        unpoisoned(self.inboxes.lock())[usize::from(self.id)] = None;
    }
}

impl Endpoint for Wound {
    fn node_id(&self) -> NodeId {
        self.id
    }
    fn num_nodes(&self) -> usize {
        self.down.len()
    }
    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
        self.deliver(to, vec![payload])
    }
    fn send_batch(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        let (msgs, wire_bytes) =
            (payloads.len(), payloads.iter().map(|p| u64::from(p.wire_len())).sum());
        self.deliver(to, payloads)?;
        if msgs > 0 && self.active[usize::from(to)] {
            self.metrics.record_batch(msgs, wire_bytes);
        }
        Ok(())
    }
    fn recv(&mut self) -> Result<Incoming, NetError> {
        self.try_recv()?
            .ok_or_else(|| NetError::Deadlock(format!("node {} waits on an empty inbox", self.id)))
    }
    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        let msg = unpoisoned(self.inboxes.lock())[usize::from(self.id)]
            .as_mut()
            .and_then(VecDeque::pop_front);
        if let Some(msg) = &msg {
            self.metrics.record_recv(msg.payload.class, msg.payload.wire_len());
        }
        Ok(msg)
    }
    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        let arrived = self.try_recv()?;
        if arrived.is_none() {
            self.advance(timeout);
        }
        Ok(arrived)
    }
    fn advance(&mut self, dt: SimSpan) {
        self.micros.fetch_add(dt.as_micros(), Ordering::Relaxed);
    }
    fn now(&self) -> SimInstant {
        self.now_calls.set(self.now_calls.get() + 1);
        SimInstant::from_micros(self.micros.load(Ordering::Relaxed))
    }
    fn metrics(&self) -> NetMetricsSnapshot {
        self.metrics.snapshot()
    }
    fn metrics_delta(&mut self) -> NetMetricsSnapshot {
        self.metrics.snapshot_delta()
    }
    fn attach_recorder(&mut self, _recorder: Recorder) {}
    fn remove_peer(&mut self, peer: NodeId) {
        if let Some(active) = self.active.get_mut(usize::from(peer)) {
            *active = false;
        }
    }
    fn add_peer(&mut self, peer: NodeId) {
        if let Some(active) = self.active.get_mut(usize::from(peer)) {
            *active = true;
        }
    }
    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_are_checked_as_the_real_transports_check_them() {
        let mut eps = group(3);
        let ping = || Payload::control(vec![1u8]);
        assert!(matches!(eps[0].send(0, ping()), Err(NetError::InvalidPeer { peer: 0, .. })));
        assert!(matches!(eps[0].send(3, ping()), Err(NetError::InvalidPeer { peer: 3, .. })));
        drop(eps.pop());
        assert!(matches!(eps[0].send(2, ping()), Err(NetError::Disconnected)));
        assert!(matches!(eps[0].send(2, ping()), Err(NetError::Disconnected)));
        assert_eq!(eps[0].take_peer_events(), [PeerEvent::Down(2)], "one Down per peer");
        eps[0].remove_peer(2);
        eps[0].send_batch(2, vec![ping(), ping()]).unwrap();
        eps[0].send_batch(1, vec![ping(), ping()]).unwrap();
        assert_eq!(eps[0].writes, [(1, 2)], "a removed peer's sends write nothing");
        assert_eq!(eps[0].metrics().total_sent(), 2, "and count nothing");
        assert_eq!(eps[1].try_recv().unwrap().map(|m| m.from), Some(0));
    }
}
