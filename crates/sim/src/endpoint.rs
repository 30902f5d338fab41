use std::sync::Arc;

use sdso_net::{
    Endpoint, EventKind, Incoming, MsgClass, NetError, NetMetrics, NetMetricsSnapshot, NodeId,
    Payload, PeerEvent, Recorder, SimInstant, SimSpan,
};

use crate::scheduler::Scheduler;

/// The `class` operand for flight-recorder Send/Recv events.
fn obs_class(class: MsgClass) -> u32 {
    match class {
        MsgClass::Control => 0,
        MsgClass::Data => 1,
    }
}

/// One simulated node's endpoint.
///
/// Implements [`sdso_net::Endpoint`] over the virtual-time scheduler, so the
/// exact protocol code that runs on real transports runs — deterministically
/// and with modelled timing — inside the simulator. Flight-recorder events
/// are stamped with virtual time, so traces of sim runs are reproducible
/// bit-for-bit.
#[derive(Debug)]
pub struct SimEndpoint {
    id: NodeId,
    num_nodes: usize,
    scheduler: Arc<Scheduler>,
    metrics: NetMetrics,
    recorder: Recorder,
}

impl SimEndpoint {
    pub(crate) fn new(id: NodeId, num_nodes: usize, scheduler: Arc<Scheduler>) -> Self {
        SimEndpoint {
            id,
            num_nodes,
            scheduler,
            metrics: NetMetrics::new(),
            recorder: Recorder::disabled(),
        }
    }

    /// Shared handle to this endpoint's live metrics (the cluster keeps one
    /// to report per-node counters after the run).
    pub(crate) fn metrics_handle(&self) -> NetMetrics {
        self.metrics.clone()
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

impl Endpoint for SimEndpoint {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
        if to == self.id || usize::from(to) >= self.num_nodes {
            return Err(NetError::InvalidPeer { peer: to, cluster: self.num_nodes });
        }
        let (class, wire_len) = (payload.class, payload.wire_len());
        let verdict = self.scheduler.send(usize::from(self.id), usize::from(to), payload)?;
        let mut sends = 0u32;
        match verdict {
            Some(v) => {
                self.metrics.record_fault(&v);
                let mut bits = 0;
                if v.dropped {
                    bits |= sdso_obs::FAULT_DROP;
                }
                if v.duplicated {
                    bits |= sdso_obs::FAULT_DUP;
                }
                if v.extra_delay > SimSpan::ZERO {
                    bits |= sdso_obs::FAULT_DELAY;
                }
                if bits != 0 {
                    self.recorder.record(
                        self.now().as_micros(),
                        EventKind::FaultInjected,
                        bits,
                        0,
                        0,
                    );
                }
                if !v.dropped {
                    sends = if v.duplicated { 2 } else { 1 };
                }
            }
            None => sends = 1,
        }
        for _ in 0..sends {
            self.metrics.record_send(class, wire_len);
            self.recorder.record(
                self.now().as_micros(),
                EventKind::Send,
                u32::from(to),
                obs_class(class),
                wire_len,
            );
        }
        Ok(())
    }

    fn send_batch(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        // The simulated network has no per-write cost to amortize, and every
        // `scheduler.send` is a choice point the explorer may perturb — so a
        // batch MUST consume exactly the same choice-point sequence as the
        // equivalent loop of single sends. Only the batch accounting is new.
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
        let (msg, blocked) = self.scheduler.recv(usize::from(self.id))?;
        self.metrics.record_blocked(blocked);
        self.note_recv(&msg);
        Ok(msg)
    }

    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        let msg = self.scheduler.try_recv(usize::from(self.id))?;
        if let Some(msg) = &msg {
            self.note_recv(msg);
        }
        Ok(msg)
    }

    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        let (msg, blocked) = self.scheduler.recv_deadline(usize::from(self.id), timeout)?;
        self.metrics.record_blocked(blocked);
        if let Some(msg) = &msg {
            self.note_recv(msg);
        }
        Ok(msg)
    }

    fn advance(&mut self, dt: SimSpan) {
        // An advance can only fail after a declared deadlock, at which point
        // the node will discover the error at its next recv.
        let _ = self.scheduler.advance(usize::from(self.id), dt);
    }

    fn now(&self) -> SimInstant {
        SimInstant::from_micros(self.scheduler.now(usize::from(self.id)))
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

    // The modelled network has no links to tear: membership changes are
    // the protocol layer's alone, and no peer event ever surfaces.
    fn remove_peer(&mut self, _peer: NodeId) {}

    fn add_peer(&mut self, _peer: NodeId) {}

    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        Vec::new()
    }
}
