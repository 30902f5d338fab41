//! A fault-injecting decorator for any [`Endpoint`].
//!
//! [`FaultyEndpoint`] wraps a real transport (the reactor's sockets) and
//! executes a [`FaultPlan`] against its traffic: sends may be dropped
//! or duplicated, receives may be held back to let later messages
//! overtake, and timed partitions sever links until they heal. The same
//! plan type drives the virtual-time simulator, so a chaos scenario runs
//! unchanged over both worlds.
//!
//! Fault decisions are drawn per endpoint from `plan.seed ^ node_id`, so
//! a fixed plan gives each node an independent but reproducible stream.

use std::collections::VecDeque;

use sdso_obs::{EventKind, Recorder, FAULT_DELAY, FAULT_DROP, FAULT_DUP};

use crate::endpoint::{Endpoint, NodeId, PeerEvent};
use crate::error::NetError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::message::{Incoming, Payload};
use crate::metrics::{NetMetrics, NetMetricsSnapshot};
use crate::time::{SimInstant, SimSpan};

/// Cap on simultaneously held-back messages (reorder buffer).
const MAX_HELD: usize = 16;

/// One received message being held back so later traffic can overtake it.
#[derive(Debug)]
struct Held {
    msg: Incoming,
    /// Deliveries still allowed to pass before this one is released.
    passes_left: u32,
}

/// An [`Endpoint`] decorator that injects faults per a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyEndpoint<E> {
    inner: E,
    injector: FaultInjector,
    held: VecDeque<Held>,
    fault_metrics: NetMetrics,
    recorder: Recorder,
}

impl<E: Endpoint> FaultyEndpoint<E> {
    /// Wraps `inner`, drawing fault decisions from `plan.seed ^ node_id`.
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        let mut plan = plan;
        plan.seed ^= u64::from(inner.node_id());
        FaultyEndpoint {
            inner,
            injector: FaultInjector::new(plan),
            held: VecDeque::new(),
            fault_metrics: NetMetrics::new(),
            recorder: Recorder::disabled(),
        }
    }

    /// Emits a `FaultInjected` instant for a non-trivial verdict.
    fn note_fault(&self, verdict: &crate::fault::Verdict) {
        let mut bits = 0;
        if verdict.dropped {
            bits |= FAULT_DROP;
        }
        if verdict.duplicated {
            bits |= FAULT_DUP;
        }
        if verdict.extra_delay > SimSpan::ZERO {
            bits |= FAULT_DELAY;
        }
        if bits != 0 {
            self.recorder.record(
                self.inner.now().as_micros(),
                EventKind::FaultInjected,
                bits,
                0,
                0,
            );
        }
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Consumes the wrapper, returning the transport.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// Pops a held-back message whose pass allowance is exhausted.
    fn release_expired(&mut self) -> Option<Incoming> {
        let pos = self.held.iter().position(|h| h.passes_left == 0)?;
        self.held.remove(pos).map(|h| h.msg)
    }

    /// Decides the fate of one freshly received message: `Some` to deliver
    /// now, `None` when it was put into the hold-back buffer.
    fn admit(&mut self, msg: Incoming) -> Option<Incoming> {
        for h in &mut self.held {
            h.passes_left = h.passes_left.saturating_sub(1);
        }
        let verdict = self.injector.judge(msg.from, self.inner.node_id(), self.inner.now());
        let hold = verdict.extra_delay > SimSpan::ZERO && self.held.len() < MAX_HELD;
        if hold {
            let delay_only = crate::fault::Verdict {
                dropped: false,
                duplicated: false,
                extra_delay: verdict.extra_delay,
            };
            self.fault_metrics.record_fault(&delay_only);
            self.note_fault(&delay_only);
            // Convert the delay into a pass count: one overtaking message
            // per modelled millisecond, at least one.
            let passes = (verdict.extra_delay.as_micros() / 1_000).clamp(1, 8) as u32;
            self.held.push_back(Held { msg, passes_left: passes });
            self.release_expired()
        } else {
            Some(msg)
        }
    }
}

impl<E: Endpoint> Endpoint for FaultyEndpoint<E> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
        crate::endpoint::check_peer(self.node_id(), to, self.num_nodes())?;
        let verdict = self.injector.judge(self.node_id(), to, self.inner.now());
        let send_side = crate::fault::Verdict {
            extra_delay: SimSpan::ZERO, // delay is applied on the receive side
            ..verdict
        };
        self.fault_metrics.record_fault(&send_side);
        self.note_fault(&send_side);
        if verdict.dropped {
            return Ok(());
        }
        if verdict.duplicated {
            self.inner.send(to, payload.clone())?;
        }
        self.inner.send(to, payload)
    }

    fn send_batch(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        crate::endpoint::check_peer(self.node_id(), to, self.num_nodes())?;
        // Judge every sub-payload in order, exactly as a loop of `send`
        // calls would, so a fixed seed yields the same verdict stream
        // whether or not batching is enabled. Survivors (with duplicates
        // doubled in place) still go down as one batch.
        let mut surviving = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let verdict = self.injector.judge(self.node_id(), to, self.inner.now());
            let send_side = crate::fault::Verdict {
                extra_delay: SimSpan::ZERO, // delay is applied on the receive side
                ..verdict
            };
            self.fault_metrics.record_fault(&send_side);
            self.note_fault(&send_side);
            if verdict.dropped {
                continue;
            }
            if verdict.duplicated {
                surviving.push(payload.clone());
            }
            surviving.push(payload);
        }
        if surviving.is_empty() {
            return Ok(());
        }
        self.inner.send_batch(to, surviving)
    }

    fn recv(&mut self) -> Result<Incoming, NetError> {
        loop {
            if let Some(msg) = self.release_expired() {
                return Ok(msg);
            }
            match self.inner.recv() {
                Ok(msg) => {
                    if let Some(msg) = self.admit(msg) {
                        return Ok(msg);
                    }
                }
                // The stream may end while messages are still held back:
                // flush them before reporting the disconnect.
                Err(e) => match self.held.pop_front() {
                    Some(h) => return Ok(h.msg),
                    None => return Err(e),
                },
            }
        }
    }

    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        loop {
            if let Some(msg) = self.release_expired() {
                return Ok(Some(msg));
            }
            match self.inner.try_recv()? {
                Some(msg) => {
                    if let Some(msg) = self.admit(msg) {
                        return Ok(Some(msg));
                    }
                }
                // Nothing in flight right now: release the oldest held
                // message (nothing is left to overtake it) rather than
                // reporting emptiness while messages sit in the buffer.
                None => return Ok(self.held.pop_front().map(|h| h.msg)),
            }
        }
    }

    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        loop {
            if let Some(msg) = self.release_expired() {
                return Ok(Some(msg));
            }
            match self.inner.recv_deadline(timeout)? {
                Some(msg) => {
                    if let Some(msg) = self.admit(msg) {
                        return Ok(Some(msg));
                    }
                }
                // Timed out: surface any held message rather than stalling
                // the caller behind the hold-back buffer.
                None => return Ok(self.held.pop_front().map(|h| h.msg)),
            }
        }
    }

    fn advance(&mut self, dt: SimSpan) {
        self.inner.advance(dt);
    }

    fn now(&self) -> SimInstant {
        self.inner.now()
    }

    fn metrics(&self) -> NetMetricsSnapshot {
        self.inner.metrics().merged(&self.fault_metrics.snapshot())
    }

    fn metrics_delta(&mut self) -> NetMetricsSnapshot {
        self.inner.metrics_delta().merged(&self.fault_metrics.snapshot_delta())
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder.clone();
        self.inner.attach_recorder(recorder);
    }

    fn remove_peer(&mut self, peer: NodeId) {
        self.inner.remove_peer(peer);
    }

    fn add_peer(&mut self, peer: NodeId) {
        self.inner.add_peer(peer);
    }

    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        self.inner.take_peer_events()
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::reactor::{ReactorEndpoint, ReactorMesh};

    fn pair(plan: FaultPlan) -> (FaultyEndpoint<ReactorEndpoint>, ReactorEndpoint) {
        let mut eps = ReactorMesh::local(2).unwrap();
        let receiver = eps.pop().unwrap();
        let sender = FaultyEndpoint::new(eps.pop().unwrap(), plan);
        (sender, receiver)
    }

    #[test]
    fn zero_plan_is_transparent() {
        let (mut a, mut b) = pair(FaultPlan::new(5));
        for i in 0..20u8 {
            a.send(1, Payload::data(vec![i])).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(b.recv().unwrap().payload.bytes[0], i);
        }
        let m = a.metrics();
        assert_eq!(m.drops_injected, 0);
        assert_eq!(m.dups_injected, 0);
        assert_eq!(m.data_sent.msgs, 20);
    }

    #[test]
    fn drops_are_counted_and_not_delivered() {
        let (mut a, mut b) = pair(FaultPlan::new(5).with_drop(1.0));
        for i in 0..10u8 {
            a.send(1, Payload::data(vec![i])).unwrap();
        }
        assert!(b.try_recv().unwrap().is_none());
        let m = a.metrics();
        assert_eq!(m.drops_injected, 10);
        assert_eq!(m.data_sent.msgs, 0);
    }

    #[test]
    fn dups_deliver_two_copies() {
        let (mut a, mut b) = pair(FaultPlan::new(5).with_dup(1.0));
        a.send(1, Payload::data(vec![9])).unwrap();
        assert_eq!(b.recv().unwrap().payload.bytes[0], 9);
        assert_eq!(b.recv().unwrap().payload.bytes[0], 9);
        assert_eq!(a.metrics().dups_injected, 1);
        assert_eq!(a.metrics().data_sent.msgs, 2);
    }

    #[test]
    fn send_batch_draws_the_same_verdict_stream_as_looped_sends() {
        // Same seed, same traffic: a batch must consume verdicts exactly
        // like the equivalent loop of single sends.
        let plan = FaultPlan::new(77).with_drop(0.5);
        let (mut a, mut b) = pair(plan);
        a.send_batch(1, (0..20u8).map(|i| Payload::data(vec![i])).collect()).unwrap();
        let mut batched = Vec::new();
        while let Some(msg) = b.try_recv().unwrap() {
            batched.push(msg.payload.bytes[0]);
        }

        let (mut a2, mut b2) = pair(FaultPlan::new(77).with_drop(0.5));
        for i in 0..20u8 {
            a2.send(1, Payload::data(vec![i])).unwrap();
        }
        let mut looped = Vec::new();
        while let Some(msg) = b2.try_recv().unwrap() {
            looped.push(msg.payload.bytes[0]);
        }
        assert_eq!(batched, looped);
        assert_eq!(a.metrics().drops_injected, a2.metrics().drops_injected);
    }

    #[test]
    fn send_batch_doubles_duplicated_payloads_in_place() {
        let (mut a, mut b) = pair(FaultPlan::new(5).with_dup(1.0));
        a.send_batch(1, vec![Payload::data(vec![1]), Payload::data(vec![2])]).unwrap();
        let mut seen = Vec::new();
        while let Some(msg) = b.try_recv().unwrap() {
            seen.push(msg.payload.bytes[0]);
        }
        assert_eq!(seen, vec![1, 1, 2, 2]);
        assert_eq!(a.metrics().dups_injected, 2);
    }

    /// Faults are injected on traffic only: link events and membership pass
    /// straight through, so a torn link reaches the membership layer and a
    /// removed peer's torn link stays quiet. The reactor reports a torn
    /// link once, for good: re-adding the peer brings back its send errors,
    /// not a second `Down`.
    #[test]
    fn peer_events_and_membership_pass_through_to_the_transport() {
        let (mut a, b) = pair(FaultPlan::new(5));
        drop(b);
        let sent = a.send(1, Payload::data(vec![1]));
        assert!(matches!(sent, Err(NetError::Disconnected)), "{sent:?}");
        assert_eq!(a.take_peer_events(), vec![PeerEvent::Down(1)]);
        a.remove_peer(1);
        a.send(1, Payload::data(vec![2])).unwrap();
        a.add_peer(1);
        assert!(matches!(a.send(1, Payload::data(vec![3])), Err(NetError::Disconnected)));
        assert!(a.take_peer_events().is_empty(), "a torn link is Down once");
    }

    #[test]
    fn partition_severs_then_heals_on_wall_clock() {
        // The partition window is in wall time here (the reactor's
        // epoch), so use a generous healed-from-zero window: [0, 0) never
        // active ⇒ everything flows.
        let plan = FaultPlan::new(5).with_partition(vec![0], SimInstant::ZERO, SimInstant::ZERO);
        let (mut a, mut b) = pair(plan);
        a.send(1, Payload::data(vec![1])).unwrap();
        assert_eq!(b.recv().unwrap().payload.bytes[0], 1);
    }

    #[test]
    fn reordering_holds_messages_back_but_loses_none() {
        let plan = FaultPlan::new(42).with_reorder(0.5, SimSpan::from_millis(3));
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut receiver = FaultyEndpoint::new(eps.pop().unwrap(), plan);
        let mut sender = eps.pop().unwrap();
        let n = 50u8;
        for i in 0..n {
            sender.send(1, Payload::data(vec![i])).unwrap();
        }
        let mut seen = Vec::new();
        while seen.len() < usize::from(n) {
            match receiver.try_recv().unwrap() {
                Some(msg) => seen.push(msg.payload.bytes[0]),
                None => break,
            }
        }
        // Flush anything still held at stream end.
        while let Some(msg) = receiver.try_recv().unwrap() {
            seen.push(msg.payload.bytes[0]);
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "no loss, no duplication");
        assert_ne!(seen, sorted, "with 50% reorder over 50 messages, order must shuffle");
        assert!(receiver.metrics().delays_injected > 0);
    }
}
