//! The conservative virtual-time scheduler.
//!
//! Invariant: at most one node executes a time-advancing operation at a time,
//! and it is always a node with the globally minimal *next event time* (ties
//! broken by node id). A node's next event time is its clock while runnable,
//! or the arrival time of its earliest pending message while blocked in
//! `recv`. This guarantees that no node ever observes an inbox that a
//! virtual-time-earlier action could still change — which makes every run
//! deterministic.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use sdso_net::fault::Verdict;
use sdso_net::{
    unpoisoned, FaultInjector, Incoming, NetError, NodeId, Payload, SimInstant, SimSpan,
};

use crate::explore::{Candidate, DeliveryOracle};
use crate::model::NetworkModel;

/// Scheduling status of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Executing (or waiting for its turn to execute).
    Running,
    /// Parked inside `recv` with no deliverable message yet.
    Blocked,
    /// The node's closure has returned.
    Done,
}

/// An in-flight message.
#[derive(Debug)]
struct Entry {
    deliver_at: u64,
    /// Global sequence number: total, deterministic tie-break.
    seq: u64,
    from: NodeId,
    payload: Payload,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

#[derive(Debug)]
struct Node {
    clock: u64,
    status: Status,
    inbox: BinaryHeap<Reverse<Entry>>,
    /// Outgoing link busy-until time, per destination actually sent to.
    /// Sparse on purpose: under sharded routing a 256-node cluster's
    /// node talks to its interest set, not to all n-1 peers, and a dense
    /// `vec![0; n]` per node would be O(n²) state for links that never
    /// carry a byte. An absent key means the link was never busy.
    link_busy: BTreeMap<usize, u64>,
    /// Absolute virtual time at which a `recv_deadline` wait gives up.
    deadline: Option<u64>,
}

#[derive(Debug)]
struct State {
    nodes: Vec<Node>,
    deadlock: Option<String>,
    next_seq: u64,
    /// Fault injector, consulted once per send. Living under the state
    /// mutex means fault decisions are drawn in virtual-time order, so a
    /// given plan replays bit-identically across runs.
    injector: Option<FaultInjector>,
    /// Delivery-choice oracle, consulted whenever two or more senders race
    /// a message into the same receiver at one wake instant. Under the
    /// state mutex, so choice points form one global deterministic order.
    oracle: Option<Arc<dyn DeliveryOracle>>,
}

impl State {
    /// Next event time of node `i`, or `None` if it can never act again
    /// without external input.
    fn next_event(&self, i: usize) -> Option<u64> {
        let node = &self.nodes[i];
        match node.status {
            Status::Done => None,
            Status::Running => Some(node.clock),
            Status::Blocked => {
                let head = node.inbox.peek().map(|Reverse(e)| e.deliver_at);
                let t = match (head, node.deadline) {
                    (Some(h), Some(d)) => Some(h.min(d)),
                    (Some(h), None) => Some(h),
                    (None, d) => d,
                };
                t.map(|t| t.max(node.clock))
            }
        }
    }

    /// Whether node `id` holds the (virtual-time-minimal) right to act.
    fn is_min(&self, id: usize) -> bool {
        let Some(mine) = self.next_event(id) else {
            return false;
        };
        (0..self.nodes.len()).all(|j| {
            j == id
                || match self.next_event(j) {
                    None => true,
                    Some(t) => (mine, id) <= (t, j),
                }
        })
    }

    /// True iff no node can ever make progress again.
    fn is_deadlocked(&self) -> bool {
        let mut any_blocked = false;
        for node in &self.nodes {
            match node.status {
                Status::Running => return false,
                Status::Blocked => {
                    // A node waiting with a deadline will wake on its own;
                    // it can never be part of a deadlock.
                    if !node.inbox.is_empty() || node.deadline.is_some() {
                        return false;
                    }
                    any_blocked = true;
                }
                Status::Done => {}
            }
        }
        any_blocked
    }

    /// Pops the next deliverable message for node `id`.
    ///
    /// Without an oracle the heap head (earliest arrival, lowest seq) wins —
    /// the scheduler's native deterministic order. With an oracle, every
    /// entry deliverable at the wake instant is pooled, the earliest entry
    /// per distinct sender becomes a candidate, and the oracle picks among
    /// them when two or more senders race. Per-sender FIFO always holds:
    /// the oracle permutes across senders, never within one link.
    fn pop_delivery(&mut self, id: usize) -> Option<Entry> {
        let oracle = self.oracle.clone();
        let node = &mut self.nodes[id];
        let head_t = node.inbox.peek().map(|Reverse(e)| e.deliver_at)?;
        let Some(oracle) = oracle else {
            return node.inbox.pop().map(|Reverse(e)| e);
        };
        // All entries with deliver_at <= wake have arrived by the time this
        // node resumes; is_min guarantees no earlier event can add more.
        let wake = head_t.max(node.clock);
        let mut pool: Vec<Entry> = Vec::new();
        while node.inbox.peek().is_some_and(|Reverse(e)| e.deliver_at <= wake) {
            if let Some(Reverse(e)) = node.inbox.pop() {
                pool.push(e);
            }
        }
        // The heap pops in (deliver_at, seq) order, so the first pool entry
        // from each sender is that sender's earliest pending message.
        let mut candidates: Vec<usize> = Vec::new();
        for (i, e) in pool.iter().enumerate() {
            if !candidates.iter().any(|&j| pool[j].from == e.from) {
                candidates.push(i);
            }
        }
        let chosen = if candidates.len() >= 2 {
            let view: Vec<Candidate> = candidates
                .iter()
                .map(|&j| Candidate {
                    from: pool[j].from,
                    seq: pool[j].seq,
                    deliver_at: pool[j].deliver_at,
                })
                .collect();
            let k = oracle.choose(id as NodeId, &view).min(candidates.len() - 1);
            candidates[k]
        } else {
            *candidates.first()?
        };
        let entry = pool.swap_remove(chosen);
        for e in pool {
            node.inbox.push(Reverse(e));
        }
        Some(entry)
    }

    fn diagnostics(&self) -> String {
        let mut s = String::from("all live nodes blocked with empty inboxes;");
        for (i, node) in self.nodes.iter().enumerate() {
            s.push_str(&format!(
                " node {i}: {:?} at {}µs ({} queued);",
                node.status,
                node.clock,
                node.inbox.len()
            ));
        }
        s
    }
}

/// The shared scheduler for one cluster run.
#[derive(Debug)]
pub(crate) struct Scheduler {
    state: Mutex<State>,
    /// One condvar per node. Every mutation wakes only the node now
    /// holding the virtual-time minimum (see [`Scheduler::wake_min`]);
    /// a single shared condvar with `notify_all` would wake every
    /// parked thread per operation — an O(n²) context-switch storm that
    /// dominates wall-clock time on 256-node clusters.
    cvs: Vec<Condvar>,
    model: NetworkModel,
}

impl Scheduler {
    pub(crate) fn new(n: usize, model: NetworkModel) -> Self {
        let nodes = (0..n)
            .map(|_| Node {
                clock: 0,
                status: Status::Running,
                inbox: BinaryHeap::new(),
                link_busy: BTreeMap::new(),
                deadline: None,
            })
            .collect();
        Scheduler {
            state: Mutex::new(State {
                nodes,
                deadlock: None,
                next_seq: 0,
                injector: None,
                oracle: None,
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            model,
        }
    }

    /// Installs a fault injector; call before any node starts running.
    pub(crate) fn set_faults(&self, injector: FaultInjector) {
        unpoisoned(self.state.lock()).injector = Some(injector);
    }

    /// Installs a delivery-choice oracle; call before any node starts
    /// running.
    pub(crate) fn set_oracle(&self, oracle: Arc<dyn DeliveryOracle>) {
        unpoisoned(self.state.lock()).oracle = Some(oracle);
    }

    /// The number of nodes this scheduler serves.
    pub(crate) fn num_nodes(&self) -> usize {
        unpoisoned(self.state.lock()).nodes.len()
    }

    /// Wakes exactly the node that now holds the virtual-time minimum.
    ///
    /// Only the (unique, id-tie-broken) minimal node can make progress,
    /// so it is the only one worth waking. If no node has a next event
    /// while some are still blocked, the cluster is deadlocked: record
    /// it and wake everyone so they can observe the error. The executing
    /// thread itself may be the minimum — notifying its idle condvar is
    /// a harmless no-op.
    fn wake_min(&self, st: &mut State) {
        if st.deadlock.is_some() {
            for cv in &self.cvs {
                cv.notify_all();
            }
            return;
        }
        let mut min: Option<(u64, usize)> = None;
        for j in 0..st.nodes.len() {
            if let Some(t) = st.next_event(j) {
                if min.is_none_or(|m| (t, j) < m) {
                    min = Some((t, j));
                }
            }
        }
        match min {
            Some((_, j)) => self.cvs[j].notify_all(),
            None => {
                if st.is_deadlocked() {
                    st.deadlock = Some(st.diagnostics());
                    for cv in &self.cvs {
                        cv.notify_all();
                    }
                }
            }
        }
    }

    /// Blocks until `id` is the minimal-time node (or the run deadlocked).
    fn wait_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        id: usize,
    ) -> Result<MutexGuard<'a, State>, NetError> {
        loop {
            if let Some(d) = &st.deadlock {
                return Err(NetError::Deadlock(d.clone()));
            }
            if st.is_min(id) {
                return Ok(st);
            }
            st = unpoisoned(self.cvs[id].wait(st));
        }
    }

    /// Models local computation: advances `id`'s clock by `dt`.
    pub(crate) fn advance(&self, id: usize, dt: SimSpan) -> Result<(), NetError> {
        let mut st = self.wait_turn(unpoisoned(self.state.lock()), id)?;
        st.nodes[id].clock += dt.as_micros();
        self.wake_min(&mut st);
        Ok(())
    }

    /// Current clock of `id` in microseconds.
    pub(crate) fn now(&self, id: usize) -> u64 {
        unpoisoned(self.state.lock()).nodes[id].clock
    }

    /// Sends `payload` from `id` to `to` under the network model.
    ///
    /// Returns the fault verdict when an injector is installed (`None`
    /// otherwise) so the endpoint can account for injected faults. A
    /// dropped message still pays send CPU and occupies the link — the
    /// bits went out; they just never arrive.
    pub(crate) fn send(
        &self,
        id: usize,
        to: usize,
        payload: Payload,
    ) -> Result<Option<Verdict>, NetError> {
        let mut st = self.wait_turn(unpoisoned(self.state.lock()), id)?;
        let wire_len = payload.wire_len();
        let seq = st.next_seq;
        st.next_seq += 1;

        let (deliver_at, sent_at) = {
            let sender = &mut st.nodes[id];
            sender.clock += self.model.send_cpu.as_micros();
            let busy = sender.link_busy.get(&to).copied().unwrap_or(0);
            let start = sender.clock.max(busy);
            let done_tx = start + self.model.transmission(wire_len).as_micros();
            sender.link_busy.insert(to, done_tx);
            (done_tx + self.model.latency.as_micros(), sender.clock)
        };

        let verdict = st
            .injector
            .as_mut()
            .map(|inj| inj.judge(id as NodeId, to as NodeId, SimInstant::from_micros(sent_at)));
        let v = verdict.unwrap_or_default();
        if !v.dropped {
            let deliver_at = deliver_at + v.extra_delay.as_micros();
            st.nodes[to].inbox.push(Reverse(Entry {
                deliver_at,
                seq,
                from: id as NodeId,
                payload: payload.clone(),
            }));
            if v.duplicated {
                // The duplicate is a second transmission: it queues behind
                // the original on the link and pays its own wire time.
                let seq2 = st.next_seq;
                st.next_seq += 1;
                let deliver2 = {
                    let sender = &mut st.nodes[id];
                    let busy = sender.link_busy.get(&to).copied().unwrap_or(0);
                    let start = sender.clock.max(busy);
                    let done_tx = start + self.model.transmission(wire_len).as_micros();
                    sender.link_busy.insert(to, done_tx);
                    done_tx + self.model.latency.as_micros()
                };
                st.nodes[to].inbox.push(Reverse(Entry {
                    deliver_at: deliver2,
                    seq: seq2,
                    from: id as NodeId,
                    payload,
                }));
            }
        }
        self.wake_min(&mut st);
        Ok(verdict)
    }

    /// Receives the next message for `id`, blocking in virtual time.
    ///
    /// Returns the message plus the span the node spent blocked (arrival
    /// time minus the clock at call time, clamped to zero).
    pub(crate) fn recv(&self, id: usize) -> Result<(Incoming, SimSpan), NetError> {
        let mut st = unpoisoned(self.state.lock());
        let entry_clock = st.nodes[id].clock;
        loop {
            if let Some(d) = st.deadlock.clone() {
                st.nodes[id].status = Status::Running;
                return Err(NetError::Deadlock(d));
            }
            // Entering the blocked state changes every other node's is_min
            // verdict, so the transition must wake them.
            if st.nodes[id].status != Status::Blocked {
                st.nodes[id].status = Status::Blocked;
                self.wake_min(&mut st);
            }
            // Deliverable only when this node's wake time is globally
            // minimal (Blocked semantics: the pending arrival, not the stale
            // clock, is what gets compared).
            if !st.nodes[id].inbox.is_empty() {
                if st.is_min(id) {
                    if let Some(entry) = st.pop_delivery(id) {
                        let node = &mut st.nodes[id];
                        node.clock =
                            entry.deliver_at.max(node.clock) + self.model.recv_cpu.as_micros();
                        node.status = Status::Running;
                        let blocked =
                            SimSpan::from_micros(entry.deliver_at.saturating_sub(entry_clock));
                        self.wake_min(&mut st);
                        return Ok((
                            Incoming { from: entry.from, payload: entry.payload },
                            blocked,
                        ));
                    }
                }
            } else if st.is_deadlocked() {
                let diag = st.diagnostics();
                st.deadlock = Some(diag.clone());
                st.nodes[id].status = Status::Running;
                self.wake_min(&mut st);
                return Err(NetError::Deadlock(diag));
            }
            st = unpoisoned(self.cvs[id].wait(st));
        }
    }

    /// Like [`Scheduler::recv`], but gives up once the node's clock would
    /// pass `timeout`, returning `Ok((None, timeout))` with the clock
    /// advanced to the deadline.
    ///
    /// While waiting, the deadline itself is a scheduled event: the node
    /// participates in the virtual-time total order through it, and a
    /// cluster whose nodes all wait with deadlines is never declared
    /// deadlocked — the earliest deadline fires instead.
    pub(crate) fn recv_deadline(
        &self,
        id: usize,
        timeout: SimSpan,
    ) -> Result<(Option<Incoming>, SimSpan), NetError> {
        let mut st = unpoisoned(self.state.lock());
        let entry_clock = st.nodes[id].clock;
        let deadline = entry_clock + timeout.as_micros();
        st.nodes[id].deadline = Some(deadline);
        loop {
            if let Some(d) = st.deadlock.clone() {
                let node = &mut st.nodes[id];
                node.status = Status::Running;
                node.deadline = None;
                return Err(NetError::Deadlock(d));
            }
            if st.nodes[id].status != Status::Blocked {
                st.nodes[id].status = Status::Blocked;
                self.wake_min(&mut st);
            }
            if st.is_min(id) {
                let node = &mut st.nodes[id];
                let msg_first =
                    node.inbox.peek().is_some_and(|Reverse(e)| e.deliver_at <= deadline);
                node.status = Status::Running;
                node.deadline = None;
                if msg_first {
                    // The wake instant never exceeds the deadline here, so
                    // every pooled candidate beats the timeout.
                    if let Some(entry) = st.pop_delivery(id) {
                        let node = &mut st.nodes[id];
                        node.clock =
                            entry.deliver_at.max(node.clock) + self.model.recv_cpu.as_micros();
                        let blocked =
                            SimSpan::from_micros(entry.deliver_at.saturating_sub(entry_clock));
                        self.wake_min(&mut st);
                        return Ok((
                            Some(Incoming { from: entry.from, payload: entry.payload }),
                            blocked,
                        ));
                    }
                }
                let node = &mut st.nodes[id];
                node.clock = deadline.max(node.clock);
                self.wake_min(&mut st);
                return Ok((None, timeout));
            }
            st = unpoisoned(self.cvs[id].wait(st));
        }
    }

    /// Receives a message only if one has already arrived at `id`'s current
    /// clock; never advances past other nodes' earlier events.
    pub(crate) fn try_recv(&self, id: usize) -> Result<Option<Incoming>, NetError> {
        let mut st = self.wait_turn(unpoisoned(self.state.lock()), id)?;
        let node = &st.nodes[id];
        let due = node.inbox.peek().is_some_and(|Reverse(e)| e.deliver_at <= node.clock);
        if !due {
            return Ok(None);
        }
        let Some(entry) = st.pop_delivery(id) else {
            return Ok(None);
        };
        st.nodes[id].clock += self.model.recv_cpu.as_micros();
        self.wake_min(&mut st);
        Ok(Some(Incoming { from: entry.from, payload: entry.payload }))
    }

    /// Marks `id` finished (its closure returned or panicked).
    pub(crate) fn mark_done(&self, id: usize) {
        let mut st = unpoisoned(self.state.lock());
        st.nodes[id].status = Status::Done;
        // A finish can expose a deadlock among the remaining nodes;
        // wake_min detects the no-next-event case and flags it.
        self.wake_min(&mut st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pl(n: usize) -> Payload {
        Payload::data(vec![0u8; n])
    }

    #[test]
    fn delivery_time_includes_cpu_tx_and_latency() {
        let model = NetworkModel {
            send_cpu: SimSpan::from_micros(100),
            recv_cpu: SimSpan::from_micros(50),
            bandwidth_bps: 8_000_000, // 1 byte per microsecond
            latency: SimSpan::from_micros(300),
        };
        let s = Arc::new(Scheduler::new(2, model));
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            let (msg, blocked) = s2.recv(1).unwrap();
            assert_eq!(msg.from, 0);
            // deliver_at = 100 (send cpu) + 1000 (tx) + 300 (latency) = 1400
            assert_eq!(blocked.as_micros(), 1400);
            let clock = s2.now(1);
            assert_eq!(clock, 1450); // + recv cpu
            s2.mark_done(1);
        });
        s.send(0, 1, pl(1000)).unwrap();
        s.mark_done(0);
        t.join().unwrap();
    }

    #[test]
    fn back_to_back_sends_serialise_on_the_link() {
        let model = NetworkModel {
            send_cpu: SimSpan::ZERO,
            recv_cpu: SimSpan::ZERO,
            bandwidth_bps: 8_000_000, // 1 byte/µs
            latency: SimSpan::ZERO,
        };
        let s = Arc::new(Scheduler::new(2, model));
        s.send(0, 1, pl(1000)).unwrap();
        s.send(0, 1, pl(1000)).unwrap();
        s.mark_done(0);
        let (_, b1) = s.recv(1).unwrap();
        assert_eq!(b1.as_micros(), 1000);
        assert_eq!(s.now(1), 1000);
        let (_, b2) = s.recv(1).unwrap();
        // The second frame waited for the link: it arrives at t=2000, i.e.
        // 1000µs after the receiver finished the first recv.
        assert_eq!(b2.as_micros(), 1000);
        assert_eq!(s.now(1), 2000);
        s.mark_done(1);
    }

    #[test]
    fn links_to_distinct_peers_do_not_serialise() {
        let model = NetworkModel {
            send_cpu: SimSpan::ZERO,
            recv_cpu: SimSpan::ZERO,
            bandwidth_bps: 8_000_000,
            latency: SimSpan::ZERO,
        };
        let s = Arc::new(Scheduler::new(3, model));
        let receivers: Vec<_> = [1usize, 2]
            .into_iter()
            .map(|id| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let (_, blocked) = s.recv(id).unwrap();
                    s.mark_done(id);
                    blocked
                })
            })
            .collect();
        s.send(0, 1, pl(1000)).unwrap();
        s.send(0, 2, pl(1000)).unwrap();
        s.mark_done(0);
        for t in receivers {
            let blocked = t.join().unwrap();
            assert_eq!(blocked.as_micros(), 1000, "switched network: independent links");
        }
    }

    #[test]
    fn deadlock_detected_when_all_block_empty() {
        let s = Arc::new(Scheduler::new(2, NetworkModel::instant()));
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.recv(1));
        let r0 = s.recv(0);
        let r1 = t.join().unwrap();
        assert!(matches!(r0, Err(NetError::Deadlock(_))));
        assert!(matches!(r1, Err(NetError::Deadlock(_))));
    }

    #[test]
    fn messages_delivered_in_virtual_time_order_across_senders() {
        // Node 2 receives from both 0 and 1; node 1's message is sent later
        // in wall time but earlier in virtual time and must win.
        let model = NetworkModel {
            send_cpu: SimSpan::ZERO,
            recv_cpu: SimSpan::ZERO,
            bandwidth_bps: u64::MAX,
            latency: SimSpan::from_micros(10),
        };
        let s = Arc::new(Scheduler::new(3, model));
        // Node 0: advance far, then send (deliver at 1010).
        let s0 = Arc::clone(&s);
        let t0 = std::thread::spawn(move || {
            s0.advance(0, SimSpan::from_micros(1000)).unwrap();
            s0.send(0, 2, pl(1)).unwrap();
            s0.mark_done(0);
        });
        // Node 1: sends at virtual time 0 (deliver at 10), regardless of
        // which thread wins the wall-clock race.
        let s1 = Arc::clone(&s);
        let t1 = std::thread::spawn(move || {
            s1.send(1, 2, pl(2)).unwrap();
            s1.mark_done(1);
        });
        let (m1, _) = s.recv(2).unwrap();
        let (m2, _) = s.recv(2).unwrap();
        s.mark_done(2);
        assert_eq!(m1.from, 1);
        assert_eq!(m2.from, 0);
        t0.join().unwrap();
        t1.join().unwrap();
    }

    #[test]
    fn try_recv_sees_only_arrived_messages() {
        let model = NetworkModel {
            send_cpu: SimSpan::ZERO,
            recv_cpu: SimSpan::ZERO,
            bandwidth_bps: u64::MAX,
            latency: SimSpan::from_micros(100),
        };
        let s = Arc::new(Scheduler::new(2, model));
        s.send(0, 1, pl(1)).unwrap();
        s.mark_done(0);
        // Message arrives at t=100; node 1 is still at t=0.
        assert!(s.try_recv(1).unwrap().is_none());
        s.advance(1, SimSpan::from_micros(100)).unwrap();
        assert!(s.try_recv(1).unwrap().is_some());
        s.mark_done(1);
    }

    #[test]
    fn min_time_node_runs_first() {
        // Node 1 (clock 0) must complete its send before node 0 (clock 500)
        // may act, so node 0's recv sees it immediately.
        let s = Arc::new(Scheduler::new(2, NetworkModel::instant()));
        let s2 = Arc::clone(&s);
        s.advance(0, SimSpan::from_micros(500)).unwrap();
        let t = std::thread::spawn(move || {
            s2.send(1, 0, pl(1)).unwrap();
            s2.mark_done(1);
        });
        let (msg, _) = s.recv(0).unwrap();
        assert_eq!(msg.from, 1);
        s.mark_done(0);
        t.join().unwrap();
    }
}
