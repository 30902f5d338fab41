//! The session layer: one [`Link`] per peer under a [`Session`] turns an
//! [`Endpoint`] into exactly-once, in-order, possibly compressed
//! [`DsoMessage`] delivery.
//!
//! This is the reliable channel beneath the algorithm. The kernel in
//! [`crate::runtime`] hands logical messages to [`Session::send`] and takes
//! them from the `recv*` family; sequencing, acknowledgement, retransmission
//! (the paper's `resync` path), codec negotiation and the XOR shadows never
//! leave this module. Every reset of per-peer state goes through
//! [`Link::reset`], the only table of which fields each reason clears.
//!
//! The ARQ is a sliding window that is free while nothing is lost: acks
//! ride the frames going the other way (alone only after
//! [`Link::ack_delay`]), and each link times its own round trips and
//! retransmits alone. Its timers run on time this process spent listening
//! and are served when a receive finds the transport silent: a frame that
//! already arrived may carry the very ack a timer is missing.

use std::collections::{BTreeMap, VecDeque};

use sdso_member::{Epoch, MembershipView};
use sdso_net::{Endpoint, Incoming, NetError, NodeId, Payload, SimInstant, SimSpan};
use sdso_obs::{EventKind, Obs};

use crate::clock::LogicalTime;
use crate::codec::{self, ShadowState, CODEC_V2};
use crate::config::{DsoConfig, RetryConfig};
use crate::error::DsoError;
use crate::metrics::DsoCounters;
use crate::object::ObjectId;
use crate::store::ObjectStore;
use crate::wire::{DsoMessage, WireUpdate};

/// A logical message and the peer it came from.
pub(crate) type Delivery = (NodeId, DsoMessage);

/// Frames a link may hold unacknowledged before a send fails with `WindowFull`.
const WINDOW: usize = 4096;

/// Doublings a retransmission timeout, or an idle receive's wait, backs off by.
const MAX_BACKOFF: u32 = 6;

/// Unanswered rounds a settle spends on one link: its peer has then exited.
const SETTLE_ROUNDS: u32 = 32;

/// Folds one ack latency (µs) into a Jacobson estimate of it: the smoothed
/// mean and the mean deviation.
fn observe(estimate: &mut Option<(u64, u64)>, sample: u64) {
    *estimate = Some(match *estimate {
        None => (sample, sample / 2),
        Some((mean, dev)) => ((7 * mean + sample) / 8, (3 * dev + mean.abs_diff(sample)) / 4),
    });
}

/// `rto` doubled once per unanswered round, at most [`MAX_BACKOFF`] times:
/// the policy of [`sdso_net::Backoff`], over a base that moves.
fn backed_off(rto: SimSpan, rounds: u32) -> SimSpan {
    SimSpan::from_micros(rto.as_micros() << rounds.min(MAX_BACKOFF))
}

/// Why a link's state is being reset (see [`Link::reset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reset {
    /// The peer left the view: the link is gone for good, and a joiner
    /// reusing the slot starts from sequence 0 / basis 0.
    Left,
    /// The transport reported a reconnect flap: the peer may have
    /// restarted, losing its XOR shadows and its knowledge of our offer.
    Flapped,
    /// A retransmission found the peer permanently disconnected: it finished
    /// its run, so what is unacknowledged is residue, not recoverable traffic.
    Abandoned,
}

/// Everything this process remembers about its link with one peer: ARQ
/// sequencing both ways (moved only when reliability is configured) and the
/// wire codec negotiated on it (only when [`crate::WireConfig::codec_v2`] is).
#[derive(Debug, Default)]
pub(crate) struct Link {
    /// Next sequence number to assign to an outgoing message.
    tx_seq: u64,
    /// Sent but unacknowledged messages, and when each first went out.
    unacked: BTreeMap<u64, (SimInstant, DsoMessage)>,
    /// When the oldest unacknowledged frame counts as lost, if any is.
    deadline: Option<SimInstant>,
    /// How long the peer's acks take ([`observe`]d round trips), once sampled.
    rtt: Option<(u64, u64)>,
    /// Deadlines expired since the last sample: the timeout's doublings,
    /// and the rounds unanswered that `max_retries` bounds.
    expiries: u32,
    /// Sequence numbers below this were retransmitted: an ack for one is
    /// ambiguous and gives no sample (Karn's rule).
    resent_below: u64,
    /// Next sequence number expected from the peer.
    rx_next: u64,
    /// Out-of-order arrivals waiting for their predecessors.
    ooo: BTreeMap<u64, DsoMessage>,
    /// Since when the peer is owed an ack that no frame has carried yet.
    ack_owed: Option<SimInstant>,
    /// How long this side's acks take: what the peer's `rtt` sees, less transit.
    lag: Option<(u64, u64)>,
    /// How long the last ack sent alone had waited; it counts in `lag` once
    /// a frame follows that could have carried it.
    alone: Option<u64>,
    /// Highest codec version the peer has offered; `None` until its
    /// [`DsoMessage::CodecOffer`] arrives — sends stay v1 until then.
    peer_version: Option<u8>,
    /// Whether this process's own offer has gone out on the link.
    offered: bool,
    /// Sender-side shadows for the `Data2` batches this process emits.
    tx: ShadowState,
    /// Receiver-side shadows for the `Data2` batches the peer emits.
    rx: ShadowState,
}

impl Link {
    /// The one reset entry point. Which fields each reason clears:
    ///
    /// | reason      | `tx_seq` `rx_next` `ooo` `ack_owed`, estimators | `unacked` `deadline` | `peer_version` `offered` `tx` | `rx` |
    /// |-------------|-----------|-----------|-----------|---------|
    /// | `Left`      | cleared   | cleared   | cleared   | cleared |
    /// | `Flapped`   | kept      | kept      | cleared   | kept    |
    /// | `Abandoned` | kept      | cleared   | kept      | kept    |
    ///
    /// A flap keeps the receive shadows on purpose: frames the peer encoded
    /// before it may still be in flight or be retransmitted, and must decode
    /// against the shadows they were built on. If the peer really restarted,
    /// its first fresh `Data2` carries basis 0 ([`Session::deliver`]).
    pub(crate) fn reset(&mut self, why: Reset) {
        match why {
            Reset::Left => *self = Link::default(),
            Reset::Flapped => {
                self.peer_version = None;
                self.offered = false;
                self.tx.reset();
            }
            Reset::Abandoned => {
                self.unacked.clear();
                self.deadline = None;
            }
        }
    }

    /// The retransmission timeout: SRTT + max(4·RTTVAR, `cfg.rto`) —
    /// estimated, before the first sample, as if that sample had been
    /// `cfg.rto` — doubled per expiry since the last sample.
    fn rto(&self, cfg: &RetryConfig) -> SimSpan {
        let floor = cfg.rto.as_micros();
        let (srtt, var) = self.rtt.unwrap_or((floor, floor / 2));
        backed_off(SimSpan::from_micros(srtt + (4 * var).max(floor)), self.expiries)
    }

    /// How long an owed ack waits for a frame to ride on before it travels
    /// alone: half the RTO floor longer than this side's acks usually take
    /// (the peer's timeout is its own smoothed view of those latencies plus at
    /// least the whole floor: never a loss), and no longer than any backoff.
    fn ack_delay(&self, cfg: &RetryConfig) -> SimSpan {
        let usual = self.lag.map_or(0, |(usual, _)| usual);
        SimSpan::from_micros(usual + cfg.rto.as_micros() / 2).min(backed_off(cfg.rto, MAX_BACKOFF))
    }

    /// Assigns `msg` the next sequence number, keeping a copy until the
    /// peer acknowledges it and arming the deadline if none is running.
    fn sequence(&mut self, msg: &DsoMessage, now: SimInstant, cfg: &RetryConfig) -> u64 {
        let seq = self.tx_seq;
        self.tx_seq += 1;
        self.unacked.insert(seq, (now, msg.clone()));
        self.deadline.get_or_insert(now + self.rto(cfg));
        seq
    }

    /// The peer holds everything below `next`: forget it, restart the deadline
    /// for what is left, and sample the round trip of the oldest
    /// never-retransmitted frame it covers, which also ends the backoff. An ack
    /// for more than this link ever sent was for the slot's previous occupant.
    fn acked(&mut self, next: u64, now: SimInstant, cfg: &RetryConfig) {
        let news = self.unacked.first_key_value().is_some_and(|(&oldest, _)| oldest < next);
        if !news || next > self.tx_seq {
            return;
        }
        let fresh = self.resent_below.min(next)..next;
        if let Some((_, &(sent, _))) = self.unacked.range(fresh).next() {
            observe(&mut self.rtt, now.saturating_since(sent).as_micros());
            self.expiries = 0;
        }
        self.unacked.retain(|&s, _| s >= next);
        self.deadline = (!self.unacked.is_empty()).then(|| now + self.rto(cfg));
    }

    /// Files the peer's `seq`-th message and returns what became
    /// deliverable, in order: the message itself plus any out-of-order
    /// successors it unblocks, nothing while a predecessor is missing.
    /// `None` is a duplicate of something already delivered.
    fn accept(&mut self, seq: u64, inner: DsoMessage) -> Option<Vec<DsoMessage>> {
        let mut chain = Vec::new();
        if seq == self.rx_next {
            self.rx_next += 1;
            chain.push(inner);
            while let Some(next) = self.ooo.remove(&self.rx_next) {
                chain.push(next);
                self.rx_next += 1;
            }
        } else if seq > self.rx_next {
            self.ooo.entry(seq).or_insert(inner);
        } else {
            return None;
        }
        Some(chain)
    }
}

/// How long one receive step may wait on the transport.
enum Wait {
    /// Until something arrives.
    Block,
    /// At most this long.
    For(SimSpan),
    /// Not at all: only what already arrived.
    Poll,
}

/// Owns the transport endpoint and one [`Link`] per peer slot.
#[derive(Debug)]
pub(crate) struct Session<E: Endpoint> {
    /// The transport. Open to the kernel for what is not message traffic:
    /// clocks, metrics, peer add/remove, link events.
    pub(crate) endpoint: E,
    config: DsoConfig,
    links: Vec<Link>,
    /// In-order messages delivered by a link but not yet consumed: every
    /// receive queues here first, so per-link FIFO holds by construction.
    ready: VecDeque<Delivery>,
    /// The kernel's current view: who may be sent to, and which epoch
    /// separates live traffic from a departed member's residue.
    view: MembershipView,
    /// When this process last took from the transport, or was about to wait.
    heard: SimInstant,
    obs: Obs,
    counters: DsoCounters,
}

impl<E: Endpoint> Session<E> {
    pub(crate) fn new(endpoint: E, config: DsoConfig, obs: Obs, counters: DsoCounters) -> Self {
        let n = endpoint.num_nodes();
        Session {
            endpoint,
            config,
            links: (0..n).map(|_| Link::default()).collect(),
            ready: VecDeque::new(),
            view: MembershipView::full(n),
            heard: SimInstant::ZERO,
            obs,
            counters,
        }
    }

    /// Installs the view sends and receives are filtered under.
    pub(crate) fn set_view(&mut self, view: MembershipView) {
        self.view = view;
    }

    /// Resets `peer`'s link for the given reason. A departed peer's
    /// already-delivered messages must not reach the kernel either.
    pub(crate) fn reset(&mut self, peer: NodeId, why: Reset) {
        self.links[usize::from(peer)].reset(why);
        if why == Reset::Left {
            self.ready.retain(|(from, _)| *from != peer);
        }
    }

    /// Takes the oldest delivered-but-unconsumed message, if any.
    pub(crate) fn pop_ready(&mut self) -> Option<Delivery> {
        self.ready.pop_front()
    }

    // ---- Sending ----

    /// Sends one logical message to `peer`.
    pub(crate) fn send(&mut self, peer: NodeId, msg: DsoMessage) -> Result<(), DsoError> {
        // Suppress protocol traffic to non-members: a departed peer will
        // never consume it, and queueing it on the reliability layer would
        // leave permanently-unackable state.
        if !self.view.contains(peer) {
            self.counters.non_member_dropped.inc();
            return Ok(());
        }
        let payload = self.wrap(peer, msg)?;
        self.endpoint.send(peer, payload).map_err(DsoError::Net)
    }

    /// Sends one exchange's traffic to `peer` — the `(data, SYNC)` pair of
    /// Fig. 4 stamped with the view's epoch: one `Data2` frame that is both
    /// when the link negotiated v2, else the data half (omitted when empty)
    /// and a `Sync`; this process's codec offer in front while it is still
    /// owed — two or more messages as one batched transport write. Content,
    /// order and accounting are those of [`Session::send`] per message.
    pub(crate) fn send_rendezvous(
        &mut self,
        peer: NodeId,
        time: LogicalTime,
        updates: Vec<WireUpdate>,
        store: &ObjectStore,
    ) -> Result<(), DsoError> {
        let epoch = self.view.epoch();
        let mut msgs = Vec::with_capacity(3);
        // Our codec offer goes first while it is still owed. With
        // compression off none ever is, and peers keep encoding v1 toward us.
        let offered = &mut self.links[usize::from(peer)].offered;
        if self.config.wire.codec_v2 && !std::mem::replace(offered, true) {
            msgs.push(DsoMessage::CodecOffer { version: CODEC_V2 });
        }
        if !updates.is_empty() {
            msgs.push(self.encode_data(peer, epoch, time, updates, store));
        }
        if matches!(msgs.last(), Some(DsoMessage::Data2 { .. })) {
            self.counters.rendezvous_fused.inc();
        } else {
            msgs.push(DsoMessage::Sync { epoch, time });
        }
        if msgs.len() < 2 {
            return msgs.into_iter().try_for_each(|msg| self.send(peer, msg));
        }
        if !self.view.contains(peer) {
            self.counters.non_member_dropped.add(msgs.len() as u64);
            return Ok(());
        }
        let payloads =
            msgs.into_iter().map(|msg| self.wrap(peer, msg)).collect::<Result<_, _>>()?;
        self.endpoint.send_batch(peer, payloads).map_err(DsoError::Net)
    }

    /// Sequences `msg` on `peer`'s link (when reliability is configured) and
    /// encodes it for the wire. Callers have done non-member suppression.
    fn wrap(&mut self, peer: NodeId, msg: DsoMessage) -> Result<Payload, DsoError> {
        let Some(cfg) = self.config.reliability else {
            return Ok(msg.into_payload(self.config.frame_wire_len));
        };
        let link = &mut self.links[usize::from(peer)];
        if link.unacked.len() >= WINDOW {
            return Err(DsoError::WindowFull { peer, unacked: link.unacked.len() });
        }
        let seq = link.sequence(&msg, self.endpoint.now(), &cfg);
        Ok(self.envelope(peer, seq, msg))
    }

    /// Encodes the `seq`-th message to `peer` in its envelope, whose
    /// cumulative ack carries whatever ack was owed for free.
    fn envelope(&mut self, peer: NodeId, seq: u64, inner: DsoMessage) -> Payload {
        let now = self.endpoint.now();
        let link = &mut self.links[usize::from(peer)];
        if let Some(waited) = link.alone.take() {
            observe(&mut link.lag, waited);
        }
        if let Some(since) = link.ack_owed.take() {
            observe(&mut link.lag, now.saturating_since(since).as_micros());
            self.counters.acks_piggybacked.inc();
        }
        DsoMessage::Env { seq, ack: link.rx_next, inner: Box::new(inner) }
            .into_payload(self.config.frame_wire_len)
    }

    /// Tells `peer` where its stream stands, in a frame of its own.
    fn ack(&mut self, peer: NodeId) -> Result<(), DsoError> {
        let now = self.endpoint.now();
        let link = &mut self.links[usize::from(peer)];
        if let Some(since) = link.ack_owed.take() {
            link.alone = Some(now.saturating_since(since).as_micros());
        }
        let next = link.rx_next;
        self.send_ack(peer, next)
    }

    fn send_ack(&mut self, peer: NodeId, next: u64) -> Result<(), DsoError> {
        self.counters.acks_standalone.inc();
        let payload = DsoMessage::SeqAck { next }.into_payload(self.config.frame_wire_len);
        match self.endpoint.send(peer, payload) {
            // The peer may have exited since its frame went out (it sat in
            // our rx queue): an ack nobody is left to consume is not owed.
            Ok(()) | Err(NetError::Disconnected) => Ok(()),
            Err(e) => Err(DsoError::Net(e)),
        }
    }

    /// Builds the data message for one exchange send: the compressed `Data2`,
    /// SYNC on board, once the peer has negotiated v2 — falling back to the
    /// absolute `Data` when a run exceeds the decoder's inflation budget or an
    /// XOR shadow cannot be seeded — and plain `Data` before.
    fn encode_data(
        &mut self,
        peer: NodeId,
        epoch: Epoch,
        time: LogicalTime,
        updates: Vec<WireUpdate>,
        store: &ObjectStore,
    ) -> DsoMessage {
        let link = &mut self.links[usize::from(peer)];
        if self.config.wire.codec_v2 && link.peer_version.is_some_and(|v| v >= CODEC_V2) {
            let mut seed = |object: ObjectId| store.initial_body(object).map(<[u8]>::to_vec);
            if let Some((basis, blob)) =
                codec::encode_updates(&updates, self.config.wire.xor_delta, &mut link.tx, &mut seed)
            {
                self.counters.codec_v2_sent.inc();
                return DsoMessage::Data2 { epoch, time, basis, blob, sync: true };
            }
            self.counters.codec_v2_fallbacks.inc();
        }
        DsoMessage::Data { epoch, time, updates }
    }

    // ---- Receiving: one step, driven by seven stop rules ----

    /// The one receive step: take at most one frame off the transport, run
    /// it through the link ([`Session::admit`]) — which queues the logical
    /// messages it completes, none for an ack, an offer, a duplicate, a gap or
    /// residue — and hand the payload's storage back to the global buffer pool
    /// (a no-op while the bytes are shared or the pool is full). With a
    /// `residue` counter it also discards, and counts there, what
    /// [`Session::drain_residue`] must never admit. `false`: nothing arrived.
    fn step(
        &mut self,
        wait: Wait,
        store: &ObjectStore,
        residue: Option<&mut u64>,
    ) -> Result<bool, DsoError> {
        let arrived = match wait {
            Wait::Block => self.endpoint.recv().map(Some),
            Wait::For(span) => self.endpoint.recv_deadline(span),
            Wait::Poll => self.endpoint.try_recv(),
        };
        self.heard = self.endpoint.now();
        let Some(Incoming { from, payload }) = arrived.map_err(DsoError::Net)? else {
            return Ok(false);
        };
        let msg: DsoMessage = sdso_net::wire::decode(&payload.bytes).map_err(DsoError::Net)?;
        let stale = |msg: &DsoMessage| match msg {
            DsoMessage::SeqAck { .. } => true,
            other => other.epoch().is_some_and(|e| e < self.view.epoch()),
        };
        match residue {
            Some(dropped) if stale(&msg) => {
                *dropped += 1;
                self.counters.cross_epoch_dropped.inc();
            }
            _ => self.admit(from, msg, store)?,
        }
        sdso_net::pool::global().reclaim(payload.bytes);
        Ok(true)
    }

    /// Runs one decoded frame through the reliability layer and on to the
    /// codec layer whatever this arrival put in order. Without a reliability
    /// config every frame passes straight through.
    fn admit(
        &mut self,
        from: NodeId,
        msg: DsoMessage,
        store: &ObjectStore,
    ) -> Result<(), DsoError> {
        let Some(cfg) = self.config.reliability else { return self.deliver(from, msg, store) };
        let now = self.endpoint.now();
        let link = &mut self.links[usize::from(from)];
        // Residue of a slot's previous occupant — a departed member's last
        // frames (a past epoch), or what was retransmitted at this process
        // while it was down (it acknowledges more than this link ever sent):
        // pretend-ack it so the sender's settle converges, but keep it out of
        // the live link state — the slot's new streams start from zero.
        if let DsoMessage::Env { seq, ack, ref inner } = msg {
            let past = |epoch| !self.view.contains(from) && epoch < self.view.epoch();
            if ack > link.tx_seq || inner.epoch().is_some_and(past) {
                self.counters.cross_epoch_dropped.inc();
                return self.send_ack(from, seq + 1);
            }
        }
        match msg {
            DsoMessage::Env { seq, ack, inner } => {
                link.acked(ack, now, &cfg);
                let chain = link.accept(seq, *inner);
                if chain.as_ref().is_some_and(|chain| !chain.is_empty()) {
                    // In order: the ack waits for the next frame that way.
                    link.ack_owed.get_or_insert(now);
                } else {
                    // A duplicate (the peer missed an ack) or a gap (we
                    // missed a frame): say where the stream stands at once.
                    if chain.is_none() {
                        self.counters.duplicates_dropped.inc();
                    }
                    self.ack(from)?;
                }
                // Codec resolution happens here, after sequencing: the
                // exactly-once point the XOR shadows' lockstep relies on.
                chain.unwrap_or_default().into_iter().try_for_each(|m| self.deliver(from, m, store))
            }
            DsoMessage::SeqAck { next } => {
                link.acked(next, now, &cfg);
                Ok(())
            }
            // A plain message from a peer running without the layer is
            // delivered as-is, codec resolution included.
            other => self.deliver(from, other, store),
        }
    }

    /// Resolves codec-layer messages at their exactly-once delivery point and
    /// queues the result for the kernel: consumes a [`DsoMessage::CodecOffer`],
    /// decodes a [`DsoMessage::Data2`] back into the plain `Data` it compresses
    /// (advancing this link's receive shadows) with, directly behind it, the
    /// `Sync` it carries, and passes everything else through untouched.
    fn deliver(
        &mut self,
        from: NodeId,
        msg: DsoMessage,
        store: &ObjectStore,
    ) -> Result<(), DsoError> {
        let link = &mut self.links[usize::from(from)];
        match msg {
            // Compression is off here: never offer back, so the peer keeps
            // encoding v1 toward us. Interop, not an error.
            DsoMessage::CodecOffer { .. } if !self.config.wire.codec_v2 => {}
            DsoMessage::CodecOffer { version } => {
                // A *repeat* offer on a negotiated link means the peer
                // downgraded its side (a flap, or a restart without a view
                // change) and no longer knows our version: our offer must
                // cross again before it resumes v2 toward us. No storm: the
                // sender's `peer_version` is then `None` and absorbs our reply.
                let repeat = link.peer_version.replace(version).is_some();
                if repeat || !link.offered {
                    link.offered = true;
                    self.send(from, DsoMessage::CodecOffer { version: CODEC_V2 })?;
                }
            }
            DsoMessage::Data2 { .. } if !self.config.wire.codec_v2 => {
                return Err(DsoError::ProtocolViolation(format!(
                    "compressed Data2 from {from} but codec v2 is not enabled here"
                )));
            }
            DsoMessage::Data2 { epoch, time, basis, blob, sync } => {
                // Basis 0 announces a fresh compressed stream: the peer
                // restarted its transmit shadows (a flap or a process
                // restart). Restart ours to match — a sender's basis only
                // returns to 0 by reset, never by wraparound.
                if basis == 0 && link.rx.basis() != 0 {
                    link.rx.reset();
                }
                let mut seed = |object: ObjectId| store.initial_body(object).map(<[u8]>::to_vec);
                let updates = codec::decode_updates(&blob, basis, &mut link.rx, &mut seed)
                    .map_err(DsoError::Net)?;
                self.ready.push_back((from, DsoMessage::Data { epoch, time, updates }));
                if sync {
                    self.ready.push_back((from, DsoMessage::Sync { epoch, time }));
                }
            }
            other => self.ready.push_back((from, other)),
        }
        Ok(())
    }

    /// Blocking receive of the next logical message. With reliability on it
    /// sleeps until the earliest link timer and serves it, and fails with
    /// [`DsoError::Timeout`] once a link went `max_retries` rounds
    /// unanswered, or after as many idle rounds, each twice the last.
    pub(crate) fn recv(&mut self, store: &ObjectStore) -> Result<Delivery, DsoError> {
        self.recv_next(false, store)
    }

    /// Blocking receive without the idle-round budget: for a joiner awaiting
    /// admission, where arbitrarily long silence is expected. With no link
    /// timer pending, a genuine group failure parks this process in the
    /// transport and surfaces through the scheduler's stall detection instead.
    pub(crate) fn recv_patiently(&mut self, store: &ObjectStore) -> Result<Delivery, DsoError> {
        self.recv_next(true, store)
    }

    fn recv_next(&mut self, patient: bool, store: &ObjectStore) -> Result<Delivery, DsoError> {
        let mut idle = 0u32;
        loop {
            if let Some(m) = self.ready.pop_front() {
                return Ok(m);
            }
            let timer = self.next_timer();
            let wait = match (timer, self.config.reliability) {
                (Some(at), _) => Wait::For(at.saturating_since(self.endpoint.now())),
                (None, Some(cfg)) if !patient => Wait::For(backed_off(cfg.rto, idle)),
                _ => Wait::Block,
            };
            if self.step(wait, store, None)? {
                idle = 0;
                continue;
            }
            idle += u32::from(timer.is_none());
            let rounds = self.serve_timers()?.max(idle);
            if self.config.reliability.is_some_and(|cfg| rounds >= cfg.max_retries) {
                return Err(DsoError::Timeout { retries: rounds });
            }
        }
    }

    /// Receive bounded by a wall/virtual-time `deadline` rather than the
    /// retry budget: for bounded rendezvous waits, where how long to wait is
    /// the caller's decision. Link timers are served meanwhile; `Ok(None)`
    /// means the deadline passed with nothing to deliver.
    pub(crate) fn recv_until(
        &mut self,
        deadline: SimInstant,
        store: &ObjectStore,
    ) -> Result<Option<Delivery>, DsoError> {
        loop {
            if let Some(m) = self.ready.pop_front() {
                return Ok(Some(m));
            }
            let now = self.endpoint.now();
            if now >= deadline {
                return Ok(None);
            }
            let wake = self.next_timer().map_or(deadline, |at| at.min(deadline));
            if !self.step(Wait::For(wake.saturating_since(now)), store, None)? {
                self.serve_timers()?;
            }
        }
    }

    /// Non-blocking receive of the next logical message; serves the link
    /// timers once nothing is left to take.
    pub(crate) fn recv_now(&mut self, store: &ObjectStore) -> Result<Option<Delivery>, DsoError> {
        loop {
            if let Some(m) = self.ready.pop_front() {
                return Ok(Some(m));
            }
            if !self.step(Wait::Poll, store, None)? {
                return self.serve_timers().map(|_| None);
            }
        }
    }

    /// One receipt of the tail flush ([`crate::SdsoRuntime::settle`]): sends
    /// every ack still owed, then waits, serving the link timers, until a
    /// frame arrives — `None`, what it delivered waiting in the ready
    /// queue — or the flush is over: `Some(true)` once every peer has
    /// acknowledged everything this process sent (always, without a
    /// reliability config), `Some(false)` when a link went [`SETTLE_ROUNDS`]
    /// rounds unanswered or every other node has finished.
    pub(crate) fn settle_recv(&mut self, store: &ObjectStore) -> Result<Option<bool>, DsoError> {
        let Some(cfg) = self.config.reliability else { return Ok(Some(true)) };
        for peer in 0..self.links.len() as NodeId {
            if self.links[usize::from(peer)].ack_owed.is_some() {
                self.ack(peer)?;
            }
        }
        loop {
            // No ack is owed, so what timers are left are the deadlines of
            // links that still hold unacknowledged frames.
            let Some(deadline) = self.next_timer() else { return Ok(Some(true)) };
            let wait = Wait::For(deadline.saturating_since(self.endpoint.now()));
            match self.step(wait, store, None) {
                Ok(true) => return Ok(None),
                Ok(false) => {
                    if self.serve_timers()? >= SETTLE_ROUNDS.min(cfg.max_retries) {
                        return Ok(Some(false));
                    }
                }
                Err(DsoError::Net(NetError::Deadlock(_) | NetError::Disconnected)) => {
                    return Ok(Some(false));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Drains the link toward a departing peer: acks what it is owed, then
    /// waits, serving every link's timers, until it has acknowledged all this
    /// process sent it or [`SETTLE_ROUNDS`] rounds went unanswered. What other
    /// peers deliver meanwhile is queued as usual.
    pub(crate) fn settle_link(
        &mut self,
        peer: NodeId,
        store: &ObjectStore,
    ) -> Result<(), DsoError> {
        let Some(cfg) = self.config.reliability else { return Ok(()) };
        if self.links[usize::from(peer)].ack_owed.is_some() {
            self.ack(peer)?;
        }
        loop {
            let link = &self.links[usize::from(peer)];
            if link.deadline.is_none() || link.expiries >= SETTLE_ROUNDS.min(cfg.max_retries) {
                return Ok(());
            }
            let Some(timer) = self.next_timer() else { return Ok(()) };
            let wait = Wait::For(timer.saturating_since(self.endpoint.now()));
            if !self.step(wait, store, None)? {
                self.serve_timers()?;
            }
        }
    }

    /// Discards crash-era residue in a restarted process's receive queue
    /// ([`crate::SdsoRuntime::drain_crash_residue`]): a sequenced frame stamped
    /// before the view's epoch is dropped unacked, and so is any ack. Fresh
    /// traffic that overtook the drain is admitted and parked where the
    /// blocking receives look first. Returns the frames dropped.
    pub(crate) fn drain_residue(&mut self, store: &ObjectStore) -> Result<u64, DsoError> {
        if self.config.reliability.is_none() {
            return Ok(0);
        }
        let mut dropped = 0u64;
        while self.step(Wait::Poll, store, Some(&mut dropped))? {}
        Ok(dropped)
    }

    /// The earliest instant a link wants attention, for a receive about to
    /// block: an owed ack's delay running out, or a retransmission deadline.
    /// If the process comes back from sending or computing, no ack could be
    /// heard meanwhile and peers in step with it were as busy, so each
    /// deadline first moves out by the time away — to at most one timeout
    /// from now. (A receive that only polls never waits: its deadlines run on.)
    fn next_timer(&mut self) -> Option<SimInstant> {
        let cfg = self.config.reliability?;
        let now = self.endpoint.now();
        let away = now.saturating_since(std::mem::replace(&mut self.heard, now));
        let timers = self.links.iter_mut().flat_map(|link| {
            let fresh = now + link.rto(&cfg);
            link.deadline = link.deadline.map(|at| (at + away).min(fresh));
            [link.ack_owed.map(|since| since + link.ack_delay(&cfg)), link.deadline]
        });
        timers.flatten().min()
    }

    /// Serves every due link timer, once a receive found the transport silent:
    /// a link whose deadline passed retransmits, an ack that waited its delay
    /// travels alone. Returns the most unanswered rounds of any link resent.
    fn serve_timers(&mut self) -> Result<u32, DsoError> {
        let Some(cfg) = self.config.reliability else { return Ok(0) };
        let now = self.endpoint.now();
        let mut rounds = 0;
        for peer in 0..self.links.len() as NodeId {
            if self.links[usize::from(peer)].deadline.is_some_and(|at| at <= now) {
                rounds = rounds.max(self.retransmit(peer, cfg)?);
            }
            let link = &self.links[usize::from(peer)];
            if link.ack_owed.is_some_and(|since| since + link.ack_delay(&cfg) <= now) {
                self.ack(peer)?;
            }
        }
        Ok(rounds)
    }

    /// One link's retransmission round — the paper's `resync` path, for
    /// the one peer whose ack is overdue: count it, trace it, double the
    /// timeout, resend what is unacknowledged. Returns its rounds unanswered.
    fn retransmit(&mut self, peer: NodeId, cfg: RetryConfig) -> Result<u32, DsoError> {
        let now = self.endpoint.now();
        let link = &mut self.links[usize::from(peer)];
        link.expiries += 1;
        link.resent_below = link.tx_seq;
        link.deadline = Some(now + link.rto(&cfg));
        let round = link.expiries;
        let pending: Vec<(u64, DsoMessage)> =
            link.unacked.iter().map(|(&seq, (_, msg))| (seq, msg.clone())).collect();
        self.counters.resyncs.inc();
        self.obs.record(now.as_micros(), EventKind::Resync, round, 0, 0);
        for (seq, inner) in pending {
            self.counters.retransmits.inc();
            self.obs.record(now.as_micros(), EventKind::Retransmit, u32::from(peer), seq as u32, 0);
            let payload = self.envelope(peer, seq, inner);
            match self.endpoint.send(peer, payload) {
                Ok(()) => {}
                // The peer finished and tore its endpoint down: write the
                // link off, once, with whatever else it still held.
                Err(NetError::Disconnected) => {
                    self.counters.links_abandoned.inc();
                    self.reset(peer, Reset::Abandoned);
                    break;
                }
                Err(e) => return Err(DsoError::Net(e)),
            }
        }
        Ok(round)
    }
}

/// The Link contract, checked without a kernel: two sessions over an
/// in-process pair behind a seeded drop/dup/reorder plan, reliability and
/// codec v2 on. Single-threaded, poll-driven and on a hand-wound clock (a
/// retransmission round is an explicit call that winds the clock past
/// every deadline, never a wall-clock timeout), so it is deterministic and
/// small enough for Miri.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WireConfig;
    use crate::diff::Diff;
    use crate::object::Version;
    use sdso_member::ViewChange;
    use sdso_net::memory::{MemoryEndpoint, MemoryHub};
    use sdso_net::{FaultPlan, FaultyEndpoint, MsgClass, NetMetricsSnapshot};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// An in-process endpoint on a hand-wound clock shared by both ends:
    /// time passes only when a test winds it or a bounded wait runs out,
    /// so every link timer fires exactly where the test puts it.
    #[derive(Debug)]
    struct Wound {
        inner: MemoryEndpoint,
        micros: Arc<AtomicU64>,
    }

    impl Endpoint for Wound {
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
        fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
            let arrived = self.inner.try_recv()?;
            if arrived.is_none() {
                self.advance(timeout);
            }
            Ok(arrived)
        }
        fn advance(&mut self, dt: SimSpan) {
            self.micros.fetch_add(dt.as_micros(), Ordering::Relaxed);
        }
        fn now(&self) -> SimInstant {
            SimInstant::from_micros(self.micros.load(Ordering::Relaxed))
        }
        fn metrics(&self) -> NetMetricsSnapshot {
            self.inner.metrics()
        }
    }

    type Peer = Session<FaultyEndpoint<Wound>>;

    const OBJECT: ObjectId = ObjectId(7);
    const RETRY: RetryConfig = RetryConfig { rto: SimSpan::from_millis(1), max_retries: 8 };

    fn lossy() -> FaultPlan {
        FaultPlan::new(0x11AC)
            .with_drop(0.2)
            .with_dup(0.15)
            .with_reorder(0.2, SimSpan::from_millis(4))
    }

    fn lossless() -> FaultPlan {
        FaultPlan::new(1)
    }

    fn session(endpoint: Wound, plan: &FaultPlan) -> Peer {
        session_on(endpoint, plan, WireConfig::compressed())
    }

    fn session_on(endpoint: Wound, plan: &FaultPlan, wire: WireConfig) -> Peer {
        let config = DsoConfig::compact().with_reliability(Some(RETRY)).with_wire(wire);
        let obs = Obs::disabled();
        let counters = DsoCounters::in_registry(obs.registry());
        Session::new(FaultyEndpoint::new(endpoint, plan.clone()), config, obs, counters)
    }

    /// Nodes `0..n` on one clock, and the store they seed their XOR shadows
    /// from.
    fn group(n: usize, plan: &FaultPlan) -> (Vec<Peer>, ObjectStore) {
        group_on(&vec![WireConfig::compressed(); n], plan)
    }

    /// As [`group`], node `i` speaking `wires[i]`.
    fn group_on(wires: &[WireConfig], plan: &FaultPlan) -> (Vec<Peer>, ObjectStore) {
        let micros = Arc::new(AtomicU64::new(0));
        let nodes = MemoryHub::new(wires.len())
            .into_endpoints()
            .into_iter()
            .zip(wires)
            .map(|(inner, &wire)| session_on(Wound { inner, micros: micros.clone() }, plan, wire))
            .collect();
        let mut store = ObjectStore::new();
        store.share(OBJECT, vec![0u8; 16]).unwrap();
        (nodes, store)
    }

    /// Node 0, node 1, and their store.
    fn pair(plan: &FaultPlan) -> (Peer, Peer, ObjectStore) {
        let (mut nodes, store) = group(2, plan);
        let b = nodes.pop().unwrap();
        (nodes.pop().unwrap(), b, store)
    }

    /// The one-update batch `who` reports at tick `t`.
    fn batch(who: NodeId, t: u64) -> Vec<WireUpdate> {
        vec![WireUpdate {
            object: OBJECT,
            diff: Diff::single((t % 12) as u32, vec![who as u8 + 1, t as u8]),
            version: Version::new(LogicalTime::from_ticks(t), who),
        }]
    }

    /// What the peer's kernel must see for `who`'s exchange at tick `t`.
    fn pair_of(who: NodeId, epoch: Epoch, t: u64) -> [Delivery; 2] {
        let time = LogicalTime::from_ticks(t);
        [
            (who, DsoMessage::Data { epoch, time, updates: batch(who, t) }),
            (who, DsoMessage::Sync { epoch, time }),
        ]
    }

    fn exchange(from: &mut Peer, to: NodeId, t: u64, store: &ObjectStore) {
        let me = from.endpoint.node_id();
        from.send_rendezvous(to, LogicalTime::from_ticks(t), batch(me, t), store).unwrap();
    }

    fn app(byte: u8) -> DsoMessage {
        DsoMessage::App { class: MsgClass::Control, bytes: vec![byte] }
    }

    /// Takes whatever already arrived, then serves the timers due on the
    /// clock as it stands.
    fn poll(s: &mut Peer, store: &ObjectStore, got: &mut Vec<Delivery>) {
        while let Some(d) = s.recv_now(store).unwrap() {
            got.push(d);
        }
    }

    /// Listens for `span`, taking what arrives and serving the timers as
    /// they fall due.
    fn listen(s: &mut Peer, span: SimSpan, store: &ObjectStore, got: &mut Vec<Delivery>) {
        let until = s.endpoint.now() + span;
        while let Some(d) = s.recv_until(until, store).unwrap() {
            got.push(d);
        }
    }

    /// One forced retransmission round: winds the clock to the last of the
    /// session's timers and serves them all.
    fn expire(s: &mut Peer) {
        let timers = s.links.iter().flat_map(|link| {
            [link.deadline, link.ack_owed.map(|since| since + link.ack_delay(&RETRY))]
        });
        if let Some(last) = timers.flatten().max() {
            s.endpoint.advance(last.saturating_since(s.endpoint.now()));
        }
        s.serve_timers().unwrap();
    }

    fn acked(s: &Peer) -> bool {
        s.links.iter().all(|link| link.unacked.is_empty())
    }

    /// Runs retransmission rounds until neither side has anything
    /// unacknowledged.
    fn pump(
        a: &mut Peer,
        b: &mut Peer,
        store: &ObjectStore,
        got_a: &mut Vec<Delivery>,
        got_b: &mut Vec<Delivery>,
    ) {
        for _ in 1..200 {
            // Twice: the second pass collects the acks the first provoked.
            for _ in 0..2 {
                poll(a, store, got_a);
                poll(b, store, got_b);
            }
            if acked(a) && acked(b) {
                return;
            }
            expire(a);
            expire(b);
        }
        panic!("links never settled");
    }

    #[test]
    fn delivery_is_exactly_once_and_fifo_per_directed_link() {
        let (mut a, mut b, store) = pair(&lossy());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        let (mut sent_a, mut sent_b) = (Vec::new(), Vec::new());
        for t in 1..=12u64 {
            exchange(&mut a, 1, t, &store);
            sent_a.extend(pair_of(0, Epoch(0), t));
            exchange(&mut b, 0, t, &store);
            sent_b.extend(pair_of(1, Epoch(0), t));
            if t % 4 == 0 {
                a.send(1, app(t as u8)).unwrap();
                sent_a.push((0, app(t as u8)));
            }
            poll(&mut a, &store, &mut got_a);
            poll(&mut b, &store, &mut got_b);
        }
        pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        assert_eq!(got_b, sent_a, "0 → 1: every Data2 decoded back to the Data that was sent");
        assert_eq!(got_a, sent_b, "1 → 0");
        let (a, b) = (a.counters.view(), b.counters.view());
        assert!(a.codec_v2_sent > 0 && b.codec_v2_sent > 0, "both directions negotiated v2");
        assert!(a.retransmits + b.retransmits > 0, "the plan really lost frames");
        assert!(a.duplicates_dropped + b.duplicates_dropped > 0);
        assert!(a.acks_piggybacked > 0 && b.acks_piggybacked > 0, "acks rode the exchanges");
    }

    #[test]
    fn a_delayed_lossless_link_costs_nothing_once_the_estimator_has_a_sample() {
        // Frames overtake each other but none is lost, and an ack takes
        // six times the configured timeout to come back: the two sides
        // listen in turn, 3 ms each.
        let late = FaultPlan::new(0xDE1A).with_reorder(0.4, SimSpan::from_millis(4));
        let (mut a, mut b, store) = pair(&late);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        let (mut sent_a, mut sent_b) = (Vec::new(), Vec::new());
        let mut warm = None;
        for t in 1..=40u64 {
            exchange(&mut a, 1, t, &store);
            sent_a.extend(pair_of(0, Epoch(0), t));
            exchange(&mut b, 0, t, &store);
            sent_b.extend(pair_of(1, Epoch(0), t));
            listen(&mut a, SimSpan::from_millis(3), &store, &mut got_a);
            listen(&mut b, SimSpan::from_millis(3), &store, &mut got_b);
            if a.links[1].rtt.is_some() && b.links[0].rtt.is_some() {
                warm.get_or_insert((t, a.counters.view(), b.counters.view()));
            }
        }
        let (t, warm_a, warm_b) = warm.expect("both estimators took a sample");
        assert!(t <= 4, "the backoff outlasts the round trip within a few ticks, not {t}");
        for (now, then) in [(a.counters.view(), warm_a), (b.counters.view(), warm_b)] {
            assert_eq!(now.retransmits, then.retransmits, "no spurious timeout after a sample");
            assert_eq!(now.duplicates_dropped, then.duplicates_dropped);
            assert_eq!(now.resyncs, then.resyncs);
        }
        pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        assert_eq!(got_b, sent_a, "0 → 1: exactly once, in order");
        assert_eq!(got_a, sent_b, "1 → 0");
        // The estimator learnt the round trip it was shown.
        let (srtt, _) = a.links[1].rtt.unwrap();
        assert!((5_000..=7_000).contains(&srtt), "srtt {srtt} µs for a 6 ms round trip");
    }

    #[test]
    fn a_lost_piggybacked_ack_is_repaired_by_the_next_frames_cumulative_ack() {
        let (mut a, mut b, store) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        a.send(1, app(1)).unwrap();
        poll(&mut b, &store, &mut got_b);
        // Node 1's reply carries the ack for it — and is lost in flight.
        b.send(0, app(2)).unwrap();
        assert_eq!(b.counters.view().acks_piggybacked, 1);
        while a.endpoint.try_recv().unwrap().is_some() {}
        assert_eq!(a.links[1].unacked.len(), 1);
        // The next frame that way arrives ahead of a gap, which node 0
        // reports at once; its cumulative ack already covers node 0's frame.
        b.send(0, app(3)).unwrap();
        poll(&mut a, &store, &mut got_a);
        assert!(a.links[1].unacked.is_empty() && a.links[1].deadline.is_none());
        assert!(got_a.is_empty(), "nothing is delivered past the gap");
        assert_eq!(a.counters.view().acks_standalone, 1, "the gap report");
        // The lost frame itself comes back by node 1's own timeout.
        pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        assert_eq!(got_a, [(1, app(2)), (1, app(3))]);
        assert_eq!((a.counters.view().retransmits, b.counters.view().resyncs), (0, 1));
    }

    #[test]
    fn an_owed_ack_travels_alone_only_after_its_delay() {
        let (mut a, mut b, store) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        a.send(1, app(1)).unwrap();
        poll(&mut b, &store, &mut got_b);
        assert_eq!(b.links[0].ack_owed, Some(SimInstant::ZERO));
        // Just short of the delay nothing goes out...
        let delay = b.links[0].ack_delay(&RETRY);
        assert_eq!(delay.as_micros(), RETRY.rto.as_micros() / 2, "nothing known of the link yet");
        b.endpoint.advance(SimSpan::from_micros(delay.as_micros() - 1));
        poll(&mut b, &store, &mut got_b);
        poll(&mut a, &store, &mut got_a);
        assert_eq!((b.counters.view().acks_standalone, a.links[1].unacked.len()), (0, 1));
        // ...and at the delay, with nothing going that way, the ack does —
        // still inside the sender's timeout.
        b.endpoint.advance(SimSpan::from_micros(1));
        poll(&mut b, &store, &mut got_b);
        poll(&mut a, &store, &mut got_a);
        assert_eq!((b.counters.view().acks_standalone, b.links[0].ack_owed), (1, None));
        assert!(a.links[1].unacked.is_empty());
        assert_eq!(a.counters.view().retransmits, 0);
    }

    #[test]
    fn the_ack_delay_follows_how_long_acks_on_the_link_usually_take() {
        let (mut a, mut b, store) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        // An ack that found a ride after 400 µs: the next may wait half
        // the floor longer than that.
        a.send(1, app(1)).unwrap();
        poll(&mut b, &store, &mut got_b);
        b.endpoint.advance(SimSpan::from_micros(400));
        b.send(0, app(2)).unwrap();
        assert_eq!(
            (b.links[0].lag, b.links[0].ack_delay(&RETRY).as_micros()),
            (Some((400, 200)), 900)
        );
        poll(&mut a, &store, &mut got_a);
        a.send(1, app(3)).unwrap();
        poll(&mut b, &store, &mut got_b);
        b.endpoint.advance(SimSpan::from_micros(899));
        poll(&mut b, &store, &mut got_b);
        assert_eq!(b.counters.view().acks_standalone, 0);
        b.endpoint.advance(SimSpan::from_micros(1));
        poll(&mut b, &store, &mut got_b);
        assert_eq!(b.counters.view().acks_standalone, 1);
        // An ack that went alone counts only once a frame follows that
        // could have carried it: a link nothing rides on keeps its delay.
        assert_eq!((b.links[0].lag, b.links[0].alone), (Some((400, 200)), Some(900)));
        b.send(0, app(4)).unwrap();
        assert_eq!((b.links[0].lag, b.links[0].alone), (Some((462, 275)), None));
        poll(&mut a, &store, &mut got_a);
        assert_eq!(a.counters.view().retransmits, 0);
    }

    /// The invariant the delayed acks rest on: *RTO floor > ack delay*.
    #[test]
    fn the_timeout_stays_above_the_ack_delay_and_the_round_trip() {
        let chaos = RetryConfig { rto: SimSpan::from_millis(5), max_retries: 2_000 };
        for cfg in [RETRY, chaos, RetryConfig::default()] {
            let floor = cfg.rto.as_micros();
            // The peer's estimator sees this side's ack latencies plus the
            // transit. However they move — every ack as late as allowed, so
            // that the delay creeps up, or a ride at once — an ack delayed
            // to the limit arrives inside the peer's timeout.
            let (mut me, mut peer) = (Link::default(), Link::default());
            let transit = floor / 8;
            for i in 0..400u64 {
                let limit = me.ack_delay(&cfg).as_micros();
                assert!(limit + transit < peer.rto(&cfg).as_micros(), "{cfg:?}, ack {i}");
                let waited = [limit, limit, limit, 0, limit / 3][(i % 5) as usize];
                observe(&mut me.lag, waited);
                observe(&mut peer.rtt, waited + transit);
            }
            assert!(me.ack_delay(&cfg) > cfg.rto, "the delay did follow the latencies");
            let stuck = Link { lag: Some((1_000 * floor, 0)), ..Link::default() };
            assert_eq!(stuck.ack_delay(&cfg), backed_off(cfg.rto, MAX_BACKOFF), "but is bounded");
            // Backing off is capped; the round trip it starts from is not.
            for expiries in [0, 1, MAX_BACKOFF, 1_000] {
                let far = Link { rtt: Some((100 * floor, floor)), expiries, ..Link::default() };
                let base = SimSpan::from_micros(104 * floor);
                assert!(far.rto(&cfg) >= base, "a timeout below the round trip");
                assert!(far.rto(&cfg) <= backed_off(base, MAX_BACKOFF));
            }
        }
    }

    #[test]
    fn deadlines_stand_still_while_away_but_not_for_a_process_that_only_polls() {
        let (mut a, mut b, store) = pair(&lossless());
        let mut got = Vec::new();
        a.send(1, app(1)).unwrap();
        while b.endpoint.try_recv().unwrap().is_some() {}
        // Polling never waits, so the time between polls is not time away:
        // the first timeout, three floors, falls due on the clock.
        for _ in 0..3 {
            assert_eq!(a.counters.view().retransmits, 0);
            a.endpoint.advance(RETRY.rto);
            poll(&mut a, &store, &mut got);
        }
        assert_eq!(a.counters.view().retransmits, 1);
        // A receive that blocks after 10 ms away gives the peer, as busy as
        // this process was, its whole doubled timeout again.
        a.endpoint.advance(SimSpan::from_millis(10));
        listen(&mut a, SimSpan::from_millis(5), &store, &mut got);
        assert_eq!(a.counters.view().retransmits, 1);
        listen(&mut a, SimSpan::from_millis(1), &store, &mut got);
        assert_eq!((a.counters.view().retransmits, a.links[1].expiries), (2, 2));
    }

    #[test]
    fn draining_one_link_keeps_the_other_links_timers() {
        let (mut nodes, store) = group(3, &lossless());
        let mut got = Vec::new();
        // Node 0 owes node 2 an ack while it drains its link to node 1,
        // which never answers.
        nodes[2].send(0, app(1)).unwrap();
        poll(&mut nodes[0], &store, &mut got);
        nodes[0].send(1, app(2)).unwrap();
        nodes[0].settle_link(1, &store).unwrap();
        assert_eq!(nodes[0].links[1].expiries, RETRY.max_retries, "node 1 was given up on");
        // The ack left when it fell due, not at link 1's first deadline.
        assert_eq!(nodes[0].links[2].alone, Some(RETRY.rto.as_micros() / 2));
        poll(&mut nodes[2], &store, &mut got);
        assert!(nodes[2].links[0].unacked.is_empty());
        assert_eq!(nodes[2].counters.view().retransmits, 0);
    }

    #[test]
    fn a_peer_that_never_acks_fills_the_window() {
        let (mut a, _b, _store) = pair(&lossless());
        for i in 0..WINDOW {
            a.send(1, app(i as u8)).unwrap();
        }
        match a.send(1, app(0)) {
            Err(DsoError::WindowFull { peer: 1, unacked: WINDOW }) => {}
            other => panic!("expected a full window, got {other:?}"),
        }
        assert_eq!(a.links[1].unacked.len(), WINDOW, "the refused frame was not queued");
    }

    #[test]
    fn left_restarts_the_slot_and_ignores_the_old_occupants_residue() {
        let plan = lossy();
        let (mut a, mut b, store) = pair(&plan);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for t in 1..=4 {
            exchange(&mut a, 1, t, &store);
            exchange(&mut b, 0, t, &store);
            pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        }
        assert!(a.links[1].tx_seq > 0 && a.links[1].tx.basis() > 0 && a.links[1].rx.basis() > 0);

        // Node 1 leaves; node 0 prunes it.
        let mut view = MembershipView::full(2);
        view.apply(&ViewChange::leave([1])).unwrap();
        a.reset(1, Reset::Left);
        a.set_view(view.clone());
        let link = &a.links[1];
        assert_eq!(
            (link.tx_seq, link.rx_next, link.peer_version, link.offered),
            (0, 0, None, false)
        );
        assert!(link.unacked.is_empty() && link.ooo.is_empty());
        assert_eq!((link.deadline, link.ack_owed, link.rtt, link.expiries), (None, None, None, 0));
        assert_eq!((link.lag, link.alone), (None, None));
        assert_eq!((link.tx.basis(), link.rx.basis()), (0, 0));

        // The old occupant's last frames (old epoch, old sequence numbers)
        // are pretend-acked and leave no trace in the slot.
        exchange(&mut b, 0, 5, &store);
        expire(&mut b);
        got_a.clear();
        poll(&mut a, &store, &mut got_a);
        assert!(got_a.is_empty());
        assert!(a.counters.view().cross_epoch_dropped > 0);
        assert_eq!(a.links[1].rx_next, 0);
        assert!(a.links[1].ooo.is_empty());

        // A new occupant takes the slot — a fresh session on the same
        // endpoint — first discarding what was addressed to the old one.
        view.apply(&ViewChange::join([1])).unwrap();
        a.set_view(view.clone());
        let mut b = session(b.endpoint.into_inner(), &plan);
        b.set_view(view.clone());
        assert!(b.drain_residue(&store).unwrap() > 0, "the pretend-acks are residue");
        let (mut sent_a, mut sent_b) = (Vec::new(), Vec::new());
        got_b.clear();
        for t in 6..=9 {
            exchange(&mut a, 1, t, &store);
            sent_a.extend(pair_of(0, view.epoch(), t));
            exchange(&mut b, 0, t, &store);
            sent_b.extend(pair_of(1, view.epoch(), t));
            pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        }
        assert_eq!(got_b, sent_a);
        assert_eq!(got_a, sent_b);
        // From sequence 0 / basis 0: the offer and the first batch's v1 pair,
        // then one frame for each of the other three exchanges.
        assert_eq!((a.links[1].tx_seq, a.links[1].rx_next), (6, 6));
        assert_eq!((a.links[1].tx.basis(), a.links[1].rx.basis()), (3, 3));
    }

    #[test]
    fn frames_retransmitted_at_a_restarted_process_are_residue() {
        let plan = lossless();
        let (mut a, mut b, store) = pair(&plan);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        b.send(0, app(1)).unwrap();
        poll(&mut a, &store, &mut got_a);
        // Node 1 takes three frames and dies owing their ack: its next
        // incarnation is a fresh session on the same endpoint.
        for byte in 2..5 {
            a.send(1, app(byte)).unwrap();
        }
        poll(&mut b, &store, &mut got_b);
        assert!(b.links[0].ack_owed.is_some());
        let mut b = session(b.endpoint.into_inner(), &plan);
        // Node 0's retransmissions acknowledge a frame the new incarnation
        // never sent: they are pretend-acked and leave no trace, neither
        // delivered, nor sequenced, nor parked out of order.
        got_b.clear();
        expire(&mut a);
        poll(&mut b, &store, &mut got_b);
        assert!(got_b.is_empty());
        assert_eq!(b.counters.view().cross_epoch_dropped, 3);
        assert_eq!((b.links[0].rx_next, b.links[0].ooo.len()), (0, 0));
        // The pretend-acks let node 0's settle converge; it then prunes the
        // crashed member, and both fresh streams deliver from zero. An ack
        // meant for the old stream is ignored by the new one.
        poll(&mut a, &store, &mut got_a);
        assert!(a.links[1].unacked.is_empty());
        a.reset(1, Reset::Left);
        a.send(1, app(9)).unwrap();
        a.links[1].acked(4, SimInstant::ZERO, &RETRY);
        assert_eq!(a.links[1].unacked.len(), 1);
        got_a.clear();
        b.send(0, app(8)).unwrap();
        pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        assert_eq!((got_a, got_b), (vec![(1, app(8))], vec![(0, app(9))]));
    }

    #[test]
    fn flapped_sends_v1_until_offers_cross_and_still_decodes_pre_flap_retransmits() {
        let (mut a, mut b, store) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for t in 1..=3 {
            exchange(&mut a, 1, t, &store);
            exchange(&mut b, 0, t, &store);
            pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        }
        let v2_before = b.counters.view().codec_v2_sent;
        assert_eq!(v2_before, 2);

        // Node 0's next compressed batch is lost in flight, then node 1's
        // side of the link flaps.
        exchange(&mut a, 1, 4, &store);
        while b.endpoint.try_recv().unwrap().is_some() {}
        b.reset(0, Reset::Flapped);
        assert_eq!(b.links[0].rx.basis(), 2, "the receive shadows survive a flap");

        // Node 1 is back to v1, re-offering; node 0's retransmit of the
        // pre-flap Data2 still decodes against the shadows it was built on.
        got_b.clear();
        exchange(&mut b, 0, 4, &store);
        assert_eq!(b.counters.view().codec_v2_sent, v2_before);
        expire(&mut a);
        pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        assert_eq!(got_b, pair_of(0, Epoch(0), 4));

        // The repeat offer made node 0 offer again; v2 resumes from basis 0,
        // which restarts node 0's receive shadows to match.
        got_a.clear();
        exchange(&mut b, 0, 5, &store);
        pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        assert_eq!(b.counters.view().codec_v2_sent, v2_before + 1);
        assert_eq!(got_a, pair_of(1, Epoch(0), 5));
        assert_eq!(a.links[1].rx.basis(), 1);
    }

    #[test]
    fn abandoned_clears_only_unacked() {
        let (mut a, mut b, store) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for t in 1..=2 {
            exchange(&mut a, 1, t, &store);
            exchange(&mut b, 0, t, &store);
            pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        }
        exchange(&mut a, 1, 3, &store);
        exchange(&mut a, 1, 4, &store);
        assert_eq!(a.links[1].unacked.len(), 2, "one frame per rendezvous");
        let rest = |l: &Link| {
            (
                l.tx_seq,
                l.rx_next,
                l.ooo.len(),
                l.peer_version,
                l.offered,
                l.tx.basis(),
                l.rx.basis(),
            )
        };
        let before = rest(&a.links[1]);
        assert_eq!(before, (6, 4, 0, Some(CODEC_V2), true, 3, 1));
        // Node 1 finishes and tears its endpoint down: the next
        // retransmission round writes the link off — once, however many
        // frames it held.
        let resent = a.counters.view().retransmits;
        drop(b);
        expire(&mut a);
        assert_eq!(a.counters.view().links_abandoned, 1, "once per link");
        assert_eq!(a.counters.view().retransmits, resent + 1, "and the round stops there");
        assert!(a.links[1].unacked.is_empty() && a.links[1].deadline.is_none());
        assert_eq!(rest(&a.links[1]), before);
    }

    /// Both sides' offers cross and the first, v1, pair is delivered: from
    /// here on every non-empty batch travels as one fused frame.
    fn negotiated() -> (Peer, Peer, ObjectStore) {
        let (mut a, mut b, store) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        exchange(&mut a, 1, 1, &store);
        exchange(&mut b, 0, 1, &store);
        pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        assert_eq!(
            (got_a, got_b),
            (pair_of(1, Epoch(0), 1).to_vec(), pair_of(0, Epoch(0), 1).to_vec())
        );
        assert_eq!(
            a.counters.view().rendezvous_fused,
            0,
            "nothing to fuse before the offers cross"
        );
        (a, b, store)
    }

    #[test]
    fn a_fused_frame_is_one_frame_and_delivers_data_then_sync() {
        let (mut a, mut b, store) = negotiated();
        let mut got_b = Vec::new();
        let sent = a.links[1].tx_seq;
        exchange(&mut a, 1, 2, &store);
        assert_eq!((a.links[1].tx_seq, a.links[1].unacked.len()), (sent + 1, 1));
        let (seq, frame) = a.links[1].unacked.first_key_value().map(|(s, (_, m))| (*s, m)).unwrap();
        assert!(matches!(frame, DsoMessage::Data2 { sync: true, .. }), "seq {seq}: {frame:?}");
        assert_eq!(frame.class(), MsgClass::Data);
        assert_eq!(a.counters.view().rendezvous_fused, 1);
        poll(&mut b, &store, &mut got_b);
        assert_eq!(got_b, pair_of(0, Epoch(0), 2));
        // Retransmitted unacknowledged, the duplicate yields no second SYNC.
        let before = (a.counters.view().retransmits, b.counters.view().duplicates_dropped);
        expire(&mut a);
        poll(&mut b, &store, &mut got_b);
        let after = (a.counters.view().retransmits, b.counters.view().duplicates_dropped);
        assert_eq!(after, (before.0 + 1, before.1 + 1));
        assert_eq!(got_b, pair_of(0, Epoch(0), 2));
    }

    #[test]
    fn a_fused_frame_keeps_its_place_in_a_gap_filled_chain() {
        let (mut a, mut b, store) = negotiated();
        let mut got_b = Vec::new();
        // The frame ahead of the fused one is lost; it and its successor wait
        // out of order until the retransmission fills the gap.
        a.send(1, app(1)).unwrap();
        drop(b.endpoint.try_recv().unwrap().expect("the frame to lose"));
        exchange(&mut a, 1, 2, &store);
        a.send(1, app(3)).unwrap();
        poll(&mut b, &store, &mut got_b);
        assert!(got_b.is_empty() && b.links[0].ooo.len() == 2);
        expire(&mut a);
        poll(&mut b, &store, &mut got_b);
        let [data, sync] = pair_of(0, Epoch(0), 2);
        assert_eq!(got_b, [(0, app(1)), data, sync, (0, app(3))]);
    }

    #[test]
    fn the_settles_queue_a_fused_frames_sync_directly_behind_its_data() {
        let (mut a, mut b, store) = negotiated();
        let [data, sync] = pair_of(1, Epoch(0), 2);
        // Node 0 settles while it holds an unacknowledged frame; node 1's
        // traffic, sent before that frame reached it, acknowledges nothing.
        b.send(0, app(7)).unwrap();
        exchange(&mut b, 0, 2, &store);
        a.send(1, app(1)).unwrap();
        assert_eq!(a.settle_recv(&store).unwrap(), None, "a frame arrived: not settled yet");
        assert_eq!(a.settle_recv(&store).unwrap(), None);
        let queued: Vec<Delivery> = std::iter::from_fn(|| a.pop_ready()).collect();
        assert_eq!(queued, [(1, app(7)), data.clone(), sync.clone()]);
        // The same through the per-link drain, which node 1 never answers.
        b.send(0, app(8)).unwrap();
        let [data3, sync3] = pair_of(1, Epoch(0), 3);
        exchange(&mut b, 0, 3, &store);
        a.settle_link(1, &store).unwrap();
        assert_eq!(a.links[1].expiries, RETRY.max_retries, "node 1 was given up on");
        let queued: Vec<Delivery> = std::iter::from_fn(|| a.pop_ready()).collect();
        assert_eq!(queued, [(1, app(8)), data3, sync3]);
    }

    #[test]
    fn fallback_and_empty_batches_keep_their_v1_frames() {
        let (mut a, mut b, store) = negotiated();
        let mut got_b = Vec::new();
        let time = LogicalTime::from_ticks(2);
        let sent = a.links[1].tx_seq;
        // Nothing to report: the SYNC travels alone.
        a.send_rendezvous(1, time, Vec::new(), &store).unwrap();
        assert_eq!(a.links[1].tx_seq, sent + 1);
        // An object the store cannot seed an XOR shadow for: plain `Data`
        // and a `Sync`, the compressed stream's basis where it was.
        let unseedable = vec![WireUpdate { object: ObjectId(99), ..batch(0, 2).remove(0) }];
        let basis = a.links[1].tx.basis();
        a.send_rendezvous(1, time, unseedable.clone(), &store).unwrap();
        assert_eq!((a.links[1].tx_seq, a.links[1].tx.basis()), (sent + 3, basis));
        let kinds: Vec<&DsoMessage> = a.links[1].unacked.values().map(|(_, m)| m).collect();
        assert!(
            matches!(
                kinds[..],
                [DsoMessage::Sync { .. }, DsoMessage::Data { .. }, DsoMessage::Sync { .. }]
            ),
            "{kinds:?}"
        );
        let view = a.counters.view();
        assert_eq!((view.codec_v2_fallbacks, view.rendezvous_fused), (1, 0));
        poll(&mut b, &store, &mut got_b);
        let epoch = Epoch(0);
        assert_eq!(
            got_b,
            [
                (0, DsoMessage::Sync { epoch, time }),
                (0, DsoMessage::Data { epoch, time, updates: unseedable }),
                (0, DsoMessage::Sync { epoch, time }),
            ]
        );
    }

    #[test]
    fn toward_a_v1_peer_nothing_changes() {
        let (mut nodes, store) =
            group_on(&[WireConfig::compressed(), WireConfig::v1()], &lossless());
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        let (mut sent_a, mut sent_b) = (Vec::new(), Vec::new());
        for t in 1..=3 {
            exchange(&mut a, 1, t, &store);
            sent_a.extend(pair_of(0, Epoch(0), t));
            exchange(&mut b, 0, t, &store);
            sent_b.extend(pair_of(1, Epoch(0), t));
            pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        }
        assert_eq!((got_a, got_b), (sent_b, sent_a));
        // The offer that is never answered, then a (data, SYNC) pair a tick.
        assert_eq!((a.links[1].tx_seq, b.links[0].tx_seq), (7, 6));
        let view = a.counters.view();
        assert_eq!((view.codec_v2_sent, view.rendezvous_fused), (0, 0));
    }
}
