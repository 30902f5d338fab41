//! The session layer: one [`Link`] per peer under a [`Session`] turns an
//! [`Endpoint`] into exactly-once, in-order, possibly compressed
//! [`DsoMessage`] delivery.
//!
//! This is the reliable channel beneath the algorithm. The kernel in
//! [`crate::runtime`] hands logical messages to [`Session::send`] and takes
//! them from the `recv*` family; sequencing, acknowledgement,
//! retransmit-on-timeout (the paper's `resync` path), codec negotiation and
//! the XOR shadows never leave this module. Every reset of per-peer state
//! goes through [`Link::reset`], whose body is the only table of which
//! fields each reason clears.

use std::collections::{BTreeMap, VecDeque};

use sdso_member::{Epoch, MembershipView};
use sdso_net::{Endpoint, Incoming, NetError, NodeId, Payload, SimInstant, SimSpan};
use sdso_obs::{EventKind, Obs};

use crate::clock::LogicalTime;
use crate::codec::{self, ShadowState, CODEC_V2};
use crate::config::DsoConfig;
use crate::error::DsoError;
use crate::metrics::DsoCounters;
use crate::object::ObjectId;
use crate::store::ObjectStore;
use crate::wire::{DsoMessage, WireUpdate};

/// A logical message and the peer it came from.
pub(crate) type Delivery = (NodeId, DsoMessage);

/// Why a link's state is being reset (see [`Link::reset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reset {
    /// The peer left the view: the link is gone for good, and a joiner
    /// reusing the slot starts from sequence 0 / basis 0.
    Left,
    /// The transport reported a reconnect flap: the peer may have
    /// restarted, losing its XOR shadows and its knowledge of our offer.
    Flapped,
    /// A retransmission found the peer permanently disconnected: it
    /// finished its run, so what is unacknowledged is residue (acks lost
    /// in the shutdown race), not recoverable traffic.
    Abandoned,
}

/// Everything this process remembers about its link with one peer: ARQ
/// sequencing in both directions and the wire codec negotiated on it. The
/// ARQ fields only move when reliability is configured, the codec fields
/// only when [`crate::WireConfig::codec_v2`] is.
#[derive(Debug, Default)]
pub(crate) struct Link {
    /// Next sequence number to assign to an outgoing message.
    tx_seq: u64,
    /// Sent but unacknowledged messages, by sequence.
    unacked: BTreeMap<u64, DsoMessage>,
    /// Next sequence number expected from the peer.
    rx_next: u64,
    /// Out-of-order arrivals waiting for their predecessors.
    ooo: BTreeMap<u64, DsoMessage>,
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
    /// | reason      | `tx_seq` `rx_next` `ooo` | `unacked` | `peer_version` `offered` `tx` | `rx` |
    /// |-------------|--------------------------|-----------|-------------------------------|------|
    /// | `Left`      | cleared                  | cleared   | cleared                       | cleared |
    /// | `Flapped`   | kept                     | kept      | cleared                       | kept |
    /// | `Abandoned` | kept                     | cleared   | kept                          | kept |
    ///
    /// A flap keeps the receive shadows on purpose: frames the peer
    /// encoded before the flap may still be in flight or be retransmitted,
    /// and must decode against the shadows they were built on. If the peer
    /// really restarted, its first fresh `Data2` carries basis 0, which
    /// restarts the receive side where it is decoded
    /// ([`Session::deliver`]).
    pub(crate) fn reset(&mut self, why: Reset) {
        match why {
            Reset::Left => *self = Link::default(),
            Reset::Flapped => {
                self.peer_version = None;
                self.offered = false;
                self.tx.reset();
            }
            Reset::Abandoned => self.unacked.clear(),
        }
    }

    /// Puts `msg` in the next sequenced envelope, keeping a copy until the
    /// peer acknowledges it.
    fn sequence(&mut self, msg: DsoMessage) -> DsoMessage {
        let seq = self.tx_seq;
        self.tx_seq += 1;
        self.unacked.insert(seq, msg.clone());
        DsoMessage::Env { seq, inner: Box::new(msg) }
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

/// What one receive step did.
enum Step {
    /// A frame arrived and produced the next in-order logical message.
    Delivered(Delivery),
    /// A frame arrived and was consumed below the kernel: an ack, a codec
    /// offer, a duplicate, an out-of-order arrival, residue.
    Absorbed,
    /// Nothing arrived within the wait.
    Silent,
}

/// Owns the transport endpoint and one [`Link`] per peer slot.
#[derive(Debug)]
pub(crate) struct Session<E: Endpoint> {
    /// The transport. Open to the kernel for what is not message traffic:
    /// clocks, metrics, peer add/remove, link events.
    pub(crate) endpoint: E,
    config: DsoConfig,
    links: Vec<Link>,
    /// In-order messages delivered by a link but not yet consumed.
    ready: VecDeque<Delivery>,
    /// The kernel's current view: who may be sent to, and which epoch
    /// separates live traffic from a departed member's residue.
    view: MembershipView,
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

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Sends one logical message to `peer`.
    pub(crate) fn send(&mut self, peer: NodeId, msg: DsoMessage) -> Result<(), DsoError> {
        // Suppress protocol traffic to non-members: a departed peer will
        // never consume it, and queueing it on the reliability layer would
        // leave permanently-unackable state. Sequence acks are exempt —
        // they are what lets a leaver's final settle converge.
        if !self.view.contains(peer) && !matches!(msg, DsoMessage::SeqAck { .. }) {
            self.counters.non_member_dropped.inc();
            return Ok(());
        }
        let payload = self.wrap(peer, msg);
        self.endpoint.send(peer, payload).map_err(DsoError::Net)
    }

    /// Sends one exchange's traffic to `peer` — the `(data, SYNC)` pair of
    /// Fig. 4 stamped with the view's epoch, the data half omitted when
    /// there is nothing to report and compressed when the link negotiated
    /// it, with this process's codec offer in front while it is still owed
    /// — as one batched transport write. Message content, order, and
    /// per-message accounting are identical to sending each with
    /// [`Session::send`]; only the number of underlying transport writes
    /// changes.
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
        msgs.push(DsoMessage::Sync { epoch, time });
        if msgs.len() < 2 {
            return msgs.into_iter().try_for_each(|msg| self.send(peer, msg));
        }
        // Exchange batches never carry SeqAck, so suppression is all-or-none.
        if !self.view.contains(peer) {
            self.counters.non_member_dropped.add(msgs.len() as u64);
            return Ok(());
        }
        let payloads = msgs.into_iter().map(|msg| self.wrap(peer, msg)).collect();
        self.endpoint.send_batch(peer, payloads).map_err(DsoError::Net)
    }

    /// Wraps `msg` in the reliability envelope (when configured) and encodes
    /// it for the wire. Callers must have done non-member suppression.
    fn wrap(&mut self, peer: NodeId, msg: DsoMessage) -> Payload {
        // Acks police the sequenced stream and must not join it.
        let sequenced =
            self.config.reliability.is_some() && !matches!(msg, DsoMessage::SeqAck { .. });
        let msg = if sequenced { self.links[usize::from(peer)].sequence(msg) } else { msg };
        msg.into_payload(self.config.frame_wire_len)
    }

    /// Builds the data message for one exchange send: the compressed v2
    /// `Data2` when the peer has negotiated it — falling back to the
    /// absolute v1 `Data` when a run exceeds the decoder's inflation
    /// budget or an XOR shadow cannot be seeded — and plain v1 `Data`
    /// before negotiation completes.
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
                return DsoMessage::Data2 { epoch, time, basis, blob };
            }
            self.counters.codec_v2_fallbacks.inc();
        }
        DsoMessage::Data { epoch, time, updates }
    }

    // ------------------------------------------------------------------
    // Receiving: one step, driven by seven stop rules
    // ------------------------------------------------------------------

    /// The one receive step: take at most one frame off the transport, run
    /// it through the link ([`Session::admit`]), and hand the consumed
    /// payload's storage back to the global buffer pool, closing the
    /// pooled-encode recycle loop (a no-op when the bytes are still shared,
    /// e.g. a fault layer kept a duplicate, or the pool is full).
    ///
    /// With a `residue` counter the step also discards — and counts there —
    /// what a restarted process must never admit (see
    /// [`Session::drain_residue`]).
    fn step(
        &mut self,
        wait: Wait,
        store: &ObjectStore,
        residue: Option<&mut u64>,
    ) -> Result<Step, DsoError> {
        let arrived = match wait {
            Wait::Block => self.endpoint.recv().map(Some),
            Wait::For(span) => self.endpoint.recv_deadline(span),
            Wait::Poll => self.endpoint.try_recv(),
        };
        let Some(Incoming { from, payload }) = arrived.map_err(DsoError::Net)? else {
            return Ok(Step::Silent);
        };
        let msg: DsoMessage = sdso_net::wire::decode(&payload.bytes).map_err(DsoError::Net)?;
        let stale = |msg: &DsoMessage| match msg {
            DsoMessage::SeqAck { .. } => true,
            other => other.epoch().is_some_and(|e| e < self.view.epoch()),
        };
        let admitted = match residue {
            Some(dropped) if stale(&msg) => {
                *dropped += 1;
                self.counters.cross_epoch_dropped.inc();
                None
            }
            _ => self.admit(from, msg, store)?,
        };
        sdso_net::pool::global().reclaim(payload.bytes);
        Ok(admitted.map_or(Step::Absorbed, Step::Delivered))
    }

    /// Runs one decoded frame through the reliability layer, returning the
    /// next in-order logical message if this arrival produced one. Without
    /// a reliability config every frame passes straight to the codec layer
    /// (so offers are still consumed and compressed batches resolve).
    fn admit(
        &mut self,
        from: NodeId,
        msg: DsoMessage,
        store: &ObjectStore,
    ) -> Result<Option<Delivery>, DsoError> {
        if self.config.reliability.is_none() {
            return self.deliver(from, msg, store);
        }
        // Residue from a departed member (sequenced traffic stamped with a
        // past epoch): pretend-ack it so the leaver's settle converges
        // promptly, but keep its content and sequencing out of the live
        // per-link state — a joiner reusing the slot starts from zero.
        if !self.view.contains(from) {
            if let DsoMessage::Env { seq, ref inner } = msg {
                if inner.epoch().is_some_and(|e| e < self.view.epoch()) {
                    self.counters.cross_epoch_dropped.inc();
                    self.send(from, DsoMessage::SeqAck { next: seq + 1 })?;
                    return Ok(None);
                }
            }
        }
        let link = &mut self.links[usize::from(from)];
        match msg {
            DsoMessage::Env { seq, inner } => {
                let chain = link.accept(seq, *inner);
                if chain.is_none() {
                    self.counters.duplicates_dropped.inc();
                }
                // Cumulative ack; doubles as a gap report when `seq` ran
                // ahead of `rx_next`. The sender may have exited between
                // emitting the frame and our ack (its frame sat in our rx
                // queue) — an ack nobody is left to consume is not owed.
                let ack = DsoMessage::SeqAck { next: link.rx_next };
                match self.send(from, ack) {
                    Err(DsoError::Net(NetError::Disconnected)) => {}
                    other => other?,
                }
                // Codec resolution happens here, after sequencing: this is
                // the exactly-once point the XOR shadows' lockstep relies
                // on. The first resolved message is returned directly
                // (callers consume it before anything queued after it);
                // the rest queue behind whatever `ready` already holds,
                // preserving per-link FIFO.
                let mut delivered = None;
                for m in chain.unwrap_or_default() {
                    if let Some(d) = self.deliver(from, m, store)? {
                        if delivered.is_none() {
                            delivered = Some(d);
                        } else {
                            self.ready.push_back(d);
                        }
                    }
                }
                Ok(delivered)
            }
            DsoMessage::SeqAck { next } => {
                link.unacked.retain(|&s, _| s >= next);
                Ok(None)
            }
            // A plain message from a peer running without the layer is
            // delivered as-is, codec resolution included.
            other => self.deliver(from, other, store),
        }
    }

    /// Resolves codec-layer messages at their exactly-once delivery point:
    /// consumes a [`DsoMessage::CodecOffer`], decodes a
    /// [`DsoMessage::Data2`] back into the plain `Data` it compresses
    /// (advancing this link's receive shadows), and passes everything else
    /// through untouched.
    fn deliver(
        &mut self,
        from: NodeId,
        msg: DsoMessage,
        store: &ObjectStore,
    ) -> Result<Option<Delivery>, DsoError> {
        let link = &mut self.links[usize::from(from)];
        match msg {
            // Compression is off here: never offer back, so the peer keeps
            // encoding v1 toward us. Interop, not an error.
            DsoMessage::CodecOffer { .. } if !self.config.wire.codec_v2 => Ok(None),
            DsoMessage::CodecOffer { version } => {
                // A *repeat* offer on an already negotiated link means the
                // peer downgraded its side (link flap, or a restart without
                // a view change) and no longer knows our version, so our
                // own offer must cross again before the peer resumes v2
                // toward us. No storm: the repeat branch only fires when
                // the sender's `peer_version` is freshly `None`, which
                // absorbs our reply silently.
                let repeat = link.peer_version.replace(version).is_some();
                if repeat || !link.offered {
                    link.offered = true;
                    self.send(from, DsoMessage::CodecOffer { version: CODEC_V2 })?;
                }
                Ok(None)
            }
            DsoMessage::Data2 { .. } if !self.config.wire.codec_v2 => {
                Err(DsoError::ProtocolViolation(format!(
                    "compressed Data2 from {from} but codec v2 is not enabled here"
                )))
            }
            DsoMessage::Data2 { epoch, time, basis, blob } => {
                // Basis 0 announces the first batch of a fresh compressed
                // stream: the peer restarted its transmit shadows (after a
                // link flap or a process restart). Restart ours to match —
                // a sender's basis only returns to 0 by reset, never by
                // wraparound.
                if basis == 0 && link.rx.basis() != 0 {
                    link.rx.reset();
                }
                let mut seed = |object: ObjectId| store.initial_body(object).map(<[u8]>::to_vec);
                let updates = codec::decode_updates(&blob, basis, &mut link.rx, &mut seed)
                    .map_err(DsoError::Net)?;
                Ok(Some((from, DsoMessage::Data { epoch, time, updates })))
            }
            other => Ok(Some((from, other))),
        }
    }

    /// Blocking receive of the next logical message. With reliability
    /// enabled, waits are bounded by the retransmission timeout: each
    /// silent timeout resends everything unacknowledged (the `resync`
    /// path) until traffic flows again or the retry budget runs out.
    pub(crate) fn recv(&mut self, store: &ObjectStore) -> Result<Delivery, DsoError> {
        let Some(cfg) = self.config.reliability else {
            return self.recv_patiently(store);
        };
        if let Some(m) = self.ready.pop_front() {
            return Ok(m);
        }
        let mut silent = 0u32;
        loop {
            match self.step(Wait::For(cfg.rto), store, None)? {
                Step::Delivered(m) => return Ok(m),
                Step::Absorbed => silent = 0,
                Step::Silent if silent >= cfg.max_retries => {
                    return Err(DsoError::Timeout { retries: silent });
                }
                Step::Silent => {
                    silent += 1;
                    self.resync(silent, None)?;
                }
            }
        }
    }

    /// Blocking receive without the silent-round retry budget: for a
    /// joiner waiting to be admitted, where arbitrarily long silence is
    /// expected (its join barrier lies at a far-future trigger tick) and
    /// it holds no unacknowledged traffic whose recovery a timeout would
    /// drive. A genuine group failure parks this process in the
    /// transport and surfaces through the scheduler's stall detection
    /// instead of a spurious retry-budget error.
    pub(crate) fn recv_patiently(&mut self, store: &ObjectStore) -> Result<Delivery, DsoError> {
        if let Some(m) = self.ready.pop_front() {
            return Ok(m);
        }
        loop {
            if let Step::Delivered(m) = self.step(Wait::Block, store, None)? {
                return Ok(m);
            }
        }
    }

    /// Receive bounded by a wall/virtual-time `deadline` rather than the
    /// reliability layer's silent-round budget: used by bounded rendezvous
    /// waits, where "how long am I willing to wait" is the caller's
    /// decision, not the link layer's. With reliability enabled the wait
    /// is sliced at the retransmission timeout so unacked traffic keeps
    /// being resynced while the budget drains — charged to the caller's
    /// budget instead of a retry counter; `Ok(None)` means the deadline
    /// passed without a deliverable message.
    pub(crate) fn recv_until(
        &mut self,
        deadline: SimInstant,
        store: &ObjectStore,
    ) -> Result<Option<Delivery>, DsoError> {
        if let Some(m) = self.ready.pop_front() {
            return Ok(Some(m));
        }
        let rto = self.config.reliability.map(|cfg| cfg.rto);
        loop {
            let remaining = deadline.saturating_since(self.endpoint.now());
            if remaining == SimSpan::ZERO {
                return Ok(None);
            }
            let slice = rto.map_or(remaining, |rto| rto.min(remaining));
            match self.step(Wait::For(slice), store, None)? {
                Step::Delivered(m) => return Ok(Some(m)),
                Step::Silent if rto.is_some() => self.resync(0, None)?,
                Step::Absorbed | Step::Silent => {}
            }
        }
    }

    /// Non-blocking receive of the next logical message.
    pub(crate) fn recv_now(&mut self, store: &ObjectStore) -> Result<Option<Delivery>, DsoError> {
        if let Some(m) = self.ready.pop_front() {
            return Ok(Some(m));
        }
        loop {
            match self.step(Wait::Poll, store, None)? {
                Step::Delivered(m) => return Ok(Some(m)),
                Step::Absorbed => {}
                Step::Silent => return Ok(None),
            }
        }
    }

    /// One receipt of the tail flush ([`crate::SdsoRuntime::settle`]):
    /// waits, retransmitting on every silent timeout, until a frame
    /// arrives — `None`, with whatever it delivered at the front of the
    /// ready queue for the caller to absorb — or the flush is over:
    /// `Some(true)` once every peer has acknowledged everything this
    /// process sent (always, without a reliability config), `Some(false)`
    /// when the retry budget ran out or every other node has finished, so
    /// nobody is left to ack and what is still unacknowledged is
    /// undeliverable.
    pub(crate) fn settle_recv(&mut self, store: &ObjectStore) -> Result<Option<bool>, DsoError> {
        let Some(cfg) = self.config.reliability else {
            return Ok(Some(true));
        };
        let mut silent = 0u32;
        loop {
            if self.links.iter().all(|link| link.unacked.is_empty()) {
                return Ok(Some(true));
            }
            if silent >= cfg.max_retries {
                return Ok(Some(false));
            }
            match self.step(Wait::For(cfg.rto), store, None) {
                Ok(Step::Delivered(m)) => {
                    self.ready.push_front(m);
                    return Ok(None);
                }
                Ok(Step::Absorbed) => return Ok(None),
                Ok(Step::Silent) => {
                    silent += 1;
                    self.resync(silent, None)?;
                }
                Err(DsoError::Net(NetError::Deadlock(_) | NetError::Disconnected)) => {
                    return Ok(Some(false));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Drains the reliability link toward a departing peer: waits
    /// (retransmitting that link on each timeout) until the peer has
    /// acknowledged every frame this process sent it. Messages from other
    /// peers delivered along the way are queued for normal consumption.
    ///
    /// Bounded: returns after `LINK_SETTLE_ROUNDS` timeouts even if
    /// acks never came — the peer then settled and exited already, and
    /// nothing further is owed on the link.
    pub(crate) fn settle_link(
        &mut self,
        peer: NodeId,
        store: &ObjectStore,
    ) -> Result<(), DsoError> {
        const LINK_SETTLE_ROUNDS: u32 = 32;
        let Some(cfg) = self.config.reliability else { return Ok(()) };
        let mut silent = 0u32;
        while !self.links[usize::from(peer)].unacked.is_empty()
            && silent < LINK_SETTLE_ROUNDS.min(cfg.max_retries)
        {
            let queued = self.ready.len();
            match self.step(Wait::For(cfg.rto), store, None)? {
                // Per-link FIFO: the head goes in front of the successors
                // `admit` queued behind it.
                Step::Delivered(m) => self.ready.insert(queued, m),
                Step::Absorbed => {}
                Step::Silent => {
                    silent += 1;
                    self.resync(silent, Some(peer))?;
                }
            }
        }
        Ok(())
    }

    /// Discards crash-era residue sitting in a restarted process's receive
    /// queue (see [`crate::SdsoRuntime::drain_crash_residue`]): any
    /// sequenced frame stamped before the view's epoch is dropped unacked,
    /// and so is any ack. Fresh traffic that overtook the drain is admitted
    /// normally and parked where the blocking receives look first. Returns
    /// the number of frames dropped; a no-op without a reliability config.
    pub(crate) fn drain_residue(&mut self, store: &ObjectStore) -> Result<u64, DsoError> {
        if self.config.reliability.is_none() {
            return Ok(0);
        }
        let mut dropped = 0u64;
        loop {
            let queued = self.ready.len();
            match self.step(Wait::Poll, store, Some(&mut dropped))? {
                // In front of its successors, as in `settle_link`.
                Step::Delivered(m) => self.ready.insert(queued, m),
                Step::Absorbed => {}
                Step::Silent => return Ok(dropped),
            }
        }
    }

    /// A silent retransmission timeout — the paper's `resync` path: count
    /// it, trace it, and resend what is unacknowledged (on `only`'s link,
    /// or on every member's).
    fn resync(&mut self, round: u32, only: Option<NodeId>) -> Result<(), DsoError> {
        self.counters.resyncs.inc();
        self.obs.record(self.endpoint.now().as_micros(), EventKind::Resync, round, 0, 0);
        let pending: Vec<(NodeId, u64, DsoMessage)> = self
            .links
            .iter()
            .enumerate()
            .map(|(p, link)| (p as NodeId, link))
            .filter(|&(p, _)| only.map_or_else(|| self.view.contains(p), |peer| peer == p))
            .flat_map(|(p, link)| link.unacked.iter().map(move |(&s, m)| (p, s, m.clone())))
            .collect();
        for (peer, seq, inner) in pending {
            self.counters.retransmits.inc();
            self.obs.record(
                self.endpoint.now().as_micros(),
                EventKind::Retransmit,
                u32::from(peer),
                seq as u32,
                0,
            );
            let payload = DsoMessage::Env { seq, inner: Box::new(inner) }
                .into_payload(self.config.frame_wire_len);
            match self.endpoint.send(peer, payload) {
                Ok(()) => {}
                // Write the link off instead of turning every subsequent
                // timeout into a fatal transport error.
                Err(NetError::Disconnected) => {
                    self.counters.links_abandoned.inc();
                    self.reset(peer, Reset::Abandoned);
                }
                Err(e) => return Err(DsoError::Net(e)),
            }
        }
        Ok(())
    }
}

/// The Link contract, checked without a kernel: two sessions over an
/// in-process pair behind a seeded drop/dup/reorder plan, reliability and
/// codec v2 on. Single-threaded and poll-driven (a retransmission round is
/// an explicit call, not a wall-clock timeout), so it is deterministic and
/// small enough for Miri.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RetryConfig, WireConfig};
    use crate::diff::Diff;
    use crate::object::Version;
    use sdso_member::ViewChange;
    use sdso_net::memory::{MemoryEndpoint, MemoryHub};
    use sdso_net::{FaultPlan, FaultyEndpoint, MsgClass};

    type Peer = Session<FaultyEndpoint<MemoryEndpoint>>;

    const OBJECT: ObjectId = ObjectId(7);

    fn lossy() -> FaultPlan {
        FaultPlan::new(0x11AC)
            .with_drop(0.2)
            .with_dup(0.15)
            .with_reorder(0.2, SimSpan::from_millis(4))
    }

    fn session(endpoint: MemoryEndpoint, plan: &FaultPlan) -> Peer {
        let retry = RetryConfig { rto: SimSpan::from_millis(1), max_retries: 8 };
        let config =
            DsoConfig::compact().with_reliability(Some(retry)).with_wire(WireConfig::compressed());
        let obs = Obs::disabled();
        let counters = DsoCounters::in_registry(obs.registry());
        Session::new(FaultyEndpoint::new(endpoint, plan.clone()), config, obs, counters)
    }

    /// Node 0, node 1, and the store both seed their XOR shadows from.
    fn pair(plan: &FaultPlan) -> (Peer, Peer, ObjectStore) {
        let mut endpoints = MemoryHub::new(2).into_endpoints();
        let b = session(endpoints.pop().unwrap(), plan);
        let a = session(endpoints.pop().unwrap(), plan);
        let mut store = ObjectStore::new();
        store.share(OBJECT, vec![0u8; 16]).unwrap();
        (a, b, store)
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

    /// Takes whatever already arrived, without retransmitting.
    fn poll(s: &mut Peer, store: &ObjectStore, got: &mut Vec<Delivery>) {
        while let Some(d) = s.recv_now(store).unwrap() {
            got.push(d);
        }
    }

    fn acked(s: &Peer) -> bool {
        s.links.iter().all(|link| link.unacked.is_empty())
    }

    /// Runs silent-timeout rounds until neither side has anything
    /// unacknowledged.
    fn pump(
        a: &mut Peer,
        b: &mut Peer,
        store: &ObjectStore,
        got_a: &mut Vec<Delivery>,
        got_b: &mut Vec<Delivery>,
    ) {
        for round in 1..200 {
            // Twice: the second pass collects the acks the first provoked.
            for _ in 0..2 {
                poll(a, store, got_a);
                poll(b, store, got_b);
            }
            if acked(a) && acked(b) {
                return;
            }
            a.resync(round, None).unwrap();
            b.resync(round, None).unwrap();
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
                let app = DsoMessage::App { class: MsgClass::Control, bytes: vec![t as u8] };
                a.send(1, app.clone()).unwrap();
                sent_a.push((0, app));
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
        assert_eq!((link.tx.basis(), link.rx.basis()), (0, 0));

        // The old occupant's last frames (old epoch, old sequence numbers)
        // are pretend-acked and leave no trace in the slot.
        exchange(&mut b, 0, 5, &store);
        b.resync(1, None).unwrap();
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
        // Four exchanges and one offer each way, from sequence 0 / basis 0:
        // the first batch went v1, the other three compressed.
        assert_eq!((a.links[1].tx_seq, a.links[1].rx_next), (9, 9));
        assert_eq!((a.links[1].tx.basis(), a.links[1].rx.basis()), (3, 3));
    }

    #[test]
    fn flapped_sends_v1_until_offers_cross_and_still_decodes_pre_flap_retransmits() {
        let (mut a, mut b, store) = pair(&FaultPlan::new(1));
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
        a.resync(1, None).unwrap();
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
        let (mut a, mut b, store) = pair(&FaultPlan::new(1));
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for t in 1..=2 {
            exchange(&mut a, 1, t, &store);
            exchange(&mut b, 0, t, &store);
            pump(&mut a, &mut b, &store, &mut got_a, &mut got_b);
        }
        exchange(&mut a, 1, 3, &store);
        assert_eq!(a.links[1].unacked.len(), 2);
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
        assert_eq!(before, (7, 5, 0, Some(CODEC_V2), true, 2, 1));
        // Node 1 finishes and tears its endpoint down: the next
        // retransmission round writes the link off.
        drop(b);
        a.resync(1, None).unwrap();
        assert_eq!(a.counters.view().links_abandoned, 2, "once per frame of that round");
        assert!(a.links[1].unacked.is_empty());
        assert_eq!(rest(&a.links[1]), before);
    }
}
