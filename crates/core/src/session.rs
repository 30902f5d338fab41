//! The session layer: one [`Link`] per peer under a [`Session`] turns an
//! [`Endpoint`] into exactly-once, in-order, possibly compressed
//! [`DsoMessage`] delivery.
//!
//! This is the reliable channel beneath the algorithm. The kernel in
//! [`crate::runtime`] hands logical messages to [`Session::write`], which
//! puts each run of them to one peer in one transport write, and takes
//! them from the `recv*` family; sequencing, acknowledgement, retransmission
//! (the paper's `resync` path) and the choice of wire frame never leave
//! this module. Every reset of per-peer state goes through [`Link::reset`],
//! the only table of which fields each reason clears.
//!
//! The ARQ is a sliding window that is free while nothing is lost: acks
//! ride the frames going the other way (alone only after
//! [`Link::ack_delay`]), and each link times its own round trips and
//! retransmits alone. Its timers run on time this process spent listening
//! and are served when a receive finds the transport silent: a frame that
//! already arrived may carry the very ack a timer is missing.
//!
//! It is free on the host too. A send writes the envelope's header and the
//! message straight into one pooled frame, and the link keeps the message's
//! bytes, not the message: a queue of `(seq, first sent, byte range)` over
//! one byte buffer per link that keeps its capacity, up to [`KEPT_SPARE`]
//! once the peer has acknowledged everything. A retransmission puts a
//! fresh header in front of those bytes. A receive reads the header itself
//! and hands an in-order message straight on; only a gap parks one. So a
//! warm link allocates nothing per frame, and it reads the clock once per
//! send, once after each transport receive and once before each wait.

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use crate::membership::{Epoch, MembershipView};
use sdso_net::wire::{Wire, WireWriter};
use sdso_net::{Endpoint, Incoming, MsgClass, NetError, NodeId, Payload, SimInstant, SimSpan};
use sdso_obs::{EventKind, Obs};

use crate::clock::LogicalTime;
use crate::codec;
use crate::config::{DsoConfig, RetryConfig};
use crate::error::DsoError;
use crate::metrics::DsoCounters;
use crate::wire::{self, DsoMessage, Frame, WireUpdate};

/// A logical message and the peer it came from.
pub(crate) type Delivery = (NodeId, DsoMessage);

/// Frames a link may hold unacknowledged before a send fails with `WindowFull`.
const WINDOW: usize = 4096;

/// Bytes of capacity a link's kept buffer holds on to once the peer has
/// acknowledged everything: far above what a warm link has in flight (under
/// 5 KiB with 4 KiB blocks), far below a snapshot, whose buffer goes with
/// its ack.
const KEPT_SPARE: usize = 64 * 1024;

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

/// `rto` doubled once per unanswered round, at most [`MAX_BACKOFF`] times,
/// over a base that moves.
fn backed_off(rto: SimSpan, rounds: u32) -> SimSpan {
    SimSpan::from_micros(rto.as_micros() << rounds.min(MAX_BACKOFF))
}

/// Why a link's state is being reset (see [`Link::reset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reset {
    /// The peer left the view: the link is gone for good, and a joiner
    /// reusing the slot starts from sequence 0.
    Left,
    /// A retransmission found the peer permanently disconnected: it finished
    /// its run, so what is unacknowledged is residue, not recoverable traffic.
    Abandoned,
}

/// A frame the peer has not acknowledged yet.
#[derive(Debug)]
struct Unacked {
    /// Its sequence number.
    seq: u64,
    /// When it first went out.
    sent: SimInstant,
    /// The enveloped message's accounting class, which its frame carries.
    class: MsgClass,
    /// Where the enveloped message's bytes are in the link's `kept`.
    bytes: Range<usize>,
}

/// Everything this process remembers about its link with one peer: ARQ
/// sequencing both ways, moved only when reliability is configured. The
/// wire a link speaks is the run's ([`crate::WireConfig`]), not the link's.
#[derive(Debug, Default)]
pub(crate) struct Link {
    /// Next sequence number to assign to an outgoing message.
    tx_seq: u64,
    /// Sent but unacknowledged frames, oldest first: their sequence numbers
    /// run without a gap up to `tx_seq`.
    unacked: VecDeque<Unacked>,
    /// The enveloped bytes of the unacknowledged frames, back to back in
    /// sequence order. The acknowledged prefix goes once it outweighs the
    /// rest; the buffer keeps its capacity, up to [`KEPT_SPARE`] once
    /// nothing is in flight.
    kept: Vec<u8>,
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
}

impl Link {
    /// The one reset entry point. Which fields each reason clears:
    ///
    /// | reason      | `tx_seq` `rx_next` `ooo` `ack_owed`, estimators | `unacked` `kept` `deadline` |
    /// |-------------|-----------|-----------|
    /// | `Left`      | cleared   | cleared   |
    /// | `Abandoned` | kept      | cleared   |
    pub(crate) fn reset(&mut self, why: Reset) {
        match why {
            Reset::Left => *self = Link::default(),
            Reset::Abandoned => {
                self.unacked.clear();
                self.kept.clear();
                self.kept.shrink_to(KEPT_SPARE);
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

    /// Keeps `inner`, the enveloped bytes of the frame just given the next
    /// sequence number, until the peer acknowledges them, and arms the
    /// deadline if none is running.
    fn keep(&mut self, class: MsgClass, inner: &[u8], now: SimInstant, cfg: &RetryConfig) {
        let start = self.kept.len();
        self.kept.extend_from_slice(inner);
        let bytes = start..self.kept.len();
        self.unacked.push_back(Unacked { seq: self.tx_seq, sent: now, class, bytes });
        self.tx_seq += 1;
        self.deadline.get_or_insert(now + self.rto(cfg));
    }

    /// Lets the next frame to the peer carry the ack it is owed, if one is:
    /// what that ack waited counts in `lag`, and so does the wait of the
    /// last ack that went alone. Returns whether an ack was owed.
    fn piggyback(&mut self, now: SimInstant) -> bool {
        if let Some(waited) = self.alone.take() {
            observe(&mut self.lag, waited);
        }
        let owed = self.ack_owed.take();
        if let Some(since) = owed {
            observe(&mut self.lag, now.saturating_since(since).as_micros());
        }
        owed.is_some()
    }

    /// The peer holds everything below `next`: forget it, restart the deadline
    /// for what is left, and sample the round trip of the oldest
    /// never-retransmitted frame it covers, which also ends the backoff. An ack
    /// for more than this link ever sent was for the slot's previous occupant.
    fn acked(&mut self, next: u64, now: SimInstant, cfg: &RetryConfig) {
        let Some(oldest) = self.unacked.front().map(|frame| frame.seq) else { return };
        if next <= oldest || next > self.tx_seq {
            return;
        }
        // Sequence numbers are contiguous from `oldest`: the first frame
        // never retransmitted is at a known place, if the ack covers it.
        let fresh = self.resent_below.max(oldest);
        if let Some(frame) = self.unacked.get((fresh - oldest) as usize).filter(|_| fresh < next) {
            observe(&mut self.rtt, now.saturating_since(frame.sent).as_micros());
            self.expiries = 0;
        }
        self.unacked.drain(..(next - oldest) as usize);
        // The acknowledged prefix of `kept` goes once it outweighs the rest,
        // so what moves is always less than what was dropped.
        let dead = self.unacked.front().map_or(self.kept.len(), |frame| frame.bytes.start);
        if dead > self.kept.len() / 2 {
            self.kept.drain(..dead);
            for frame in &mut self.unacked {
                frame.bytes = frame.bytes.start - dead..frame.bytes.end - dead;
            }
        }
        // Once nothing is in flight, a burst's capacity beyond the spare goes.
        if self.unacked.is_empty() {
            self.kept.shrink_to(KEPT_SPARE);
        }
        self.deadline = (!self.unacked.is_empty()).then(|| now + self.rto(cfg));
    }

    /// Files the peer's `seq`-th message: hands it back when it is the next
    /// in order, parks it while a predecessor is missing.
    fn accept(&mut self, seq: u64, inner: DsoMessage) -> Arrival {
        match seq.cmp(&self.rx_next) {
            Ordering::Equal => {
                self.rx_next += 1;
                Arrival::Next(inner)
            }
            Ordering::Greater => {
                self.ooo.entry(seq).or_insert(inner);
                Arrival::Gap
            }
            Ordering::Less => Arrival::Duplicate,
        }
    }

    /// The parked message an in-order arrival just unblocked, if any.
    fn unblocked(&mut self) -> Option<DsoMessage> {
        let next = self.ooo.remove(&self.rx_next)?;
        self.rx_next += 1;
        Some(next)
    }
}

/// What [`Link::accept`] made of a sequenced message.
enum Arrival {
    /// The next in order, to deliver now.
    Next(DsoMessage),
    /// Ahead of a missing predecessor: parked until it arrives.
    Gap,
    /// A copy of something already delivered.
    Duplicate,
}

/// A logical message as [`Session::write`] takes it: encoded once, straight
/// into its frame.
pub(crate) trait Outgoing {
    /// Its accounting class.
    fn class(&self) -> MsgClass;

    /// Appends its encoding as a [`DsoMessage`].
    fn put(&self, w: &mut WireWriter);
}

impl Outgoing for DsoMessage {
    fn class(&self) -> MsgClass {
        DsoMessage::class(self)
    }

    fn put(&self, w: &mut WireWriter) {
        self.encode(w);
    }
}

/// A protocol layer's message, which travels as a [`DsoMessage::App`]
/// encoded straight from `body`.
pub(crate) struct AppMessage<'m, M> {
    pub(crate) class: MsgClass,
    pub(crate) body: &'m M,
}

impl<M: Wire> Outgoing for AppMessage<'_, M> {
    fn class(&self) -> MsgClass {
        self.class
    }

    fn put(&self, w: &mut WireWriter) {
        DsoMessage::put_app(w, self.class, self.body);
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
    /// In-order messages delivered by a link but not yet taken: the one
    /// place a received message waits — a rendezvous half for its exchange,
    /// an app message for `recv_app`. Every receive queues here first, so
    /// per-link FIFO holds by construction.
    ready: VecDeque<Delivery>,
    /// The kernel's current view: who may be sent to, and which epoch
    /// separates live traffic from a departed member's residue.
    view: MembershipView,
    /// When this process last took from the transport, or was about to wait;
    /// kept only for the link timers, so only with reliability on. It is
    /// also the one clock reading what follows shares until the next
    /// transport call: the arrival's link work, the timer round after a
    /// silent receive, the span of the wait `next_timer` sized.
    heard: SimInstant,
    /// A decoded batch the kernel handed back once applied
    /// ([`Session::recycle`]), kept for its storage: the next `Data2`
    /// decodes into it.
    spare: Vec<WireUpdate>,
    /// The codec's scratch: each `Data2` blob is written here, then copied
    /// out at its size.
    blob: WireWriter,
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
            spare: Vec::new(),
            blob: WireWriter::new(),
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

    /// Takes back a batch of updates the kernel has applied, so the next
    /// `Data2` decodes into its storage instead of allocating its own.
    pub(crate) fn recycle(&mut self, updates: Vec<WireUpdate>) {
        if updates.capacity() > self.spare.capacity() {
            self.spare = updates;
        }
    }

    /// Takes the oldest queued delivery `wanted` accepts, if any. The ones it
    /// passes over keep their place and their order.
    pub(crate) fn take(&mut self, wanted: impl Fn(&DsoMessage) -> bool) -> Option<Delivery> {
        let at = self.ready.iter().position(|(_, msg)| wanted(msg))?;
        self.ready.remove(at)
    }

    // ---- Sending ----

    /// Sends one logical message to `peer` ([`Session::write`]).
    pub(crate) fn send(&mut self, peer: NodeId, msg: DsoMessage) -> Result<(), DsoError> {
        self.write([(peer, msg)])
    }

    /// Sends one exchange's traffic to `peer` — the `(data, SYNC)` pair of
    /// Fig. 4 stamped with the view's epoch: one `Data2` frame that is both
    /// on a compressed wire, else the data half (omitted when empty) and a
    /// `Sync` — as one run of [`Session::write`]. The data is `batch`'s
    /// updates followed by the `picks` of `current`, which are only read: a
    /// `Data2` is encoded from both in place and `batch` is left empty with
    /// its capacity, while a v1 `Data` takes `batch` and copies the picks
    /// into it.
    pub(crate) fn send_rendezvous(
        &mut self,
        peer: NodeId,
        time: LogicalTime,
        batch: &mut Vec<WireUpdate>,
        (current, picks): (&[WireUpdate], &[usize]),
    ) -> Result<(), DsoError> {
        let epoch = self.view.epoch();
        let empty = batch.is_empty() && picks.is_empty();
        let data = (!empty).then(|| self.encode_data(epoch, time, batch, (current, picks)));
        let fused = matches!(data, Some(DsoMessage::Data2 { .. }));
        if fused {
            self.counters.rendezvous_fused.inc();
        }
        let sync = (!fused).then_some(DsoMessage::Sync { epoch, time });
        self.write(data.into_iter().chain(sync).map(|msg| (peer, msg)))
    }

    /// The one send path: sends `msgs` in order, each maximal run of
    /// consecutive messages to one peer as one transport write (a plain
    /// send for a run of one, which needs no list). A run to a non-member
    /// is dropped and counted: a departed peer will never consume it, and
    /// queueing it on the reliability layer would leave permanently-unackable
    /// state. Every other message is sequenced and encoded in order, a run's
    /// frames at its write. A window that fills partway through a run still
    /// writes what the run sequenced before it, then fails with `WindowFull`.
    pub(crate) fn write(
        &mut self,
        msgs: impl IntoIterator<Item = (NodeId, impl Outgoing)>,
    ) -> Result<(), DsoError> {
        let mut msgs = msgs.into_iter().peekable();
        while let Some((peer, first)) = msgs.next() {
            let alone = msgs.peek().is_none_or(|&(to, _)| to != peer);
            let more = std::iter::from_fn(|| msgs.next_if(|&(to, _)| to == peer).map(|(_, m)| m));
            let mut run = std::iter::once(first).chain(more);
            if !self.view.contains(peer) {
                self.counters.non_member_dropped.add(run.count() as u64);
                continue;
            }
            if alone {
                if let Some(msg) = run.next() {
                    let payload = self.wrap(peer, msg)?;
                    self.endpoint.send(peer, payload).map_err(DsoError::Net)?;
                }
                continue;
            }
            let mut payloads = Vec::new();
            let full =
                run.map(|msg| self.wrap(peer, msg)).try_for_each(|p| p.map(|p| payloads.push(p)));
            let written = if payloads.len() > 1 {
                self.endpoint.send_batch(peer, payloads)
            } else {
                payloads.pop().map_or(Ok(()), |payload| self.endpoint.send(peer, payload))
            };
            written.map_err(DsoError::Net)?;
            full?;
        }
        Ok(())
    }

    /// Encodes `msg` for the wire, in its envelope when reliability is
    /// configured: header and message are written once, into one pooled
    /// frame, and the link keeps the message's bytes until the peer
    /// acknowledges them. The envelope's cumulative ack carries whatever ack
    /// was owed, for free. [`Session::write`] has done non-member suppression.
    fn wrap(&mut self, peer: NodeId, msg: impl Outgoing) -> Result<Payload, DsoError> {
        let (class, frame_wire_len) = (msg.class(), self.config.frame_wire_len);
        let Some(cfg) = self.config.reliability else {
            return Ok(wire::pooled_frame(class, frame_wire_len, |w| msg.put(w)));
        };
        let unacked = self.links[usize::from(peer)].unacked.len();
        if unacked >= WINDOW {
            return Err(DsoError::WindowFull { peer, unacked });
        }
        let now = self.endpoint.now();
        let link = &mut self.links[usize::from(peer)];
        if link.piggyback(now) {
            self.counters.acks_piggybacked.inc();
        }
        let (seq, ack) = (link.tx_seq, link.rx_next);
        Ok(wire::pooled_frame(class, frame_wire_len, |w| {
            Frame::put_env_header(w, seq, ack);
            let at = w.len();
            msg.put(w);
            link.keep(class, &w.as_slice()[at..], now, &cfg);
        }))
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
        match self.endpoint.send(peer, Frame::ack_payload(next, self.config.frame_wire_len)) {
            // The peer may have exited since its frame went out (it sat in
            // our rx queue): an ack nobody is left to consume is not owed.
            Ok(()) | Err(NetError::Disconnected) => Ok(()),
            Err(e) => Err(DsoError::Net(e)),
        }
    }

    /// Builds the data message for one exchange send from `batch` and then
    /// the picks of `current` ([`Session::send_rendezvous`]): on a
    /// compressed wire the `Data2`, SYNC on board — falling back to the
    /// plain `Data` when a run exceeds the decoder's inflation budget — and
    /// plain `Data` on v1.
    fn encode_data(
        &mut self,
        epoch: Epoch,
        time: LogicalTime,
        batch: &mut Vec<WireUpdate>,
        (current, picks): (&[WireUpdate], &[usize]),
    ) -> DsoMessage {
        if self.config.wire.codec_v2 {
            let updates = batch.iter().chain(picks.iter().map(|&i| &current[i]));
            if let Some(blob) = codec::encode_updates(updates, &mut self.blob) {
                self.counters.codec_v2_sent.inc();
                batch.clear();
                return DsoMessage::Data2 { epoch, time, blob, sync: true };
            }
            self.counters.codec_v2_fallbacks.inc();
        }
        batch.extend(picks.iter().map(|&i| current[i].clone()));
        DsoMessage::Data { epoch, time, updates: std::mem::take(batch) }
    }

    // ---- Receiving: one step, driven by seven stop rules ----

    /// The one receive step: take at most one frame off the transport, run
    /// it through the link ([`Session::admit`]) — which queues the logical
    /// messages it completes, none for an ack, a duplicate, a gap or
    /// residue — and hand the payload's storage back to this thread's buffer
    /// pool (a no-op while the bytes are shared, as an app message's body
    /// shares them until `recv_app` decodes it, or the pool is full). With
    /// reliability on it reads the clock once, into `heard`, which the link
    /// layer and a timer round that follows share. With a `residue` counter
    /// it also discards, and counts there, what [`Session::drain_residue`]
    /// must never admit. `false`: nothing arrived.
    fn step(&mut self, wait: Wait, residue: Option<&mut u64>) -> Result<bool, DsoError> {
        let arrived = match wait {
            Wait::Block => self.endpoint.recv().map(Some),
            Wait::For(span) => self.endpoint.recv_deadline(span),
            Wait::Poll => self.endpoint.try_recv(),
        };
        if self.config.reliability.is_some() {
            self.heard = self.endpoint.now();
        }
        let Some(Incoming { from, payload }) = arrived.map_err(DsoError::Net)? else {
            return Ok(false);
        };
        let frame = Frame::decode_frame(&payload.bytes).map_err(DsoError::Net)?;
        // Every frame but an ack is stale by its message's epoch.
        let stale = |frame: &Frame| match frame {
            Frame::Ack { .. } => true,
            Frame::Env { inner: msg, .. } | Frame::Plain(msg) => {
                msg.epoch().is_some_and(|e| e < self.view.epoch())
            }
        };
        match residue {
            Some(dropped) if stale(&frame) => {
                *dropped += 1;
                self.counters.cross_epoch_dropped.inc();
            }
            _ => self.admit(from, frame)?,
        }
        sdso_net::pool::thread_pool(|pool| pool.reclaim(payload.bytes));
        Ok(true)
    }

    /// Runs one decoded frame through the reliability layer, at the clock
    /// reading of the step that received it, and on to the codec layer
    /// whatever this arrival put in order. Without a reliability config
    /// every plain frame passes straight through. Every node of a run shares
    /// its reliability setting, so a frame of the other kind — sequenced
    /// without the layer, plain with it — is a typed error.
    fn admit(&mut self, from: NodeId, frame: Frame) -> Result<(), DsoError> {
        let Some(cfg) = self.config.reliability else {
            return match frame {
                Frame::Plain(msg) => self.deliver(from, msg),
                Frame::Env { .. } | Frame::Ack { .. } => Err(DsoError::ProtocolViolation(format!(
                    "sequenced frame from {from} but reliability is off here"
                ))),
            };
        };
        let now = self.heard;
        let link = &mut self.links[usize::from(from)];
        match frame {
            Frame::Env { seq, ack, inner } => {
                // Residue of a slot's previous occupant — a departed member's
                // last frames (a past epoch), or what was retransmitted at
                // this process while it was down (it acknowledges more than
                // this link ever sent): pretend-ack it so the sender's settle
                // converges, but keep it out of the live link state — the
                // slot's new streams start from zero.
                let past = |epoch| !self.view.contains(from) && epoch < self.view.epoch();
                if ack > link.tx_seq || inner.epoch().is_some_and(past) {
                    self.counters.cross_epoch_dropped.inc();
                    return self.send_ack(from, seq + 1);
                }
                link.acked(ack, now, &cfg);
                match link.accept(seq, inner) {
                    Arrival::Next(msg) => {
                        // In order: the ack waits for the next frame that way.
                        link.ack_owed.get_or_insert(now);
                        // Codec resolution happens at delivery, after
                        // sequencing: a fused frame's SYNC is queued once,
                        // however often it arrived.
                        self.deliver(from, msg)?;
                        while let Some(next) = self.links[usize::from(from)].unblocked() {
                            self.deliver(from, next)?;
                        }
                        Ok(())
                    }
                    // A duplicate (the peer missed an ack) or a gap (we
                    // missed a frame): say where the stream stands at once.
                    Arrival::Duplicate => {
                        self.counters.duplicates_dropped.inc();
                        self.ack(from)
                    }
                    Arrival::Gap => self.ack(from),
                }
            }
            Frame::Ack { next } => {
                link.acked(next, now, &cfg);
                Ok(())
            }
            Frame::Plain(_) => Err(DsoError::ProtocolViolation(format!(
                "plain frame from {from} but reliability is on here"
            ))),
        }
    }

    /// Resolves codec-layer messages at their exactly-once delivery point and
    /// queues the result for the kernel: drops (and counts) a past epoch's
    /// rendezvous residue, whose exchange is over; decodes a
    /// [`DsoMessage::Data2`] back into the plain `Data` it compresses with,
    /// directly behind it, the `Sync` it carries; and passes everything else
    /// through untouched. A `Data2` on a v1 run is a typed error: every node
    /// of a run speaks the one wire its [`crate::WireConfig`] names.
    fn deliver(&mut self, from: NodeId, msg: DsoMessage) -> Result<(), DsoError> {
        if msg.rendezvous_time().is_some() && msg.epoch().is_some_and(|e| e < self.view.epoch()) {
            self.counters.cross_epoch_dropped.inc();
            return Ok(());
        }
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "the codec layer resolves `Data2`; every other kind, a new one too, passes through"
        )]
        match msg {
            DsoMessage::Data2 { .. } if !self.config.wire.codec_v2 => {
                return Err(DsoError::ProtocolViolation(format!(
                    "compressed Data2 from {from} but codec v2 is not enabled here"
                )));
            }
            DsoMessage::Data2 { epoch, time, blob, sync } => {
                let mut updates = std::mem::take(&mut self.spare);
                codec::decode_updates(&blob, &mut updates).map_err(DsoError::Net)?;
                self.ready.push_back((from, DsoMessage::Data { epoch, time, updates }));
                if sync {
                    self.ready.push_back((from, DsoMessage::Sync { epoch, time }));
                }
            }
            other => self.ready.push_back((from, other)),
        }
        Ok(())
    }

    /// Blocking receive of the next logical message `wanted` accepts
    /// ([`Session::take`]); what it passes over stays queued. With
    /// reliability on it sleeps until the earliest link timer and serves it,
    /// and fails with [`DsoError::Timeout`] once a link went `max_retries`
    /// rounds unanswered, or after as many idle rounds, each twice the last.
    pub(crate) fn recv(
        &mut self,
        wanted: impl Fn(&DsoMessage) -> bool,
    ) -> Result<Delivery, DsoError> {
        self.recv_next(false, wanted)
    }

    /// Blocking receive without the idle-round budget: for a joiner awaiting
    /// admission, where arbitrarily long silence is expected. With no link
    /// timer pending, a genuine group failure parks this process in the
    /// transport and surfaces through the scheduler's stall detection instead.
    pub(crate) fn recv_patiently(
        &mut self,
        wanted: impl Fn(&DsoMessage) -> bool,
    ) -> Result<Delivery, DsoError> {
        self.recv_next(true, wanted)
    }

    fn recv_next(
        &mut self,
        patient: bool,
        wanted: impl Fn(&DsoMessage) -> bool,
    ) -> Result<Delivery, DsoError> {
        let mut idle = 0u32;
        loop {
            if let Some(m) = self.take(&wanted) {
                return Ok(m);
            }
            let timer = self.next_timer();
            let wait = match (timer, self.config.reliability) {
                (Some(at), _) => Wait::For(at.saturating_since(self.heard)),
                (None, Some(cfg)) if !patient => Wait::For(backed_off(cfg.rto, idle)),
                _ => Wait::Block,
            };
            if self.step(wait, None)? {
                idle = 0;
                continue;
            }
            idle += u32::from(timer.is_none());
            let rounds = self.serve_timers(self.heard)?.max(idle);
            if self.config.reliability.is_some_and(|cfg| rounds >= cfg.max_retries) {
                return Err(DsoError::Timeout { retries: rounds });
            }
        }
    }

    /// Non-blocking receive of the next logical message `wanted` accepts;
    /// serves the link timers once nothing is left to take.
    pub(crate) fn recv_now(
        &mut self,
        wanted: impl Fn(&DsoMessage) -> bool,
    ) -> Result<Option<Delivery>, DsoError> {
        loop {
            if let Some(m) = self.take(&wanted) {
                return Ok(Some(m));
            }
            if !self.step(Wait::Poll, None)? {
                return self.serve_timers(self.heard).map(|_| None);
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
    pub(crate) fn settle_recv(&mut self) -> Result<Option<bool>, DsoError> {
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
            let wait = Wait::For(deadline.saturating_since(self.heard));
            match self.step(wait, None) {
                Ok(true) => return Ok(None),
                Ok(false) => {
                    if self.serve_timers(self.heard)? >= SETTLE_ROUNDS.min(cfg.max_retries) {
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
    pub(crate) fn settle_link(&mut self, peer: NodeId) -> Result<(), DsoError> {
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
            let wait = Wait::For(timer.saturating_since(self.heard));
            if !self.step(wait, None)? {
                self.serve_timers(self.heard)?;
            }
        }
    }

    /// Discards crash-era residue in a restarted process's receive queue
    /// (on a rejoin through [`crate::SdsoRuntime::enter`]): a sequenced frame stamped
    /// before the view's epoch is dropped unacked, and so is any ack. Fresh
    /// traffic that overtook the drain is admitted and parked where the
    /// blocking receives look first. Returns the frames dropped.
    pub(crate) fn drain_residue(&mut self) -> Result<u64, DsoError> {
        if self.config.reliability.is_none() {
            return Ok(0);
        }
        let mut dropped = 0u64;
        while self.step(Wait::Poll, Some(&mut dropped))? {}
        Ok(dropped)
    }

    /// The earliest instant a link wants attention, for a receive about to
    /// block: an owed ack's delay running out, or a retransmission deadline.
    /// If the process comes back from sending or computing, no ack could be
    /// heard meanwhile and peers in step with it were as busy, so each
    /// deadline first moves out by the time away — to at most one timeout
    /// from now. (A receive that only polls never waits: its deadlines run on.)
    /// The clock reading it takes stays in `heard`, for the wait it sizes.
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

    /// Serves every link timer due at `now`, once a receive found the
    /// transport silent (at the reading of that receive's step): a link
    /// whose deadline passed retransmits, an ack that waited its delay
    /// travels alone. Returns the most unanswered rounds of any link resent.
    fn serve_timers(&mut self, now: SimInstant) -> Result<u32, DsoError> {
        let Some(cfg) = self.config.reliability else { return Ok(0) };
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
    /// timeout, resend what is unacknowledged, each kept message behind a
    /// fresh envelope header. Returns its rounds unanswered.
    fn retransmit(&mut self, peer: NodeId, cfg: RetryConfig) -> Result<u32, DsoError> {
        let now = self.endpoint.now();
        let frame_wire_len = self.config.frame_wire_len;
        let link = &mut self.links[usize::from(peer)];
        link.expiries += 1;
        link.resent_below = link.tx_seq;
        link.deadline = Some(now + link.rto(&cfg));
        let round = link.expiries;
        self.counters.resyncs.inc();
        self.obs.record(now.as_micros(), EventKind::Resync, round, 0, 0);
        for i in 0..link.unacked.len() {
            let link = &mut self.links[usize::from(peer)];
            let Some(frame) = link.unacked.get(i) else { break };
            let (seq, class, bytes) = (frame.seq, frame.class, frame.bytes.clone());
            self.counters.retransmits.inc();
            self.obs.record(now.as_micros(), EventKind::Retransmit, u32::from(peer), seq as u32, 0);
            if link.piggyback(now) {
                self.counters.acks_piggybacked.inc();
            }
            let payload = wire::pooled_frame(class, frame_wire_len, |w| {
                Frame::put_env_header(w, seq, link.rx_next);
                w.put_raw(&link.kept[bytes]);
            });
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
    use crate::membership::ViewChange;
    use crate::object::{ObjectId, Version};
    use crate::wound::{self, Wound};
    use sdso_net::{FaultPlan, FaultyEndpoint, MsgClass};

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

    /// Nodes `0..n` on one clock.
    fn group(n: usize, plan: &FaultPlan) -> Vec<Peer> {
        group_on(&vec![WireConfig::compressed(); n], plan)
    }

    /// As [`group`], node `i` speaking `wires[i]`.
    fn group_on(wires: &[WireConfig], plan: &FaultPlan) -> Vec<Peer> {
        wound::group(wires.len())
            .into_iter()
            .zip(wires)
            .map(|(endpoint, &wire)| session_on(endpoint, plan, wire))
            .collect()
    }

    /// Node 0 and node 1.
    fn pair(plan: &FaultPlan) -> (Peer, Peer) {
        let mut nodes = group(2, plan);
        let b = nodes.pop().unwrap();
        (nodes.pop().unwrap(), b)
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

    fn exchange(from: &mut Peer, to: NodeId, t: u64) {
        let me = from.endpoint.node_id();
        from.send_rendezvous(to, LogicalTime::from_ticks(t), &mut batch(me, t), (&[], &[]))
            .unwrap();
    }

    fn app(byte: u8) -> DsoMessage {
        DsoMessage::App { class: MsgClass::Control, bytes: vec![byte].into() }
    }

    /// Takes whatever already arrived, then serves the timers due on the
    /// clock as it stands.
    fn poll(s: &mut Peer, got: &mut Vec<Delivery>) {
        while let Some(d) = s.recv_now(|_| true).unwrap() {
            got.push(d);
        }
    }

    /// Listens for `span`, taking what arrives and serving the timers as
    /// they fall due.
    fn listen(s: &mut Peer, span: SimSpan, got: &mut Vec<Delivery>) {
        let until = s.endpoint.now() + span;
        loop {
            got.extend(s.ready.drain(..));
            let now = s.endpoint.now();
            if now >= until {
                return;
            }
            let wake = s.next_timer().map_or(until, |at| at.min(until));
            if !s.step(Wait::For(wake.saturating_since(now)), None).unwrap() {
                s.serve_timers(s.heard).unwrap();
            }
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
        s.serve_timers(s.endpoint.now()).unwrap();
    }

    /// What `link` keeps for retransmission, oldest first: each
    /// unacknowledged sequence number and its message.
    fn kept(link: &Link) -> Vec<(u64, DsoMessage)> {
        let decode = |frame: &Unacked| sdso_net::wire::decode(&link.kept[frame.bytes.clone()]);
        link.unacked.iter().map(|frame| (frame.seq, decode(frame).unwrap())).collect()
    }

    fn acked(s: &Peer) -> bool {
        s.links.iter().all(|link| link.unacked.is_empty())
    }

    /// Runs retransmission rounds until neither side has anything
    /// unacknowledged.
    fn pump(a: &mut Peer, b: &mut Peer, got_a: &mut Vec<Delivery>, got_b: &mut Vec<Delivery>) {
        for _ in 1..200 {
            // Twice: the second pass collects the acks the first provoked.
            for _ in 0..2 {
                poll(a, got_a);
                poll(b, got_b);
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
        let (mut a, mut b) = pair(&lossy());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        let (mut sent_a, mut sent_b) = (Vec::new(), Vec::new());
        for t in 1..=12u64 {
            exchange(&mut a, 1, t);
            sent_a.extend(pair_of(0, Epoch(0), t));
            exchange(&mut b, 0, t);
            sent_b.extend(pair_of(1, Epoch(0), t));
            // Runs of several messages to one peer, in one write each.
            if t % 4 == 0 {
                let run = [app(t as u8), app(t as u8 + 100), app(t as u8 + 200)];
                a.write(run.clone().map(|msg| (1, msg))).unwrap();
                sent_a.extend(run.map(|msg| (0, msg)));
            }
            if t % 3 == 0 {
                let run = [app(t as u8), app(t as u8 + 100)];
                b.write(run.clone().map(|msg| (0, msg))).unwrap();
                sent_b.extend(run.map(|msg| (1, msg)));
            }
            poll(&mut a, &mut got_a);
            poll(&mut b, &mut got_b);
        }
        pump(&mut a, &mut b, &mut got_a, &mut got_b);
        assert_eq!(got_b, sent_a, "0 → 1: every Data2 decoded back to the Data that was sent");
        assert_eq!(got_a, sent_b, "1 → 0");
        let (a, b) = (a.counters.view(), b.counters.view());
        assert!(a.codec_v2_sent > 0 && b.codec_v2_sent > 0, "both directions sent v2");
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
        let (mut a, mut b) = pair(&late);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        let (mut sent_a, mut sent_b) = (Vec::new(), Vec::new());
        let mut warm = None;
        for t in 1..=40u64 {
            exchange(&mut a, 1, t);
            sent_a.extend(pair_of(0, Epoch(0), t));
            exchange(&mut b, 0, t);
            sent_b.extend(pair_of(1, Epoch(0), t));
            listen(&mut a, SimSpan::from_millis(3), &mut got_a);
            listen(&mut b, SimSpan::from_millis(3), &mut got_b);
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
        pump(&mut a, &mut b, &mut got_a, &mut got_b);
        assert_eq!(got_b, sent_a, "0 → 1: exactly once, in order");
        assert_eq!(got_a, sent_b, "1 → 0");
        // The estimator learnt the round trip it was shown.
        let (srtt, _) = a.links[1].rtt.unwrap();
        assert!((5_000..=7_000).contains(&srtt), "srtt {srtt} µs for a 6 ms round trip");
    }

    #[test]
    fn a_lost_piggybacked_ack_is_repaired_by_the_next_frames_cumulative_ack() {
        let (mut a, mut b) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        a.send(1, app(1)).unwrap();
        poll(&mut b, &mut got_b);
        // Node 1's reply carries the ack for it — and is lost in flight.
        b.send(0, app(2)).unwrap();
        assert_eq!(b.counters.view().acks_piggybacked, 1);
        while a.endpoint.try_recv().unwrap().is_some() {}
        assert_eq!(a.links[1].unacked.len(), 1);
        // The next frame that way arrives ahead of a gap, which node 0
        // reports at once; its cumulative ack already covers node 0's frame.
        b.send(0, app(3)).unwrap();
        poll(&mut a, &mut got_a);
        assert!(a.links[1].unacked.is_empty() && a.links[1].deadline.is_none());
        assert!(got_a.is_empty(), "nothing is delivered past the gap");
        assert_eq!(a.counters.view().acks_standalone, 1, "the gap report");
        // The lost frame itself comes back by node 1's own timeout.
        pump(&mut a, &mut b, &mut got_a, &mut got_b);
        assert_eq!(got_a, [(1, app(2)), (1, app(3))]);
        assert_eq!((a.counters.view().retransmits, b.counters.view().resyncs), (0, 1));
    }

    #[test]
    fn an_owed_ack_travels_alone_only_after_its_delay() {
        let (mut a, mut b) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        a.send(1, app(1)).unwrap();
        poll(&mut b, &mut got_b);
        assert_eq!(b.links[0].ack_owed, Some(SimInstant::ZERO));
        // Just short of the delay nothing goes out...
        let delay = b.links[0].ack_delay(&RETRY);
        assert_eq!(delay.as_micros(), RETRY.rto.as_micros() / 2, "nothing known of the link yet");
        b.endpoint.advance(SimSpan::from_micros(delay.as_micros() - 1));
        poll(&mut b, &mut got_b);
        poll(&mut a, &mut got_a);
        assert_eq!((b.counters.view().acks_standalone, a.links[1].unacked.len()), (0, 1));
        // ...and at the delay, with nothing going that way, the ack does —
        // still inside the sender's timeout.
        b.endpoint.advance(SimSpan::from_micros(1));
        poll(&mut b, &mut got_b);
        poll(&mut a, &mut got_a);
        assert_eq!((b.counters.view().acks_standalone, b.links[0].ack_owed), (1, None));
        assert!(a.links[1].unacked.is_empty());
        assert_eq!(a.counters.view().retransmits, 0);
    }

    #[test]
    fn the_ack_delay_follows_how_long_acks_on_the_link_usually_take() {
        let (mut a, mut b) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        // An ack that found a ride after 400 µs: the next may wait half
        // the floor longer than that.
        a.send(1, app(1)).unwrap();
        poll(&mut b, &mut got_b);
        b.endpoint.advance(SimSpan::from_micros(400));
        b.send(0, app(2)).unwrap();
        assert_eq!(
            (b.links[0].lag, b.links[0].ack_delay(&RETRY).as_micros()),
            (Some((400, 200)), 900)
        );
        poll(&mut a, &mut got_a);
        a.send(1, app(3)).unwrap();
        poll(&mut b, &mut got_b);
        b.endpoint.advance(SimSpan::from_micros(899));
        poll(&mut b, &mut got_b);
        assert_eq!(b.counters.view().acks_standalone, 0);
        b.endpoint.advance(SimSpan::from_micros(1));
        poll(&mut b, &mut got_b);
        assert_eq!(b.counters.view().acks_standalone, 1);
        // An ack that went alone counts only once a frame follows that
        // could have carried it: a link nothing rides on keeps its delay.
        assert_eq!((b.links[0].lag, b.links[0].alone), (Some((400, 200)), Some(900)));
        b.send(0, app(4)).unwrap();
        assert_eq!((b.links[0].lag, b.links[0].alone), (Some((462, 275)), None));
        poll(&mut a, &mut got_a);
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
        let (mut a, mut b) = pair(&lossless());
        let mut got = Vec::new();
        a.send(1, app(1)).unwrap();
        while b.endpoint.try_recv().unwrap().is_some() {}
        // Polling never waits, so the time between polls is not time away:
        // the first timeout, three floors, falls due on the clock.
        for _ in 0..3 {
            assert_eq!(a.counters.view().retransmits, 0);
            a.endpoint.advance(RETRY.rto);
            poll(&mut a, &mut got);
        }
        assert_eq!(a.counters.view().retransmits, 1);
        // A receive that blocks after 10 ms away gives the peer, as busy as
        // this process was, its whole doubled timeout again.
        a.endpoint.advance(SimSpan::from_millis(10));
        listen(&mut a, SimSpan::from_millis(5), &mut got);
        assert_eq!(a.counters.view().retransmits, 1);
        listen(&mut a, SimSpan::from_millis(1), &mut got);
        assert_eq!((a.counters.view().retransmits, a.links[1].expiries), (2, 2));
    }

    #[test]
    fn draining_one_link_keeps_the_other_links_timers() {
        let mut nodes = group(3, &lossless());
        let mut got = Vec::new();
        // Node 0 owes node 2 an ack while it drains its link to node 1,
        // which never answers.
        nodes[2].send(0, app(1)).unwrap();
        poll(&mut nodes[0], &mut got);
        nodes[0].send(1, app(2)).unwrap();
        nodes[0].settle_link(1).unwrap();
        assert_eq!(nodes[0].links[1].expiries, RETRY.max_retries, "node 1 was given up on");
        // The ack left when it fell due, not at link 1's first deadline.
        assert_eq!(nodes[0].links[2].alone, Some(RETRY.rto.as_micros() / 2));
        poll(&mut nodes[2], &mut got);
        assert!(nodes[2].links[0].unacked.is_empty());
        assert_eq!(nodes[2].counters.view().retransmits, 0);
    }

    #[test]
    fn a_peer_that_never_acks_fills_the_window() {
        let (mut a, mut b) = pair(&lossless());
        for i in 0..WINDOW - 1 {
            a.send(1, app(i as u8)).unwrap();
        }
        while b.endpoint.try_recv().unwrap().is_some() {}
        // A run the window fills partway through writes what it sequenced.
        match a.write([1, 2, 3].map(|byte| (1, app(byte)))) {
            Err(DsoError::WindowFull { peer: 1, unacked: WINDOW }) => {}
            other => panic!("expected a full window, got {other:?}"),
        }
        let mut arrived = 0;
        while b.endpoint.try_recv().unwrap().is_some() {
            arrived += 1;
        }
        assert_eq!(arrived, 1, "the one frame the run sequenced went out");
        assert_eq!(a.links[1].unacked.len(), WINDOW);
        match a.send(1, app(0)) {
            Err(DsoError::WindowFull { peer: 1, unacked: WINDOW }) => {}
            other => panic!("expected a full window, got {other:?}"),
        }
        assert_eq!(a.links[1].unacked.len(), WINDOW, "the refused frame was not queued");
    }

    #[test]
    fn each_run_of_messages_to_one_peer_is_one_write_with_or_without_reliability() {
        for reliability in [None, Some(RETRY)] {
            let mut nodes = group(3, &lossless());
            for node in &mut nodes {
                node.config.reliability = reliability;
            }
            let list = [(1, app(1)), (1, app(2)), (2, app(3)), (1, app(4))];
            nodes[0].write(list).unwrap();
            assert_eq!(
                nodes[0].endpoint.inner().writes,
                [(1, 2), (2, 1), (1, 1)],
                "{reliability:?}"
            );
            let mut got = Vec::new();
            poll(&mut nodes[1], &mut got);
            assert_eq!(got, [(0, app(1)), (0, app(2)), (0, app(4))], "{reliability:?}");
            got.clear();
            poll(&mut nodes[2], &mut got);
            assert_eq!(got, [(0, app(3))], "{reliability:?}");
        }
    }

    #[test]
    fn take_passes_over_unwanted_deliveries_in_order_and_left_purges_them() {
        let mut nodes = group(3, &lossless());
        let mut c = nodes.pop().unwrap();
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        b.send(0, app(1)).unwrap();
        exchange(&mut b, 0, 1);
        b.send(0, app(2)).unwrap();
        c.send(0, app(3)).unwrap();
        while a.step(Wait::Poll, None).unwrap() {}
        let [data, sync] = pair_of(1, Epoch(0), 1);
        let is_sync = |msg: &DsoMessage| matches!(msg, DsoMessage::Sync { .. });
        assert_eq!(a.take(is_sync), Some(sync));
        assert_eq!(a.take(is_sync), None);
        let passed_over = [(1, app(1)), data, (1, app(2)), (2, app(3))];
        assert!(a.ready.iter().eq(passed_over.iter()), "{:?}", a.ready);
        // Node 1 leaves: what it delivered and nobody took goes with it.
        a.reset(1, Reset::Left);
        assert_eq!(a.take(|_| true), Some((2, app(3))));
        assert_eq!(a.take(|_| true), None);
    }

    #[test]
    fn left_restarts_the_slot_and_ignores_the_old_occupants_residue() {
        let plan = lossy();
        let (mut a, mut b) = pair(&plan);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for t in 1..=4 {
            exchange(&mut a, 1, t);
            exchange(&mut b, 0, t);
            pump(&mut a, &mut b, &mut got_a, &mut got_b);
        }
        assert!(a.links[1].tx_seq > 0 && a.counters.view().codec_v2_sent > 0);

        // Node 1 leaves; node 0 prunes it.
        let mut view = MembershipView::full(2);
        view.apply(&ViewChange::leave([1])).unwrap();
        a.reset(1, Reset::Left);
        a.set_view(view.clone());
        let link = &a.links[1];
        assert_eq!((link.tx_seq, link.rx_next), (0, 0));
        assert!(link.unacked.is_empty() && link.ooo.is_empty());
        assert_eq!((link.deadline, link.ack_owed, link.rtt, link.expiries), (None, None, None, 0));
        assert_eq!((link.lag, link.alone), (None, None));

        // The old occupant's last frames (old epoch, old sequence numbers)
        // are pretend-acked and leave no trace in the slot.
        exchange(&mut b, 0, 5);
        expire(&mut b);
        got_a.clear();
        poll(&mut a, &mut got_a);
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
        assert!(b.drain_residue().unwrap() > 0, "the pretend-acks are residue");
        let (mut sent_a, mut sent_b) = (Vec::new(), Vec::new());
        got_b.clear();
        for t in 6..=9 {
            exchange(&mut a, 1, t);
            sent_a.extend(pair_of(0, view.epoch(), t));
            exchange(&mut b, 0, t);
            sent_b.extend(pair_of(1, view.epoch(), t));
            pump(&mut a, &mut b, &mut got_a, &mut got_b);
        }
        assert_eq!(got_b, sent_a);
        assert_eq!(got_a, sent_b);
        // From sequence 0: one frame for each of the four exchanges.
        assert_eq!((a.links[1].tx_seq, a.links[1].rx_next), (4, 4));
    }

    #[test]
    fn frames_retransmitted_at_a_restarted_process_are_residue() {
        let plan = lossless();
        let (mut a, mut b) = pair(&plan);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        b.send(0, app(1)).unwrap();
        poll(&mut a, &mut got_a);
        // Node 1 takes three frames and dies owing their ack: its next
        // incarnation is a fresh session on the same endpoint.
        for byte in 2..5 {
            a.send(1, app(byte)).unwrap();
        }
        poll(&mut b, &mut got_b);
        assert!(b.links[0].ack_owed.is_some());
        let mut b = session(b.endpoint.into_inner(), &plan);
        // Node 0's retransmissions acknowledge a frame the new incarnation
        // never sent: they are pretend-acked and leave no trace, neither
        // delivered, nor sequenced, nor parked out of order.
        got_b.clear();
        expire(&mut a);
        poll(&mut b, &mut got_b);
        assert!(got_b.is_empty());
        assert_eq!(b.counters.view().cross_epoch_dropped, 3);
        assert_eq!((b.links[0].rx_next, b.links[0].ooo.len()), (0, 0));
        // The pretend-acks let node 0's settle converge; it then prunes the
        // crashed member, and both fresh streams deliver from zero. An ack
        // meant for the old stream is ignored by the new one.
        poll(&mut a, &mut got_a);
        assert!(a.links[1].unacked.is_empty());
        a.reset(1, Reset::Left);
        a.send(1, app(9)).unwrap();
        a.links[1].acked(4, SimInstant::ZERO, &RETRY);
        assert_eq!(a.links[1].unacked.len(), 1);
        got_a.clear();
        b.send(0, app(8)).unwrap();
        pump(&mut a, &mut b, &mut got_a, &mut got_b);
        assert_eq!((got_a, got_b), (vec![(1, app(8))], vec![(0, app(9))]));
    }

    #[test]
    fn abandoned_clears_only_unacked() {
        let (mut a, mut b) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for t in 1..=2 {
            exchange(&mut a, 1, t);
            exchange(&mut b, 0, t);
            pump(&mut a, &mut b, &mut got_a, &mut got_b);
        }
        exchange(&mut a, 1, 3);
        exchange(&mut a, 1, 4);
        assert_eq!(a.links[1].unacked.len(), 2, "one frame per rendezvous");
        let rest = |l: &Link| (l.tx_seq, l.rx_next, l.ooo.len());
        let before = rest(&a.links[1]);
        assert_eq!(before, (4, 2, 0));
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

    /// A retransmission is its first transmission but for the 8-byte `ack`
    /// behind the tag and `seq`, whatever the enveloped message: the link
    /// keeps the message's bytes and puts a fresh header in front. Both are
    /// the bytes of the envelope as a [`Frame`] encodes it.
    #[test]
    fn a_retransmission_is_the_first_transmission_but_for_its_ack() {
        let body = ObjectId(3);
        let version = Version::new(LogicalTime::from_ticks(4), 0);
        let get_rep = DsoMessage::GetRep { object: OBJECT, version, body: vec![5; 64] };
        let app = DsoMessage::App { class: MsgClass::Data, bytes: sdso_net::wire::encode(&body) };
        let fused = |a: &Peer| kept(&a.links[1]).remove(0).1;
        for kind in ["App", "Data2", "GetRep"] {
            let (mut a, mut b) = pair(&lossless());
            match kind {
                "App" => a.write([(1, AppMessage { class: MsgClass::Data, body: &body })]).unwrap(),
                "Data2" => exchange(&mut a, 1, 1),
                _ => a.send(1, get_rep.clone()).unwrap(),
            }
            let first = b.endpoint.try_recv().unwrap().expect("the first transmission").payload;
            let inner = match kind {
                "App" => app.clone(),
                "Data2" => fused(&a),
                _ => get_rep.clone(),
            };
            let env = Frame::Env { seq: 0, ack: 0, inner };
            assert_eq!(first.bytes, sdso_net::wire::encode(&env), "{kind}");
            // Node 0 hears from node 1, so its next frame acks a sequence number.
            b.send(0, app.clone()).unwrap();
            poll(&mut a, &mut Vec::new());
            expire(&mut a);
            let again = b.endpoint.try_recv().unwrap().expect("the retransmission").payload;
            assert_eq!(a.counters.view().retransmits, 1, "{kind}");
            assert_eq!((again.class, again.wire_len()), (first.class, first.wire_len()), "{kind}");
            let (first, again) = (&first.bytes[..], &again.bytes[..]);
            assert_eq!(first.len(), again.len(), "{kind}");
            assert_eq!((&first[..9], &first[17..]), (&again[..9], &again[17..]), "{kind}");
            assert_eq!(
                (&first[9..17], &again[9..17]),
                (&[0; 8][..], &[1, 0, 0, 0, 0, 0, 0, 0][..])
            );
        }
    }

    /// A warm link reads the clock once per send and, for a receive that
    /// blocks, once before the wait and once after it: the envelope and the
    /// link share the send's reading, and the link's timers, the arrival and
    /// the wait share the receive's. Merging across a transport call would
    /// move the readings in virtual time.
    #[test]
    fn a_warm_link_reads_the_clock_once_per_send_and_twice_per_blocking_receive() {
        let config = DsoConfig::compact().with_reliability(Some(RETRY));
        let mut nodes: Vec<Session<Wound>> = wound::group(2)
            .into_iter()
            .map(|ep| {
                let obs = Obs::disabled();
                let counters = DsoCounters::in_registry(obs.registry());
                Session::new(ep, config, obs, counters)
            })
            .collect();
        let reads = |s: &Session<Wound>| s.endpoint.now_calls.get();
        for trip in 0..4u8 {
            for (from, to) in [(0, 1), (1, 0)] {
                let before = reads(&nodes[from]);
                nodes[from].send(to as NodeId, app(trip)).unwrap();
                assert_eq!(reads(&nodes[from]) - before, 1, "a send, trip {trip}");
                let before = reads(&nodes[to]);
                assert_eq!(nodes[to].recv(|_| true).unwrap(), (from as NodeId, app(trip)));
                assert_eq!(reads(&nodes[to]) - before, 2, "a receive, trip {trip}");
            }
        }
        let piggybacked: Vec<u64> =
            nodes.iter().map(|s| s.counters.view().acks_piggybacked).collect();
        assert_eq!(piggybacked, [3, 4], "every ack owed rode the next frame");
    }

    /// A compressed link has no handshake: its first rendezvous with data
    /// is one `Data2`, no offer ahead of it and no `Sync` behind it. The v1
    /// twin sends the paper's pair.
    #[test]
    fn a_compressed_links_first_rendezvous_is_one_data2_frame() {
        for wire in [WireConfig::compressed(), WireConfig::v1()] {
            let mut nodes = group_on(&[wire; 2], &lossless());
            let mut got = Vec::new();
            exchange(&mut nodes[0], 1, 1);
            let sent: Vec<DsoMessage> =
                kept(&nodes[0].links[1]).into_iter().map(|(_, m)| m).collect();
            let writes = &nodes[0].endpoint.inner().writes;
            if wire.codec_v2 {
                assert_eq!(writes, &[(1, 1)], "one write of one frame");
                assert!(matches!(sent[..], [DsoMessage::Data2 { sync: true, .. }]), "{sent:?}");
            } else {
                assert_eq!(writes, &[(1, 2)], "the pair in one write");
                assert!(sent.into_iter().eq(pair_of(0, Epoch(0), 1).map(|(_, msg)| msg)));
            }
            poll(&mut nodes[1], &mut got);
            assert_eq!(got, pair_of(0, Epoch(0), 1), "{wire:?}");
            let view = nodes[0].counters.view();
            let fused = u64::from(wire.codec_v2);
            assert_eq!((view.codec_v2_sent, view.rendezvous_fused), (fused, fused), "{wire:?}");
        }
    }

    /// Every node of a run shares its reliability setting: a sequenced
    /// frame or a standalone ack reaching a session without the layer, or a
    /// plain frame reaching one with it, is a typed error, not a message.
    #[test]
    fn a_frame_of_the_other_reliability_setting_is_a_protocol_violation() {
        let session = |ep: Wound, reliable: bool| {
            let retry = reliable.then_some(RETRY);
            let config = DsoConfig::compact().with_reliability(retry);
            let obs = Obs::disabled();
            let counters = DsoCounters::in_registry(obs.registry());
            Session::new(ep, config, obs, counters)
        };
        for (reliable, expected) in [(false, "sequenced frame"), (true, "plain frame")] {
            let mut eps = wound::group(2);
            let mut to = session(eps.pop().unwrap(), reliable);
            let mut from = session(eps.pop().unwrap(), !reliable);
            from.send(1, app(1)).unwrap();
            if !reliable {
                from.endpoint.send(1, Frame::ack_payload(0, None)).unwrap();
            }
            for _ in 0..1 + usize::from(!reliable) {
                match to.recv_now(|_| true) {
                    Err(DsoError::ProtocolViolation(why)) => {
                        assert!(why.contains(expected), "{why}")
                    }
                    other => panic!("reliable {reliable}: {other:?}"),
                }
            }
        }
    }

    /// A link keeps its buffer's capacity across acks, so a warm link
    /// allocates nothing; once a burst beyond [`KEPT_SPARE`] (a snapshot)
    /// is acknowledged, it holds on to no more than the spare.
    #[test]
    fn an_acknowledged_burst_leaves_no_more_than_the_spare() {
        let (mut a, mut b) = pair(&lossless());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        a.send(1, app(1)).unwrap();
        pump(&mut a, &mut b, &mut got_a, &mut got_b);
        let warm = a.links[1].kept.capacity();
        assert!(warm > 0 && warm <= KEPT_SPARE, "{warm}");
        a.send(1, app(2)).unwrap();
        pump(&mut a, &mut b, &mut got_a, &mut got_b);
        assert_eq!(a.links[1].kept.capacity(), warm, "a warm link keeps its buffer");
        let version = Version::new(LogicalTime::from_ticks(1), 0);
        let body = vec![3; 2 * KEPT_SPARE];
        a.send(1, DsoMessage::GetRep { object: OBJECT, version, body }).unwrap();
        assert!(a.links[1].kept.capacity() > 2 * KEPT_SPARE);
        pump(&mut a, &mut b, &mut got_a, &mut got_b);
        assert_eq!(got_b.len(), 3, "everything arrived");
        assert!(a.links[1].kept.capacity() <= KEPT_SPARE, "{}", a.links[1].kept.capacity());
    }

    #[test]
    fn a_fused_frame_is_one_frame_and_delivers_data_then_sync() {
        let (mut a, mut b) = pair(&lossless());
        let mut got_b = Vec::new();
        let sent = a.links[1].tx_seq;
        exchange(&mut a, 1, 2);
        assert_eq!((a.links[1].tx_seq, a.links[1].unacked.len()), (sent + 1, 1));
        let (seq, frame) = kept(&a.links[1]).remove(0);
        assert!(matches!(frame, DsoMessage::Data2 { sync: true, .. }), "seq {seq}: {frame:?}");
        assert_eq!(frame.class(), MsgClass::Data);
        assert_eq!(a.counters.view().rendezvous_fused, 1);
        poll(&mut b, &mut got_b);
        assert_eq!(got_b, pair_of(0, Epoch(0), 2));
        // Retransmitted unacknowledged, the duplicate yields no second SYNC.
        let before = (a.counters.view().retransmits, b.counters.view().duplicates_dropped);
        expire(&mut a);
        poll(&mut b, &mut got_b);
        let after = (a.counters.view().retransmits, b.counters.view().duplicates_dropped);
        assert_eq!(after, (before.0 + 1, before.1 + 1));
        assert_eq!(got_b, pair_of(0, Epoch(0), 2));
    }

    #[test]
    fn a_fused_frame_keeps_its_place_in_a_gap_filled_chain() {
        let (mut a, mut b) = pair(&lossless());
        let mut got_b = Vec::new();
        // The frame ahead of the fused one is lost; it and its successor wait
        // out of order until the retransmission fills the gap.
        a.send(1, app(1)).unwrap();
        drop(b.endpoint.try_recv().unwrap().expect("the frame to lose"));
        exchange(&mut a, 1, 2);
        a.send(1, app(3)).unwrap();
        poll(&mut b, &mut got_b);
        assert!(got_b.is_empty() && b.links[0].ooo.len() == 2);
        expire(&mut a);
        poll(&mut b, &mut got_b);
        let [data, sync] = pair_of(0, Epoch(0), 2);
        assert_eq!(got_b, [(0, app(1)), data, sync, (0, app(3))]);
    }

    #[test]
    fn the_settles_queue_a_fused_frames_sync_directly_behind_its_data() {
        let (mut a, mut b) = pair(&lossless());
        let [data, sync] = pair_of(1, Epoch(0), 2);
        // Node 0 settles while it holds an unacknowledged frame; node 1's
        // traffic, sent before that frame reached it, acknowledges nothing.
        b.send(0, app(7)).unwrap();
        exchange(&mut b, 0, 2);
        a.send(1, app(1)).unwrap();
        assert_eq!(a.settle_recv().unwrap(), None, "a frame arrived: not settled yet");
        assert_eq!(a.settle_recv().unwrap(), None);
        let queued: Vec<Delivery> = std::iter::from_fn(|| a.take(|_| true)).collect();
        assert_eq!(queued, [(1, app(7)), data.clone(), sync.clone()]);
        // The same through the per-link drain, which node 1 never answers.
        b.send(0, app(8)).unwrap();
        let [data3, sync3] = pair_of(1, Epoch(0), 3);
        exchange(&mut b, 0, 3);
        a.settle_link(1).unwrap();
        assert_eq!(a.links[1].expiries, RETRY.max_retries, "node 1 was given up on");
        let queued: Vec<Delivery> = std::iter::from_fn(|| a.take(|_| true)).collect();
        assert_eq!(queued, [(1, app(8)), data3, sync3]);
    }

    #[test]
    fn fallback_and_empty_batches_keep_their_v1_frames() {
        let (mut a, mut b) = pair(&lossless());
        let mut got_b = Vec::new();
        let time = LogicalTime::from_ticks(2);
        let sent = a.links[1].tx_seq;
        // Nothing to report: the SYNC travels alone.
        a.send_rendezvous(1, time, &mut Vec::new(), (&[], &[])).unwrap();
        assert_eq!(a.links[1].tx_seq, sent + 1);
        poll(&mut b, &mut got_b);
        let epoch = Epoch(0);
        assert_eq!(got_b, [(0, DsoMessage::Sync { epoch, time })]);
        // A run past the decoder's budget: the data goes as a plain `Data`,
        // which a `Sync` follows, as on the v1 wire. Zeroed pages: the run
        // is never touched, so it costs no memory.
        let run = vec![0; codec::MAX_RUN_LEN as usize + 1];
        let mut oversized =
            vec![WireUpdate { diff: Diff::single(0, run), ..batch(0, 2).remove(0) }];
        let data = a.encode_data(epoch, time, &mut oversized, (&[], &[]));
        let DsoMessage::Data { updates, .. } = data else { panic!("{:?}", data.class()) };
        assert_eq!(updates[0].diff.byte_count(), codec::MAX_RUN_LEN as usize + 1);
        let view = a.counters.view();
        assert_eq!((view.codec_v2_fallbacks, view.codec_v2_sent, view.rendezvous_fused), (1, 0, 0));
    }
}
