//! Event-driven reactor transport: one poll loop for every peer, run on the
//! endpoint owner's thread. It is the workspace's one real-socket
//! transport, on every unix.
//!
//! `ReactorMesh` connects every link once, at setup, and multiplexes *all*
//! connections of one endpoint onto a single poll loop built on a
//! hand-rolled POSIX `poll(2)` table ([`crate::sys`]). The loop runs inside
//! the endpoint's own calls, so a message crosses no thread hand-off
//! between socket and application and a process is not capped at a few
//! hundred peers by a thread per connection. Readiness-driven reads decode
//! frames incrementally out of a flat buffer ([`decode_frame_at`]) into an
//! inbox; `send` and `send_batch` encode into one pooled write buffer and
//! `write` at once.
//!
//! # Torn links
//!
//! A link is never re-dialled: when it tears (EOF, a reset, a corrupt
//! frame, or a frame naming a sender other than the connection's peer),
//! the peer is gone, as in the crash-stop model. The endpoint queues one
//! [`PeerEvent::Down`] for the membership layer and releases what was
//! queued for the peer, and every later send to it fails with
//! [`NetError::Disconnected`] — from either side of the pair — unless the
//! peer was removed from the group, when sends to it are dropped silently.
//! A send whose own write finds the peer's end gone fails the same way,
//! and is not counted as sent.
//! A blocking `recv` with no live link left returns what is still queued,
//! then `Disconnected`.
//!
//! # Progress
//!
//! A link makes progress while its owner is inside an endpoint call, not
//! while the owner computes. Every receive (`recv`, `recv_deadline`,
//! `try_recv`) and `take_peer_events` runs poll turns, which read and
//! finish partial writes; every `send` writes what the socket takes right
//! away. Every caller in the tree blocks in a receive after it sends, which
//! is all this asks. An endpoint starts no thread.
//!
//! A receive that has to wait spins on non-blocking turns for a few tens of
//! microseconds before it parks in `poll`, so a prompt reply does not pay
//! for waking a parked thread; a wait that no message ends inside the
//! window (a long wait or a timeout) turns the spin off until one does
//! again. The flag sees only this endpoint's own waits, not what else
//! wants the CPU: a spinner whose replies come back promptly keeps
//! spinning on a CPU it shares with other threads.
//!
//! A non-blocking turn (a spin's, `try_recv`'s, `take_peer_events`') on an
//! endpoint with exactly one live link reads that link and finishes any
//! write pending on it, without asking `poll`: the non-blocking `read` is
//! its own readiness test. Every other turn polls — one that may park,
//! and any turn on an endpoint with several live links. The live-link
//! count chooses; no option does.
//!
//! Topologies: [`ReactorMesh::local`] builds a full mesh and
//! [`ReactorMesh::star`] a hub-and-spokes cluster (node 0 connected to every
//! other node — the shape the 256-peer soak and its timed twin use), both in
//! one process, each link a Unix-domain stream pair ([`stream_pair`]): a
//! frame skips the TCP/IP stack, and nothing here connects across hosts.
//!
//! Sends are asynchronous: what the socket does not take is queued and a
//! later turn drains it. A peer that stops draining accumulates queued
//! bytes until the per-peer budget (32 MiB) is hit, at which point `send`
//! fails with [`NetError::Backpressure`] instead of growing without bound.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use bytes::BytesMut;
use sdso_obs::{EventKind, MonoClock, Recorder};

use crate::endpoint::{check_peer, Endpoint, NodeId, PeerEvent};
use crate::error::NetError;
use crate::frame::{append_frame, decode_frame_at};
use crate::message::{Incoming, MsgClass, Payload};
use crate::metrics::{obs_class, NetMetrics, NetMetricsSnapshot};
use crate::sys::{stream_pair, Interest, Poller, Ready};
use crate::time::{SimInstant, SimSpan};

/// Per-`read` syscall chunk size.
const READ_CHUNK: usize = 64 * 1024;
/// Bytes of queued payloads coalesced into one write buffer per refill.
const WRITE_COALESCE_BUDGET: usize = 256 * 1024;
/// How long a receive keeps running non-blocking turns before it parks in
/// `poll`. A parked thread woken on an idle CPU costs about half a socket
/// round trip; a reply that lands inside this window skips that wake-up.
const SPIN_MICROS: u64 = 50;
/// Per-peer cap on queued (accepted but unwritten) payload bytes; sends
/// beyond it fail with [`NetError::Backpressure`].
const MAX_QUEUED_BYTES: usize = 32 * 1024 * 1024;

/// One live connection inside the reactor.
struct Conn {
    stream: UnixStream,
    /// Flat inbound buffer; frames are decoded out of it incrementally.
    rbuf: Vec<u8>,
    /// Encoded outbound bytes in flight (pooled).
    wbuf: BytesMut,
    /// Bytes of `wbuf` already written to the socket.
    woff: usize,
    /// Whether the poll registration currently includes write interest.
    want_write: bool,
}

impl Conn {
    fn new(stream: UnixStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: crate::pool::thread_pool(crate::pool::BufPool::get).unwrap_or_default(),
            woff: 0,
            want_write: false,
        }
    }
}

/// Constructors for reactor-driven clusters in one process.
#[derive(Debug)]
pub struct ReactorMesh;

impl ReactorMesh {
    /// Builds an `n`-node full mesh, one poll loop per endpoint. Every link
    /// is connected here, once.
    ///
    /// # Errors
    ///
    /// Propagates socket setup errors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `NodeId::MAX - 1`.
    pub fn local(n: usize) -> Result<Vec<ReactorEndpoint>, NetError> {
        assert!(n > 0, "cluster must have at least one node");
        Self::wire(n, (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect())
    }

    /// Builds an `n`-node hub-and-spokes cluster in this process: node 0
    /// (the hub) is linked to every spoke, spokes only to the hub. `n - 1`
    /// links total instead of `n·(n-1)/2`, which is what makes 256+ peers
    /// practical on one machine.
    ///
    /// Sends between two spokes fail with [`NetError::Disconnected`]; route
    /// through the hub at the protocol layer instead.
    ///
    /// # Errors
    ///
    /// Propagates socket setup errors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is less than two or exceeds `NodeId::MAX - 1`.
    pub fn star(n: usize) -> Result<Vec<ReactorEndpoint>, NetError> {
        assert!(n >= 2, "a star needs a hub and at least one spoke");
        Self::wire(n, (1..n).map(|spoke| (0, spoke)).collect())
    }

    /// `n` endpoints with one [`stream_pair`] per link `(i, j)`. Both ends
    /// of every link live in this process — ~66k descriptors for a full
    /// mesh of 256, far past the usual soft limit, which is raised first.
    fn wire(n: usize, links: Vec<(usize, usize)>) -> Result<Vec<ReactorEndpoint>, NetError> {
        assert!(n < usize::from(NodeId::MAX), "cluster too large");
        crate::sys::raise_nofile_limit(2 * links.len() as u64 + 64);
        let mut rows: Vec<Vec<Option<UnixStream>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (i, j) in links {
            let (a, b) = stream_pair()?;
            rows[i][j] = Some(a);
            rows[j][i] = Some(b);
        }
        rows.into_iter()
            .enumerate()
            .map(|(id, peers)| ReactorEndpoint::spawn(id as NodeId, peers))
            .collect()
    }
}

/// One node's endpoint over the reactor transport.
///
/// The poll loop runs inside this endpoint's calls, on its owner's thread:
/// links make progress while the owner sends, receives or drains peer
/// events, not while it computes (see the module docs). Dropping it flushes
/// what is queued (bounded) and closes every socket.
pub struct ReactorEndpoint {
    reactor: Reactor,
    recorder: Recorder,
    /// The class and modelled size of each payload of the batch being
    /// sent, counted once the reactor has taken them; reused across
    /// batches.
    batch: Vec<(MsgClass, u32)>,
}

impl std::fmt::Debug for ReactorEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorEndpoint")
            .field("id", &self.reactor.me)
            .field("num_nodes", &self.reactor.n)
            .finish_non_exhaustive()
    }
}

impl ReactorEndpoint {
    /// Node `id`'s endpoint over its connected `peers`, indexed by node id
    /// (`None`: no link to that node, and never one).
    #[expect(
        clippy::disallowed_methods,
        reason = "setup: every socket turns non-blocking before the first turn"
    )]
    fn spawn(id: NodeId, peers: Vec<Option<UnixStream>>) -> Result<ReactorEndpoint, NetError> {
        let n = peers.len();
        let mut poller = Poller::new();
        let mut conns: Vec<Option<Conn>> = Vec::with_capacity(n);
        for (peer, stream) in peers.into_iter().enumerate() {
            if let Some(s) = &stream {
                s.set_nonblocking(true)?;
                poller.add(s, peer as u64, Interest::READ)?;
            }
            conns.push(stream.map(Conn::new));
        }
        let lone = lone_link(&conns);
        let reactor = Reactor {
            me: id,
            n,
            poller,
            conns,
            lone,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            queued: vec![0; n],
            active: vec![true; n],
            clock: MonoClock::new(),
            inbox: VecDeque::new(),
            peer_events: Vec::new(),
            events: Vec::new(),
            chunk: vec![0; READ_CHUNK].into_boxed_slice(),
            spin: true,
            metrics: NetMetrics::new(),
        };
        Ok(ReactorEndpoint { reactor, recorder: Recorder::disabled(), batch: Vec::new() })
    }

    /// Records one event on the attached recorder, reading the clock only
    /// when the recorder is on.
    fn record(&self, kind: EventKind, a: u32, b: u32, c: u32) {
        if self.recorder.enabled() {
            self.recorder.record(self.reactor.clock.micros(), kind, a, b, c);
        }
    }

    fn note_send(&self, to: NodeId, class: MsgClass, wire_len: u32) {
        self.reactor.metrics.record_send(class, wire_len);
        self.record(EventKind::Send, u32::from(to), obs_class(class), wire_len);
    }

    fn note_recv(&self, msg: &Incoming) {
        self.reactor.metrics.record_recv(msg.payload.class, msg.payload.wire_len());
        let class = obs_class(msg.payload.class);
        self.record(EventKind::Recv, u32::from(msg.from), class, msg.payload.wire_len());
    }
}

impl Endpoint for ReactorEndpoint {
    fn node_id(&self) -> NodeId {
        self.reactor.me
    }

    fn num_nodes(&self) -> usize {
        self.reactor.n
    }

    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
        if !self.reactor.admit(to, payload.bytes.len())? {
            return Ok(());
        }
        let (class, wire_len) = (payload.class, payload.wire_len());
        self.reactor.enqueue(usize::from(to), std::iter::once(payload))?;
        self.note_send(to, class, wire_len);
        Ok(())
    }

    fn send_batch(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        if payloads.is_empty() {
            return Ok(());
        }
        let total: usize = payloads.iter().map(|p| p.bytes.len()).sum();
        if !self.reactor.admit(to, total)? {
            return Ok(());
        }
        self.batch.clear();
        self.batch.extend(payloads.iter().map(|p| (p.class, p.wire_len())));
        self.reactor.enqueue(usize::from(to), payloads)?;
        for &(class, wire_len) in &self.batch {
            self.note_send(to, class, wire_len);
        }
        let wire_bytes: u64 = self.batch.iter().map(|&(_, len)| u64::from(len)).sum();
        self.reactor.metrics.record_batch(self.batch.len(), wire_bytes);
        let count = self.batch.len() as u32;
        self.record(EventKind::BatchSend, u32::from(to), count, wire_bytes as u32);
        Ok(())
    }

    fn recv(&mut self) -> Result<Incoming, NetError> {
        let before = self.reactor.clock.micros();
        let (msg, after) = self.reactor.next_incoming(before, None)?;
        let msg = msg.ok_or(NetError::Disconnected)?;
        self.reactor.metrics.record_blocked(SimSpan::from_micros(after - before));
        self.note_recv(&msg);
        Ok(msg)
    }

    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        let now = self.reactor.clock.micros();
        let (msg, _) = self.reactor.next_incoming(now, Some(now))?;
        if let Some(msg) = &msg {
            self.note_recv(msg);
        }
        Ok(msg)
    }

    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        let before = self.reactor.clock.micros();
        let deadline = before.saturating_add(timeout.as_micros());
        let (msg, after) = self.reactor.next_incoming(before, Some(deadline))?;
        self.reactor.metrics.record_blocked(SimSpan::from_micros(after - before));
        if let Some(msg) = &msg {
            self.note_recv(msg);
        }
        Ok(msg)
    }

    fn advance(&mut self, _dt: SimSpan) {
        // Real computation already consumed wall time.
    }

    fn now(&self) -> SimInstant {
        SimInstant::from_micros(self.reactor.clock.micros())
    }

    fn metrics(&self) -> NetMetricsSnapshot {
        self.reactor.metrics.snapshot()
    }

    fn metrics_delta(&mut self) -> NetMetricsSnapshot {
        self.reactor.metrics.snapshot_delta()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    fn remove_peer(&mut self, peer: NodeId) {
        if let Some(active) = self.reactor.active.get_mut(usize::from(peer)) {
            *active = false;
        }
    }

    fn add_peer(&mut self, peer: NodeId) {
        if let Some(active) = self.reactor.active.get_mut(usize::from(peer)) {
            *active = true;
        }
    }

    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        // A poll failure resurfaces on the next receive, which returns it.
        let _ = self.reactor.turn(Some(Duration::ZERO));
        let events = std::mem::take(&mut self.reactor.peer_events);
        for &PeerEvent::Down(peer) in &events {
            self.record(EventKind::PeerDown, u32::from(peer), 0, 0);
        }
        events
    }
}

impl Drop for ReactorEndpoint {
    fn drop(&mut self) {
        self.reactor.shutdown();
    }
}

/// The poll loop owning every socket of one endpoint. Only the endpoint's
/// owner touches it, from inside its endpoint calls.
struct Reactor {
    me: NodeId,
    n: usize,
    poller: Poller,
    /// Live connections; `Some` exactly while the link is up. A link that
    /// tears stays `None` for good.
    conns: Vec<Option<Conn>>,
    /// The peer of the one live link, while exactly one is left.
    lone: Option<usize>,
    /// Per-peer payloads accepted but not yet encoded.
    queues: Vec<VecDeque<Payload>>,
    /// Accepted-but-unwritten payload bytes per peer (backpressure gauge).
    queued: Vec<usize>,
    /// Membership: sends to inactive peers are dropped silently.
    active: Vec<bool>,
    clock: MonoClock,
    /// Decoded messages (and fatal decode errors, in order) not yet handed
    /// to the application.
    inbox: VecDeque<Result<Incoming, NetError>>,
    /// Link events queued for [`Endpoint::take_peer_events`].
    peer_events: Vec<PeerEvent>,
    /// Readiness scratch, cleared by every turn.
    events: Vec<Ready>,
    /// Read scratch shared by every connection, allocated once.
    chunk: Box<[u8]>,
    /// Whether the next wait spins before it parks: set by a wait that a
    /// message ended inside [`SPIN_MICROS`], cleared by any other wait.
    spin: bool,
    metrics: NetMetrics,
}

impl Reactor {
    /// One turn: waits for readiness no longer than `timeout` (`None`: no
    /// bound), then serves it. Runs inside every endpoint call, on the
    /// owner's thread, so the only place it may block is `poll`. A turn that
    /// may not wait, on an endpoint with one live link, asks no `poll`: it
    /// reads that link, whose `read` is its own readiness test, and finishes
    /// any write pending on it.
    fn turn(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        if let (Some(peer), Some(Duration::ZERO)) = (self.lone, timeout) {
            self.conn_readable(peer);
            let pending = |c: &Conn| c.woff < c.wbuf.len();
            if self.conns[peer].as_ref().is_some_and(pending) || !self.queues[peer].is_empty() {
                self.drain_writes(peer);
            }
            return Ok(());
        }
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let polled = self.poller.wait(&mut events, timeout);
        for ev in &events {
            let peer = ev.token as usize;
            if ev.readable {
                self.conn_readable(peer);
            }
            if ev.error {
                self.teardown(peer);
            } else if ev.writable {
                self.drain_writes(peer);
            }
        }
        self.events = events;
        polled?;
        Ok(())
    }

    /// Turns until the inbox has a message or `deadline` (µs on the
    /// reactor's clock) has passed — and at least once, so a deadline
    /// already due still polls without blocking. With no deadline (`None`)
    /// it also stops once no live link is left, returning `None`: nothing
    /// can arrive any more. `start` is the clock's reading at the call, and
    /// the reading it returns beside the message is the wait's end, so a
    /// caller that times the wait reads the clock no further.
    ///
    /// A wait (empty inbox, deadline not yet due) spins for up to
    /// [`SPIN_MICROS`], never past `deadline`, before it parks in `poll`,
    /// unless the previous wait did not end with a message inside the
    /// window: only a message that lands within [`SPIN_MICROS`] makes the
    /// next wait spin, so a timeout, however short, parks the next one. A
    /// deadline already due (`try_recv`) neither spins nor moves the flag.
    fn next_incoming(
        &mut self,
        start: u64,
        deadline: Option<u64>,
    ) -> Result<(Option<Incoming>, u64), NetError> {
        if let Some(msg) = self.inbox.pop_front() {
            return msg.map(|msg| (Some(msg), start));
        }
        if deadline.is_some_and(|at| at <= start) {
            self.turn(Some(Duration::ZERO))?;
            return self.inbox.pop_front().transpose().map(|msg| (msg, start));
        }
        let mut polled = self.spin;
        let mut now = start;
        if self.spin {
            let window = start + SPIN_MICROS;
            now = self.spin_until(deadline.map_or(window, |at| at.min(window)))?;
        }
        loop {
            let left = deadline.map(|at| at.saturating_sub(now));
            if !self.inbox.is_empty() || (polled && left == Some(0)) {
                self.spin = !self.inbox.is_empty() && now - start < SPIN_MICROS;
                return self.inbox.pop_front().transpose().map(|msg| (msg, now));
            }
            if deadline.is_none() && self.conns.iter().all(Option::is_none) {
                return Ok((None, now));
            }
            self.turn(left.map(Duration::from_micros))?;
            polled = true;
            now = self.clock.micros();
        }
    }

    /// Runs non-blocking turns, yielding the CPU between them, until the
    /// inbox has a message or the reactor's clock reaches `until`; at least
    /// one turn. Returns the clock's last reading.
    fn spin_until(&mut self, until: u64) -> Result<u64, NetError> {
        loop {
            self.turn(Some(Duration::ZERO))?;
            let now = self.clock.micros();
            if !self.inbox.is_empty() || now >= until {
                return Ok(now);
            }
            std::thread::yield_now();
        }
    }

    /// Validates a send to `to` against topology, membership, liveness, and
    /// the backpressure budget. `Ok(true)` means "enqueue it", `Ok(false)`
    /// means "drop silently" (removed peer).
    fn admit(&mut self, to: NodeId, bytes: usize) -> Result<bool, NetError> {
        check_peer(self.me, to, self.n)?;
        let p = usize::from(to);
        if !self.active[p] {
            return Ok(false);
        }
        if self.conns[p].is_none() {
            return Err(NetError::Disconnected);
        }
        let queued = self.queued[p];
        if queued + bytes > MAX_QUEUED_BYTES {
            return Err(NetError::Backpressure { peer: to, queued, limit: MAX_QUEUED_BYTES });
        }
        self.queued[p] += bytes;
        Ok(true)
    }

    /// Queues admitted `payloads` for `peer` and writes what the socket
    /// takes now; a partial write arms write interest for a later turn.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if that write tore the link down (the
    /// peer's end is gone): the payloads went with it.
    fn enqueue(
        &mut self,
        peer: usize,
        payloads: impl IntoIterator<Item = Payload>,
    ) -> Result<(), NetError> {
        self.queues[peer].extend(payloads);
        self.drain_writes(peer);
        match self.conns[peer] {
            Some(_) => Ok(()),
            None => Err(NetError::Disconnected),
        }
    }

    /// Tears the link to `peer` down for good: deregister, close, release
    /// what was queued for it, and surface one [`PeerEvent::Down`].
    fn teardown(&mut self, peer: usize) {
        let Some(conn) = self.conns[peer].take() else { return };
        self.poller.delete(&conn.stream);
        crate::pool::thread_pool(|pool| pool.put(conn.wbuf));
        for payload in self.queues[peer].drain(..) {
            crate::pool::thread_pool(|pool| pool.reclaim(payload.bytes));
        }
        self.queued[peer] = 0;
        self.peer_events.push(PeerEvent::Down(peer as NodeId));
        self.lone = lone_link(&self.conns);
    }

    /// Coalesces queued payloads into the connection's pooled write buffer
    /// and writes until the socket blocks, adjusting the poll write interest to
    /// match whether anything is left.
    fn drain_writes(&mut self, peer: usize) {
        let Some(mut conn) = self.conns[peer].take() else { return };
        let result =
            fill_and_write(&mut conn, self.me, &mut self.queues[peer], &mut self.queued[peer]);
        match result {
            Ok(()) => {
                let want = conn.woff < conn.wbuf.len() || !self.queues[peer].is_empty();
                if want != conn.want_write {
                    let interest = if want { Interest::READ_WRITE } else { Interest::READ };
                    if self.poller.modify(&conn.stream, peer as u64, interest).is_ok() {
                        conn.want_write = want;
                    }
                }
                self.conns[peer] = Some(conn);
            }
            Err(_) => {
                self.conns[peer] = Some(conn);
                self.teardown(peer);
            }
        }
    }

    /// Reads until the socket blocks, decoding complete frames out of the
    /// flat inbound buffer into the inbox. EOF, connection resets and a
    /// frame that fails to decode — or names a sender other than `peer` —
    /// tear the link down; a partial frame left in the buffer at that point
    /// is discarded — its sender never completed it.
    fn conn_readable(&mut self, peer: usize) {
        let Some(mut conn) = self.conns[peer].take() else { return };
        let mut torn = false;
        'reads: loop {
            match conn.stream.read(&mut self.chunk) {
                Ok(0) => {
                    torn = true;
                    break;
                }
                Ok(got) => {
                    conn.rbuf.extend_from_slice(&self.chunk[..got]);
                    let mut pos = 0usize;
                    loop {
                        match decode_frame_from(peer, &conn.rbuf, &mut pos) {
                            Ok(Some(inc)) => self.inbox.push_back(Ok(inc)),
                            Ok(None) => break,
                            Err(e) => {
                                self.inbox.push_back(Err(e));
                                torn = true;
                                break 'reads;
                            }
                        }
                    }
                    if pos > 0 {
                        conn.rbuf.drain(..pos);
                    }
                    // A short read means the socket buffer is empty right
                    // now; skip the would-be EAGAIN syscall. The poller is
                    // level-triggered, so anything that lands later is
                    // re-reported.
                    if got < self.chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::BrokenPipe
                    ) =>
                {
                    torn = true;
                    break;
                }
                Err(e) => {
                    self.inbox.push_back(Err(NetError::Io(e)));
                    torn = true;
                    break;
                }
            }
        }
        self.conns[peer] = Some(conn);
        if torn {
            self.teardown(peer);
        }
    }

    /// Flushes what is queued and closes every socket. Runs once, from the
    /// endpoint's `Drop` — never inside a turn.
    #[expect(
        clippy::disallowed_methods,
        reason = "runs only from `Drop`: a bounded blocking flush after the last turn"
    )]
    fn shutdown(&mut self) {
        for peer in 0..self.n {
            let Some(mut conn) = self.conns[peer].take() else { continue };
            // Best-effort final flush: a node that sends and then drops its
            // endpoint must not strand its last frames. A short send timeout
            // bounds the wait on a stalled peer (the timeout surfaces as
            // `WouldBlock`, which `fill_and_write` treats as "done for now").
            if (conn.woff < conn.wbuf.len() || !self.queues[peer].is_empty())
                && conn.stream.set_nonblocking(false).is_ok()
            {
                let _ = conn.stream.set_write_timeout(Some(Duration::from_millis(250)));
                let _ = fill_and_write(
                    &mut conn,
                    self.me,
                    &mut self.queues[peer],
                    &mut self.queued[peer],
                );
            }
            self.poller.delete(&conn.stream);
            crate::pool::thread_pool(|pool| pool.put(conn.wbuf));
        }
    }
}

/// The peer of the one live link in `conns`, if exactly one is live.
fn lone_link(conns: &[Option<Conn>]) -> Option<usize> {
    let mut live = conns.iter().enumerate().filter(|(_, c)| c.is_some()).map(|(peer, _)| peer);
    live.next().filter(|_| live.next().is_none())
}

/// Decodes the next frame on `peer`'s connection. The connection is the
/// only authority on who sent it: a frame whose header names another sender
/// is as corrupt as one with a bad length.
fn decode_frame_from(
    peer: usize,
    buf: &[u8],
    pos: &mut usize,
) -> Result<Option<Incoming>, NetError> {
    match decode_frame_at(buf, pos)? {
        Some(inc) if usize::from(inc.from) != peer => Err(wrong_sender(inc.from, peer)),
        frame => Ok(frame),
    }
}

/// The error for a frame naming a sender other than its connection's peer,
/// out of line like the frame decoder's own (the `format!` lives here).
#[cold]
fn wrong_sender(from: NodeId, peer: usize) -> NetError {
    NetError::Codec(format!("frame names sender {from} on the link to node {peer}"))
}

/// Encodes queued payloads into `conn.wbuf` as frames from `me` (batch
/// coalescing) and writes until the socket blocks or everything is flushed,
/// releasing each encoded payload's bytes from `queued`. A free function so
/// the reactor can split-borrow its connection and queue tables.
fn fill_and_write(
    conn: &mut Conn,
    me: NodeId,
    queue: &mut VecDeque<Payload>,
    queued: &mut usize,
) -> Result<(), std::io::Error> {
    loop {
        if conn.woff == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.woff = 0;
            while conn.wbuf.len() < WRITE_COALESCE_BUDGET {
                let Some(payload) = queue.pop_front() else { break };
                *queued -= payload.bytes.len();
                append_frame(&mut conn.wbuf, me, &payload);
                crate::pool::thread_pool(|pool| pool.reclaim(payload.bytes));
            }
            if conn.wbuf.is_empty() {
                return Ok(());
            }
        }
        match conn.stream.write(&conn.wbuf[conn.woff..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.woff += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};
    use std::time::Instant;

    /// Held by the tests that time themselves and by those that move bulk
    /// payloads: a timing taken beside a bulk transfer measures its load.
    static TIMING: Mutex<()> = Mutex::new(());

    fn timing_alone() -> MutexGuard<'static, ()> {
        crate::unpoisoned(TIMING.lock())
    }

    #[test]
    fn local_mesh_ping_pong() {
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, Payload::data(b"ping".as_ref())).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.from, 0);
        assert_eq!(&got.payload.bytes[..], b"ping");
        b.send(0, Payload::control(b"pong".as_ref())).unwrap();
        assert_eq!(&a.recv().unwrap().payload.bytes[..], b"pong");
    }

    /// Regression: a node that sends and then drops its endpoint must not
    /// strand its final frames — `drop` flushes whatever the socket has not
    /// taken yet before it closes. Looped because the original bug was a
    /// per-wakeup batching race.
    #[test]
    fn frames_sent_just_before_drop_still_arrive() {
        for _ in 0..20 {
            let mut eps = ReactorMesh::local(2).unwrap();
            let mut b = eps.pop().unwrap();
            let mut a = eps.pop().unwrap();
            for i in 0..8u32 {
                a.send(1, Payload::control(i.to_le_bytes().as_ref())).unwrap();
            }
            drop(a);
            for i in 0..8u32 {
                let got = b
                    .recv_deadline(SimSpan::from_millis(2_000))
                    .unwrap()
                    .expect("frame stranded by shutdown");
                assert_eq!(&got.payload.bytes[..], &i.to_le_bytes()[..]);
            }
        }
    }

    #[test]
    fn four_node_broadcast_across_threads() {
        let eps = ReactorMesh::local(4).unwrap();
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                std::thread::spawn(move || {
                    ep.broadcast(&Payload::control(vec![ep.node_id() as u8])).unwrap();
                    let mut seen = Vec::new();
                    for _ in 0..3 {
                        seen.push(ep.recv().unwrap().from);
                    }
                    seen.sort_unstable();
                    let expected: Vec<NodeId> = (0..4).filter(|&i| i != ep.node_id()).collect();
                    assert_eq!(seen, expected);
                    ep.metrics()
                })
            })
            .collect();
        for h in handles {
            let m = h.join().unwrap();
            assert_eq!(m.total_sent(), 3);
            assert_eq!(m.total_recv(), 3);
        }
    }

    #[test]
    fn send_batch_flushes_in_order_over_one_connection() {
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send_batch(
            1,
            vec![
                Payload::data(b"one".as_ref()),
                Payload::control(b"two".as_ref()),
                Payload::data(b"three".as_ref()),
            ],
        )
        .unwrap();
        for expect in [b"one".as_ref(), b"two".as_ref(), b"three".as_ref()] {
            let got = b.recv().unwrap();
            assert_eq!(got.from, 0);
            assert_eq!(&got.payload.bytes[..], expect);
        }
        assert_eq!(a.metrics().total_sent(), 3, "batch keeps per-message accounting");
    }

    #[test]
    fn wire_len_travels_in_frame_header() {
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, Payload::data(vec![0u8; 10]).with_wire_len(2048)).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.payload.wire_len(), 2048);
        assert_eq!(b.metrics().data_recv.bytes, 2048);
    }

    #[test]
    fn star_routes_hub_to_spokes_and_rejects_spoke_to_spoke() {
        let mut eps = ReactorMesh::star(4).unwrap();
        let mut s3 = eps.pop().unwrap();
        let mut s2 = eps.pop().unwrap();
        let mut s1 = eps.pop().unwrap();
        let mut hub = eps.pop().unwrap();
        for spoke in [&mut s1, &mut s2, &mut s3] {
            spoke.send(0, Payload::data(vec![spoke.node_id() as u8])).unwrap();
        }
        let mut from = Vec::new();
        for _ in 0..3 {
            from.push(hub.recv().unwrap().from);
        }
        from.sort_unstable();
        assert_eq!(from, vec![1, 2, 3]);
        hub.send(2, Payload::control(b"hi".as_ref())).unwrap();
        assert_eq!(&s2.recv().unwrap().payload.bytes[..], b"hi");
        // No spoke-to-spoke link exists.
        assert!(matches!(s1.send(2, Payload::data(vec![0])), Err(NetError::Disconnected)));
    }

    /// Node 0 of an endpoint whose link to node 1 is a plain socket: the
    /// test writes node 1's side of the wire by hand. With `idle_link` node
    /// 0 also has a link to node 2 that nothing crosses, so its turns that
    /// may not wait poll both links instead of reading node 1's alone; the
    /// idle link's far end is returned, to be kept open.
    fn endpoint_over_raw_socket(
        idle_link: bool,
    ) -> (ReactorEndpoint, UnixStream, Option<UnixStream>) {
        let (link, raw) = UnixStream::pair().unwrap();
        let (idle, far) = match idle_link {
            true => UnixStream::pair().map(|(a, b)| (Some(a), Some(b))).unwrap(),
            false => (None, None),
        };
        let a = ReactorEndpoint::spawn(0, vec![None, Some(link), idle]).unwrap();
        assert_eq!(a.reactor.lone.is_some(), !idle_link, "the turn kind under test");
        (a, raw, far)
    }

    /// A mesh of two nodes, or with `idle_link` of three, node 2 an idle
    /// peer of both: the turns of nodes 0 and 1 then poll instead of reading
    /// their one link. Returns nodes 0 and 1, and node 2 to be kept alive.
    fn mesh_with(idle_link: bool) -> (ReactorEndpoint, ReactorEndpoint, Option<ReactorEndpoint>) {
        let mut eps = ReactorMesh::local(2 + usize::from(idle_link)).unwrap();
        let idle = if idle_link { eps.pop() } else { None };
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert_eq!(a.reactor.lone.is_some(), !idle_link, "the turn kind under test");
        (a, b, idle)
    }

    /// Each torn-link case runs on both turn kinds: the lone link's read
    /// and the poll of several links.
    const TURN_KINDS: [bool; 2] = [false, true];

    #[test]
    fn peer_socket_eof_mid_frame_surfaces_down_without_phantom_message() {
        for idle_link in TURN_KINDS {
            let (mut a, mut raw, _idle) = endpoint_over_raw_socket(idle_link);
            // A *partial* frame from node 1 (the length prefix says 20
            // bytes, only 5 arrive), then a hard close.
            let mut partial = Vec::new();
            partial.extend_from_slice(&20u32.to_le_bytes());
            partial.extend_from_slice(&[1, 0, 0, 9, 9]);
            raw.write_all(&partial).unwrap();
            raw.flush().unwrap();
            drop(raw);

            // The EOF mid-frame must surface as a link event, not as a
            // message and not as a reactor crash.
            let mut seen = Vec::new();
            for _ in 0..200 {
                seen.extend(a.take_peer_events());
                if !seen.is_empty() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(seen, vec![PeerEvent::Down(1)], "the torn link surfaces once");
            assert!(a.try_recv().unwrap().is_none(), "no phantom message from the partial frame");
            assert!(a.take_peer_events().is_empty(), "a torn link is Down for good, once");
        }
    }

    /// The connection, not the frame header, says who sent a frame: a frame
    /// on node 1's link that names node 7 is corrupt, and tears that link.
    #[test]
    fn a_frame_naming_another_sender_is_a_codec_error_and_tears_the_link() {
        for idle_link in TURN_KINDS {
            let (mut a, mut raw, _idle) = endpoint_over_raw_socket(idle_link);
            let mut forged = BytesMut::new();
            append_frame(&mut forged, 7, &Payload::data(b"forged".as_ref()));
            raw.write_all(&forged).unwrap();
            match a.recv_deadline(SimSpan::from_millis(2_000)) {
                Err(NetError::Codec(_)) => {}
                other => panic!("expected a codec error, got {other:?}"),
            }
            assert_eq!(a.take_peer_events(), vec![PeerEvent::Down(1)]);
            assert!(matches!(a.send(1, Payload::data(vec![0])), Err(NetError::Disconnected)));
        }
    }

    /// Node 0 took node 1's connection at setup. Once node 1 drops, node
    /// 0's first send to it fails with `Disconnected`, uncounted, and the
    /// next fails too: nothing brings the link back.
    #[test]
    fn accept_side_sends_fail_while_peer_is_down() {
        let mut eps = ReactorMesh::local(2).unwrap();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        drop(b);
        let sent = a.send(1, Payload::control(vec![0u8; 64]));
        assert!(matches!(sent, Err(NetError::Disconnected)), "{sent:?}");
        assert_eq!(a.metrics().total_sent(), 0, "a failed send is not counted");
        let again = a.send(1, Payload::control(vec![0u8; 64]));
        assert!(matches!(again, Err(NetError::Disconnected)), "{again:?}");
    }

    /// Once every link is torn nothing can arrive, so a blocking `recv`
    /// hands over what is still queued and then fails instead of parking
    /// for good. It runs on a thread of its own, so a `recv` that never
    /// returns fails the test at the watchdog instead of hanging it. The
    /// idle peer, when there is one, goes too: no link may be left.
    #[test]
    fn a_blocking_recv_with_no_live_link_left_returns_disconnected() {
        for idle_link in TURN_KINDS {
            let (mut a, mut b, idle) = mesh_with(idle_link);
            b.send(0, Payload::data(b"last".as_ref())).unwrap();
            drop((b, idle));
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let last = a.recv().map(|msg| msg.payload.bytes);
                let after = a.recv().map(|msg| msg.payload.bytes);
                let _ = tx.send((last, after));
            });
            let (last, after) =
                rx.recv_timeout(Duration::from_secs(10)).expect("recv still blocked after 10 s");
            assert_eq!(&last.unwrap()[..], b"last", "what was queued is handed over first");
            assert!(matches!(after, Err(NetError::Disconnected)), "{after:?}");
        }
    }

    #[test]
    fn write_queue_backpressure_overflow_errors_instead_of_growing() {
        const CHUNK: usize = 1 << 20;
        let _alone = timing_alone();
        let mut eps = ReactorMesh::local(2).unwrap();
        let _b = eps.pop().unwrap(); // alive, but never reads
        let mut a = eps.pop().unwrap();
        // The socket buffers take a few MiB; the rest queues until the
        // budget is spent.
        let mut hit = None;
        for _ in 0..2 * MAX_QUEUED_BYTES / CHUNK {
            if let Err(e) = a.send(1, Payload::data(vec![0u8; CHUNK])) {
                hit = Some(e);
                break;
            }
        }
        match hit {
            Some(NetError::Backpressure { peer, queued, limit }) => {
                assert_eq!(peer, 1);
                assert_eq!(limit, MAX_QUEUED_BYTES);
                assert!(queued + CHUNK > limit, "queue was genuinely full: {queued}");
            }
            other => panic!("expected Backpressure, got {other:?}"),
        }
    }

    #[test]
    fn sends_to_removed_peer_are_dropped_silently() {
        let mut eps = ReactorMesh::local(2).unwrap();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.remove_peer(1);
        drop(b);
        for _ in 0..50 {
            a.send(1, Payload::control(vec![0u8; 512])).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(a.metrics().total_sent(), 0, "dropped sends are not counted as traffic");
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let called = Instant::now();
        assert!(b.recv_deadline(SimSpan::from_millis(30)).unwrap().is_none());
        let waited = called.elapsed();
        assert!(waited >= Duration::from_millis(30), "timed out early, after {waited:?}");
        a.send(1, Payload::data(b"late".as_ref())).unwrap();
        let got = b
            .recv_deadline(SimSpan::from_millis(2_000))
            .unwrap()
            .expect("message arrives within the deadline");
        assert_eq!(&got.payload.bytes[..], b"late");
    }

    /// The spin never runs past the caller's deadline: a timeout a fifth of
    /// the window returns after about that timeout, well short of the
    /// window (half of it, since the clock counts whole microseconds). Best
    /// of several calls, so a preempted one does not count.
    #[test]
    fn a_timeout_shorter_than_the_spin_window_bounds_the_spin() {
        let _alone = timing_alone();
        let mut eps = ReactorMesh::local(2).unwrap();
        let _b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let timeout = SPIN_MICROS / 5;
        let mut fastest = Duration::MAX;
        for _ in 0..20 {
            a.reactor.spin = true;
            let called = Instant::now();
            assert!(a.recv_deadline(SimSpan::from_micros(timeout)).unwrap().is_none());
            fastest = fastest.min(called.elapsed());
        }
        assert!(
            fastest < Duration::from_micros(SPIN_MICROS / 2),
            "a {timeout} us timeout took at least {fastest:?}: the spin ran past its deadline"
        );
    }

    #[test]
    fn try_recv_on_an_empty_inbox_does_not_spin() {
        let _alone = timing_alone();
        let mut eps = ReactorMesh::local(2).unwrap();
        let _b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut fastest = Duration::MAX;
        for _ in 0..20 {
            let called = Instant::now();
            assert!(a.try_recv().unwrap().is_none());
            fastest = fastest.min(called.elapsed());
        }
        assert!(fastest < Duration::from_micros(SPIN_MICROS / 2), "try_recv spun: {fastest:?}");
        assert!(a.reactor.spin, "a try_recv is not a wait and leaves the flag set");
        a.reactor.spin = false;
        assert!(a.try_recv().unwrap().is_none());
        assert!(!a.reactor.spin, "a try_recv is not a wait and leaves the flag clear");
    }

    /// The adaptive rule, read off the flag: a wait that outlasts the
    /// window parks the next one at once; a wait that a message ends inside
    /// it (a frame already in the socket) re-arms the spin; a wait that
    /// times out inside it, with nothing arriving, clears it again.
    /// Retried, because a preempted short wait may outlast the window too.
    #[test]
    fn a_long_wait_clears_the_spin_and_a_short_wait_rearms_it() {
        let _alone = timing_alone();
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        assert!(b.reactor.spin, "a fresh endpoint spins");
        assert!(b.recv_deadline(SimSpan::from_millis(5)).unwrap().is_none());
        assert!(!b.reactor.spin, "a wait that outlasted the window clears the flag");
        let rearmed = (0..20u8).any(|i| {
            a.send(1, Payload::data(vec![i])).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            assert_eq!(b.recv().unwrap().payload.bytes[..], [i]);
            b.reactor.spin
        });
        assert!(rearmed, "a wait that ended inside the window re-arms the spin");
        assert!(b.recv_deadline(SimSpan::from_micros(SPIN_MICROS / 5)).unwrap().is_none());
        assert!(!b.reactor.spin, "a short wait that timed out clears the flag");
    }

    #[test]
    fn large_payload_crosses_intact() {
        let _alone = timing_alone();
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let body: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        // A megabyte can outgrow a link's socket buffers, and the rest
        // crosses only while `a` waits in a receive: `b` gets a thread.
        let receiver = std::thread::spawn(move || {
            let got = b.recv().unwrap();
            b.send(0, Payload::control(vec![1u8])).unwrap();
            (b, got)
        });
        a.send(1, Payload::data(body.clone())).unwrap();
        a.recv_deadline(SimSpan::from_millis(10_000)).unwrap().expect("the receiver's ack");
        let (_b, got) = receiver.join().unwrap();
        assert_eq!(got.payload.bytes.len(), body.len());
        assert_eq!(&got.payload.bytes[..], &body[..], "megabyte payload survives chunked reads");
    }

    /// A link's send buffer takes a burst whole: 64 frames of 4 KiB to a
    /// peer that reads none of them all reach the kernel. At the default
    /// Unix-domain send buffer only about 44 of them fit.
    #[test]
    fn a_256_kib_burst_to_a_peer_that_does_not_read_leaves_nothing_queued() {
        let mut eps = ReactorMesh::local(2).unwrap();
        let _b = eps.pop().unwrap(); // alive, but never reads
        let mut a = eps.pop().unwrap();
        for _ in 0..64 {
            a.send(1, Payload::data(vec![0u8; 4096])).unwrap();
        }
        assert_eq!(a.reactor.queued[1], 0, "payloads still wait to be encoded");
        let conn = a.reactor.conns[1].as_ref().expect("the link is up");
        assert_eq!(conn.woff, conn.wbuf.len(), "encoded bytes still wait for the socket");
    }

    /// A turn that may not wait finishes a write still pending on the link,
    /// on either turn kind: `try_recv` alone flushes a payload larger than
    /// the socket buffers while its peer reads.
    #[test]
    fn try_recv_finishes_a_pending_write_on_either_turn_kind() {
        const LEN: usize = 16 << 20;
        let _alone = timing_alone();
        for idle_link in TURN_KINDS {
            let (mut a, mut b, _idle) = mesh_with(idle_link);
            // The peer starts reading only once the send has returned: a
            // reader already draining the socket could take the whole
            // payload inside `send`, leaving no write pending to test.
            let (go, wait) = std::sync::mpsc::channel();
            let reader = std::thread::spawn(move || {
                wait.recv().unwrap();
                let got = b.recv_deadline(SimSpan::from_millis(10_000)).unwrap();
                assert_eq!(got.expect("the payload arrives").payload.bytes.len(), LEN);
                b
            });
            a.send(1, Payload::data(vec![0u8; LEN])).unwrap();
            let pending = |a: &ReactorEndpoint| {
                let conn = a.reactor.conns[1].as_ref().expect("the link is up");
                conn.woff < conn.wbuf.len() || !a.reactor.queues[1].is_empty()
            };
            assert!(pending(&a), "the payload outgrew the socket buffers");
            go.send(()).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while pending(&a) {
                assert!(Instant::now() < deadline, "try_recv left the write pending");
                assert!(a.try_recv().unwrap().is_none());
            }
            drop(reader.join().unwrap());
        }
    }

    /// 16 MiB is past what a link's socket buffers hold and under the
    /// 32 MiB queue budget: what `send`'s one write leaves queued crosses
    /// only because the sender's receive turns keep flushing it.
    #[test]
    fn a_payload_larger_than_the_socket_buffers_crosses_while_its_sender_waits_in_recv() {
        const LEN: u32 = 16 << 20;
        let _alone = timing_alone();
        for idle_link in TURN_KINDS {
            let (mut a, mut b, _idle) = mesh_with(idle_link);
            let receiver = std::thread::spawn(move || {
                let got = b
                    .recv_deadline(SimSpan::from_millis(10_000))
                    .unwrap()
                    .expect("the payload arrives while its sender waits");
                assert_eq!(got.payload.bytes.len(), LEN as usize);
                assert!(
                    got.payload.bytes.iter().zip(0..LEN).all(|(&x, i)| x == (i % 251) as u8),
                    "the payload crosses intact"
                );
                b.send(0, Payload::control(vec![1u8])).unwrap();
                b
            });
            let body = (0..LEN).map(|i| (i % 251) as u8).collect::<Vec<u8>>();
            a.send(1, Payload::data(body)).unwrap();
            let reply = a
                .recv_deadline(SimSpan::from_millis(10_000))
                .unwrap()
                .expect("the reply arrives: receive turns flush pending writes");
            assert_eq!(&reply.payload.bytes[..], &[1u8]);
            drop(receiver.join().unwrap());
        }
    }
}
