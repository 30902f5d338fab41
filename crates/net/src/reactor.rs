//! Event-driven reactor TCP transport: one poll loop for every peer, run on
//! the endpoint owner's thread. It is the workspace's one real-socket
//! transport, on every unix.
//!
//! `ReactorMesh` multiplexes *all* connections of one endpoint onto a
//! single poll loop built on a hand-rolled POSIX `poll(2)` table
//! ([`crate::sys`]), and runs that loop inside the endpoint's own calls, so
//! a message crosses no thread hand-off between socket and application and
//! a process is not capped at a few hundred peers by a thread per
//! connection. Readiness-driven reads decode frames incrementally out of a
//! flat buffer ([`decode_frame_at`]) into an inbox, `send` and `send_batch`
//! encode into one pooled write buffer and `write` at once, and a
//! [`DeadlineQueue`] fires reconnect backoff and keepalives in deadline
//! order. Torn links surface as [`PeerEvent`]s for the membership layer.
//!
//! # Progress
//!
//! A link makes progress while its owner is inside an endpoint call, not
//! while the owner computes. Every receive (`recv`, `recv_deadline`,
//! `try_recv`) and `take_peer_events` runs poll turns, which read, finish
//! partial writes, accept re-dials and fire timers; every `send` writes
//! what the socket takes right away. Every caller in the tree blocks in a
//! receive after it sends, which is all this asks. A send toward a link
//! that is down first applies the dialer's results and fires the due timers
//! (without polling), so a caller that only retries sends still sees the
//! reconnect or the exhausted budget. The one thread an endpoint starts is
//! its dialer, which keeps a blocking `connect` off the owner's thread.
//! A receive that has to wait spins on non-blocking turns for a few tens of
//! microseconds before it parks in `poll`, so a prompt reply does not pay
//! for waking a parked thread; a wait that no message ends inside the
//! window (a long wait or a timeout) turns the spin off until one does
//! again. The flag sees only this endpoint's own waits, not what else
//! wants the CPU: a spinner whose replies come back promptly keeps
//! spinning on a CPU it shares with other threads.
//!
//! Topologies: [`ReactorMesh::local`] builds a full loopback mesh and
//! [`ReactorMesh::star`] a hub-and-spokes cluster (node 0 connected to every
//! other node — the shape the 256-peer soak and its timed twin use).
//!
//! Sends are asynchronous: what the socket does not take is queued and a
//! later turn drains it. A peer that stops draining accumulates queued
//! bytes until the per-peer budget (32 MiB) is hit, at which point `send`
//! fails with [`NetError::Backpressure`] instead of growing without bound.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use sdso_obs::{EventKind, MonoClock, Recorder, THREAD_ROLE_DIALER};

use crate::deadline::{Backoff, DeadlineQueue};
use crate::endpoint::{check_peer, Endpoint, NodeId, PeerEvent};
use crate::error::NetError;
use crate::frame::{append_frame, decode_frame_at};
use crate::message::{Incoming, Payload};
use crate::metrics::{obs_class, NetMetrics, NetMetricsSnapshot};
use crate::sys::{Interest, Poller, Ready, WakeHandle};
use crate::time::{SimInstant, SimSpan};

/// Frame `from` id reserved for reactor keepalives; filtered before the
/// application sees them and excluded from protocol metrics.
const KEEPALIVE_FROM: NodeId = NodeId::MAX;

/// Poll token of the waker the dialer writes.
const TOKEN_WAKER: u64 = u64::MAX;
/// Poll token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX - 1;
/// Poll tokens at or above this are handshake-pending inbound connections.
const TOKEN_PENDING_BASE: u64 = 1 << 32;

/// Per-`read` syscall chunk size.
const READ_CHUNK: usize = 64 * 1024;
/// Bytes of queued payloads coalesced into one write buffer per refill.
const WRITE_COALESCE_BUDGET: usize = 256 * 1024;
/// How long a receive keeps running non-blocking turns before it parks in
/// `poll`. A parked thread woken on an idle CPU costs about half a loopback
/// round trip; a reply that lands inside this window skips that wake-up.
const SPIN_MICROS: u64 = 50;

/// Timeout, backoff, keepalive, and queue-budget tuning for a
/// [`ReactorEndpoint`]. Every endpoint runs the defaults; the tests shorten
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReactorTuning {
    /// Timeout for each (re)connection attempt.
    connect_timeout: Duration,
    /// First reconnect backoff; doubles per attempt.
    backoff_base: Duration,
    /// Backoff growth cap.
    backoff_max: Duration,
    /// Backed-off reconnection attempts (after the immediate one) before the
    /// link is declared dead and sends to it fail for good.
    max_reconnect_attempts: u32,
    /// Interval between keepalive frames on idle links; `Duration::ZERO`
    /// disables keepalives.
    keepalive_interval: Duration,
    /// Per-peer cap on queued (accepted but unwritten) payload bytes; sends
    /// beyond it fail with [`NetError::Backpressure`].
    max_queued_bytes: usize,
}

impl Default for ReactorTuning {
    fn default() -> Self {
        ReactorTuning {
            connect_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            max_reconnect_attempts: 8,
            keepalive_interval: Duration::from_secs(1),
            max_queued_bytes: 32 * 1024 * 1024,
        }
    }
}

/// A dial order for the auxiliary dialer thread.
struct DialReq {
    peer: NodeId,
    addr: SocketAddr,
}

/// Timers multiplexed on the reactor's [`DeadlineQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    /// Periodic keepalive sweep over all live links.
    Keepalive,
    /// Next reconnect attempt for a torn dial-side link.
    Reconnect(NodeId),
}

/// One live connection inside the reactor.
struct Conn {
    stream: TcpStream,
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
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: crate::pool::thread_pool(crate::pool::BufPool::get).unwrap_or_default(),
            woff: 0,
            want_write: false,
        }
    }
}

/// An inbound connection that has not yet delivered its 2-byte peer-id
/// handshake.
struct PendingConn {
    stream: TcpStream,
    got: [u8; 2],
    len: usize,
}

/// Constructors for reactor-driven TCP clusters.
#[derive(Debug)]
pub struct ReactorMesh;

impl ReactorMesh {
    /// Builds an `n`-node full mesh over loopback, one poll loop per
    /// endpoint.
    ///
    /// # Errors
    ///
    /// Propagates socket setup errors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `NodeId::MAX - 1`.
    pub fn local(n: usize) -> Result<Vec<ReactorEndpoint>, NetError> {
        ReactorMesh::local_with(n, ReactorTuning::default())
    }

    /// [`ReactorMesh::local`] with explicit tuning.
    fn local_with(n: usize, tuning: ReactorTuning) -> Result<Vec<ReactorEndpoint>, NetError> {
        assert!(n > 0, "cluster must have at least one node");
        assert!(n < usize::from(NodeId::MAX), "cluster too large");
        // A full mesh holds both ends of every pairwise connection in this
        // process: n*(n-1) stream fds plus each endpoint's listener and
        // waker socket pair. At 256 nodes that is ~66k descriptors — far past
        // the usual 1024 soft limit, so bump it like `star` does.
        crate::sys::raise_nofile_limit((n as u64) * (n as u64) + 4 * (n as u64) + 64);
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind(("127.0.0.1", 0))).collect::<Result<_, _>>()?;
        let addrs: Vec<SocketAddr> =
            listeners.iter().map(TcpListener::local_addr).collect::<Result<_, _>>()?;
        let mut streams: Vec<Vec<Option<TcpStream>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        // Symmetric assignment into streams[i][j] and streams[j][i]: no
        // iterator form can hold both mutable slots at once.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in (i + 1)..n {
                let out = TcpStream::connect(addrs[i])?;
                let (inc, _) = listeners[i].accept()?;
                out.set_nodelay(true)?;
                inc.set_nodelay(true)?;
                streams[j][i] = Some(out);
                streams[i][j] = Some(inc);
            }
        }
        let all_addrs: Vec<Option<SocketAddr>> = addrs.into_iter().map(Some).collect();
        streams
            .into_iter()
            .zip(listeners)
            .enumerate()
            .map(|(id, (peers, listener))| {
                let links: Vec<bool> = (0..n).map(|p| p != id).collect();
                ReactorEndpoint::spawn(
                    id as NodeId,
                    n,
                    peers,
                    Some(listener),
                    all_addrs.clone(),
                    links,
                    tuning,
                )
            })
            .collect()
    }

    /// Builds an `n`-node hub-and-spokes cluster over loopback: node 0 (the
    /// hub) is connected to every spoke, spokes are connected only to the
    /// hub. `n - 1` connections total instead of `n·(n-1)/2`, which is what
    /// makes 256+ peers practical on one machine.
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
        let tuning = ReactorTuning::default();
        assert!(n >= 2, "a star needs a hub and at least one spoke");
        assert!(n < usize::from(NodeId::MAX), "cluster too large");
        crate::sys::raise_nofile_limit((n as u64) * 4 + 64);
        let hub_listener = TcpListener::bind(("127.0.0.1", 0))?;
        let hub_addr = hub_listener.local_addr()?;
        let mut hub_row: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut spoke_streams: Vec<Option<TcpStream>> = Vec::with_capacity(n - 1);
        for hub_slot in hub_row.iter_mut().skip(1) {
            let out = TcpStream::connect(hub_addr)?;
            let (inc, _) = hub_listener.accept()?;
            out.set_nodelay(true)?;
            inc.set_nodelay(true)?;
            spoke_streams.push(Some(out));
            *hub_slot = Some(inc);
        }
        let mut addrs: Vec<Option<SocketAddr>> = (0..n).map(|_| None).collect();
        addrs[0] = Some(hub_addr);

        let hub_links: Vec<bool> = (0..n).map(|p| p != 0).collect();
        let mut endpoints = Vec::with_capacity(n);
        endpoints.push(ReactorEndpoint::spawn(
            0,
            n,
            hub_row,
            Some(hub_listener),
            addrs.clone(),
            hub_links,
            tuning,
        )?);
        for (spoke, stream) in spoke_streams.into_iter().enumerate() {
            let id = (spoke + 1) as NodeId;
            let mut row: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
            row[0] = stream;
            let links: Vec<bool> = (0..n).map(|p| p == 0).collect();
            endpoints.push(ReactorEndpoint::spawn(id, n, row, None, addrs.clone(), links, tuning)?);
        }
        Ok(endpoints)
    }
}

/// The auxiliary dialer thread: the only blocking connect in the transport,
/// and the only thread an endpoint starts. The reactor posts [`DialReq`]s;
/// each outcome comes back over `results` with a waker nudge, so an owner
/// blocked in `poll` sees it. `None` stops the thread. One thread
/// serves all peers — reconnects are rare and the backoff schedule
/// serializes them naturally.
fn spawn_dialer(
    me: NodeId,
    rx: Receiver<Option<DialReq>>,
    results: Sender<(NodeId, std::io::Result<TcpStream>)>,
    waker: WakeHandle,
    connect_timeout: Duration,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(Some(req)) = rx.recv() {
            let stream =
                TcpStream::connect_timeout(&req.addr, connect_timeout).and_then(|mut s| {
                    s.set_nodelay(true)?;
                    s.write_all(&me.to_le_bytes())?;
                    Ok(s)
                });
            if results.send((req.peer, stream)).is_err() {
                return;
            }
            waker.wake();
        }
    })
}

/// One node's endpoint over the reactor transport.
///
/// The poll loop runs inside this endpoint's calls, on its owner's thread:
/// links make progress while the owner sends, receives or drains peer
/// events, not while it computes (see the module docs). Dropping it flushes
/// what is queued (bounded), closes every socket and joins the dialer.
pub struct ReactorEndpoint {
    reactor: Reactor,
    dialer: Option<JoinHandle<()>>,
    recorder: Recorder,
}

impl std::fmt::Debug for ReactorEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorEndpoint")
            .field("id", &self.reactor.me)
            .field("num_nodes", &self.reactor.n)
            .field("tuning", &self.reactor.tuning)
            .finish_non_exhaustive()
    }
}

impl ReactorEndpoint {
    #[allow(clippy::too_many_arguments)]
    fn spawn(
        id: NodeId,
        num_nodes: usize,
        peers: Vec<Option<TcpStream>>,
        listener: Option<TcpListener>,
        addrs: Vec<Option<SocketAddr>>,
        has_link: Vec<bool>,
        tuning: ReactorTuning,
    ) -> Result<ReactorEndpoint, NetError> {
        let mut poller = Poller::new();
        let waker = WakeHandle::new()?;
        poller.add(&waker, TOKEN_WAKER, Interest::READ)?;
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
            poller.add(l, TOKEN_LISTENER, Interest::READ)?;
        }
        let mut conns: Vec<Option<Conn>> = Vec::with_capacity(num_nodes);
        for (peer, stream) in peers.into_iter().enumerate() {
            conns.push(match stream {
                None => None,
                Some(s) => {
                    s.set_nonblocking(true)?;
                    poller.add(&s, peer as u64, Interest::READ)?;
                    Some(Conn::new(s))
                }
            });
        }
        let (dial_tx, dial_rx) = channel();
        let (results_tx, results_rx) = channel();
        let dialer = spawn_dialer(id, dial_rx, results_tx, waker.clone(), tuning.connect_timeout);
        let clock = MonoClock::new();
        let mut timers = DeadlineQueue::new();
        if !tuning.keepalive_interval.is_zero() {
            let first = clock.micros() + tuning.keepalive_interval.as_micros() as u64;
            timers.schedule(first, Timer::Keepalive);
        }
        let reactor = Reactor {
            me: id,
            n: num_nodes,
            tuning,
            poller,
            waker,
            conns,
            queues: (0..num_nodes).map(|_| VecDeque::new()).collect(),
            queued: vec![0; num_nodes],
            dead: vec![false; num_nodes],
            active: vec![true; num_nodes],
            pending: Vec::new(),
            listener,
            addrs,
            has_link,
            backoff: (0..num_nodes)
                .map(|_| {
                    Backoff::new(
                        tuning.backoff_base,
                        tuning.backoff_max,
                        tuning.max_reconnect_attempts,
                    )
                })
                .collect(),
            dialing: vec![false; num_nodes],
            timers,
            clock,
            dial_tx,
            dialed_rx: results_rx,
            inbox: VecDeque::new(),
            peer_events: Vec::new(),
            events: Vec::new(),
            chunk: vec![0; READ_CHUNK].into_boxed_slice(),
            spin: true,
            metrics: NetMetrics::new(),
        };
        Ok(ReactorEndpoint { reactor, dialer: Some(dialer), recorder: Recorder::disabled() })
    }

    fn note_send(&self, to: NodeId, payload: &Payload) {
        self.reactor.metrics.record_send(payload.class, payload.wire_len());
        self.recorder.record(
            self.reactor.clock.micros(),
            EventKind::Send,
            u32::from(to),
            obs_class(payload.class),
            payload.wire_len(),
        );
    }

    fn note_recv(&self, msg: &Incoming) {
        self.reactor.metrics.record_recv(msg.payload.class, msg.payload.wire_len());
        self.recorder.record(
            self.reactor.clock.micros(),
            EventKind::Recv,
            u32::from(msg.from),
            obs_class(msg.payload.class),
            msg.payload.wire_len(),
        );
    }

    /// Test hook: forcibly tears down the connection to `peer`, as if the
    /// network dropped it. On the dialling side the next calls re-dial with
    /// backoff; on the accepting side sends fail until the peer re-dials.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidPeer`] for out-of-range peers.
    pub fn inject_disconnect(&mut self, peer: NodeId) -> Result<(), NetError> {
        check_peer(self.reactor.me, peer, self.reactor.n)?;
        self.reactor.teardown(usize::from(peer));
        Ok(())
    }

    /// The address this endpoint accepts re-dials on, if it listens at all
    /// (star spokes do not).
    pub fn listen_addr(&self) -> Option<SocketAddr> {
        self.reactor.listener.as_ref().and_then(|l| l.local_addr().ok())
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
        self.note_send(to, &payload);
        self.reactor.enqueue(usize::from(to), std::iter::once(payload));
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
        let wire_bytes: u64 = payloads.iter().map(|p| u64::from(p.wire_len())).sum();
        for payload in &payloads {
            self.note_send(to, payload);
        }
        self.reactor.metrics.record_batch(payloads.len(), wire_bytes);
        self.recorder.record(
            self.reactor.clock.micros(),
            EventKind::BatchSend,
            u32::from(to),
            payloads.len() as u32,
            wire_bytes as u32,
        );
        self.reactor.enqueue(usize::from(to), payloads);
        Ok(())
    }

    fn recv(&mut self) -> Result<Incoming, NetError> {
        let before = self.now();
        let msg = self.reactor.next_incoming(None)?.ok_or(NetError::Disconnected)?;
        self.reactor.metrics.record_blocked(self.now().saturating_since(before));
        self.note_recv(&msg);
        Ok(msg)
    }

    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        let now = self.reactor.clock.micros();
        let msg = self.reactor.next_incoming(Some(now))?;
        if let Some(msg) = &msg {
            self.note_recv(msg);
        }
        Ok(msg)
    }

    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        let before = self.now();
        let deadline = before.as_micros().saturating_add(timeout.as_micros());
        let msg = self.reactor.next_incoming(Some(deadline))?;
        self.reactor.metrics.record_blocked(self.now().saturating_since(before));
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
        // The dialer was spawned before any recorder existed; announce it
        // now. Attachment happens-before everything the recorder sees from
        // it, so the edge is sound.
        self.recorder.record(
            self.reactor.clock.micros(),
            EventKind::ThreadSpawn,
            u32::from(self.reactor.me),
            THREAD_ROLE_DIALER,
            0,
        );
    }

    fn remove_peer(&mut self, peer: NodeId) {
        if let Some(active) = self.reactor.active.get_mut(usize::from(peer)) {
            *active = false;
        }
    }

    fn add_peer(&mut self, peer: NodeId) {
        let p = usize::from(peer);
        let r = &mut self.reactor;
        if p < r.n {
            r.active[p] = true;
            r.dead[p] = false;
            // Dial side: proactively re-establish the link for the rejoiner.
            if r.me > peer && r.conns[p].is_none() && !r.dialing[p] && r.addrs[p].is_some() {
                r.backoff[p].reset();
                r.schedule_dial(p, 0);
            }
        }
    }

    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        // A poll failure resurfaces on the next receive, which returns it.
        let _ = self.reactor.turn(Some(Duration::ZERO));
        let events = std::mem::take(&mut self.reactor.peer_events);
        for ev in &events {
            if let PeerEvent::Down(peer) = ev {
                self.recorder.record(
                    self.reactor.clock.micros(),
                    EventKind::PeerDown,
                    u32::from(*peer),
                    0,
                    0,
                );
            }
        }
        events
    }
}

impl Drop for ReactorEndpoint {
    fn drop(&mut self) {
        self.reactor.shutdown();
        if let Some(t) = self.dialer.take() {
            let _ = t.join();
            self.recorder.record(
                self.reactor.clock.micros(),
                EventKind::ThreadJoin,
                u32::from(self.reactor.me),
                THREAD_ROLE_DIALER,
                0,
            );
        }
    }
}

/// The poll loop owning every socket of one endpoint. Only the endpoint's
/// owner touches it, from inside its endpoint calls.
struct Reactor {
    me: NodeId,
    n: usize,
    tuning: ReactorTuning,
    poller: Poller,
    /// Written by the dialer with each result; only drained here.
    waker: WakeHandle,
    /// Live connections; `Some` exactly while the link is up.
    conns: Vec<Option<Conn>>,
    /// Per-peer queues of `(frame-from, payload)` accepted but not yet
    /// encoded. Parked entries survive reconnects (the peer just gets them
    /// late), which is what lets backoff state outlive a torn link.
    queues: Vec<VecDeque<(NodeId, Payload)>>,
    /// Accepted-but-unwritten payload bytes per peer (backpressure gauge).
    queued: Vec<usize>,
    /// Whether the link is permanently dead (reconnect budget exhausted).
    dead: Vec<bool>,
    /// Membership: sends to inactive peers are dropped silently.
    active: Vec<bool>,
    pending: Vec<Option<PendingConn>>,
    listener: Option<TcpListener>,
    addrs: Vec<Option<SocketAddr>>,
    has_link: Vec<bool>,
    backoff: Vec<Backoff>,
    dialing: Vec<bool>,
    timers: DeadlineQueue<Timer>,
    clock: MonoClock,
    dial_tx: Sender<Option<DialReq>>,
    dialed_rx: Receiver<(NodeId, std::io::Result<TcpStream>)>,
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
    /// One poll turn: waits for readiness no longer than `timeout` (`None`:
    /// no bound of its own) and no longer than the next timer, then serves
    /// socket readiness, the dialer's results and the timers that are due.
    /// Runs inside every endpoint call, on the owner's thread, so the only
    /// place it may block is `poll`. sdso-check: hot-path
    fn turn(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        let wait = match (timeout, self.timers.timeout_until(self.clock.micros())) {
            (Some(t), Some(timer)) => Some(t.min(timer)),
            (t, timer) => t.or(timer),
        };
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let polled = self.poller.wait(&mut events, wait);
        for ev in &events {
            match ev.token {
                TOKEN_WAKER => self.waker.drain(),
                TOKEN_LISTENER => self.accept_ready(),
                t if t >= TOKEN_PENDING_BASE => {
                    self.pending_ready((t - TOKEN_PENDING_BASE) as usize);
                }
                t => {
                    let peer = t as usize;
                    if peer >= self.n {
                        continue;
                    }
                    if ev.readable {
                        self.conn_readable(peer);
                    }
                    if ev.error {
                        self.teardown(peer);
                    } else if ev.writable {
                        self.drain_writes(peer);
                    }
                }
            }
        }
        self.events = events;
        polled?;
        self.serve_due();
        Ok(())
    }

    /// Applies the dialer's results and fires the timers that are due,
    /// without polling the sockets.
    fn serve_due(&mut self) {
        while let Ok((peer, stream)) = self.dialed_rx.try_recv() {
            self.dialed(usize::from(peer), stream);
        }
        let now = self.clock.micros();
        while let Some(timer) = self.timers.pop_due(now) {
            self.fire_timer(timer);
        }
    }

    /// Turns until the inbox has a message or `deadline` (µs on the
    /// reactor's clock; `None`: never) has passed — and at least once, so a
    /// deadline already due still polls without blocking.
    ///
    /// A wait (empty inbox, deadline not yet due) spins for up to
    /// [`SPIN_MICROS`], never past `deadline`, before it parks in `poll`,
    /// unless the previous wait did not end with a message inside the
    /// window: only a message that lands within [`SPIN_MICROS`] makes the
    /// next wait spin, so a timeout, however short, parks the next one. A
    /// deadline already due (`try_recv`) neither spins nor moves the flag.
    fn next_incoming(&mut self, deadline: Option<u64>) -> Result<Option<Incoming>, NetError> {
        if let Some(msg) = self.inbox.pop_front() {
            return msg.map(Some);
        }
        let start = self.clock.micros();
        if deadline.is_some_and(|at| at <= start) {
            self.turn(Some(Duration::ZERO))?;
            return self.inbox.pop_front().transpose();
        }
        let mut polled = self.spin;
        if self.spin {
            let window = start + SPIN_MICROS;
            self.spin_until(deadline.map_or(window, |at| at.min(window)))?;
        }
        loop {
            let now = self.clock.micros();
            let left = deadline.map(|at| at.saturating_sub(now));
            if !self.inbox.is_empty() || (polled && left == Some(0)) {
                self.spin = !self.inbox.is_empty() && now - start < SPIN_MICROS;
                return self.inbox.pop_front().transpose();
            }
            self.turn(left.map(Duration::from_micros))?;
            polled = true;
        }
    }

    /// Runs non-blocking turns, yielding the CPU between them, until the
    /// inbox has a message or the reactor's clock reaches `until`; at least
    /// one turn. sdso-check: hot-path
    fn spin_until(&mut self, until: u64) -> Result<(), NetError> {
        loop {
            self.turn(Some(Duration::ZERO))?;
            if !self.inbox.is_empty() || self.clock.micros() >= until {
                return Ok(());
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
        if !self.has_link[p] {
            return Err(NetError::Disconnected);
        }
        if self.conns[p].is_none() {
            // The link is down: let a caller that only retries sends see
            // the reconnect or the exhausted budget. A live link skips this.
            self.serve_due();
        }
        if !self.active[p] {
            return Ok(false);
        }
        if self.dead[p] {
            return Err(NetError::Disconnected);
        }
        // The higher-id side of a pair dials; the lower-id side can only
        // wait to be re-dialled, so its sends fail while the link is down.
        if self.me < to && self.conns[p].is_none() {
            return Err(NetError::Disconnected);
        }
        let queued = self.queued[p];
        if queued + bytes > self.tuning.max_queued_bytes {
            return Err(NetError::Backpressure {
                peer: to,
                queued,
                limit: self.tuning.max_queued_bytes,
            });
        }
        self.queued[p] += bytes;
        Ok(true)
    }

    /// Queues admitted `payloads` for `peer` and writes what the socket
    /// takes now; a partial write arms write interest for a later turn.
    fn enqueue(&mut self, peer: usize, payloads: impl IntoIterator<Item = Payload>) {
        let me = self.me;
        self.queues[peer].extend(payloads.into_iter().map(|p| (me, p)));
        self.drain_writes(peer);
    }

    fn fire_timer(&mut self, timer: Timer) {
        match timer {
            Timer::Keepalive => {
                for peer in 0..self.n {
                    if self.conns[peer].is_some() {
                        self.queues[peer]
                            .push_back((KEEPALIVE_FROM, Payload::control(Bytes::new())));
                        self.drain_writes(peer);
                    }
                }
                let ka = self.tuning.keepalive_interval.as_micros() as u64;
                self.timers.schedule(self.clock.micros() + ka, Timer::Keepalive);
            }
            Timer::Reconnect(peer) => {
                let p = usize::from(peer);
                self.dialing[p] = false;
                if !self.active[p] || self.dead[p] || self.conns[p].is_some() {
                    return;
                }
                let Some(addr) = self.addrs[p] else { return };
                self.metrics.record_retry();
                if self.dial_tx.send(Some(DialReq { peer, addr })).is_ok() {
                    self.dialing[p] = true;
                }
            }
        }
    }

    fn schedule_dial(&mut self, peer: usize, delay_micros: u64) {
        self.dialing[peer] = true;
        self.timers.schedule(self.clock.micros() + delay_micros, Timer::Reconnect(peer as NodeId));
    }

    fn dialed(&mut self, peer: usize, stream: std::io::Result<TcpStream>) {
        self.dialing[peer] = false;
        match stream {
            Ok(s) => {
                if s.set_nonblocking(true).is_err()
                    || self.poller.add(&s, peer as u64, Interest::READ).is_err()
                {
                    self.dial_failed(peer);
                    return;
                }
                self.conns[peer] = Some(Conn::new(s));
                self.backoff[peer].reset();
                self.metrics.record_reconnect();
                self.dead[peer] = false;
                self.peer_events.push(PeerEvent::Up(peer as NodeId));
                self.drain_writes(peer);
            }
            Err(_) => self.dial_failed(peer),
        }
    }

    fn dial_failed(&mut self, peer: usize) {
        if !self.active[peer] {
            return;
        }
        match self.backoff[peer].next_delay() {
            Some(delay) => self.schedule_dial(peer, delay.as_micros() as u64),
            None => {
                // Budget exhausted: the link is dead. Release queued bytes.
                self.dead[peer] = true;
                self.drop_queue(peer);
            }
        }
    }

    fn drop_queue(&mut self, peer: usize) {
        let mut released = 0usize;
        for (from, payload) in self.queues[peer].drain(..) {
            if from != KEEPALIVE_FROM {
                released += payload.bytes.len();
            }
            crate::pool::thread_pool(|pool| pool.reclaim(payload.bytes));
        }
        self.queued[peer] -= released;
    }

    /// Tears the connection to `peer` down: deregister, close, surface a
    /// [`PeerEvent::Down`], and — on the dialling side of the pair — start
    /// the reconnect schedule. Queued payloads stay parked for the next
    /// incarnation of the link unless the peer is gone for good.
    fn teardown(&mut self, peer: usize) {
        let Some(conn) = self.conns[peer].take() else { return };
        self.poller.delete(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
        crate::pool::thread_pool(|pool| pool.put(conn.wbuf));
        self.peer_events.push(PeerEvent::Down(peer as NodeId));
        if !self.active[peer] {
            self.drop_queue(peer);
            return;
        }
        let dial_side = usize::from(self.me) > peer;
        if dial_side && self.addrs[peer].is_some() && !self.dialing[peer] {
            self.backoff[peer].reset();
            self.schedule_dial(peer, 0);
        }
    }

    /// Coalesces queued payloads into the connection's pooled write buffer
    /// and writes until the socket blocks, adjusting the poll write interest to
    /// match whether anything is left. sdso-check: hot-path
    fn drain_writes(&mut self, peer: usize) {
        let Some(mut conn) = self.conns[peer].take() else { return };
        let result = fill_and_write(&mut conn, &mut self.queues[peer], &mut self.queued[peer]);
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
    /// flat inbound buffer into the inbox (keepalive frames excepted). EOF
    /// and connection resets tear the link down; a partial frame left in the
    /// buffer at that point is discarded — its sender never completed it.
    /// sdso-check: hot-path
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
                        match decode_frame_at(&conn.rbuf, &mut pos) {
                            Ok(Some(inc)) => {
                                if inc.from != KEEPALIVE_FROM {
                                    self.inbox.push_back(Ok(inc));
                                }
                            }
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

    /// Accepts inbound re-dials; each parks as a pending connection until
    /// its 2-byte id handshake arrives.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let idx = match self.pending.iter().position(Option::is_none) {
                        Some(i) => i,
                        None => {
                            self.pending.push(None);
                            self.pending.len() - 1
                        }
                    };
                    let token = TOKEN_PENDING_BASE + idx as u64;
                    if self.poller.add(&stream, token, Interest::READ).is_ok() {
                        self.pending[idx] = Some(PendingConn { stream, got: [0; 2], len: 0 });
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Drives a pending inbound connection's handshake forward; promotes it
    /// to a live peer connection once the 2-byte id is in.
    fn pending_ready(&mut self, idx: usize) {
        let Some(mut p) = self.pending.get_mut(idx).and_then(Option::take) else { return };
        loop {
            match p.stream.read(&mut p.got[p.len..]) {
                Ok(0) => {
                    self.poller.delete(&p.stream);
                    return; // handshake never arrived
                }
                Ok(got) => {
                    p.len += got;
                    if p.len == 2 {
                        self.promote(p);
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.pending[idx] = Some(p);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.poller.delete(&p.stream);
                    return;
                }
            }
        }
    }

    fn promote(&mut self, p: PendingConn) {
        let peer = NodeId::from_le_bytes(p.got);
        let pu = usize::from(peer);
        // Re-dials always come from the higher-id (dialling) side.
        if pu >= self.n || peer <= self.me || !self.has_link[pu] {
            self.poller.delete(&p.stream);
            return;
        }
        // Quietly retire any stale incarnation of the link: the Down/Up pair
        // is only meaningful when connectivity was actually interrupted.
        if let Some(old) = self.conns[pu].take() {
            self.poller.delete(&old.stream);
            let _ = old.stream.shutdown(Shutdown::Both);
            crate::pool::thread_pool(|pool| pool.put(old.wbuf));
        }
        if self.poller.modify(&p.stream, pu as u64, Interest::READ).is_err() {
            self.poller.delete(&p.stream);
            return;
        }
        self.conns[pu] = Some(Conn::new(p.stream));
        self.metrics.record_reconnect();
        self.dead[pu] = false;
        self.peer_events.push(PeerEvent::Up(peer));
        self.drain_writes(pu);
    }

    /// Closes every socket and stops the dialer. Runs once, from the
    /// endpoint's `Drop` — never inside a turn.
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
                let _ = fill_and_write(&mut conn, &mut self.queues[peer], &mut self.queued[peer]);
            }
            self.poller.delete(&conn.stream);
            let _ = conn.stream.shutdown(Shutdown::Both);
            crate::pool::thread_pool(|pool| pool.put(conn.wbuf));
        }
        for pending in self.pending.iter_mut() {
            if let Some(p) = pending.take() {
                self.poller.delete(&p.stream);
            }
        }
        if let Some(listener) = self.listener.take() {
            self.poller.delete(&listener);
        }
        let _ = self.dial_tx.send(None);
    }
}

/// Encodes queued payloads into `conn.wbuf` (batch coalescing) and writes
/// until the socket blocks or everything is flushed, releasing each encoded
/// payload's bytes from `queued`. A free function so the reactor can
/// split-borrow its connection and queue tables. sdso-check: hot-path
fn fill_and_write(
    conn: &mut Conn,
    queue: &mut VecDeque<(NodeId, Payload)>,
    queued: &mut usize,
) -> Result<(), std::io::Error> {
    loop {
        if conn.woff == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.woff = 0;
            while conn.wbuf.len() < WRITE_COALESCE_BUDGET {
                let Some((from, payload)) = queue.pop_front() else { break };
                if from != KEEPALIVE_FROM {
                    *queued -= payload.bytes.len();
                }
                append_frame(&mut conn.wbuf, from, &payload);
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
    use std::time::Instant;

    fn fast_tuning() -> ReactorTuning {
        ReactorTuning {
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(40),
            keepalive_interval: Duration::from_millis(200),
            ..ReactorTuning::default()
        }
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

    /// The re-dial happens inside the dialling side's own calls, so node b
    /// runs on a thread of its own and waits in `recv_deadline` for the
    /// acknowledgement while the test thread drives node a.
    #[test]
    fn reconnect_with_backoff_after_forced_drop() {
        let mut eps = ReactorMesh::local_with(2, fast_tuning()).unwrap();
        let mut b = eps.pop().unwrap(); // id 1: the dialling side
        let mut a = eps.pop().unwrap(); // id 0: the accepting side
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let dialler = std::thread::spawn(move || {
            b.send(0, Payload::data(b"one".as_ref())).unwrap();
            go_rx.recv().unwrap();
            b.inject_disconnect(0).unwrap();
            // The send parks in the queue and flushes once b's own turns
            // have re-dialled.
            b.send(0, Payload::data(b"two".as_ref())).unwrap();
            let ack = b
                .recv_deadline(SimSpan::from_millis(10_000))
                .unwrap()
                .expect("a acknowledges over the re-dialled link");
            assert_eq!(&ack.payload.bytes[..], b"ack");
            let m = b.metrics();
            assert!(m.retries >= 1, "reconnect attempts are counted, got {m:?}");
            assert!(m.reconnects >= 1, "re-established connection is counted, got {m:?}");
            let events = b.take_peer_events();
            assert!(events.contains(&PeerEvent::Down(0)), "torn link must surface: {events:?}");
            assert!(events.contains(&PeerEvent::Up(0)), "redial must surface: {events:?}");
            b
        });
        assert_eq!(&a.recv().unwrap().payload.bytes[..], b"one");
        go_tx.send(()).unwrap();
        let got = a.recv().unwrap();
        assert_eq!(got.from, 1);
        assert_eq!(&got.payload.bytes[..], b"two");
        a.send(1, Payload::control(b"ack".as_ref())).unwrap();
        drop(dialler.join().unwrap());
    }

    #[test]
    fn peer_socket_eof_mid_frame_surfaces_down_without_phantom_message() {
        let mut eps = ReactorMesh::local_with(2, fast_tuning()).unwrap();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let addr = a.listen_addr().expect("node 0 listens");
        drop(b); // node 1 exits; its Down surfaces in a's next calls

        // A raw socket impersonates node 1 re-dialling: handshake, then a
        // *partial* frame (length prefix says 20 bytes, only 5 arrive), then
        // a hard close.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&1u16.to_le_bytes()).unwrap();
        let mut partial = Vec::new();
        partial.extend_from_slice(&20u32.to_le_bytes());
        partial.extend_from_slice(&[1, 0, 0, 9, 9]);
        raw.write_all(&partial).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_millis(100));
        drop(raw);

        // The EOF mid-frame must surface as a link event, not as a message
        // and not as a reactor crash.
        let mut seen = Vec::new();
        for _ in 0..200 {
            seen.extend(a.take_peer_events());
            if seen.iter().filter(|e| matches!(e, PeerEvent::Down(1))).count() >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            seen.iter().filter(|e| matches!(e, PeerEvent::Down(1))).count() >= 2,
            "both the real node's exit and the torn impostor must surface: {seen:?}"
        );
        assert!(seen.contains(&PeerEvent::Up(1)), "the re-dial surfaced: {seen:?}");
        assert!(a.try_recv().unwrap().is_none(), "no phantom message from the partial frame");
    }

    #[test]
    fn write_queue_backpressure_overflow_errors_instead_of_growing() {
        let tuning = ReactorTuning {
            max_queued_bytes: 4 * 1024,
            backoff_base: Duration::from_secs(2), // keep the link down
            backoff_max: Duration::from_secs(2),
            ..ReactorTuning::default()
        };
        let mut eps = ReactorMesh::local_with(2, tuning).unwrap();
        let mut b = eps.pop().unwrap(); // id 1: the dialling side, so sends park

        // Node 0 goes away, so the immediate re-dial is refused and the
        // backoff keeps the link down for the whole burst. (With node 0 alive
        // the re-dial races the burst, and a link that comes back mid-burst
        // takes every later send straight into its socket buffer.)
        drop(eps);
        b.inject_disconnect(0).unwrap();

        let mut hit = None;
        for _ in 0..64 {
            match b.send(0, Payload::data(vec![0u8; 256])) {
                Ok(()) => {}
                Err(e) => {
                    hit = Some(e);
                    break;
                }
            }
        }
        match hit {
            Some(NetError::Backpressure { peer, queued, limit }) => {
                assert_eq!(peer, 0);
                assert_eq!(limit, 4 * 1024);
                assert!(queued + 256 > limit, "queue was genuinely full: {queued}");
            }
            other => panic!("expected Backpressure, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_reconnect_budget_kills_the_link() {
        let tuning = ReactorTuning {
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(4),
            max_reconnect_attempts: 2,
            connect_timeout: Duration::from_millis(200),
            ..ReactorTuning::default()
        };
        let mut eps = ReactorMesh::local_with(2, tuning).unwrap();
        let mut b = eps.pop().unwrap(); // id 1: dialling side
        let a = eps.remove(0);
        drop(a); // listener gone: re-dials fail outright
        b.inject_disconnect(0).unwrap();
        b.send(0, Payload::data(vec![1u8; 8])).ok();

        let mut dead = false;
        for _ in 0..400 {
            if matches!(b.send(0, Payload::data(vec![2u8; 8])), Err(NetError::Disconnected)) {
                dead = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(dead, "sends must fail for good once the reconnect budget is spent");
        assert!(b.metrics().retries >= 1);
    }

    #[test]
    fn sends_to_removed_peer_are_dropped_silently() {
        let mut eps = ReactorMesh::local_with(2, fast_tuning()).unwrap();
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
    fn keepalives_are_invisible_to_the_application() {
        let tuning = ReactorTuning {
            keepalive_interval: Duration::from_millis(20),
            ..ReactorTuning::default()
        };
        let mut eps = ReactorMesh::local_with(2, tuning).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        std::thread::sleep(Duration::from_millis(250));
        assert!(a.try_recv().unwrap().is_none(), "keepalives never reach the app");
        assert!(b.try_recv().unwrap().is_none());
        assert_eq!(a.metrics().total_recv(), 0, "keepalives never count as traffic");
        // The link is still healthy after an idle stretch full of keepalives.
        a.send(1, Payload::data(b"still here".as_ref())).unwrap();
        assert_eq!(&b.recv().unwrap().payload.bytes[..], b"still here");
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
    fn accept_side_sends_fail_while_peer_is_down() {
        let mut eps = ReactorMesh::local_with(2, fast_tuning()).unwrap();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap(); // id 0: accept side, never re-dials
        drop(b);
        let mut disconnected = false;
        for _ in 0..200 {
            if a.send(1, Payload::control(vec![0u8; 64])).is_err() {
                disconnected = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(disconnected, "send to dropped peer should eventually fail");
    }

    #[test]
    fn large_payload_crosses_intact() {
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let body: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        a.send(1, Payload::data(body.clone())).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.payload.bytes.len(), body.len());
        assert_eq!(&got.payload.bytes[..], &body[..], "megabyte payload survives chunked reads");
    }

    /// 16 MiB is far past what loopback's socket buffers hold and under the
    /// 32 MiB queue budget: what `send`'s one write leaves queued crosses
    /// only because the sender's receive turns keep flushing it.
    #[test]
    fn a_payload_larger_than_the_socket_buffers_crosses_while_its_sender_waits_in_recv() {
        const LEN: u32 = 16 << 20;
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
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
        a.send(1, Payload::data((0..LEN).map(|i| (i % 251) as u8).collect::<Vec<u8>>())).unwrap();
        let reply = a
            .recv_deadline(SimSpan::from_millis(10_000))
            .unwrap()
            .expect("the reply arrives: receive turns flush pending writes");
        assert_eq!(&reply.payload.bytes[..], &[1u8]);
        drop(receiver.join().unwrap());
    }

    /// As for the forced drop: the dialling side re-dials inside its own
    /// calls, so it runs on its own thread, waiting in `recv_deadline`.
    #[test]
    fn messages_queued_during_outage_arrive_in_order_after_reconnect() {
        let mut eps = ReactorMesh::local_with(2, fast_tuning()).unwrap();
        let mut b = eps.pop().unwrap(); // dialling side
        let mut a = eps.pop().unwrap();
        let dialler = std::thread::spawn(move || {
            b.inject_disconnect(0).unwrap();
            for i in 0..10u8 {
                b.send(0, Payload::data(vec![i])).unwrap();
            }
            let done = b
                .recv_deadline(SimSpan::from_millis(10_000))
                .unwrap()
                .expect("a confirms over the re-dialled link");
            assert_eq!(&done.payload.bytes[..], b"done");
            b
        });
        for i in 0..10u8 {
            let got = a.recv().unwrap();
            assert_eq!(got.payload.bytes[0], i, "order preserved across the outage");
        }
        a.send(1, Payload::control(b"done".as_ref())).unwrap();
        drop(dialler.join().unwrap());
    }
}
