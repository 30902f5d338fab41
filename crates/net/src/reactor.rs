//! Event-driven reactor TCP transport: one poll loop for every peer.
//!
//! [`TcpMesh`](crate::tcp::TcpMesh) spends two threads per connection (a
//! reader and, effectively, a writer inside `send`), which caps a process at
//! a few hundred peers. `ReactorMesh` multiplexes *all* connections of one
//! endpoint onto a single reactor thread built on a hand-rolled `epoll`
//! wrapper ([`crate::sys`]): readiness-driven reads decode frames
//! incrementally out of a flat buffer ([`decode_frame_at`]), writes coalesce
//! every queued payload into one pooled batch buffer per wakeup (the
//! `send_batch` path and the plain `send` path share it), and a
//! [`DeadlineQueue`] fires reconnect backoff and keepalives in
//! virtual-deadline order. Torn links surface as
//! [`PeerEvent`]s for the membership layer, exactly as they do on the
//! threaded transport.
//!
//! Topologies: [`ReactorMesh::local`] builds a full loopback mesh,
//! [`ReactorMesh::star`] a hub-and-spokes cluster (node 0 connected to every
//! other node — the shape the 256-peer soak and its timed twin use), and
//! [`ReactorMesh::join`] the distributed listen/dial dance of
//! `TcpMesh::join`.
//!
//! Sends are asynchronous: `send` enqueues and the reactor drains. A peer
//! that stops draining accumulates queued bytes until the per-peer budget
//! ([`ReactorTuning::max_queued_bytes`]) is hit, at which point `send`
//! fails with [`NetError::Backpressure`] instead of growing without bound.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use sdso_obs::{EventKind, MonoClock, Recorder, THREAD_ROLE_DIALER, THREAD_ROLE_REACTOR};

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

/// Poll token of the eventfd waker.
const TOKEN_WAKER: u64 = u64::MAX;
/// Poll token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX - 1;
/// Poll tokens at or above this are handshake-pending inbound connections.
const TOKEN_PENDING_BASE: u64 = 1 << 32;

/// Per-`read` syscall chunk size.
const READ_CHUNK: usize = 64 * 1024;
/// Bytes of queued payloads coalesced into one write buffer per refill.
const WRITE_COALESCE_BUDGET: usize = 256 * 1024;

/// Timeout, backoff, keepalive, and queue-budget tuning for a
/// [`ReactorEndpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorTuning {
    /// Timeout for each (re)connection attempt.
    pub connect_timeout: Duration,
    /// First reconnect backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff growth cap.
    pub backoff_max: Duration,
    /// Backed-off reconnection attempts (after the immediate one) before the
    /// link is declared dead and sends to it fail for good.
    pub max_reconnect_attempts: u32,
    /// Interval between keepalive frames on idle links; `Duration::ZERO`
    /// disables keepalives.
    pub keepalive_interval: Duration,
    /// Per-peer cap on queued (accepted but unwritten) payload bytes; sends
    /// beyond it fail with [`NetError::Backpressure`].
    pub max_queued_bytes: usize,
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

/// State shared between the application-facing endpoint and its reactor
/// thread. All flags are advisory snapshots — races only shift which error
/// path a racing send takes, never its safety.
#[derive(Debug)]
struct Shared {
    /// Accepted-but-unwritten payload bytes per peer (backpressure gauge).
    queued: Vec<AtomicUsize>,
    /// Whether a live connection to the peer exists right now.
    link_up: Vec<AtomicBool>,
    /// Whether the link is permanently dead (reconnect budget exhausted).
    dead: Vec<AtomicBool>,
    /// Membership: sends to inactive peers are dropped silently.
    active: Vec<AtomicBool>,
    /// Link events queued for [`Endpoint::take_peer_events`].
    peer_events: Mutex<Vec<PeerEvent>>,
    /// Collapses app-side wakeups between reactor command drains.
    notified: AtomicBool,
}

impl Shared {
    fn new(n: usize) -> Arc<Shared> {
        Arc::new(Shared {
            queued: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            link_up: (0..n).map(|_| AtomicBool::new(false)).collect(),
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            active: (0..n).map(|_| AtomicBool::new(true)).collect(),
            peer_events: Mutex::new(Vec::new()),
            notified: AtomicBool::new(false),
        })
    }
}

/// Commands from the endpoint (and the dialer thread) to the reactor.
enum Cmd {
    /// Enqueue one payload for `to`.
    Send { to: NodeId, payload: Payload },
    /// Enqueue several payloads for `to`, coalesced into one flush.
    Batch { to: NodeId, payloads: Vec<Payload> },
    /// Test hook / fault injection: tear the connection down now.
    InjectDisconnect(NodeId),
    /// Ask the reactor to (re)dial `peer` (membership re-join).
    Redial(NodeId),
    /// Outcome of a dial request, reported by the dialer thread.
    Dialed { peer: NodeId, stream: Result<TcpStream, std::io::Error> },
    /// Stop the loop and close everything.
    Shutdown,
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
            wbuf: crate::pool::global().get(),
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
    /// Builds an `n`-node full mesh over loopback, one single-threaded
    /// reactor per endpoint.
    ///
    /// # Errors
    ///
    /// Propagates socket and epoll setup errors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `NodeId::MAX - 1`.
    pub fn local(n: usize) -> Result<Vec<ReactorEndpoint>, NetError> {
        ReactorMesh::local_with(n, ReactorTuning::default())
    }

    /// [`ReactorMesh::local`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Propagates socket and epoll setup errors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `NodeId::MAX - 1`.
    pub fn local_with(n: usize, tuning: ReactorTuning) -> Result<Vec<ReactorEndpoint>, NetError> {
        assert!(n > 0, "cluster must have at least one node");
        assert!(n < usize::from(NodeId::MAX), "cluster too large");
        // A full mesh holds both ends of every pairwise connection in this
        // process: n*(n-1) stream fds plus each endpoint's listener, epoll
        // and wakeup fds. At 256 nodes that is ~66k descriptors — far past
        // the usual 1024 soft limit, so bump it like `star_with` does.
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
    /// Propagates socket and epoll setup errors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is less than two or exceeds `NodeId::MAX - 1`.
    pub fn star(n: usize) -> Result<Vec<ReactorEndpoint>, NetError> {
        ReactorMesh::star_with(n, ReactorTuning::default())
    }

    /// [`ReactorMesh::star`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Propagates socket and epoll setup errors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is less than two or exceeds `NodeId::MAX - 1`.
    pub fn star_with(n: usize, tuning: ReactorTuning) -> Result<Vec<ReactorEndpoint>, NetError> {
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

    /// Joins a distributed full mesh as node `id`, given every node's listen
    /// address — the same dance as `TcpMesh::join`: listen on `addrs[id]`,
    /// dial every lower-id peer (sending a 2-byte id handshake), accept one
    /// connection from every higher-id peer.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and rejects malformed handshakes.
    pub fn join(id: NodeId, addrs: &[SocketAddr]) -> Result<ReactorEndpoint, NetError> {
        ReactorMesh::join_with(id, addrs, ReactorTuning::default())
    }

    /// [`ReactorMesh::join`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and rejects malformed handshakes.
    pub fn join_with(
        id: NodeId,
        addrs: &[SocketAddr],
        tuning: ReactorTuning,
    ) -> Result<ReactorEndpoint, NetError> {
        let n = addrs.len();
        if usize::from(id) >= n {
            return Err(NetError::InvalidPeer { peer: id, cluster: n });
        }
        let listener = TcpListener::bind(addrs[usize::from(id)])?;
        let mut peers: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        for peer in 0..id {
            let stream = connect_with_retry(addrs[usize::from(peer)], tuning.connect_timeout)?;
            stream.set_nodelay(true)?;
            let mut s = stream.try_clone()?;
            s.write_all(&id.to_le_bytes())?;
            peers[usize::from(peer)] = Some(stream);
        }
        for _ in (id + 1)..n as u16 {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut idbuf = [0u8; 2];
            stream.read_exact(&mut idbuf)?;
            let peer = NodeId::from_le_bytes(idbuf);
            if usize::from(peer) >= n || peer <= id || peers[usize::from(peer)].is_some() {
                return Err(NetError::Codec(format!("bad handshake id {peer}")));
            }
            peers[usize::from(peer)] = Some(stream);
        }
        let links: Vec<bool> = (0..n).map(|p| p != usize::from(id)).collect();
        let addrs: Vec<Option<SocketAddr>> = addrs.iter().copied().map(Some).collect();
        ReactorEndpoint::spawn(id, n, peers, Some(listener), addrs, links, tuning)
    }
}

fn connect_with_retry(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, NetError> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(s) => return Ok(s),
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
}

/// The auxiliary dialer thread: the only blocking connect in the transport.
/// The reactor posts [`DialReq`]s; results come back as [`Cmd::Dialed`] plus
/// a waker nudge. One thread serves all peers — reconnects are rare and the
/// backoff schedule serializes them naturally.
fn spawn_dialer(
    me: NodeId,
    rx: Receiver<DialReq>,
    cmd_tx: Sender<Cmd>,
    waker: WakeHandle,
    connect_timeout: Duration,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(req) = rx.recv() {
            let stream =
                TcpStream::connect_timeout(&req.addr, connect_timeout).and_then(|mut s| {
                    s.set_nodelay(true)?;
                    s.write_all(&me.to_le_bytes())?;
                    Ok(s)
                });
            if cmd_tx.send(Cmd::Dialed { peer: req.peer, stream }).is_err() {
                return;
            }
            waker.wake();
        }
    })
}

/// One node's endpoint over the reactor transport.
///
/// Dropping it shuts the reactor down and joins its threads.
#[derive(Debug)]
pub struct ReactorEndpoint {
    id: NodeId,
    num_nodes: usize,
    shared: Arc<Shared>,
    has_link: Vec<bool>,
    tuning: ReactorTuning,
    cmd_tx: Sender<Cmd>,
    rx: Receiver<Result<Incoming, NetError>>,
    waker: WakeHandle,
    reactor: Option<JoinHandle<()>>,
    dialer: Option<JoinHandle<()>>,
    clock: MonoClock,
    metrics: NetMetrics,
    recorder: Recorder,
    listen_addr_inner: Option<SocketAddr>,
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
        let poller = Poller::new()?;
        let waker = WakeHandle::new()?;
        poller.add(&waker, TOKEN_WAKER, Interest::READ)?;
        let mut listen_addr_inner = None;
        if let Some(l) = &listener {
            listen_addr_inner = l.local_addr().ok();
            l.set_nonblocking(true)?;
            poller.add(l, TOKEN_LISTENER, Interest::READ)?;
        }
        let shared = Shared::new(num_nodes);
        let mut conns: Vec<Option<Conn>> = Vec::with_capacity(num_nodes);
        for (peer, stream) in peers.into_iter().enumerate() {
            match stream {
                None => conns.push(None),
                Some(s) => {
                    s.set_nonblocking(true)?;
                    poller.add(&s, peer as u64, Interest::READ)?;
                    shared.link_up[peer].store(true, Ordering::SeqCst);
                    conns.push(Some(Conn::new(s)));
                }
            }
        }
        let (cmd_tx, cmd_rx) = unbounded::<Cmd>();
        let (tx, rx) = unbounded::<Result<Incoming, NetError>>();
        let (dial_tx, dial_rx) = unbounded::<DialReq>();
        let dialer =
            spawn_dialer(id, dial_rx, cmd_tx.clone(), waker.clone(), tuning.connect_timeout);
        let reactor = Reactor {
            me: id,
            n: num_nodes,
            tuning,
            poller,
            waker: waker.clone(),
            shared: Arc::clone(&shared),
            conns,
            queues: (0..num_nodes).map(|_| VecDeque::new()).collect(),
            dirty: vec![false; num_nodes],
            pending: Vec::new(),
            listener,
            addrs,
            has_link: has_link.clone(),
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
            timers: DeadlineQueue::new(),
            clock: MonoClock::new(),
            cmd_rx,
            dial_tx,
            tx,
            metrics: NetMetrics::new(),
        };
        let metrics = reactor.metrics.clone();
        let handle = std::thread::spawn(move || reactor.run());
        Ok(ReactorEndpoint {
            id,
            num_nodes,
            shared,
            has_link,
            tuning,
            cmd_tx,
            rx,
            waker,
            reactor: Some(handle),
            dialer: Some(dialer),
            clock: MonoClock::new(),
            metrics,
            recorder: Recorder::disabled(),
            listen_addr_inner,
        })
    }

    fn wake(&self) {
        if !self.shared.notified.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    fn note_send(&self, to: NodeId, payload: &Payload) {
        self.metrics.record_send(payload.class, payload.wire_len());
        self.recorder.record(
            self.clock.micros(),
            EventKind::Send,
            u32::from(to),
            obs_class(payload.class),
            payload.wire_len(),
        );
    }

    fn note_recv(&self, msg: &Incoming) {
        self.metrics.record_recv(msg.payload.class, msg.payload.wire_len());
        self.recorder.record(
            self.clock.micros(),
            EventKind::Recv,
            u32::from(msg.from),
            obs_class(msg.payload.class),
            msg.payload.wire_len(),
        );
    }

    /// Validates a send to `to` against topology, membership, liveness, and
    /// the backpressure budget. `Ok(true)` means "enqueue it", `Ok(false)`
    /// means "drop silently" (removed peer).
    fn admit(&self, to: NodeId, bytes: usize) -> Result<bool, NetError> {
        check_peer(self.id, to, self.num_nodes)?;
        if !self.has_link[usize::from(to)] {
            return Err(NetError::Disconnected);
        }
        if !self.shared.active[usize::from(to)].load(Ordering::SeqCst) {
            return Ok(false);
        }
        if self.shared.dead[usize::from(to)].load(Ordering::SeqCst) {
            return Err(NetError::Disconnected);
        }
        // The higher-id side of a pair dials; the lower-id side can only
        // wait to be re-dialled, so its sends fail while the link is down
        // (mirroring `TcpMesh`).
        if self.id < to && !self.shared.link_up[usize::from(to)].load(Ordering::SeqCst) {
            return Err(NetError::Disconnected);
        }
        let queued = self.shared.queued[usize::from(to)].load(Ordering::SeqCst);
        if queued + bytes > self.tuning.max_queued_bytes {
            return Err(NetError::Backpressure {
                peer: to,
                queued,
                limit: self.tuning.max_queued_bytes,
            });
        }
        self.shared.queued[usize::from(to)].fetch_add(bytes, Ordering::SeqCst);
        Ok(true)
    }

    /// Test hook: forcibly tears down the connection to `peer`, as if the
    /// network dropped it. On the dialling side the reactor re-dials with
    /// backoff; on the accepting side sends fail until the peer re-dials.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidPeer`] for out-of-range peers.
    pub fn inject_disconnect(&mut self, peer: NodeId) -> Result<(), NetError> {
        check_peer(self.id, peer, self.num_nodes)?;
        self.cmd_tx.send(Cmd::InjectDisconnect(peer)).map_err(|_| NetError::Disconnected)?;
        self.wake();
        Ok(())
    }

    /// The address this endpoint accepts re-dials on, if it listens at all
    /// (star spokes do not).
    pub fn listen_addr(&self) -> Option<SocketAddr> {
        self.listen_addr_inner
    }
}

impl Endpoint for ReactorEndpoint {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
        if !self.admit(to, payload.bytes.len())? {
            return Ok(());
        }
        self.note_send(to, &payload);
        self.cmd_tx.send(Cmd::Send { to, payload }).map_err(|_| NetError::Disconnected)?;
        self.wake();
        Ok(())
    }

    fn send_batch(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        if payloads.is_empty() {
            return Ok(());
        }
        let total: usize = payloads.iter().map(|p| p.bytes.len()).sum();
        if !self.admit(to, total)? {
            return Ok(());
        }
        let wire_bytes: u64 = payloads.iter().map(|p| u64::from(p.wire_len())).sum();
        for payload in &payloads {
            self.note_send(to, payload);
        }
        self.metrics.record_batch(payloads.len(), wire_bytes);
        self.recorder.record(
            self.clock.micros(),
            EventKind::BatchSend,
            u32::from(to),
            payloads.len() as u32,
            wire_bytes as u32,
        );
        self.cmd_tx.send(Cmd::Batch { to, payloads }).map_err(|_| NetError::Disconnected)?;
        self.wake();
        Ok(())
    }

    fn recv(&mut self) -> Result<Incoming, NetError> {
        let before = self.now();
        let msg = self.rx.recv().map_err(|_| NetError::Disconnected)??;
        self.metrics.record_blocked(self.now().saturating_since(before));
        self.note_recv(&msg);
        Ok(msg)
    }

    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        match self.rx.try_recv() {
            Ok(Ok(msg)) => {
                self.note_recv(&msg);
                Ok(Some(msg))
            }
            Ok(Err(e)) => Err(e),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        let before = self.now();
        match self.rx.recv_timeout(Duration::from_micros(timeout.as_micros())) {
            Ok(Ok(msg)) => {
                self.metrics.record_blocked(self.now().saturating_since(before));
                self.note_recv(&msg);
                Ok(Some(msg))
            }
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => {
                self.metrics.record_blocked(self.now().saturating_since(before));
                Ok(None)
            }
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    fn advance(&mut self, _dt: SimSpan) {
        // Real computation already consumed wall time.
    }

    fn now(&self) -> SimInstant {
        SimInstant::from_micros(self.clock.micros())
    }

    fn metrics(&self) -> NetMetricsSnapshot {
        self.metrics.snapshot()
    }

    fn metrics_delta(&mut self) -> NetMetricsSnapshot {
        self.metrics.snapshot_delta()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
        // The poll and dialer threads were spawned before any recorder
        // existed; announce them now. Attachment happens-before everything
        // the recorder sees from either thread, so the edge is sound.
        let at = self.clock.micros();
        self.recorder.record(
            at,
            EventKind::ThreadSpawn,
            u32::from(self.id),
            THREAD_ROLE_REACTOR,
            0,
        );
        self.recorder.record(at, EventKind::ThreadSpawn, u32::from(self.id), THREAD_ROLE_DIALER, 0);
    }

    fn remove_peer(&mut self, peer: NodeId) {
        if usize::from(peer) < self.num_nodes {
            self.shared.active[usize::from(peer)].store(false, Ordering::SeqCst);
        }
    }

    fn add_peer(&mut self, peer: NodeId) {
        if usize::from(peer) < self.num_nodes {
            self.shared.active[usize::from(peer)].store(true, Ordering::SeqCst);
            self.shared.dead[usize::from(peer)].store(false, Ordering::SeqCst);
            // Dial side: proactively re-establish the link for the rejoiner.
            if self.id > peer && !self.shared.link_up[usize::from(peer)].load(Ordering::SeqCst) {
                let _ = self.cmd_tx.send(Cmd::Redial(peer));
                self.wake();
            }
        }
    }

    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        let events: Vec<PeerEvent> = std::mem::take(&mut *self.shared.peer_events.lock());
        for ev in &events {
            if let PeerEvent::Down(peer) = ev {
                self.recorder.record(
                    self.clock.micros(),
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
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        self.waker.wake();
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
            self.recorder.record(
                self.clock.micros(),
                EventKind::ThreadJoin,
                u32::from(self.id),
                THREAD_ROLE_REACTOR,
                0,
            );
        }
        if let Some(t) = self.dialer.take() {
            let _ = t.join();
            self.recorder.record(
                self.clock.micros(),
                EventKind::ThreadJoin,
                u32::from(self.id),
                THREAD_ROLE_DIALER,
                0,
            );
        }
    }
}

/// The single-threaded poll loop owning every socket of one endpoint.
struct Reactor {
    me: NodeId,
    n: usize,
    tuning: ReactorTuning,
    poller: Poller,
    waker: WakeHandle,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    /// Per-peer queues of `(frame-from, payload)` accepted but not yet
    /// encoded. Parked entries survive reconnects (the peer just gets them
    /// late), which is what lets backoff state outlive a torn link.
    queues: Vec<VecDeque<(NodeId, Payload)>>,
    /// Peers whose queue grew during this wakeup's command drain. Flushed
    /// once per wakeup so a burst of sends to one peer coalesces into a
    /// single `write` instead of one syscall per command.
    dirty: Vec<bool>,
    pending: Vec<Option<PendingConn>>,
    listener: Option<TcpListener>,
    addrs: Vec<Option<SocketAddr>>,
    has_link: Vec<bool>,
    backoff: Vec<Backoff>,
    dialing: Vec<bool>,
    timers: DeadlineQueue<Timer>,
    clock: MonoClock,
    cmd_rx: Receiver<Cmd>,
    dial_tx: Sender<DialReq>,
    tx: Sender<Result<Incoming, NetError>>,
    metrics: NetMetrics,
}

impl Reactor {
    fn run(mut self) {
        let ka = self.tuning.keepalive_interval;
        if !ka.is_zero() {
            self.timers.schedule(self.clock.micros() + ka.as_micros() as u64, Timer::Keepalive);
        }
        let mut events: Vec<Ready> = Vec::new();
        loop {
            let timeout = self.timers.timeout_until(self.clock.micros());
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                // The poller itself failed: nothing can make progress.
                let _ = self.tx.send(Err(NetError::Disconnected));
                self.shutdown();
                return;
            }
            for ev in events.drain(..) {
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
            self.shared.notified.store(false, Ordering::SeqCst);
            loop {
                match self.cmd_rx.try_recv() {
                    Ok(Cmd::Shutdown) => {
                        self.shutdown();
                        return;
                    }
                    Ok(cmd) => self.handle_cmd(cmd),
                    Err(_) => break,
                }
            }
            for peer in 0..self.n {
                if self.dirty[peer] {
                    self.dirty[peer] = false;
                    self.drain_writes(peer);
                }
            }
            let now = self.clock.micros();
            while let Some(timer) = self.timers.pop_due(now) {
                self.fire_timer(timer);
            }
        }
    }

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Send { to, payload } => {
                self.queues[usize::from(to)].push_back((self.me, payload));
                self.dirty[usize::from(to)] = true;
            }
            Cmd::Batch { to, payloads } => {
                let q = &mut self.queues[usize::from(to)];
                for payload in payloads {
                    q.push_back((self.me, payload));
                }
                self.dirty[usize::from(to)] = true;
            }
            Cmd::InjectDisconnect(peer) => self.teardown(usize::from(peer)),
            Cmd::Redial(peer) => {
                let p = usize::from(peer);
                if self.conns[p].is_none() && !self.dialing[p] && self.addrs[p].is_some() {
                    self.backoff[p].reset();
                    self.schedule_dial(p, 0);
                }
            }
            Cmd::Dialed { peer, stream } => self.dialed(usize::from(peer), stream),
            Cmd::Shutdown => self.shutdown(),
        }
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
                if !self.shared.active[p].load(Ordering::SeqCst)
                    || self.shared.dead[p].load(Ordering::SeqCst)
                    || self.conns[p].is_some()
                {
                    return;
                }
                let Some(addr) = self.addrs[p] else { return };
                self.metrics.record_retry();
                if self.dial_tx.send(DialReq { peer, addr }).is_ok() {
                    self.dialing[p] = true;
                }
            }
        }
    }

    fn schedule_dial(&mut self, peer: usize, delay_micros: u64) {
        self.dialing[peer] = true;
        self.timers.schedule(self.clock.micros() + delay_micros, Timer::Reconnect(peer as NodeId));
    }

    fn dialed(&mut self, peer: usize, stream: Result<TcpStream, std::io::Error>) {
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
                self.shared.link_up[peer].store(true, Ordering::SeqCst);
                self.shared.dead[peer].store(false, Ordering::SeqCst);
                self.shared.peer_events.lock().push(PeerEvent::Up(peer as NodeId));
                self.drain_writes(peer);
            }
            Err(_) => self.dial_failed(peer),
        }
    }

    fn dial_failed(&mut self, peer: usize) {
        if !self.shared.active[peer].load(Ordering::SeqCst) {
            return;
        }
        match self.backoff[peer].next_delay() {
            Some(delay) => self.schedule_dial(peer, delay.as_micros() as u64),
            None => {
                // Budget exhausted: the link is dead. Release queued bytes.
                self.shared.dead[peer].store(true, Ordering::SeqCst);
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
            crate::pool::global().reclaim(payload.bytes);
        }
        self.shared.queued[peer].fetch_sub(released, Ordering::SeqCst);
    }

    /// Tears the connection to `peer` down: deregister, close, surface a
    /// [`PeerEvent::Down`], and — on the dialling side of the pair — start
    /// the reconnect schedule. Queued payloads stay parked for the next
    /// incarnation of the link unless the peer is gone for good.
    fn teardown(&mut self, peer: usize) {
        let Some(conn) = self.conns[peer].take() else { return };
        self.poller.delete(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
        crate::pool::global().put(conn.wbuf);
        self.shared.link_up[peer].store(false, Ordering::SeqCst);
        self.shared.peer_events.lock().push(PeerEvent::Down(peer as NodeId));
        let active = self.shared.active[peer].load(Ordering::SeqCst);
        if !active {
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
    /// and writes until the socket blocks, adjusting epoll write interest to
    /// match whether anything is left. sdso-check: hot-path
    fn drain_writes(&mut self, peer: usize) {
        let Some(mut conn) = self.conns[peer].take() else { return };
        let result = fill_and_write(&mut conn, &mut self.queues[peer], &self.shared, peer);
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
    /// flat inbound buffer and forwarding them to the application (keepalive
    /// frames excepted). EOF and connection resets tear the link down; a
    /// partial frame left in the buffer at that point is discarded — its
    /// sender never completed it. sdso-check: hot-path
    fn conn_readable(&mut self, peer: usize) {
        let Some(mut conn) = self.conns[peer].take() else { return };
        let mut torn = false;
        let mut fatal: Option<NetError> = None;
        let mut chunk = [0u8; READ_CHUNK];
        'reads: loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    torn = true;
                    break;
                }
                Ok(got) => {
                    conn.rbuf.extend_from_slice(&chunk[..got]);
                    let mut pos = 0usize;
                    loop {
                        match decode_frame_at(&conn.rbuf, &mut pos) {
                            Ok(Some(inc)) => {
                                if inc.from != KEEPALIVE_FROM && self.tx.send(Ok(inc)).is_err() {
                                    torn = true;
                                    break 'reads;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                fatal = Some(e);
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
                    if got < chunk.len() {
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
                    fatal = Some(NetError::Io(e));
                    torn = true;
                    break;
                }
            }
        }
        self.conns[peer] = Some(conn);
        if let Some(e) = fatal {
            let _ = self.tx.send(Err(e));
        }
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
            crate::pool::global().put(old.wbuf);
        }
        if self.poller.modify(&p.stream, pu as u64, Interest::READ).is_err() {
            self.poller.delete(&p.stream);
            return;
        }
        self.conns[pu] = Some(Conn::new(p.stream));
        self.metrics.record_reconnect();
        self.shared.link_up[pu].store(true, Ordering::SeqCst);
        self.shared.dead[pu].store(false, Ordering::SeqCst);
        self.shared.peer_events.lock().push(PeerEvent::Up(peer));
        self.drain_writes(pu);
    }

    fn shutdown(&mut self) {
        for peer in 0..self.n {
            self.dirty[peer] = false;
            let Some(mut conn) = self.conns[peer].take() else { continue };
            // Best-effort final flush: an endpoint that sends and is then
            // dropped enqueues `Send .. Send, Shutdown` back-to-back, and
            // closing before draining would strand those last frames. A
            // short send timeout bounds the wait on a stalled peer (the
            // timeout surfaces as `WouldBlock`, which `fill_and_write`
            // treats as "done for now").
            if (conn.woff < conn.wbuf.len() || !self.queues[peer].is_empty())
                // Deliberate: a bounded blocking flush once, at teardown,
                // after the poll loop has exited — not on the event path
                // (allowlisted in no-blocking-in-reactor.allow).
                && conn.stream.set_nonblocking(false).is_ok()
            {
                let _ = conn.stream.set_write_timeout(Some(Duration::from_millis(250)));
                let _ = fill_and_write(&mut conn, &mut self.queues[peer], &self.shared, peer);
            }
            self.poller.delete(&conn.stream);
            let _ = conn.stream.shutdown(Shutdown::Both);
            crate::pool::global().put(conn.wbuf);
        }
        for pending in self.pending.iter_mut() {
            if let Some(p) = pending.take() {
                self.poller.delete(&p.stream);
            }
        }
        self.listener = None;
    }
}

/// Encodes queued payloads into `conn.wbuf` (batch coalescing) and writes
/// until the socket blocks or everything is flushed. A free function so the
/// reactor can split-borrow its connection and queue tables.
/// sdso-check: hot-path
fn fill_and_write(
    conn: &mut Conn,
    queue: &mut VecDeque<(NodeId, Payload)>,
    shared: &Shared,
    peer: usize,
) -> Result<(), std::io::Error> {
    loop {
        if conn.woff == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.woff = 0;
            while conn.wbuf.len() < WRITE_COALESCE_BUDGET {
                let Some((from, payload)) = queue.pop_front() else { break };
                if from != KEEPALIVE_FROM {
                    shared.queued[peer].fetch_sub(payload.bytes.len(), Ordering::SeqCst);
                }
                append_frame(&mut conn.wbuf, from, &payload);
                crate::pool::global().reclaim(payload.bytes);
            }
            if conn.wbuf.is_empty() {
                return Ok(());
            }
        }
        match conn.stream.write(&conn.wbuf[conn.woff..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
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

    /// Regression: `drop` enqueues `Send .. Send, Shutdown` back-to-back on
    /// the command channel, and the reactor must flush those sends before it
    /// closes the sockets — otherwise a node that finishes and drops its
    /// endpoint strands its final frames. Looped because the original bug
    /// was a per-wakeup batching race.
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

    #[test]
    fn reconnect_with_backoff_after_forced_drop() {
        let mut eps = ReactorMesh::local_with(2, fast_tuning()).unwrap();
        let mut b = eps.pop().unwrap(); // id 1: the dialling side
        let mut a = eps.pop().unwrap(); // id 0: the accepting side
        b.send(0, Payload::data(b"one".as_ref())).unwrap();
        assert_eq!(&a.recv().unwrap().payload.bytes[..], b"one");

        b.inject_disconnect(0).unwrap();
        // The send is asynchronous: it parks in the queue and flushes once
        // the reactor has re-dialled.
        b.send(0, Payload::data(b"two".as_ref())).unwrap();
        let got = a.recv().unwrap();
        assert_eq!(got.from, 1);
        assert_eq!(&got.payload.bytes[..], b"two");

        let m = b.metrics();
        assert!(m.retries >= 1, "reconnect attempts are counted, got {m:?}");
        assert!(m.reconnects >= 1, "re-established connection is counted, got {m:?}");
        a.send(1, Payload::control(b"ack".as_ref())).unwrap();
        assert_eq!(&b.recv().unwrap().payload.bytes[..], b"ack");

        let events = b.take_peer_events();
        assert!(events.contains(&PeerEvent::Down(0)), "torn link must surface: {events:?}");
        assert!(events.contains(&PeerEvent::Up(0)), "redial must surface: {events:?}");
    }

    #[test]
    fn peer_socket_eof_mid_frame_surfaces_down_without_phantom_message() {
        let mut eps = ReactorMesh::local_with(2, fast_tuning()).unwrap();
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let addr = a.listen_addr().expect("node 0 listens");
        drop(b); // node 1 exits; its Down will surface asynchronously

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
        let _a = eps.remove(0);
        let mut b = eps.remove(0); // id 1: the dialling side, so sends park
        b.inject_disconnect(0).unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let the teardown land

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
        assert!(b.recv_deadline(SimSpan::from_millis(30)).unwrap().is_none());
        a.send(1, Payload::data(b"late".as_ref())).unwrap();
        let got = b
            .recv_deadline(SimSpan::from_millis(2_000))
            .unwrap()
            .expect("message arrives within the deadline");
        assert_eq!(&got.payload.bytes[..], b"late");
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

    #[test]
    fn messages_queued_during_outage_arrive_in_order_after_reconnect() {
        let mut eps = ReactorMesh::local_with(2, fast_tuning()).unwrap();
        let mut b = eps.pop().unwrap(); // dialling side
        let mut a = eps.pop().unwrap();
        b.inject_disconnect(0).unwrap();
        for i in 0..10u8 {
            b.send(0, Payload::data(vec![i])).unwrap();
        }
        for i in 0..10u8 {
            let got = a.recv().unwrap();
            assert_eq!(got.payload.bytes[0], i, "order preserved across the outage");
        }
    }
}
