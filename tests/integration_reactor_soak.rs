//! Reactor soak: a hub-and-spokes cluster where one poll loop on the hub
//! multiplexes every spoke connection, driven hard enough to catch
//! readiness bugs (lost wakeups, stalled write queues, phantom teardowns)
//! that a two-node smoke test never hits.
//!
//! Two sizes share one harness:
//!
//! * [`soak_64_spokes_smoke`] always runs — small enough for a laptop's
//!   `cargo test`;
//! * [`soak_256_spokes_full`] is `#[ignore]`d and run explicitly by the
//!   `reactor-soak` CI job (`cargo test -- --ignored`) under a hard
//!   wall-clock timeout.
//!
//! The same exchange timed over the reactor and over a test-local
//! thread-per-peer hub ([`thread_per_peer_soak`]) is the throughput
//! contract ([`contract_reactor_sustains_the_thread_per_peer_rate`]).
//!
//! When `SDSO_SOAK_TRACE` names a file, the merged flight-recorder trace
//! (Chrome/Perfetto JSON) of every node is written there win or lose; the
//! CI job uploads it as an artifact when the job fails.
//!
//! When `SDSO_SOAK_EVENTS` names a file, tracing switches to full event
//! recording and the raw per-node event log (the `sdso-check race` input
//! format) is written there win or lose, with worker spawn/join edges
//! recorded on the hub's stream so the happens-before replay can order
//! hub and spokes.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdso_net::reactor::ReactorMesh;
use sdso_net::{Endpoint, MsgClass, Payload, PeerEvent};
use sdso_obs::{EventKind, MonoClock, ObsSet, TraceConfig, THREAD_ROLE_WORKER};

/// Pings a spoke keeps in flight: enough to keep every spoke's traffic
/// moving at once without serialising on round trips.
const WINDOW: u32 = 4;

/// Held by each wall-clock contract below while it times, so that neither
/// times the other's threads. The lock hides a real cost, recorded here:
/// the reactor's receive spins up to 50 µs per wait before it parks, and
/// its adaptive flag watches only how long its own waits take, not what
/// else wants the CPU — so receivers whose replies come back promptly keep
/// spinning on CPUs they share. Side by side, unlocked, on a two-CPU host
/// (ten runs of CI's `contracts` command), the round trip's spinning
/// receivers slowed the 256 reactor spokes to a ratio of 0.87–1.57, one run
/// below the 0.9 floor, against 0.97–1.38 side by side before the spin; the
/// soak's busy CPUs in turn spared the blocking socket pair its idle-CPU
/// wake-ups, putting the round trip ratio at 1.05–1.66.
static TIMING: Mutex<()> = Mutex::new(());

fn timing_alone() -> MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One spoke's ping body: spoke id + sequence number, echoed verbatim by
/// the hub.
fn ping_body(spoke: u16, seq: u32) -> Vec<u8> {
    let mut body = spoke.to_le_bytes().to_vec();
    body.extend_from_slice(&seq.to_le_bytes());
    body
}

/// Runs the soak over a star of endpoints (`endpoints[0]` is the hub): every
/// spoke sends `pings` sequenced messages to the hub, the hub echoes each one
/// back, every spoke checks its echoes arrive in order. Returns how long the
/// exchange took, or an error description instead of panicking so the caller
/// can dump the flight-recorder trace first.
fn run_soak<E: Endpoint + 'static>(
    mut endpoints: Vec<E>,
    pings: u32,
    deadline: Duration,
    obs: &ObsSet,
) -> Result<Duration, String> {
    let spokes = endpoints.len() - 1;
    for ep in &mut endpoints {
        ep.attach_recorder(obs.node(ep.node_id()).recorder().clone());
    }
    let mut hub = endpoints.remove(0);
    let started = Instant::now();
    // The soak harness plays the part of node 0's application thread:
    // record that it spawns (and later joins) one worker per spoke, so an
    // exported event log carries the cross-stream happens-before edges.
    let clock = MonoClock::new();
    let hub_rec = obs.node(0).recorder().clone();

    let spoke_handles: Vec<_> = endpoints
        .into_iter()
        .map(|mut ep| {
            hub_rec.record(
                clock.micros(),
                EventKind::ThreadSpawn,
                u32::from(ep.node_id()),
                THREAD_ROLE_WORKER,
                0,
            );
            // The thread hands its endpoint back so every link stays open
            // until after the hub's no-flap check — otherwise spoke exits
            // race the check as legitimate teardown Downs.
            std::thread::spawn(move || -> Result<E, String> {
                let me = ep.node_id();
                let mut sent = 0u32;
                let mut acked = 0u32;
                while acked < pings {
                    while sent < pings && sent - acked < WINDOW {
                        ep.send(0, Payload::control(ping_body(me, sent)))
                            .map_err(|e| format!("spoke {me} send {sent}: {e}"))?;
                        sent += 1;
                    }
                    let echo = ep
                        .recv_deadline(sdso_net::SimSpan::from_millis(10_000))
                        .map_err(|e| format!("spoke {me} recv: {e}"))?
                        .ok_or_else(|| format!("spoke {me} starved waiting for echo {acked}"))?;
                    if echo.payload.bytes[..] != ping_body(me, acked)[..] {
                        return Err(format!(
                            "spoke {me} echo {acked} corrupted: {:?}",
                            &echo.payload.bytes[..]
                        ));
                    }
                    acked += 1;
                }
                Ok(ep)
            })
        })
        .collect();

    // The hub: echo every ping straight back to its sender.
    let total = spokes as u64 * u64::from(pings);
    let mut echoed = 0u64;
    while echoed < total {
        if started.elapsed() > deadline {
            return Err(format!(
                "hub deadline exceeded after {echoed}/{total} echoes in {:?}",
                started.elapsed()
            ));
        }
        let ping = hub
            .recv_deadline(sdso_net::SimSpan::from_millis(10_000))
            .map_err(|e| format!("hub recv: {e}"))?
            .ok_or_else(|| format!("hub starved after {echoed}/{total} echoes"))?;
        hub.send(ping.from, Payload::new(MsgClass::Control, ping.payload.bytes))
            .map_err(|e| format!("hub echo to {}: {e}", ping.from))?;
        echoed += 1;
    }

    let mut spoke_endpoints = Vec::with_capacity(spokes);
    for handle in spoke_handles {
        let ep = handle.join().map_err(|_| "spoke thread panicked".to_string())??;
        hub_rec.record(
            clock.micros(),
            EventKind::ThreadJoin,
            u32::from(ep.node_id()),
            THREAD_ROLE_WORKER,
            0,
        );
        spoke_endpoints.push(ep);
    }
    // Every link must have stayed up for the whole soak: a single Down is
    // a reactor bug (nothing in this test closes a connection).
    let downs: Vec<PeerEvent> =
        hub.take_peer_events().into_iter().filter(|e| matches!(e, PeerEvent::Down(_))).collect();
    if !downs.is_empty() {
        return Err(format!("links flapped during soak: {downs:?}"));
    }
    let elapsed = started.elapsed();
    if elapsed > deadline {
        return Err(format!("soak finished but overran its deadline: {elapsed:?}"));
    }
    drop(spoke_endpoints);
    drop(hub);
    Ok(elapsed)
}

/// Runs a soak and, when `SDSO_SOAK_TRACE` / `SDSO_SOAK_EVENTS` are set,
/// writes the merged flight-recorder trace / raw event log there before
/// reporting the outcome.
fn soak_with_trace(spokes: usize, pings: u32, deadline: Duration) {
    let n = spokes + 1;
    let events_path = std::env::var("SDSO_SOAK_EVENTS").ok().filter(|p| !p.is_empty());
    // Full recording only when the event log is wanted: the ring must hold
    // every send/recv of the busiest node (the hub sees 2 events per ping
    // per spoke, plus batching and teardown).
    let config = if events_path.is_some() {
        TraceConfig::full_with_capacity((spokes * pings as usize * 4).max(64 * 1024))
    } else {
        TraceConfig::counters()
    };
    let obs = ObsSet::new(n as u16, config);
    let outcome = ReactorMesh::star(n)
        .map_err(|e| format!("star setup: {e}"))
        .and_then(|star| run_soak(star, pings, deadline, &obs));
    // Best-effort: a trace-write failure must not mask the soak verdict.
    if let Ok(path) = std::env::var("SDSO_SOAK_TRACE") {
        if !path.is_empty() {
            let _ = std::fs::write(&path, obs.chrome_trace());
        }
    }
    if let Some(path) = events_path {
        let _ = std::fs::write(&path, obs.event_log());
    }
    if let Err(why) = outcome {
        panic!("reactor soak ({spokes} spokes, {pings} pings) failed: {why}");
    }
}

#[test]
fn soak_64_spokes_smoke() {
    soak_with_trace(64, 25, Duration::from_secs(60));
}

#[test]
#[ignore = "full-scale soak; run via the reactor-soak CI job (cargo test -- --ignored)"]
fn soak_256_spokes_full() {
    soak_with_trace(256, 50, Duration::from_secs(240));
}

/// Spawns the reader thread of one thread-per-peer socket: it hands every
/// 6-byte ping body, tagged with `peer`, to the application's channel
/// until the socket closes.
fn spawn_reader(
    mut sock: TcpStream,
    peer: usize,
    to_app: Sender<(usize, [u8; 6])>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut ping = [0u8; 6];
        while sock.read_exact(&mut ping).is_ok() && to_app.send((peer, ping)).is_ok() {}
    })
}

/// The throughput contract's reference: [`run_soak`]'s exchange over a
/// thread per peer, std only. Every socket, hub side and spoke side, gets a
/// reader thread that funnels into its owner's channel; the hub thread
/// drains its one channel and echoes with a blocking write. That is the
/// shape of the thread-per-peer transport the reactor replaced, minus its
/// framing. Returns how long the exchange took; socket setup is excluded,
/// as it is for the reactor's star.
fn thread_per_peer_soak(spokes: usize, pings: u32) -> Duration {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (to_hub, hub_inbox) = channel();
    let (mut hub_socks, mut spoke_ends, mut readers) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..spokes {
        let spoke = TcpStream::connect(addr).expect("connect");
        let (hub, _) = listener.accept().expect("accept");
        spoke.set_nodelay(true).expect("nodelay");
        hub.set_nodelay(true).expect("nodelay");
        readers.push(spawn_reader(hub.try_clone().expect("clone"), i, to_hub.clone()));
        let (to_spoke, spoke_inbox) = channel();
        readers.push(spawn_reader(spoke.try_clone().expect("clone"), 0, to_spoke));
        hub_socks.push(hub);
        spoke_ends.push((spoke, spoke_inbox));
    }
    drop(to_hub);
    let started = Instant::now();
    let spoke_threads: Vec<_> = spoke_ends
        .into_iter()
        .enumerate()
        .map(|(i, (mut sock, inbox))| {
            std::thread::spawn(move || {
                let me = (i + 1) as u16;
                let (mut sent, mut acked) = (0u32, 0u32);
                while acked < pings {
                    while sent < pings && sent - acked < WINDOW {
                        sock.write_all(&ping_body(me, sent)).expect("ping");
                        sent += 1;
                    }
                    let (_, echo) = inbox.recv().expect("echo");
                    assert_eq!(echo[..], ping_body(me, acked)[..], "spoke {me} echo {acked}");
                    acked += 1;
                }
                sock
            })
        })
        .collect();
    for _ in 0..spokes * pings as usize {
        let (i, ping) = hub_inbox.recv().expect("a reader hands the hub a ping");
        hub_socks[i].write_all(&ping).expect("echo");
    }
    let spoke_socks: Vec<TcpStream> =
        spoke_threads.into_iter().map(|t| t.join().expect("spoke thread")).collect();
    let took = started.elapsed();
    // Each reader holds a clone of its socket, so only a shutdown ends it.
    for sock in spoke_socks.iter().chain(&hub_socks) {
        let _ = sock.shutdown(Shutdown::Both);
    }
    for reader in readers {
        reader.join().expect("reader thread");
    }
    took
}

/// One poll loop per endpoint must not be slower than a reader thread per
/// peer. Same host, same process, the two stars back to back at 256 spokes x
/// 100 pings, best of three each — a fresh ratio, which travels across hosts
/// where a wall-clock number does not: the reactor sustains at least 0.9 of
/// the thread-per-peer rate. Measured 1.12–1.65 against
/// [`thread_per_peer_soak`] (1.14–1.34 before receives spun before
/// parking); the `epoll` reactor this one replaced read
/// 0.92–1.31 against it and 1.32–1.57 against the deleted thread-per-peer
/// transport, which this hub outruns by 1.1–1.5×.
#[test]
#[ignore = "wall-clock ratio: run by the CI contracts job, in release"]
fn contract_reactor_sustains_the_thread_per_peer_rate() {
    const N: usize = 256 + 1;
    let _alone = timing_alone();
    let obs = ObsSet::new(N as u16, TraceConfig::counters());
    let (mut reactor, mut threaded) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        let star = ReactorMesh::star(N).expect("reactor star");
        reactor = reactor.min(run_soak(star, 100, Duration::from_secs(240), &obs).expect("soak"));
        threaded = threaded.min(thread_per_peer_soak(N - 1, 100));
    }
    let ratio = threaded.as_secs_f64() / reactor.as_secs_f64();
    println!(
        "256 spokes x 100 pings: reactor {reactor:?}, thread-per-peer {threaded:?}, ratio {ratio:.2}"
    );
    assert!(ratio >= 0.9, "the reactor sustains only {ratio:.2} of the thread-per-peer rate");
}

/// A message must not cost the reactor more than it costs the socket under
/// it. Two nodes on two threads bounce a 64-byte payload 20 000 times over
/// `ReactorMesh::local(2)` and then over a plain `TCP_NODELAY` `TcpStream`
/// pair doing `write_all` / `read_exact`, back to back in this process,
/// best of three each — a fresh ratio: the reactor's round trip is at most
/// the blocking pair's. The reactor's receive spins briefly before it
/// parks, so a prompt reply skips the wake-up of a parked thread that the
/// blocking pair pays on every trip (measured 0.50–0.62×; 1.11–1.35×
/// before the spin, when the contract allowed 2×; 2.81–2.87× while the
/// poll loop ran on a thread of its own).
#[test]
#[ignore = "wall-clock ratio: run by the CI contracts job, in release"]
fn contract_reactor_round_trip_is_no_slower_than_a_blocking_socket_pair() {
    const TRIPS: u32 = 20_000;
    const LEN: usize = 64;

    fn over_the_reactor() -> Duration {
        let mut eps = ReactorMesh::local(2).expect("reactor pair");
        let mut b = eps.pop().expect("node 1");
        let mut a = eps.pop().expect("node 0");
        let echo = std::thread::spawn(move || {
            for _ in 0..TRIPS {
                let msg = b.recv().expect("echo recv");
                b.send(0, msg.payload).expect("echo send");
            }
            b
        });
        let started = Instant::now();
        for _ in 0..TRIPS {
            a.send(1, Payload::control(vec![7u8; LEN])).expect("send");
            a.recv().expect("recv");
        }
        let took = started.elapsed();
        drop(echo.join().expect("echo thread"));
        took
    }

    fn over_a_socket_pair() -> Duration {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut a = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut b, _) = listener.accept().expect("accept");
        a.set_nodelay(true).expect("nodelay");
        b.set_nodelay(true).expect("nodelay");
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; LEN];
            for _ in 0..TRIPS {
                b.read_exact(&mut buf).expect("echo read");
                b.write_all(&buf).expect("echo write");
            }
        });
        let mut buf = [7u8; LEN];
        let started = Instant::now();
        for _ in 0..TRIPS {
            a.write_all(&buf).expect("write");
            a.read_exact(&mut buf).expect("read");
        }
        let took = started.elapsed();
        echo.join().expect("echo thread");
        took
    }

    let _alone = timing_alone();
    let (mut reactor, mut pair) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        reactor = reactor.min(over_the_reactor());
        pair = pair.min(over_a_socket_pair());
    }
    let micros = |d: Duration| d.as_secs_f64() * 1e6 / f64::from(TRIPS);
    let ratio = reactor.as_secs_f64() / pair.as_secs_f64();
    println!(
        "{LEN}-byte round trip, best of 3 x {TRIPS}: reactor {:.1} us, blocking socket pair \
         {:.1} us, ratio {ratio:.2}",
        micros(reactor),
        micros(pair)
    );
    assert!(ratio <= 1.0, "a reactor round trip costs {ratio:.2}x a blocking socket pair's");
}
