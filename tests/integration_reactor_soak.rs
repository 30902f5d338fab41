//! Reactor soak: a hub-and-spokes cluster where one poll loop on the hub
//! multiplexes every spoke connection, driven hard enough to catch
//! readiness bugs (lost wakeups, stalled write queues, phantom teardowns)
//! that a two-node smoke test never hits.
//!
//! Two sizes share one harness:
//!
//! * [`soak_64_spokes_smoke`] always runs — small enough for a laptop's
//!   `cargo test`;
//! * [`soak_reactor_256_spokes`] is `#[ignore]`d and run explicitly by
//!   CI's `soak` job (`cargo test -- --ignored soak_reactor`) under a hard
//!   wall-clock timeout.
//!
//! The same exchange timed over the reactor and over a test-local
//! thread-per-peer hub ([`thread_per_peer_soak`]) is the throughput
//! contract ([`contract_reactor_sustains_the_thread_per_peer_rate`]).
//! Crash detection on the same transport — each spoke that dies abruptly
//! is one `Down` at the hub — is
//! [`reactor_abrupt_death_surfaces_one_down_per_dead_spoke`].
//!
//! When `SDSO_TRACE_DIR` names a directory, tracing switches to full event
//! recording, and each soak writes its merged flight-recorder trace and
//! its raw per-node event log (the `sdso-check race` input format) there
//! win or lose (`tests/common/trace.rs`), with worker spawn/join edges
//! recorded on the hub's stream so the happens-before replay can order hub
//! and spokes.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdso_net::reactor::ReactorMesh;
use sdso_net::{Endpoint, MsgClass, Payload};
use sdso_obs::{EventKind, MonoClock, ObsSet, TraceConfig, THREAD_ROLE_WORKER};

#[path = "common/trace.rs"]
mod trace;

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
            // until after the hub's no-Down check — otherwise spoke exits
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
    let downs = hub.take_peer_events();
    if !downs.is_empty() {
        return Err(format!("links tore during soak: {downs:?}"));
    }
    let elapsed = started.elapsed();
    if elapsed > deadline {
        return Err(format!("soak finished but overran its deadline: {elapsed:?}"));
    }
    drop(spoke_endpoints);
    drop(hub);
    Ok(elapsed)
}

/// Runs a soak, writes its trace and event log when `SDSO_TRACE_DIR` is
/// set, then reports the outcome.
fn soak_with_trace(name: &str, spokes: usize, pings: u32, deadline: Duration) {
    let n = spokes + 1;
    let events = trace::trace_dir().is_some();
    // Full recording only when the event log is wanted: the ring must hold
    // every send/recv of the busiest node (the hub sees 2 events per ping
    // per spoke, plus batching and teardown).
    let config = if events {
        TraceConfig::full_with_capacity((spokes * pings as usize * 4).max(64 * 1024))
    } else {
        TraceConfig::counters()
    };
    let obs = ObsSet::new(n as u16, config);
    let outcome = ReactorMesh::star(n)
        .map_err(|e| format!("star setup: {e}"))
        .and_then(|star| run_soak(star, pings, deadline, &obs));
    trace::write_trace(name, &obs, events);
    if let Err(why) = outcome {
        panic!("reactor soak ({spokes} spokes, {pings} pings) failed: {why}");
    }
}

#[test]
fn soak_64_spokes_smoke() {
    soak_with_trace("soak_64_spokes_smoke", 64, 25, Duration::from_secs(60));
}

#[test]
#[ignore = "full-scale soak; run via CI's soak job (cargo test -- --ignored soak_)"]
fn soak_reactor_256_spokes() {
    soak_with_trace("soak_reactor_256_spokes", 256, 50, Duration::from_secs(240));
}

/// Crash *detection* on the real transport: when spokes die abruptly
/// (their process vanishes without a goodbye), the hub's reactor surfaces
/// exactly one peer-down event per dead spoke and none for a live one.
#[test]
fn reactor_abrupt_death_surfaces_one_down_per_dead_spoke() {
    use sdso_net::PeerEvent;

    const N: usize = 8;
    const DEAD: [u16; 3] = [2, 5, 7];
    let mut endpoints = ReactorMesh::star(N).expect("star setup");
    let mut hub = endpoints.remove(0);
    // Every spoke announces itself so the hub has live links, then the
    // doomed ones drop their endpoint — an abrupt socket teardown, the
    // closest a test harness gets to SIGKILL. A survivor hands its
    // endpoint back in the thread's result, which keeps its link open
    // until the join below.
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|mut ep| {
            std::thread::spawn(move || {
                let me = ep.node_id();
                ep.send(0, Payload::control(vec![me as u8])).expect("hello");
                (!DEAD.contains(&me)).then_some(ep)
            })
        })
        .collect();

    let mut hellos = 0;
    let mut downs: Vec<PeerEvent> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while (hellos < N - 1 || downs.len() < DEAD.len()) && Instant::now() < deadline {
        if hub.recv_deadline(sdso_net::SimSpan::from_millis(200)).expect("hub recv").is_some() {
            hellos += 1;
        }
        downs.extend(hub.take_peer_events());
    }
    assert_eq!(hellos, N - 1, "every spoke said hello before the cull");
    let mut down: Vec<u16> = downs.iter().map(|&PeerEvent::Down(peer)| peer).collect();
    down.sort_unstable();
    assert_eq!(down, DEAD.to_vec(), "one Down per dead spoke, none for a live one");
    for h in handles {
        drop(h.join().expect("spoke thread"));
    }
}

/// Spawns the reader thread of one thread-per-peer socket: it hands every
/// 6-byte ping body, tagged with `peer`, to the application's channel
/// until the socket closes.
fn spawn_reader(
    mut sock: UnixStream,
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
/// framing. Its sockets are Unix-domain pairs, like the reactor's star, so
/// the ratio compares the two designs and not two socket families. Returns
/// how long the exchange took; socket setup is excluded, as it is for the
/// reactor's star.
fn thread_per_peer_soak(spokes: usize, pings: u32) -> Duration {
    let (to_hub, hub_inbox) = channel();
    let (mut hub_socks, mut spoke_ends, mut readers) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..spokes {
        let (hub, spoke) = UnixStream::pair().expect("socket pair");
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
    let spoke_socks: Vec<UnixStream> =
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
/// the thread-per-peer rate. Measured 1.61–2.09 against
/// [`thread_per_peer_soak`] with both stars wired from Unix-domain pairs,
/// the spokes reading their one link without `poll` and the hub polling
/// (1.39–2.02 when every turn polled; 1.12–1.65 when both were loopback
/// TCP; 1.14–1.34 before receives spun before parking); the `epoll` reactor this one replaced read
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
/// it. Two threads bounce a 64-byte payload 20 000 times over
/// `ReactorMesh::local(2)` and then over a plain blocking `UnixStream` pair
/// — the socket family the reactor's links use — doing `write_all` /
/// `read_exact`, alternating for three rounds, best of three each — a
/// fresh ratio: the reactor's round trip is at most the blocking pair's.
/// The reactor's receive spins briefly before it parks, so a prompt reply
/// skips the wake-up of a parked thread that the blocking pair pays on
/// every trip (measured 0.41–0.70× in 19 of 20 runs on a 2-CPU Linux VM
/// since a lone link is read without `poll`; 0.49–0.65× when every turn
/// polled; 0.50–0.62× when both sides were loopback TCP; 1.11–1.35×
/// before the spin, when the contract allowed 2×; 2.81–2.87× while the
/// poll loop ran on a thread of its own). Both sides are timed on the same
/// two threads, but the threads are not pinned: where the scheduler puts
/// the two on one CPU, the blocking pair skips that wake-up and the ratio
/// reads above 1 (1.07× in the other run of those 20; 0.95–1.22× under
/// `taskset -c 0`, where it read 1.19–1.55× when every turn polled).
#[test]
#[ignore = "wall-clock ratio: run by the CI contracts job, in release"]
fn contract_reactor_round_trip_is_no_slower_than_a_blocking_socket_pair() {
    const TRIPS: u32 = 20_000;
    const LEN: usize = 64;
    const ROUNDS: usize = 3;

    let _alone = timing_alone();
    let mut eps = ReactorMesh::local(2).expect("reactor pair");
    let mut b = eps.pop().expect("node 1");
    let mut a = eps.pop().expect("node 0");
    let (mut pair_a, mut pair_b) = UnixStream::pair().expect("socket pair");
    // One echo thread serves both pairs, a reactor round then a socket-pair
    // round, in the order this thread drives them: both sides are timed on
    // the same two threads, wherever the scheduler places them.
    let echo = std::thread::spawn(move || {
        let mut buf = [0u8; LEN];
        for _ in 0..ROUNDS {
            for _ in 0..TRIPS {
                let msg = b.recv().expect("echo recv");
                b.send(0, msg.payload).expect("echo send");
            }
            for _ in 0..TRIPS {
                pair_b.read_exact(&mut buf).expect("echo read");
                pair_b.write_all(&buf).expect("echo write");
            }
        }
        b
    });
    let (mut reactor, mut pair) = (Duration::MAX, Duration::MAX);
    let mut buf = [7u8; LEN];
    for _ in 0..ROUNDS {
        let started = Instant::now();
        for _ in 0..TRIPS {
            a.send(1, Payload::control(vec![7u8; LEN])).expect("send");
            a.recv().expect("recv");
        }
        reactor = reactor.min(started.elapsed());
        let started = Instant::now();
        for _ in 0..TRIPS {
            pair_a.write_all(&buf).expect("write");
            pair_a.read_exact(&mut buf).expect("read");
        }
        pair = pair.min(started.elapsed());
    }
    drop(echo.join().expect("echo thread"));
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
