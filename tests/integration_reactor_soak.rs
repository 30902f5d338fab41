//! Reactor soak: a hub-and-spokes cluster where one epoll loop on the hub
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
//! The harness is generic over the transport: the same exchange timed over
//! the reactor and over the thread-per-peer `TcpMesh` is the throughput
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

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use sdso_net::reactor::ReactorMesh;
use sdso_net::tcp::TcpMesh;
use sdso_net::{Endpoint, MsgClass, Payload, PeerEvent};
use sdso_obs::{EventKind, MonoClock, ObsSet, TraceConfig, THREAD_ROLE_WORKER};

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
                // A small send window keeps every spoke's traffic in
                // flight at once without serialising on round trips.
                const WINDOW: u32 = 4;
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

/// One poll thread per endpoint must not be slower than a reader thread per
/// peer. Same host, same process, the two stars back to back at 256 spokes x
/// 100 pings, best of three each — a fresh ratio, which travels across hosts
/// where a wall-clock number does not: the reactor sustains at least 0.9 of
/// the threaded rate (measured 1.6).
#[test]
#[ignore = "wall-clock ratio: run by the CI contracts job, in release"]
fn contract_reactor_sustains_the_thread_per_peer_rate() {
    fn timed<E: Endpoint + 'static>(star: Vec<E>, obs: &ObsSet) -> Duration {
        run_soak(star, 100, Duration::from_secs(240), obs).expect("soak")
    }
    const N: usize = 256 + 1;
    let obs = ObsSet::new(N as u16, TraceConfig::counters());
    let (mut reactor, mut threaded) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        reactor = reactor.min(timed(ReactorMesh::star(N).expect("reactor star"), &obs));
        threaded = threaded.min(timed(TcpMesh::star(N).expect("tcp star"), &obs));
    }
    let ratio = threaded.as_secs_f64() / reactor.as_secs_f64();
    println!("256 spokes x 100 pings: reactor {reactor:?}, thread-per-peer {threaded:?}");
    assert!(ratio >= 0.9, "the reactor sustains only {ratio:.2} of the thread-per-peer rate");
}
