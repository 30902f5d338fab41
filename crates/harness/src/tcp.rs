//! The TCP transport's [`Endpoint`](sdso_net::Endpoint) contract, checked
//! the way protocol code meets the transport: endpoints built with the
//! production tuning, mostly as [`local_cluster`](crate::transports::local_cluster)
//! hands them out (boxed, `Send`). The reactor's own unit tests
//! (`sdso_net::reactor`) drive `ReactorMesh` with test tuning and probe its
//! internals; these hold only what a protocol holds, plus the
//! `inject_disconnect` test hook where a test needs a torn link.
//!
//! A link makes progress only inside its owner's endpoint calls, so a test
//! that needs a re-dial runs the dialling side on a thread of its own,
//! waiting in `recv_deadline`.

#[cfg(test)]
#[cfg(unix)]
mod tests {
    use std::time::Duration;

    use sdso_net::reactor::ReactorMesh;
    use sdso_net::{Endpoint, NodeId, Payload, PeerEvent, SimSpan, TransportKind};

    use crate::transports::{local_cluster, BoxedTransport};

    fn pair() -> (BoxedTransport, BoxedTransport) {
        let mut eps = local_cluster(TransportKind, 2).unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        (a, b)
    }

    #[test]
    fn local_mesh_ping_pong() {
        let (mut a, mut b) = pair();
        a.send(1, Payload::data(b"ping".as_ref())).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.from, 0);
        assert_eq!(&got.payload.bytes[..], b"ping");
        b.send(0, Payload::control(b"pong".as_ref())).unwrap();
        assert_eq!(&a.recv().unwrap().payload.bytes[..], b"pong");
    }

    #[test]
    fn star_routes_hub_to_spokes() {
        let mut eps: Vec<BoxedTransport> = ReactorMesh::star(4)
            .unwrap()
            .into_iter()
            .map(|e| Box::new(e) as BoxedTransport)
            .collect();
        let mut spokes: Vec<BoxedTransport> = eps.drain(1..).collect();
        let mut hub = eps.remove(0);
        for spoke in &mut spokes {
            spoke.send(0, Payload::control(vec![spoke.node_id() as u8])).unwrap();
        }
        let mut seen = Vec::new();
        for _ in 0..spokes.len() {
            let got = hub.recv().unwrap();
            assert_eq!(got.payload.bytes[0], got.from as u8);
            seen.push(got.from);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
        for spoke in &mut spokes {
            hub.send(spoke.node_id(), Payload::data(b"ack".as_ref())).unwrap();
            assert_eq!(&spoke.recv().unwrap().payload.bytes[..], b"ack");
        }
    }

    #[test]
    fn four_node_broadcast_across_threads() {
        let eps = local_cluster(TransportKind, 4).unwrap();
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
        let (mut a, mut b) = pair();
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
    fn send_batch_after_forced_drop_degrades_to_redial() {
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap(); // id 1: the dialling side
        let mut a = eps.pop().unwrap(); // id 0: the accepting side
        let dialler = std::thread::spawn(move || {
            b.inject_disconnect(0).unwrap();
            b.send_batch(0, vec![Payload::data(b"x".as_ref()), Payload::data(b"y".as_ref())])
                .unwrap();
            let ack = b
                .recv_deadline(SimSpan::from_millis(10_000))
                .unwrap()
                .expect("a acknowledges over the re-dialled link");
            assert_eq!(&ack.payload.bytes[..], b"ack");
            assert_eq!(b.metrics().reconnects, 1);
            b
        });
        assert_eq!(&a.recv().unwrap().payload.bytes[..], b"x");
        assert_eq!(&a.recv().unwrap().payload.bytes[..], b"y");
        a.send(1, Payload::control(b"ack".as_ref())).unwrap();
        drop(dialler.join().unwrap());
    }

    #[test]
    fn wire_len_travels_in_frame_header() {
        let (mut a, mut b) = pair();
        a.send(1, Payload::data(vec![0u8; 10]).with_wire_len(2048)).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.payload.wire_len(), 2048);
        assert_eq!(b.metrics().data_recv.bytes, 2048);
    }

    #[test]
    fn drop_disconnects_peers() {
        let (mut a, b) = pair();
        drop(b);
        // Node 0 is the accepting side of the pair (it never re-dials), so
        // its sends must eventually fail.
        let mut disconnected = false;
        for _ in 0..100 {
            if a.send(1, Payload::control(vec![0u8; 1024])).is_err() {
                disconnected = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(disconnected, "send to dropped peer should eventually fail");
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let (mut a, mut b) = pair();
        assert!(b.recv_deadline(SimSpan::from_millis(30)).unwrap().is_none());
        a.send(1, Payload::data(b"late".as_ref())).unwrap();
        let got = b
            .recv_deadline(SimSpan::from_millis(2_000))
            .unwrap()
            .expect("message arrives within the deadline");
        assert_eq!(&got.payload.bytes[..], b"late");
    }

    #[test]
    fn reconnect_with_backoff_after_forced_drop() {
        let mut eps = ReactorMesh::local(2).unwrap();
        let mut b = eps.pop().unwrap(); // id 1: the dialling side
        let mut a = eps.pop().unwrap(); // id 0: the accepting side
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let dialler = std::thread::spawn(move || {
            b.send(0, Payload::data(b"one".as_ref())).unwrap();
            go_rx.recv().unwrap();
            // Tear the connection down; the next send parks and flushes
            // once b's own calls have re-dialled.
            b.inject_disconnect(0).unwrap();
            b.send(0, Payload::data(b"two".as_ref())).unwrap();
            let ack = b
                .recv_deadline(SimSpan::from_millis(10_000))
                .unwrap()
                .expect("traffic keeps flowing both ways on the fresh connection");
            assert_eq!(&ack.payload.bytes[..], b"ack");
            let m = b.metrics();
            assert!(m.retries >= 1, "reconnect attempts are counted, got {m:?}");
            assert_eq!(m.reconnects, 1, "exactly one re-established connection");
            // The torn link surfaced as a first-class Down, the fresh one as Up.
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
    fn peer_exit_surfaces_as_down_event() {
        let (mut a, b) = pair();
        drop(b);
        // a notices the EOF inside its own calls: take_peer_events polls.
        let mut seen = Vec::new();
        for _ in 0..200 {
            seen.extend(a.take_peer_events());
            if seen.contains(&PeerEvent::Down(1)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(seen.contains(&PeerEvent::Down(1)), "EOF must surface as Down: {seen:?}");
    }

    #[test]
    fn sends_to_removed_peer_are_dropped_silently() {
        let (mut a, b) = pair();
        a.remove_peer(1);
        drop(b);
        // Without removal this loop eventually errors (drop_disconnects_peers
        // above); with the peer removed every send must stay Ok.
        for _ in 0..100 {
            a.send(1, Payload::control(vec![0u8; 1024])).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
