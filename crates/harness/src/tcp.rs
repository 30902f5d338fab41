//! The socket transport's [`Endpoint`](sdso_net::Endpoint) contract, checked
//! the way protocol code meets the transport: endpoints mostly as
//! [`local_cluster`](crate::transports::local_cluster) hands them out
//! (boxed, `Send`). The reactor's own unit tests (`sdso_net::reactor`)
//! probe its internals and feed it raw sockets; these hold only what a
//! protocol holds.
//!
//! The module and its tests keep the names they had when the transport
//! ran over loopback TCP; its links are Unix-domain socket pairs now.
//! Every link is connected once, at setup, and a torn one is never
//! re-dialled: a torn link means the peer is gone.

#[cfg(test)]
#[cfg(unix)]
mod tests {
    use std::time::Duration;

    use sdso_net::reactor::ReactorMesh;
    use sdso_net::{Endpoint, NetError, NodeId, Payload, PeerEvent, SimSpan, TransportKind};

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
    fn wire_len_travels_in_frame_header() {
        let (mut a, mut b) = pair();
        a.send(1, Payload::data(vec![0u8; 10]).with_wire_len(2048)).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.payload.wire_len(), 2048);
        assert_eq!(b.metrics().data_recv.bytes, 2048);
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

    /// A torn link is `Down` once, for good. Once node 1's endpoint drops,
    /// the first send to it fails with `Disconnected` from the lower-id
    /// side (node 0) and the higher-id side (node 2) alike, and so does
    /// the next; each survivor queues exactly one `Down(1)`; and after
    /// `remove_peer` the sends are dropped silently, uncounted.
    #[test]
    fn a_torn_link_is_down_for_good_from_either_side() {
        let mut eps = local_cluster(TransportKind, 3).unwrap();
        let mut c = eps.pop().unwrap();
        drop(eps.pop());
        let mut a = eps.pop().unwrap();
        for survivor in [&mut a, &mut c] {
            let me = survivor.node_id();
            let sent = survivor.send(1, Payload::control(vec![0u8; 64]));
            assert!(matches!(sent, Err(NetError::Disconnected)), "node {me}: {sent:?}");
            assert_eq!(survivor.take_peer_events(), vec![PeerEvent::Down(1)], "node {me}");
            let again = survivor.send(1, Payload::data(vec![1]));
            assert!(matches!(again, Err(NetError::Disconnected)), "node {me}: {again:?}");
            assert!(survivor.take_peer_events().is_empty(), "node {me}: Down once");
        }
        a.remove_peer(1);
        let before = a.metrics().total_sent();
        for _ in 0..10 {
            a.send(1, Payload::control(vec![0u8; 64])).unwrap();
        }
        assert_eq!(a.metrics().total_sent(), before, "drops are not traffic");
        // The survivors' own link is untouched.
        a.send(2, Payload::data(b"still here".as_ref())).unwrap();
        assert_eq!(&c.recv().unwrap().payload.bytes[..], b"still here");
    }

    #[test]
    fn drop_disconnects_peers() {
        let (mut a, b) = pair();
        drop(b);
        let before = a.metrics().total_sent();
        let sent = a.send(1, Payload::control(vec![0u8; 1024]));
        assert!(matches!(sent, Err(NetError::Disconnected)), "send to a dropped peer: {sent:?}");
        assert_eq!(a.metrics().total_sent(), before, "a failed send is not counted");
    }

    #[test]
    fn peer_exit_surfaces_as_down_event() {
        let (mut a, b) = pair();
        drop(b);
        // a notices the EOF inside its own calls: take_peer_events polls.
        let mut seen = Vec::new();
        for _ in 0..200 {
            seen.extend(a.take_peer_events());
            if !seen.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(seen, vec![PeerEvent::Down(1)], "EOF surfaces as one Down");
    }

    #[test]
    fn sends_to_removed_peer_are_dropped_silently() {
        let (mut a, b) = pair();
        a.remove_peer(1);
        drop(b);
        // Without removal this loop errors (see the torn-link test above);
        // with the peer removed every send must stay Ok.
        for _ in 0..100 {
            a.send(1, Payload::control(vec![0u8; 1024])).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
