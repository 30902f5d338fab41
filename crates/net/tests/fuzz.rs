//! Fuzz-style property tests of the wire and framing layers: malformed
//! input must produce errors, never panics or bogus successes.

use bytes::BytesMut;
use proptest::prelude::*;
use sdso_net::frame::{append_frame, decode_frame_at};
use sdso_net::wire::{WireReader, WireWriter};
use sdso_net::{MsgClass, Payload};

/// Frames `payloads` back to back, as the reactor's write buffer does.
fn encode(from: u16, payloads: &[Payload]) -> Vec<u8> {
    let mut out = BytesMut::new();
    for p in payloads {
        append_frame(&mut out, from, p);
    }
    out.to_vec()
}

proptest! {
    #[test]
    fn frame_roundtrip_arbitrary_payloads(
        body in proptest::collection::vec(any::<u8>(), 0..4096),
        from in 0u16..64,
        data in any::<bool>(),
        wire_len in 0u32..1_000_000,
    ) {
        let class = if data { MsgClass::Data } else { MsgClass::Control };
        let payload = Payload::new(class, body.clone()).with_wire_len(wire_len);
        let buf = encode(from, std::slice::from_ref(&payload));
        let mut pos = 0;
        let got = decode_frame_at(&buf, &mut pos).unwrap().unwrap();
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(got.from, from);
        prop_assert_eq!(got.payload.class, class);
        prop_assert_eq!(got.payload.bytes.to_vec(), body);
        prop_assert_eq!(got.payload.wire_len(), payload.wire_len());
    }

    #[test]
    fn frame_reader_never_panics_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        // Err or a partial frame is fine; whatever decodes lies inside the input.
        let mut pos = 0;
        while let Ok(Some(_)) = decode_frame_at(&garbage, &mut pos) {}
        prop_assert!(pos <= garbage.len());
    }

    #[test]
    fn truncated_valid_frames_never_decode(
        body in proptest::collection::vec(any::<u8>(), 1..512),
        cut in any::<proptest::sample::Index>(),
    ) {
        let buf = encode(3, &[Payload::data(body)]);
        let short = &buf[..cut.index(buf.len())];
        let mut pos = 0;
        prop_assert!(decode_frame_at(short, &mut pos).unwrap().is_none());
        prop_assert_eq!(pos, 0);
    }

    #[test]
    fn batched_frames_roundtrip_as_a_decode_loop(
        bodies in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..512), any::<bool>()), 0..8),
        from in 0u16..64,
    ) {
        let payloads: Vec<Payload> = bodies
            .iter()
            .map(|(body, data)| {
                let class = if *data { MsgClass::Data } else { MsgClass::Control };
                Payload::new(class, body.clone())
            })
            .collect();
        let wire = encode(from, &payloads);
        let mut pos = 0;
        for p in &payloads {
            let got = decode_frame_at(&wire, &mut pos).unwrap().unwrap();
            prop_assert_eq!(got.from, from);
            prop_assert_eq!(got.payload.class, p.class);
            prop_assert_eq!(&got.payload.bytes[..], &p.bytes[..]);
        }
        prop_assert_eq!(pos, wire.len());
        prop_assert!(decode_frame_at(&wire, &mut pos).unwrap().is_none(), "batch fully consumed");
    }

    #[test]
    fn truncated_batches_decode_only_whole_frames(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..6),
        cut in any::<proptest::sample::Index>(),
    ) {
        let payloads: Vec<Payload> =
            bodies.into_iter().map(Payload::data).collect();
        let wire = encode(5, &payloads);
        let short = &wire[..cut.index(wire.len())];
        // Decoding the truncated batch yields a prefix of the frames, then
        // waits for more — never a panic, never a phantom frame.
        let (mut pos, mut whole) = (0, 0usize);
        while let Some(got) = decode_frame_at(short, &mut pos).unwrap() {
            prop_assert_eq!(&got.payload.bytes[..], &payloads[whole].bytes[..]);
            whole += 1;
        }
        prop_assert!(whole < payloads.len());
    }

    #[test]
    fn corrupted_batch_bytes_never_panic_the_reader(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48), 1..5),
        corrupt_at in any::<proptest::sample::Index>(),
        corrupt_to in any::<u8>(),
    ) {
        let payloads: Vec<Payload> =
            bodies.into_iter().map(Payload::data).collect();
        let mut wire = encode(5, &payloads);
        let at = corrupt_at.index(wire.len());
        wire[at] = corrupt_to;
        // Smashed length prefixes / class bytes may poison the rest of the
        // stream; each decode must still end in Ok or Err, never a panic.
        let mut pos = 0;
        for _ in 0..payloads.len() {
            if !matches!(decode_frame_at(&wire, &mut pos), Ok(Some(_))) {
                break;
            }
        }
        prop_assert!(pos <= wire.len());
    }

    #[test]
    fn wire_reader_survives_any_operation_sequence(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        ops in proptest::collection::vec(0u8..7, 0..16),
    ) {
        let mut r = WireReader::new(&bytes);
        for op in ops {
            // Any mix of reads on arbitrary bytes: Err allowed, panic not.
            let _ = match op {
                0 => r.get_u8().map(|_| ()),
                1 => r.get_u16().map(|_| ()),
                2 => r.get_u32().map(|_| ()),
                3 => r.get_u64().map(|_| ()),
                4 => r.get_bool().map(|_| ()),
                5 => r.get_bytes().map(|_| ()),
                _ => r.get_seq(|r| r.get_u8()).map(|_| ()),
            };
        }
    }

    #[test]
    fn writer_reader_roundtrip_mixed_sequences(
        values in proptest::collection::vec((any::<u32>(), proptest::collection::vec(any::<u8>(), 0..32)), 0..16)
    ) {
        let mut w = WireWriter::new();
        for (num, bytes) in &values {
            w.put_u32(*num);
            w.put_bytes(bytes);
        }
        let encoded = w.into_bytes();
        let mut r = WireReader::new(&encoded);
        for (num, bytes) in &values {
            prop_assert_eq!(r.get_u32().unwrap(), *num);
            prop_assert_eq!(r.get_bytes().unwrap(), &bytes[..]);
        }
        r.finish().unwrap();
    }
}
