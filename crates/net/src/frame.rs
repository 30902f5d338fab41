//! Length-prefixed framing for stream transports.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! +---------+--------+---------+----------+----------------+
//! | len u32 | from   | class   | wire_len | body           |
//! |         | u16    | u8      | u32      | len - 7 bytes  |
//! +---------+--------+---------+----------+----------------+
//! ```
//!
//! `len` counts everything after itself. `wire_len` carries the *modelled*
//! message size (see [`Payload::wire_len`]) so that metrics agree between
//! real and simulated transports.
//!
//! A *batch* is a plain concatenation of frames: each sub-frame keeps its own
//! length prefix, so a receiver consumes a batch by calling
//! [`decode_frame_at`] in a loop — no separate batch header exists to parse
//! or to corrupt.

use bytes::{Bytes, BytesMut};

use crate::endpoint::NodeId;
use crate::error::NetError;
use crate::message::{Incoming, MsgClass, Payload};

/// Header bytes following the length prefix.
const HEADER: usize = 2 + 1 + 4;

/// Maximum accepted frame body, a defence against corrupt length prefixes.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Appends one framed message to `out`.
pub fn append_frame(out: &mut BytesMut, from: NodeId, payload: &Payload) {
    let body_len = payload.bytes.len();
    let len = (HEADER + body_len) as u32;
    let mut head = [0u8; 4 + HEADER];
    head[0..4].copy_from_slice(&len.to_le_bytes());
    head[4..6].copy_from_slice(&from.to_le_bytes());
    head[6] = payload.class.to_wire();
    head[7..11].copy_from_slice(&payload.wire_len.to_le_bytes());
    out.extend_from_slice(&head);
    out.extend_from_slice(&payload.bytes);
}

/// Malformed-length error, out of line so decoders stay allocation-free on
/// the hot path (the `format!` lives here, behind `#[cold]`).
#[cold]
fn codec_bad_len(len: usize) -> NetError {
    NetError::Codec(format!("invalid frame length {len}"))
}

/// Malformed-class error, out of line for the same reason.
#[cold]
fn codec_bad_class(byte: u8) -> NetError {
    NetError::Codec(format!("invalid message class {byte:#x}"))
}

/// A frozen copy of `body` in storage drawn from this thread's buffer pool,
/// which the receiver hands back once it has consumed the message.
fn pooled_copy(body: &[u8]) -> Bytes {
    let copy = crate::pool::thread_pool(|pool| {
        let mut buf = pool.get();
        buf.extend_from_slice(body);
        buf.freeze()
    });
    copy.unwrap_or_else(|| Bytes::copy_from_slice(body))
}

/// Decodes one frame from `buf` starting at `*pos` without consuming input
/// beyond the frame. On success advances `*pos` past the frame and returns
/// the message, its body in storage drawn from this thread's
/// [`crate::pool::BufPool`]; returns `Ok(None)` when `buf[*pos..]` holds
/// only a frame prefix (the caller should read more bytes and retry).
///
/// Made for transports that accumulate socket reads in a flat buffer: the
/// caller owns compaction (dropping `buf[..pos]` once a read burst is
/// drained), which keeps the decoder free of any buffer-management policy.
/// A stream that ends with `Ok(None)` pending ended mid-frame; the reactor
/// discards that tail rather than deliver it.
///
/// # Errors
///
/// Returns [`NetError::Codec`] on a malformed length or class byte.
pub fn decode_frame_at(buf: &[u8], pos: &mut usize) -> Result<Option<Incoming>, NetError> {
    let rest = &buf[*pos..];
    if rest.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    if !(HEADER..=MAX_FRAME).contains(&len) {
        return Err(codec_bad_len(len));
    }
    if rest.len() < 4 + len {
        return Ok(None);
    }
    let frame = &rest[4..4 + len];
    let from = NodeId::from_le_bytes([frame[0], frame[1]]);
    let class = MsgClass::from_wire(frame[2]).ok_or_else(|| codec_bad_class(frame[2]))?;
    let wire_len = u32::from_le_bytes([frame[3], frame[4], frame[5], frame[6]]);
    let body = pooled_copy(&frame[HEADER..]);
    let wire_len = wire_len.max(body.len() as u32);
    *pos += 4 + len;
    Ok(Some(Incoming { from, payload: Payload { class, bytes: body, wire_len } }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(from: NodeId, payloads: &[Payload]) -> Vec<u8> {
        let mut out = BytesMut::new();
        for p in payloads {
            append_frame(&mut out, from, p);
        }
        out.to_vec()
    }

    fn roundtrip(payload: Payload) -> Incoming {
        let buf = encode(3, &[payload]);
        let mut pos = 0;
        let got = decode_frame_at(&buf, &mut pos).unwrap().expect("one whole frame");
        assert_eq!(pos, buf.len());
        got
    }

    #[test]
    fn frame_roundtrip_preserves_everything() {
        let p = Payload::data(vec![9u8; 100]).with_wire_len(2048);
        let got = roundtrip(p.clone());
        assert_eq!(got.from, 3);
        assert_eq!(got.payload, p);
    }

    #[test]
    fn empty_body_roundtrip() {
        let got = roundtrip(Payload::control(Vec::new()));
        assert_eq!(got.payload.bytes.len(), 0);
        assert_eq!(got.payload.class, MsgClass::Control);
    }

    #[test]
    fn hostile_length_rejected() {
        let buf = u32::MAX.to_le_bytes();
        assert!(matches!(decode_frame_at(&buf, &mut 0), Err(NetError::Codec(_))));
    }

    #[test]
    fn invalid_class_rejected() {
        let mut buf = encode(0, &[Payload::control(vec![1])]);
        buf[6] = 0xFF; // corrupt the class byte
        assert!(matches!(decode_frame_at(&buf, &mut 0), Err(NetError::Codec(_))));
    }

    #[test]
    fn undersized_length_rejected() {
        // A length smaller than the fixed header can never hold a frame.
        for len in 0..HEADER as u32 {
            let mut buf = len.to_le_bytes().to_vec();
            buf.resize(4 + len as usize, 0);
            let got = decode_frame_at(&buf, &mut 0);
            assert!(matches!(got, Err(NetError::Codec(_))), "len {len}: {got:?}");
        }
    }

    fn sample_batch() -> Vec<Payload> {
        vec![
            Payload::data(vec![1u8; 40]).with_wire_len(2048),
            Payload::control(vec![2u8; 3]),
            Payload::data(Vec::new()),
            Payload::control(vec![4u8; 17]).with_wire_len(64),
        ]
    }

    #[test]
    fn batch_roundtrips_through_decode_frame_at() {
        let payloads = sample_batch();
        let buf = encode(7, &payloads);
        let mut pos = 0;
        for expect in &payloads {
            let got = decode_frame_at(&buf, &mut pos).unwrap().unwrap();
            assert_eq!(got.from, 7);
            assert_eq!(got.payload.bytes, expect.bytes);
            assert_eq!(got.payload.class, expect.class);
            assert_eq!(got.payload.wire_len(), expect.wire_len());
        }
        assert_eq!(pos, buf.len());
        assert!(decode_frame_at(&buf, &mut pos).unwrap().is_none());
    }

    #[test]
    fn truncated_batch_decodes_only_whole_frames_at_every_cut() {
        let payloads = sample_batch();
        let buf = encode(2, &payloads);
        let ends: Vec<usize> = payloads
            .iter()
            .scan(0, |end, p| {
                *end += 4 + HEADER + p.bytes.len();
                Some(*end)
            })
            .collect();
        // A cut yields exactly the frames that end at or before it — never
        // a phantom, never a panic — and `pos` stops behind the last one.
        for cut in 0..=buf.len() {
            let (mut pos, mut whole) = (0, 0);
            while let Some(got) = decode_frame_at(&buf[..cut], &mut pos).unwrap() {
                assert_eq!(got.payload.bytes, payloads[whole].bytes, "cut {cut}");
                whole += 1;
            }
            assert_eq!(whole, ends.iter().filter(|&&end| end <= cut).count(), "cut {cut}");
            assert_eq!(pos, whole.checked_sub(1).map_or(0, |last| ends[last]), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_mid_batch_header_poisons_only_the_tail() {
        let payloads = sample_batch();
        let mut buf = encode(2, &payloads);
        // Corrupt the second sub-frame's class byte: frame 1 still parses,
        // frame 2 errors.
        let first_len = 4 + HEADER + payloads[0].bytes.len();
        buf[first_len + 6] = 0xFF;
        let mut pos = 0;
        assert!(decode_frame_at(&buf, &mut pos).unwrap().is_some());
        assert!(matches!(decode_frame_at(&buf, &mut pos), Err(NetError::Codec(_))));
        assert_eq!(pos, first_len);
    }

    /// Every truncation — the empty buffer at a frame boundary, a cut
    /// inside the length prefix, the header or the body — is a frame still
    /// arriving: no frame, no error, no panic, and `pos` stays put.
    #[test]
    fn decode_frame_at_every_partial_prefix_returns_none() {
        let buf = encode(1, &[Payload::data(vec![3u8; 25]).with_wire_len(99)]);
        for cut in 0..buf.len() {
            let mut pos = 0usize;
            let got = decode_frame_at(&buf[..cut], &mut pos).unwrap();
            assert!(got.is_none(), "prefix of {cut} bytes decoded a frame");
            assert_eq!(pos, 0, "pos must not move on a partial frame");
        }
        assert!(decode_frame_at(&buf, &mut 0).unwrap().is_some());
    }

    #[test]
    fn decode_frame_at_rejects_corruption_without_advancing() {
        let good = encode(1, &[Payload::control(vec![1, 2])]);

        let mut hostile = good.clone();
        hostile[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut pos = 0usize;
        assert!(matches!(decode_frame_at(&hostile, &mut pos), Err(NetError::Codec(_))));
        assert_eq!(pos, 0);

        let mut bad_class = good.clone();
        bad_class[6] = 0xFF;
        let mut pos = 0usize;
        assert!(matches!(decode_frame_at(&bad_class, &mut pos), Err(NetError::Codec(_))));
        assert_eq!(pos, 0);
    }

    #[test]
    fn decode_frame_at_resumes_mid_buffer() {
        // Two frames; decoding starts after the first one.
        let first = encode(1, &[Payload::data(vec![1u8; 10])]);
        let mut buf = first.clone();
        buf.extend(encode(2, &[Payload::control(vec![2u8; 4])]));
        let mut pos = first.len();
        let inc = decode_frame_at(&buf, &mut pos).unwrap().unwrap();
        assert_eq!(inc.from, 2);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut buf = Vec::new();
        for i in 0..5u8 {
            buf.extend(encode(i as NodeId, &[Payload::data(vec![i])]));
        }
        let mut pos = 0;
        for i in 0..5u8 {
            let got = decode_frame_at(&buf, &mut pos).unwrap().unwrap();
            assert_eq!(got.from, i as NodeId);
            assert_eq!(got.payload.bytes[0], i);
        }
    }
}
