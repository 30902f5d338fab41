//! S-DSO's wire protocol.
//!
//! Every S-DSO message is one [`DsoMessage`] encoded with the workspace
//! codec. Consistency protocols built on top of the runtime (entry
//! consistency's lock traffic, LRC's write notices, …) travel inside the
//! [`DsoMessage::App`] escape hatch so that one framing layer serves all.

use crate::membership::Epoch;
use bytes::Bytes;
use sdso_net::wire::{Wire, WireReader, WireWriter};
use sdso_net::{MsgClass, NetError, Payload};

use crate::clock::LogicalTime;
use crate::diff::Diff;
use crate::object::{ObjectId, Version};

/// One object update inside a rendezvous data message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireUpdate {
    /// The object modified.
    pub object: ObjectId,
    /// Byte-level changes.
    pub diff: Diff,
    /// Stamp of the newest write folded into `diff`.
    pub version: Version,
}

impl Wire for WireUpdate {
    fn encode(&self, w: &mut WireWriter) {
        self.object.encode(w);
        self.version.encode(w);
        self.diff.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let object = ObjectId::decode(r)?;
        let version = Version::decode(r)?;
        let diff = Diff::decode(r)?;
        Ok(WireUpdate { object, diff, version })
    }
}

/// The messages exchanged by the S-DSO runtime. The reliability layer's
/// own vocabulary, an envelope and an acknowledgement, is [`Frame`]'s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsoMessage {
    /// The data half of a rendezvous `(data, SYNC)` pair: buffered plus
    /// current-interval updates, stamped with the sender's logical time and
    /// the membership epoch the exchange was computed under.
    Data {
        /// Membership epoch the sender computed this exchange under.
        epoch: Epoch,
        /// Sender's logical time.
        time: LogicalTime,
        /// The updates carried.
        updates: Vec<WireUpdate>,
    },
    /// The control half of a rendezvous pair. Sent alone when the sender
    /// has no updates to report (e.g. it lost a contention arbitration and
    /// held still this interval).
    Sync {
        /// Membership epoch the sender computed this exchange under.
        epoch: Epoch,
        /// Sender's logical time.
        time: LogicalTime,
    },
    /// A request to pull an object's current body (`sync_get`).
    GetReq {
        /// The object requested.
        object: ObjectId,
    },
    /// The reply to a [`DsoMessage::GetReq`].
    GetRep {
        /// The object.
        object: ObjectId,
        /// Its version at the replier.
        version: Version,
        /// Full object contents.
        body: Vec<u8>,
    },
    /// Opaque bytes for a protocol layered above the runtime, with an
    /// explicit accounting class.
    App {
        /// Accounting class of the embedded message.
        class: MsgClass,
        /// The embedded encoding; in a received frame, a slice of that
        /// frame.
        bytes: Bytes,
    },
    /// A full-state transfer to a late joiner: every shared object's
    /// current body (as a from-zero diff reusing the rendezvous wire
    /// encoding) plus the donor's logical-clock frontier. O(objects) bytes,
    /// never O(history).
    Snapshot {
        /// The epoch this snapshot is consistent with.
        epoch: Epoch,
        /// The donor's logical time at the view-change barrier.
        time: LogicalTime,
        /// The donor's Lamport stamp, so the joiner's future writes order
        /// after everything folded into the snapshot.
        lamport: u64,
        /// Current state of every modified object.
        updates: Vec<WireUpdate>,
    },
    /// The v2 data frame of a rendezvous: the update list of a
    /// [`DsoMessage::Data`], encoded by the varint/run-length codec into an
    /// opaque blob, and — with `sync` set — the [`DsoMessage::Sync`] that
    /// would have followed it, so one frame is the whole `(data, SYNC)`
    /// pair. The session resolves it back into those plain messages at its
    /// exactly-once delivery point; the blob needs nothing but itself to
    /// decode.
    Data2 {
        /// Membership epoch the sender computed this exchange under.
        epoch: Epoch,
        /// Sender's logical time.
        time: LogicalTime,
        /// The codec-v2 encoded update list (see `crate::codec`).
        blob: Vec<u8>,
        /// Whether this frame is also the sender's SYNC for `time`: no
        /// separate [`DsoMessage::Sync`] follows it.
        sync: bool,
    },
}

/// Bit of the `Data2` header's flag byte that carries `sync`; a frame with
/// any other bit set is rejected.
const DATA2_SYNC: u8 = 1;

const TAG_DATA: u8 = 1;
const TAG_SYNC: u8 = 2;
const TAG_GET_REQ: u8 = 4;
const TAG_GET_REP: u8 = 5;
const TAG_APP: u8 = 7;
const TAG_ENV: u8 = 8;
const TAG_SEQ_ACK: u8 = 9;
// Tags 3, 6, 10 and 12 are retired (a pushed object body and its
// acknowledgement, which no protocol sends; a joiner's snapshot request,
// which no process sends; and a per-link codec offer: the wire is the
// run's): each decodes to a codec error like any unknown tag. Do not
// reuse them.
const TAG_SNAPSHOT: u8 = 11;
const TAG_DATA2: u8 = 13;

impl DsoMessage {
    /// The membership epoch stamped on this message, for the kinds that
    /// carry one (rendezvous and snapshot traffic).
    pub fn epoch(&self) -> Option<Epoch> {
        match self {
            DsoMessage::Data { epoch, .. }
            | DsoMessage::Data2 { epoch, .. }
            | DsoMessage::Sync { epoch, .. }
            | DsoMessage::Snapshot { epoch, .. } => Some(*epoch),
            DsoMessage::GetReq { .. } | DsoMessage::GetRep { .. } | DsoMessage::App { .. } => None,
        }
    }

    /// The logical time a rendezvous half (`Data`, `Data2`, `Sync`) is
    /// stamped with; `None` for every other kind.
    pub(crate) fn rendezvous_time(&self) -> Option<LogicalTime> {
        match self {
            DsoMessage::Data { time, .. }
            | DsoMessage::Data2 { time, .. }
            | DsoMessage::Sync { time, .. } => Some(*time),
            DsoMessage::Snapshot { .. }
            | DsoMessage::GetReq { .. }
            | DsoMessage::GetRep { .. }
            | DsoMessage::App { .. } => None,
        }
    }

    /// The accounting class of this message (data messages carry object
    /// state; everything else is control).
    pub fn class(&self) -> MsgClass {
        match self {
            DsoMessage::Data { .. }
            | DsoMessage::Data2 { .. }
            | DsoMessage::GetRep { .. }
            | DsoMessage::Snapshot { .. } => MsgClass::Data,
            DsoMessage::Sync { .. } | DsoMessage::GetReq { .. } => MsgClass::Control,
            DsoMessage::App { class, .. } => *class,
        }
    }

    /// Encodes into a transport payload ([`pooled_frame`]), as a peer
    /// without the reliability layer sends it, padding the modelled wire
    /// size to `frame_wire_len` when configured (the paper's system
    /// exchanged fixed-size 2048-byte frames for control and data alike).
    #[cfg(test)]
    pub(crate) fn into_payload(self, frame_wire_len: Option<u32>) -> Payload {
        pooled_frame(self.class(), frame_wire_len, |w| self.encode(w))
    }

    /// Appends the encoding of the [`DsoMessage::App`] that carries `body`'s
    /// encoding under `class`, with `body` encoded once, in place, and no
    /// buffer of its own in between.
    pub(crate) fn put_app<M: Wire>(w: &mut WireWriter, class: MsgClass, body: &M) {
        w.put_u8(TAG_APP);
        w.put_u8(class.to_wire_u8());
        w.put_nested(|w| body.encode(w));
    }
}

/// A transport payload of `class` whose bytes `encode` writes into scratch
/// from this thread's buffer pool, so steady-state sends allocate nothing:
/// the frame's storage goes back to the pool with its last handle. Its
/// modelled wire size is padded to `frame_wire_len` when one is configured.
pub(crate) fn pooled_frame(
    class: MsgClass,
    frame_wire_len: Option<u32>,
    encode: impl FnOnce(&mut WireWriter),
) -> Payload {
    let scratch = sdso_net::pool::thread_pool(sdso_net::pool::BufPool::get);
    let mut w = WireWriter::from_scratch(scratch.unwrap_or_default());
    encode(&mut w);
    padded(Payload::new(class, w.into_bytes()), frame_wire_len)
}

/// `payload` with its modelled wire size padded to `frame_wire_len`, when
/// one is configured.
fn padded(payload: Payload, frame_wire_len: Option<u32>) -> Payload {
    match frame_wire_len {
        Some(len) => payload.with_wire_len(len),
        None => payload,
    }
}

impl Wire for DsoMessage {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            DsoMessage::Data { epoch, time, updates } => {
                w.put_u8(TAG_DATA);
                w.put_u32(epoch.0);
                w.put_u64(time.as_ticks());
                w.put_seq(updates, |w, u| u.encode(w));
            }
            DsoMessage::Sync { epoch, time } => {
                w.put_u8(TAG_SYNC);
                w.put_u32(epoch.0);
                w.put_u64(time.as_ticks());
            }
            DsoMessage::GetReq { object } => {
                w.put_u8(TAG_GET_REQ);
                object.encode(w);
            }
            DsoMessage::GetRep { object, version, body } => {
                w.put_u8(TAG_GET_REP);
                object.encode(w);
                version.encode(w);
                w.put_bytes(body);
            }
            DsoMessage::App { class, bytes } => {
                w.put_u8(TAG_APP);
                w.put_u8(class.to_wire_u8());
                w.put_bytes(bytes);
            }
            DsoMessage::Snapshot { epoch, time, lamport, updates } => {
                w.put_u8(TAG_SNAPSHOT);
                w.put_u32(epoch.0);
                w.put_u64(time.as_ticks());
                w.put_u64(*lamport);
                w.put_seq(updates, |w, u| u.encode(w));
            }
            DsoMessage::Data2 { epoch, time, blob, sync } => {
                w.put_u8(TAG_DATA2);
                w.put_u8(if *sync { DATA2_SYNC } else { 0 });
                w.put_u32(epoch.0);
                w.put_u64(time.as_ticks());
                w.put_bytes(blob);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        DsoMessage::decode_in(r, None)
    }
}

impl DsoMessage {
    /// Decodes one message; an `App` body is a slice of `frame` when the
    /// reader reads that frame, else a copy.
    fn decode_in(r: &mut WireReader<'_>, frame: Option<&Bytes>) -> Result<Self, NetError> {
        let tag = r.get_u8()?;
        DsoMessage::decode_tagged(tag, r, frame)
    }

    /// [`DsoMessage::decode_in`] past the tag byte, which the caller read.
    fn decode_tagged(
        tag: u8,
        r: &mut WireReader<'_>,
        frame: Option<&Bytes>,
    ) -> Result<Self, NetError> {
        match tag {
            TAG_DATA => {
                let epoch = Epoch(r.get_u32()?);
                let time = LogicalTime::from_ticks(r.get_u64()?);
                let updates = r.get_seq(WireUpdate::decode)?;
                Ok(DsoMessage::Data { epoch, time, updates })
            }
            TAG_SYNC => {
                let epoch = Epoch(r.get_u32()?);
                let time = LogicalTime::from_ticks(r.get_u64()?);
                Ok(DsoMessage::Sync { epoch, time })
            }
            TAG_GET_REQ => Ok(DsoMessage::GetReq { object: ObjectId::decode(r)? }),
            TAG_GET_REP => {
                let object = ObjectId::decode(r)?;
                let version = Version::decode(r)?;
                let body = r.get_bytes()?.to_vec();
                Ok(DsoMessage::GetRep { object, version, body })
            }
            TAG_APP => {
                let class = MsgClass::from_wire_u8(r.get_u8()?)?;
                let body = r.get_bytes()?;
                let bytes =
                    frame.map_or_else(|| Bytes::copy_from_slice(body), |f| f.slice_ref(body));
                Ok(DsoMessage::App { class, bytes })
            }
            TAG_SNAPSHOT => {
                let epoch = Epoch(r.get_u32()?);
                let time = LogicalTime::from_ticks(r.get_u64()?);
                let lamport = r.get_u64()?;
                let updates = r.get_seq(WireUpdate::decode)?;
                Ok(DsoMessage::Snapshot { epoch, time, lamport, updates })
            }
            TAG_DATA2 => {
                let flags = r.get_u8()?;
                if flags & !DATA2_SYNC != 0 {
                    return Err(NetError::Codec(format!("unknown Data2 flags {flags:#x}")));
                }
                let epoch = Epoch(r.get_u32()?);
                let time = LogicalTime::from_ticks(r.get_u64()?);
                let blob = r.get_bytes()?.to_vec();
                Ok(DsoMessage::Data2 { epoch, time, blob, sync: flags == DATA2_SYNC })
            }
            tag => Err(NetError::Codec(format!("unknown DsoMessage tag {tag:#x}"))),
        }
    }
}

/// One frame on the wire, as the session reads it: a message outside the
/// reliability layer, or one of that layer's two kinds. An envelope holds a
/// [`DsoMessage`], never a `Frame`, so envelopes never nest and never carry
/// an acknowledgement: the decoder rejects both as unknown message tags.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A message sent without the reliability layer.
    Plain(DsoMessage),
    /// A sequenced envelope: `inner` is the `seq`-th message on this link,
    /// and `ack` acknowledges the reverse direction for free.
    Env {
        /// Per-link sequence number, starting at 0.
        seq: u64,
        /// Cumulative acknowledgement of the peer's own envelopes: the
        /// sender's next expected sequence number, as in [`Frame::Ack`].
        ack: u64,
        /// The enveloped message.
        inner: DsoMessage,
    },
    /// Cumulative acknowledgement of [`Frame::Env`] traffic: every sequence
    /// number below `next` has been delivered on this link. Sent only when
    /// no envelope went the peer's way to carry it (loss is repaired by the
    /// next ack of either kind).
    Ack {
        /// The receiver's next expected sequence number.
        next: u64,
    },
}

impl Frame {
    /// Appends an envelope's header, in one write: its tag, `seq` and
    /// `ack`, each fixed-width, so the enveloped message's bytes follow at
    /// the same offset whatever the numbers are and a kept message is
    /// resent behind a fresh header.
    pub(crate) fn put_env_header(w: &mut WireWriter, seq: u64, ack: u64) {
        let mut header = [TAG_ENV; 17];
        header[1..9].copy_from_slice(&seq.to_le_bytes());
        header[9..].copy_from_slice(&ack.to_le_bytes());
        w.put_raw(&header);
    }

    /// A standalone ack's transport payload, counted as control traffic.
    pub(crate) fn ack_payload(next: u64, frame_wire_len: Option<u32>) -> Payload {
        pooled_frame(MsgClass::Control, frame_wire_len, |w| Frame::Ack { next }.encode(w))
    }

    /// Decodes a received frame, which must hold exactly one. An `App`
    /// body, enveloped or not, is a slice of `frame`, not a copy, so the
    /// frame's storage goes back to the pool with the body's last handle.
    ///
    /// # Errors
    ///
    /// As [`sdso_net::wire::decode`].
    pub(crate) fn decode_frame(frame: &Bytes) -> Result<Frame, NetError> {
        let mut r = WireReader::new(frame);
        let decoded = Frame::decode_in(&mut r, Some(frame))?;
        r.finish()?;
        Ok(decoded)
    }

    fn decode_in(r: &mut WireReader<'_>, frame: Option<&Bytes>) -> Result<Self, NetError> {
        match r.get_u8()? {
            TAG_ENV => {
                let seq = r.get_u64()?;
                let ack = r.get_u64()?;
                Ok(Frame::Env { seq, ack, inner: DsoMessage::decode_in(r, frame)? })
            }
            TAG_SEQ_ACK => Ok(Frame::Ack { next: r.get_u64()? }),
            tag => DsoMessage::decode_tagged(tag, r, frame).map(Frame::Plain),
        }
    }
}

impl Wire for Frame {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Frame::Plain(msg) => msg.encode(w),
            Frame::Env { seq, ack, inner } => {
                Frame::put_env_header(w, *seq, *ack);
                inner.encode(w);
            }
            Frame::Ack { next } => {
                w.put_u8(TAG_SEQ_ACK);
                w.put_u64(*next);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Frame::decode_in(r, None)
    }
}

/// Local extension to convert [`MsgClass`] to/from a wire byte (the net
/// crate keeps its own conversion private).
trait MsgClassWire: Sized {
    fn to_wire_u8(self) -> u8;
    fn from_wire_u8(b: u8) -> Result<Self, NetError>;
}

impl MsgClassWire for MsgClass {
    fn to_wire_u8(self) -> u8 {
        match self {
            MsgClass::Control => 0,
            MsgClass::Data => 1,
        }
    }
    fn from_wire_u8(b: u8) -> Result<Self, NetError> {
        match b {
            0 => Ok(MsgClass::Control),
            1 => Ok(MsgClass::Data),
            _ => Err(NetError::Codec(format!("invalid message class byte {b:#x}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_net::wire;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(msg: T) {
        let encoded = wire::encode(&msg);
        let decoded: T = wire::decode(&encoded).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        let v = Version::new(LogicalTime::from_ticks(4), 2);
        roundtrip(DsoMessage::Data {
            epoch: Epoch(2),
            time: LogicalTime::from_ticks(9),
            updates: vec![WireUpdate {
                object: ObjectId(3),
                diff: Diff::single(2, vec![1, 2, 3]),
                version: v,
            }],
        });
        roundtrip(DsoMessage::Sync { epoch: Epoch(1), time: LogicalTime::from_ticks(1) });
        roundtrip(DsoMessage::GetReq { object: ObjectId(8) });
        roundtrip(DsoMessage::GetRep { object: ObjectId(8), version: v, body: vec![7; 4] });
        roundtrip(DsoMessage::App { class: MsgClass::Control, bytes: vec![9, 9].into() });
        let get = || DsoMessage::GetReq { object: ObjectId(2) };
        roundtrip(Frame::Env { seq: 17, ack: 5, inner: get() });
        roundtrip(Frame::Env { seq: 0, ack: u64::MAX, inner: get() });
        roundtrip(Frame::Ack { next: 42 });
        roundtrip(Frame::Plain(get()));
        roundtrip(DsoMessage::Snapshot {
            epoch: Epoch(3),
            time: LogicalTime::from_ticks(40),
            lamport: 77,
            updates: vec![WireUpdate {
                object: ObjectId(0),
                diff: Diff::single(0, vec![5; 8]),
                version: v,
            }],
        });
        for sync in [true, false] {
            roundtrip(DsoMessage::Data2 {
                epoch: Epoch(4),
                time: LogicalTime::from_ticks(11),
                blob: vec![0x81, 0x02, 0x00],
                sync,
            });
        }
    }

    #[test]
    fn data2_flag_byte_carries_sync_and_nothing_else() {
        let fused = DsoMessage::Data2 {
            epoch: Epoch(1),
            time: LogicalTime::from_ticks(2),
            blob: vec![0],
            sync: true,
        };
        let encoded = wire::encode(&fused).to_vec();
        assert_eq!(encoded[..2], [TAG_DATA2, DATA2_SYNC], "the flags follow the tag");
        for flags in 0..=u8::MAX {
            let mut frame = encoded.clone();
            frame[1] = flags;
            match (flags, wire::decode::<DsoMessage>(&frame)) {
                (0 | DATA2_SYNC, Ok(DsoMessage::Data2 { sync, .. })) => {
                    assert_eq!(sync, flags == DATA2_SYNC);
                }
                (0 | DATA2_SYNC, other) => panic!("flags {flags:#x} decoded as {other:?}"),
                (_, Err(NetError::Codec(why))) => assert!(why.contains("Data2 flags"), "{why}"),
                (_, other) => panic!("unknown flags {flags:#x} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn envelope_class_follows_inner() {
        // The session frames an envelope under its inner message's class.
        let frame = |inner: DsoMessage| {
            let class = inner.class();
            pooled_frame(class, None, |w| Frame::Env { seq: 0, ack: 0, inner }.encode(w))
        };
        let sync = DsoMessage::Sync { epoch: Epoch::ZERO, time: LogicalTime::ZERO };
        assert_eq!(frame(sync).class, MsgClass::Control);
        let data =
            DsoMessage::Data { epoch: Epoch::ZERO, time: LogicalTime::ZERO, updates: vec![] };
        assert_eq!(frame(data).class, MsgClass::Data);
        assert_eq!(Frame::ack_payload(0, None).class, MsgClass::Control);
    }

    #[test]
    fn nested_envelopes_rejected() {
        // An envelope holds a message, so another envelope, or an ack, in
        // its place is an unknown message tag.
        let get = DsoMessage::GetReq { object: ObjectId(0) };
        let nested = [
            wire::encode(&Frame::Env { seq: 2, ack: 0, inner: get }),
            wire::encode(&Frame::Ack { next: 0 }),
        ];
        for inner in nested {
            let mut w = WireWriter::new();
            Frame::put_env_header(&mut w, 1, 0);
            w.put_raw(&inner);
            let encoded = w.into_bytes();
            match wire::decode::<Frame>(&encoded) {
                Err(NetError::Codec(why)) => {
                    assert!(why.contains("unknown DsoMessage tag"), "{why}")
                }
                other => panic!("{inner:?} in an envelope decoded as {other:?}"),
            }
            assert!(Frame::decode_frame(&encoded).is_err());
        }
    }

    /// One golden frame per envelope kind: the header is the tag, then
    /// `seq` and `ack` little-endian, then the inner message's own bytes.
    #[test]
    fn envelope_frames_are_golden() {
        let header = |seq: u64, ack: u64| {
            let mut bytes = vec![TAG_ENV];
            bytes.extend(seq.to_le_bytes());
            bytes.extend(ack.to_le_bytes());
            bytes
        };
        let v = Version::new(LogicalTime::from_ticks(4), 2);
        let inner = [
            DsoMessage::App { class: MsgClass::Data, bytes: vec![9, 8].into() },
            DsoMessage::Data2 {
                epoch: Epoch(2),
                time: LogicalTime::from_ticks(6),
                blob: vec![3, 1],
                sync: true,
            },
            DsoMessage::GetRep { object: ObjectId(5), version: v, body: vec![7; 3] },
            DsoMessage::Sync { epoch: Epoch(1), time: LogicalTime::from_ticks(3) },
        ];
        let golden: [&[u8]; 4] = [
            &[TAG_APP, 1, 2, 0, 0, 0, 9, 8],
            &[TAG_DATA2, DATA2_SYNC, 2, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 3, 1],
            &[TAG_GET_REP, 5, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 0, 0, 0, 7, 7, 7],
            &[TAG_SYNC, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0],
        ];
        for (inner, body) in inner.into_iter().zip(golden) {
            assert_eq!(&wire::encode(&inner)[..], body, "{inner:?}");
            let env = Frame::Env { seq: 0x0102, ack: u64::MAX - 1, inner };
            let expected = [header(0x0102, u64::MAX - 1), body.to_vec()].concat();
            assert_eq!(wire::encode(&env), expected);
            assert_eq!(Frame::decode_frame(&expected.into()).unwrap(), env);
        }
        let mut ack = vec![TAG_SEQ_ACK];
        ack.extend(42u64.to_le_bytes());
        assert_eq!(wire::encode(&Frame::Ack { next: 42 }), ack);
    }

    #[test]
    fn classes_match_paper_accounting() {
        let v = Version::INITIAL;
        assert_eq!(
            DsoMessage::Data { epoch: Epoch::ZERO, time: LogicalTime::ZERO, updates: vec![] }
                .class(),
            MsgClass::Data
        );
        assert_eq!(
            DsoMessage::Sync { epoch: Epoch::ZERO, time: LogicalTime::ZERO }.class(),
            MsgClass::Control
        );
        assert_eq!(
            DsoMessage::Snapshot {
                epoch: Epoch::ZERO,
                time: LogicalTime::ZERO,
                lamport: 0,
                updates: vec![],
            }
            .class(),
            MsgClass::Data,
            "snapshots carry object state"
        );
        assert_eq!(DsoMessage::GetReq { object: ObjectId(0) }.class(), MsgClass::Control);
        assert_eq!(
            DsoMessage::GetRep { object: ObjectId(0), version: v, body: vec![] }.class(),
            MsgClass::Data
        );
        let d2 = DsoMessage::Data2 {
            epoch: Epoch(1),
            time: LogicalTime::ZERO,
            blob: vec![],
            sync: true,
        };
        assert_eq!(
            d2.class(),
            MsgClass::Data,
            "compressed data is still data, SYNC on board or not"
        );
        assert_eq!(d2.epoch(), Some(Epoch(1)));
    }

    #[test]
    fn payload_padding_models_fixed_frames() {
        let msg = DsoMessage::Sync { epoch: Epoch::ZERO, time: LogicalTime::ZERO };
        let padded = msg.clone().into_payload(Some(2048));
        assert_eq!(padded.wire_len(), 2048);
        let unpadded = msg.into_payload(None);
        assert!(unpadded.wire_len() < 2048);
    }

    #[test]
    fn unknown_tag_rejected() {
        // Then the retired tags: 3 and 6 (a pushed body and its bare
        // acknowledgement), a snapshot request for epoch 2 under 10 (the
        // epoch is little-endian) and a codec offer of version 2 under 12.
        for frame in [&[0xEE][..], &[3], &[6], &[10, 2, 0, 0, 0], &[12, 2]] {
            let res: Result<DsoMessage, _> = wire::decode(frame);
            assert!(matches!(res, Err(NetError::Codec(_))), "{frame:?} decoded as {res:?}");
        }
    }

    fn sample_messages() -> Vec<DsoMessage> {
        let v = Version::new(LogicalTime::from_ticks(4), 2);
        vec![
            DsoMessage::Data {
                epoch: Epoch(1),
                time: LogicalTime::from_ticks(9),
                updates: vec![WireUpdate {
                    object: ObjectId(3),
                    diff: Diff::single(2, vec![1, 2, 3]),
                    version: v,
                }],
            },
            DsoMessage::Sync { epoch: Epoch(1), time: LogicalTime::from_ticks(1) },
            DsoMessage::GetReq { object: ObjectId(8) },
            DsoMessage::GetRep { object: ObjectId(8), version: v, body: vec![7; 4] },
            DsoMessage::App { class: MsgClass::Data, bytes: vec![9, 9, 9].into() },
            DsoMessage::Data2 {
                epoch: Epoch(2),
                time: LogicalTime::from_ticks(6),
                blob: vec![3, 1, 4, 1, 5],
                sync: true,
            },
            DsoMessage::Snapshot {
                epoch: Epoch(2),
                time: LogicalTime::from_ticks(12),
                lamport: 30,
                updates: vec![WireUpdate {
                    object: ObjectId(1),
                    diff: Diff::single(0, vec![4, 4]),
                    version: v,
                }],
            },
        ]
    }

    #[test]
    fn every_truncated_payload_errors_and_never_panics() {
        for msg in sample_messages() {
            let encoded = wire::encode(&msg).to_vec();
            for cut in 0..encoded.len() {
                let res: Result<DsoMessage, _> = wire::decode(&encoded[..cut]);
                assert!(res.is_err(), "strict prefix of {cut} bytes decoded as {msg:?}");
            }
            assert_eq!(wire::decode::<DsoMessage>(&encoded).unwrap(), msg);
            let env = Frame::Env { seq: 17, ack: 9, inner: msg };
            let encoded = wire::encode(&env).to_vec();
            for cut in 0..encoded.len() {
                let res: Result<Frame, _> = wire::decode(&encoded[..cut]);
                assert!(res.is_err(), "strict prefix of {cut} bytes decoded as {env:?}");
            }
            assert_eq!(wire::decode::<Frame>(&encoded).unwrap(), env);
        }
        let ack = Frame::Ack { next: 42 };
        let encoded = wire::encode(&ack).to_vec();
        for cut in 0..encoded.len() {
            let res: Result<Frame, _> = wire::decode(&encoded[..cut]);
            assert!(res.is_err(), "strict prefix of {cut} bytes decoded as {ack:?}");
        }
        assert_eq!(wire::decode::<Frame>(&encoded).unwrap(), ack);
    }

    #[test]
    fn corrupt_tag_bytes_error_and_never_panic() {
        // Smash each byte of each encoding to 0xFF in turn: decoding must
        // either fail cleanly or yield some *other* well-formed message —
        // it must never panic on hostile input.
        for msg in sample_messages() {
            let encoded = wire::encode(&Frame::Env { seq: 17, ack: 9, inner: msg }).to_vec();
            for i in 0..encoded.len() {
                let mut bad = encoded.clone();
                bad[i] = 0xFF;
                let _ = wire::decode::<Frame>(&bad);
                let _ = wire::decode::<DsoMessage>(&bad[17..]);
            }
        }
        let encoded = wire::encode(&Frame::Ack { next: 42 }).to_vec();
        for i in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[i] = 0xFF;
            let _ = wire::decode::<Frame>(&bad);
        }
    }

    /// An app message encoded in place is the frame its two-step encoding
    /// makes, under every wire-size setting, and a received one hands its
    /// body over as a slice of the frame, enveloped or not.
    #[test]
    fn an_app_payload_is_the_app_message_encoded_and_decodes_as_a_slice_of_its_frame() {
        let body = WireUpdate {
            object: ObjectId(4),
            diff: Diff::single(1, vec![2, 3]),
            version: Version::new(LogicalTime::from_ticks(5), 1),
        };
        let app = DsoMessage::App { class: MsgClass::Data, bytes: wire::encode(&body) };
        for frame_wire_len in [None, Some(2048)] {
            let direct = pooled_frame(MsgClass::Data, frame_wire_len, |w| {
                DsoMessage::put_app(w, MsgClass::Data, &body);
            });
            assert_eq!(direct, app.clone().into_payload(frame_wire_len));
        }
        let env = Frame::Env { seq: 3, ack: 1, inner: app.clone() };
        for frame in [Frame::Plain(app), env] {
            let bytes = wire::encode(&frame);
            let decoded = Frame::decode_frame(&bytes).unwrap();
            assert_eq!(decoded, frame);
            let (Frame::Plain(DsoMessage::App { bytes: body, .. })
            | Frame::Env { inner: DsoMessage::App { bytes: body, .. }, .. }) = &decoded
            else {
                panic!("{decoded:?}")
            };
            let within = bytes.as_ptr_range();
            assert!(within.contains(&body.as_ptr()), "the body is a slice of the frame");
        }
        let mut long = wire::encode(&Frame::Ack { next: 1 }).to_vec();
        long.push(0);
        assert!(Frame::decode_frame(&long.into()).is_err(), "trailing bytes are an error");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut encoded = wire::encode(&Frame::Ack { next: 1 }).to_vec();
        encoded.push(0x00);
        assert!(wire::decode::<Frame>(&encoded).is_err());
        let mut encoded = wire::encode(&DsoMessage::GetReq { object: ObjectId(1) }).to_vec();
        encoded.push(0x00);
        assert!(wire::decode::<DsoMessage>(&encoded).is_err());
    }
}
