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

/// The messages exchanged by the S-DSO runtime.
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
    /// A sequenced envelope added by the reliability layer: `inner` is the
    /// `seq`-th message on this link, and `ack` acknowledges the reverse
    /// direction for free. Envelopes never nest and never carry a
    /// [`DsoMessage::SeqAck`] (the codec rejects both).
    Env {
        /// Per-link sequence number, starting at 0.
        seq: u64,
        /// Cumulative acknowledgement of the peer's own envelopes: the
        /// sender's next expected sequence number, as in
        /// [`DsoMessage::SeqAck`].
        ack: u64,
        /// The enveloped message.
        inner: Box<DsoMessage>,
    },
    /// Cumulative acknowledgement of [`DsoMessage::Env`] traffic: every
    /// sequence number below `next` has been delivered on this link. Sent
    /// outside any envelope, and only when no envelope went the peer's way
    /// to carry it (loss is repaired by the next ack of either kind).
    SeqAck {
        /// The receiver's next expected sequence number.
        next: u64,
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
    /// carry one (rendezvous and snapshot traffic; unwrapping envelopes).
    pub fn epoch(&self) -> Option<Epoch> {
        match self {
            DsoMessage::Data { epoch, .. }
            | DsoMessage::Data2 { epoch, .. }
            | DsoMessage::Sync { epoch, .. }
            | DsoMessage::Snapshot { epoch, .. } => Some(*epoch),
            DsoMessage::Env { inner, .. } => inner.epoch(),
            DsoMessage::GetReq { .. }
            | DsoMessage::GetRep { .. }
            | DsoMessage::App { .. }
            | DsoMessage::SeqAck { .. } => None,
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
            | DsoMessage::Env { .. }
            | DsoMessage::GetReq { .. }
            | DsoMessage::GetRep { .. }
            | DsoMessage::App { .. }
            | DsoMessage::SeqAck { .. } => None,
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
            DsoMessage::Sync { .. } | DsoMessage::GetReq { .. } | DsoMessage::SeqAck { .. } => {
                MsgClass::Control
            }
            DsoMessage::App { class, .. } => *class,
            DsoMessage::Env { inner, .. } => inner.class(),
        }
    }

    /// Encodes into a transport payload, padding the modelled wire size to
    /// `frame_wire_len` when configured (the paper's system exchanged
    /// fixed-size 2048-byte frames for control and data alike).
    ///
    /// Encoding goes through this thread's buffer pool: the scratch buffer
    /// is recycled from (and its storage returned to) the freelist, so
    /// steady state sends allocate nothing but the frozen handle.
    pub fn into_payload(self, frame_wire_len: Option<u32>) -> Payload {
        let class = self.class();
        let pooled = sdso_net::pool::thread_pool(|pool| sdso_net::wire::encode_pooled(&self, pool));
        let bytes = pooled.unwrap_or_else(|| sdso_net::wire::encode(&self));
        padded(Payload::new(class, bytes), frame_wire_len)
    }

    /// The payload of the [`DsoMessage::App`] that carries `body`'s encoding
    /// under `class`: the bytes `into_payload` makes of it, with `body`
    /// encoded once, in place, and no buffer of its own in between.
    pub(crate) fn app_payload<M: Wire>(
        class: MsgClass,
        body: &M,
        frame_wire_len: Option<u32>,
    ) -> Payload {
        let scratch = sdso_net::pool::thread_pool(sdso_net::pool::BufPool::get);
        let mut w = WireWriter::from_scratch(scratch.unwrap_or_default());
        w.put_u8(TAG_APP);
        w.put_u8(class.to_wire_u8());
        w.put_nested(|w| body.encode(w));
        padded(Payload::new(class, w.into_bytes()), frame_wire_len)
    }

    /// Decodes a received frame, which must hold exactly one message. An
    /// `App` body, enveloped or not, is a slice of `frame`, not a copy, so
    /// the frame's storage goes back to the pool with the body's last
    /// handle.
    ///
    /// # Errors
    ///
    /// As [`sdso_net::wire::decode`].
    pub(crate) fn decode_frame(frame: &Bytes) -> Result<DsoMessage, NetError> {
        let mut r = WireReader::new(frame);
        let msg = DsoMessage::decode_in(&mut r, Some(frame))?;
        r.finish()?;
        Ok(msg)
    }
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
            DsoMessage::Env { seq, ack, inner } => {
                w.put_u8(TAG_ENV);
                w.put_u64(*seq);
                w.put_u64(*ack);
                inner.encode(w);
            }
            DsoMessage::SeqAck { next } => {
                w.put_u8(TAG_SEQ_ACK);
                w.put_u64(*next);
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
        match r.get_u8()? {
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
            TAG_ENV => {
                let seq = r.get_u64()?;
                let ack = r.get_u64()?;
                let inner = DsoMessage::decode_in(r, frame)?;
                // Legitimate senders wrap exactly once and never envelope
                // acks; rejecting the alternatives here bounds decoder
                // recursion against adversarial input.
                if matches!(inner, DsoMessage::Env { .. } | DsoMessage::SeqAck { .. }) {
                    return Err(NetError::Codec("nested or ack-bearing envelope".into()));
                }
                Ok(DsoMessage::Env { seq, ack, inner: Box::new(inner) })
            }
            TAG_SEQ_ACK => Ok(DsoMessage::SeqAck { next: r.get_u64()? }),
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

    fn roundtrip(msg: DsoMessage) {
        let encoded = wire::encode(&msg);
        let decoded: DsoMessage = wire::decode(&encoded).unwrap();
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
        let get = || Box::new(DsoMessage::GetReq { object: ObjectId(2) });
        roundtrip(DsoMessage::Env { seq: 17, ack: 5, inner: get() });
        roundtrip(DsoMessage::Env { seq: 0, ack: u64::MAX, inner: get() });
        roundtrip(DsoMessage::SeqAck { next: 42 });
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
        let env = DsoMessage::Env {
            seq: 0,
            ack: 0,
            inner: Box::new(DsoMessage::Sync { epoch: Epoch::ZERO, time: LogicalTime::ZERO }),
        };
        assert_eq!(env.class(), MsgClass::Control);
        let env = DsoMessage::Env {
            seq: 0,
            ack: 0,
            inner: Box::new(DsoMessage::Data {
                epoch: Epoch::ZERO,
                time: LogicalTime::ZERO,
                updates: vec![],
            }),
        };
        assert_eq!(env.class(), MsgClass::Data);
        assert_eq!(DsoMessage::SeqAck { next: 0 }.class(), MsgClass::Control);
    }

    #[test]
    fn nested_envelopes_rejected() {
        let nested = DsoMessage::Env {
            seq: 1,
            ack: 0,
            inner: Box::new(DsoMessage::Env {
                seq: 2,
                ack: 0,
                inner: Box::new(DsoMessage::GetReq { object: ObjectId(0) }),
            }),
        };
        let encoded = wire::encode(&nested);
        assert!(wire::decode::<DsoMessage>(&encoded).is_err());
        let acked =
            DsoMessage::Env { seq: 1, ack: 0, inner: Box::new(DsoMessage::SeqAck { next: 0 }) };
        assert!(wire::decode::<DsoMessage>(&wire::encode(&acked)).is_err());
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
            DsoMessage::Env {
                seq: 17,
                ack: 9,
                inner: Box::new(DsoMessage::GetReq { object: ObjectId(5) }),
            },
            DsoMessage::SeqAck { next: 42 },
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
        }
    }

    #[test]
    fn corrupt_tag_bytes_error_and_never_panic() {
        // Smash each byte of each encoding to 0xFF in turn: decoding must
        // either fail cleanly or yield some *other* well-formed message —
        // it must never panic on hostile input.
        for msg in sample_messages() {
            let encoded = wire::encode(&msg).to_vec();
            for i in 0..encoded.len() {
                let mut bad = encoded.clone();
                bad[i] = 0xFF;
                let _ = wire::decode::<DsoMessage>(&bad);
            }
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
            let direct = DsoMessage::app_payload(MsgClass::Data, &body, frame_wire_len);
            assert_eq!(direct, app.clone().into_payload(frame_wire_len));
        }
        let env = DsoMessage::Env { seq: 3, ack: 1, inner: Box::new(app.clone()) };
        for msg in [app, env] {
            let frame = wire::encode(&msg);
            let decoded = DsoMessage::decode_frame(&frame).unwrap();
            assert_eq!(decoded, msg);
            let inner = match &decoded {
                DsoMessage::Env { inner, .. } => inner,
                other => other,
            };
            let DsoMessage::App { bytes, .. } = inner else { panic!("{decoded:?}") };
            let within = frame.as_ptr_range();
            assert!(within.contains(&bytes.as_ptr()), "the body is a slice of the frame");
        }
        let mut long = wire::encode(&DsoMessage::SeqAck { next: 1 }).to_vec();
        long.push(0);
        assert!(DsoMessage::decode_frame(&long.into()).is_err(), "trailing bytes are an error");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut encoded = wire::encode(&DsoMessage::SeqAck { next: 1 }).to_vec();
        encoded.push(0x00);
        assert!(wire::decode::<DsoMessage>(&encoded).is_err());
    }
}
