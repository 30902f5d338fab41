//! S-DSO's wire protocol.
//!
//! Every S-DSO message is one [`DsoMessage`] encoded with the workspace
//! codec. Consistency protocols built on top of the runtime (entry
//! consistency's lock traffic, LRC's write notices, …) travel inside the
//! [`DsoMessage::App`] escape hatch so that one framing layer serves all.

use sdso_member::Epoch;
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
    /// A pushed full object body (`async_put` / `sync_put`).
    Put {
        /// The object.
        object: ObjectId,
        /// Its version at the sender.
        version: Version,
        /// Full object contents.
        body: Vec<u8>,
        /// Whether the receiver must acknowledge (`sync_put`).
        wants_ack: bool,
    },
    /// A request to pull an object's current body (`async_get`/`sync_get`).
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
    /// Acknowledgement of a `sync_put`.
    Ack,
    /// Opaque bytes for a protocol layered above the runtime, with an
    /// explicit accounting class.
    App {
        /// Accounting class of the embedded message.
        class: MsgClass,
        /// The embedded encoding.
        bytes: Vec<u8>,
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
    /// A late joiner asking its designated donor for a state snapshot in
    /// `epoch` (the donor usually pushes unprompted at the view-change
    /// barrier; the request covers a joiner that raced ahead of it).
    SnapshotReq {
        /// The epoch the joiner is entering.
        epoch: Epoch,
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
    /// A codec capability offer (wire format v2 negotiation, §14). Sent at
    /// most once per link per codec generation; the receiver records the
    /// offered version, replies with its own offer if it has not already,
    /// and consumes the message in the admission layer — protocol dispatch
    /// never sees it. Until a peer's offer arrives, everything sent to it
    /// uses the v1 format.
    CodecOffer {
        /// Highest codec version the sender can decode.
        version: u8,
    },
    /// The v2 data frame of a rendezvous: the update list of a
    /// [`DsoMessage::Data`], encoded by the varint/run-length (and
    /// optionally XOR-delta) codec into an opaque blob, and — with `sync`
    /// set — the [`DsoMessage::Sync`] that would have followed it, so one
    /// frame is the whole `(data, SYNC)` pair. The session resolves it back
    /// into those plain messages at its exactly-once delivery point (where
    /// the per-link XOR shadows live), keeping this decode pure so stored
    /// ARQ retransmit clones re-encode safely.
    Data2 {
        /// Membership epoch the sender computed this exchange under.
        epoch: Epoch,
        /// Sender's logical time.
        time: LogicalTime,
        /// Count of prior `Data2` messages the sender has put on this link
        /// since the last codec reset. The receiver cross-checks it against
        /// its own delivery count: a mismatch means the XOR shadows are out
        /// of lockstep and decoding must fail loudly instead of silently
        /// applying garbage.
        basis: u64,
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
const TAG_PUT: u8 = 3;
const TAG_GET_REQ: u8 = 4;
const TAG_GET_REP: u8 = 5;
const TAG_ACK: u8 = 6;
const TAG_APP: u8 = 7;
const TAG_ENV: u8 = 8;
const TAG_SEQ_ACK: u8 = 9;
const TAG_SNAPSHOT_REQ: u8 = 10;
const TAG_SNAPSHOT: u8 = 11;
const TAG_CODEC_OFFER: u8 = 12;
const TAG_DATA2: u8 = 13;

impl DsoMessage {
    /// The membership epoch stamped on this message, for the kinds that
    /// carry one (rendezvous and snapshot traffic; unwrapping envelopes).
    pub fn epoch(&self) -> Option<Epoch> {
        match self {
            DsoMessage::Data { epoch, .. }
            | DsoMessage::Data2 { epoch, .. }
            | DsoMessage::Sync { epoch, .. }
            | DsoMessage::SnapshotReq { epoch }
            | DsoMessage::Snapshot { epoch, .. } => Some(*epoch),
            DsoMessage::Env { inner, .. } => inner.epoch(),
            DsoMessage::Put { .. }
            | DsoMessage::GetReq { .. }
            | DsoMessage::GetRep { .. }
            | DsoMessage::Ack
            | DsoMessage::App { .. }
            | DsoMessage::SeqAck { .. }
            | DsoMessage::CodecOffer { .. } => None,
        }
    }

    /// The accounting class of this message (data messages carry object
    /// state; everything else is control).
    pub fn class(&self) -> MsgClass {
        match self {
            DsoMessage::Data { .. }
            | DsoMessage::Data2 { .. }
            | DsoMessage::Put { .. }
            | DsoMessage::GetRep { .. }
            | DsoMessage::Snapshot { .. } => MsgClass::Data,
            DsoMessage::Sync { .. }
            | DsoMessage::GetReq { .. }
            | DsoMessage::Ack
            | DsoMessage::SnapshotReq { .. }
            | DsoMessage::CodecOffer { .. } => MsgClass::Control,
            DsoMessage::App { class, .. } => *class,
            DsoMessage::Env { inner, .. } => inner.class(),
            DsoMessage::SeqAck { .. } => MsgClass::Control,
        }
    }

    /// Encodes into a transport payload, padding the modelled wire size to
    /// `frame_wire_len` when configured (the paper's system exchanged
    /// fixed-size 2048-byte frames for control and data alike).
    ///
    /// Encoding goes through the global buffer pool: the scratch buffer is
    /// recycled from (and its storage returned to) the freelist, so steady
    /// state sends allocate nothing.
    ///
    /// sdso-check: hot-path
    pub fn into_payload(self, frame_wire_len: Option<u32>) -> Payload {
        let class = self.class();
        let bytes = sdso_net::wire::encode_pooled(&self, sdso_net::pool::global());
        let payload = Payload::new(class, bytes);
        match frame_wire_len {
            Some(len) => payload.with_wire_len(len),
            None => payload,
        }
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
            DsoMessage::Put { object, version, body, wants_ack } => {
                w.put_u8(TAG_PUT);
                object.encode(w);
                version.encode(w);
                w.put_bytes(body);
                w.put_bool(*wants_ack);
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
            DsoMessage::Ack => w.put_u8(TAG_ACK),
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
            DsoMessage::SnapshotReq { epoch } => {
                w.put_u8(TAG_SNAPSHOT_REQ);
                w.put_u32(epoch.0);
            }
            DsoMessage::Snapshot { epoch, time, lamport, updates } => {
                w.put_u8(TAG_SNAPSHOT);
                w.put_u32(epoch.0);
                w.put_u64(time.as_ticks());
                w.put_u64(*lamport);
                w.put_seq(updates, |w, u| u.encode(w));
            }
            DsoMessage::CodecOffer { version } => {
                w.put_u8(TAG_CODEC_OFFER);
                w.put_u8(*version);
            }
            DsoMessage::Data2 { epoch, time, basis, blob, sync } => {
                w.put_u8(TAG_DATA2);
                w.put_u8(if *sync { DATA2_SYNC } else { 0 });
                w.put_u32(epoch.0);
                w.put_u64(time.as_ticks());
                w.put_u64(*basis);
                w.put_bytes(blob);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
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
            TAG_PUT => {
                let object = ObjectId::decode(r)?;
                let version = Version::decode(r)?;
                let body = r.get_bytes()?.to_vec();
                let wants_ack = r.get_bool()?;
                Ok(DsoMessage::Put { object, version, body, wants_ack })
            }
            TAG_GET_REQ => Ok(DsoMessage::GetReq { object: ObjectId::decode(r)? }),
            TAG_GET_REP => {
                let object = ObjectId::decode(r)?;
                let version = Version::decode(r)?;
                let body = r.get_bytes()?.to_vec();
                Ok(DsoMessage::GetRep { object, version, body })
            }
            TAG_ACK => Ok(DsoMessage::Ack),
            TAG_APP => {
                let class = MsgClass::from_wire_u8(r.get_u8()?)?;
                let bytes = r.get_bytes()?.to_vec();
                Ok(DsoMessage::App { class, bytes })
            }
            TAG_ENV => {
                let seq = r.get_u64()?;
                let ack = r.get_u64()?;
                let inner = DsoMessage::decode(r)?;
                // Legitimate senders wrap exactly once and never envelope
                // acks; rejecting the alternatives here bounds decoder
                // recursion against adversarial input.
                if matches!(inner, DsoMessage::Env { .. } | DsoMessage::SeqAck { .. }) {
                    return Err(NetError::Codec("nested or ack-bearing envelope".into()));
                }
                Ok(DsoMessage::Env { seq, ack, inner: Box::new(inner) })
            }
            TAG_SEQ_ACK => Ok(DsoMessage::SeqAck { next: r.get_u64()? }),
            TAG_SNAPSHOT_REQ => Ok(DsoMessage::SnapshotReq { epoch: Epoch(r.get_u32()?) }),
            TAG_SNAPSHOT => {
                let epoch = Epoch(r.get_u32()?);
                let time = LogicalTime::from_ticks(r.get_u64()?);
                let lamport = r.get_u64()?;
                let updates = r.get_seq(WireUpdate::decode)?;
                Ok(DsoMessage::Snapshot { epoch, time, lamport, updates })
            }
            TAG_CODEC_OFFER => Ok(DsoMessage::CodecOffer { version: r.get_u8()? }),
            TAG_DATA2 => {
                let flags = r.get_u8()?;
                if flags & !DATA2_SYNC != 0 {
                    return Err(NetError::Codec(format!("unknown Data2 flags {flags:#x}")));
                }
                let epoch = Epoch(r.get_u32()?);
                let time = LogicalTime::from_ticks(r.get_u64()?);
                let basis = r.get_u64()?;
                let blob = r.get_bytes()?.to_vec();
                Ok(DsoMessage::Data2 { epoch, time, basis, blob, sync: flags == DATA2_SYNC })
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
        roundtrip(DsoMessage::Put {
            object: ObjectId(1),
            version: v,
            body: vec![0; 16],
            wants_ack: true,
        });
        roundtrip(DsoMessage::GetReq { object: ObjectId(8) });
        roundtrip(DsoMessage::GetRep { object: ObjectId(8), version: v, body: vec![7; 4] });
        roundtrip(DsoMessage::Ack);
        roundtrip(DsoMessage::App { class: MsgClass::Control, bytes: vec![9, 9] });
        roundtrip(DsoMessage::Env { seq: 17, ack: 5, inner: Box::new(DsoMessage::Ack) });
        roundtrip(DsoMessage::Env { seq: 0, ack: u64::MAX, inner: Box::new(DsoMessage::Ack) });
        roundtrip(DsoMessage::SeqAck { next: 42 });
        roundtrip(DsoMessage::SnapshotReq { epoch: Epoch(3) });
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
        roundtrip(DsoMessage::CodecOffer { version: 2 });
        for sync in [true, false] {
            roundtrip(DsoMessage::Data2 {
                epoch: Epoch(4),
                time: LogicalTime::from_ticks(11),
                basis: 3,
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
            basis: 0,
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
            inner: Box::new(DsoMessage::Env { seq: 2, ack: 0, inner: Box::new(DsoMessage::Ack) }),
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
        assert_eq!(DsoMessage::SnapshotReq { epoch: Epoch::ZERO }.class(), MsgClass::Control);
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
        assert_eq!(
            DsoMessage::Put { object: ObjectId(0), version: v, body: vec![], wants_ack: false }
                .class(),
            MsgClass::Data
        );
        assert_eq!(DsoMessage::GetReq { object: ObjectId(0) }.class(), MsgClass::Control);
        assert_eq!(
            DsoMessage::GetRep { object: ObjectId(0), version: v, body: vec![] }.class(),
            MsgClass::Data
        );
        assert_eq!(DsoMessage::Ack.class(), MsgClass::Control);
        assert_eq!(DsoMessage::CodecOffer { version: 2 }.class(), MsgClass::Control);
        let d2 = DsoMessage::Data2 {
            epoch: Epoch(1),
            time: LogicalTime::ZERO,
            basis: 0,
            blob: vec![],
            sync: true,
        };
        assert_eq!(
            d2.class(),
            MsgClass::Data,
            "compressed data is still data, SYNC on board or not"
        );
        assert_eq!(d2.epoch(), Some(Epoch(1)));
        assert_eq!(DsoMessage::CodecOffer { version: 2 }.epoch(), None);
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
        let res: Result<DsoMessage, _> = wire::decode(&[0xEE]);
        assert!(res.is_err());
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
            DsoMessage::Put { object: ObjectId(1), version: v, body: vec![0; 16], wants_ack: true },
            DsoMessage::GetReq { object: ObjectId(8) },
            DsoMessage::GetRep { object: ObjectId(8), version: v, body: vec![7; 4] },
            DsoMessage::App { class: MsgClass::Data, bytes: vec![9, 9, 9] },
            DsoMessage::Env { seq: 17, ack: 9, inner: Box::new(DsoMessage::Ack) },
            DsoMessage::SeqAck { next: 42 },
            DsoMessage::SnapshotReq { epoch: Epoch(2) },
            DsoMessage::CodecOffer { version: 2 },
            DsoMessage::Data2 {
                epoch: Epoch(2),
                time: LogicalTime::from_ticks(6),
                basis: 1,
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

    #[test]
    fn trailing_garbage_rejected() {
        let mut encoded = wire::encode(&DsoMessage::Ack).to_vec();
        encoded.push(0x00);
        assert!(wire::decode::<DsoMessage>(&encoded).is_err());
    }
}
