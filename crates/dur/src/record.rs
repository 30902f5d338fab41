//! Typed WAL records and their byte codec.
//!
//! Each [`DurRecord`] is one committed fact a process journals before
//! acting on it: its identity and epoch, tick-frontier advances, local
//! object writes and opaque application checkpoints. The codec is
//! self-contained (tag byte + little-endian fields) so a record decodes
//! without any schema outside this module; an undecodable payload is
//! treated like tail corruption by the store — replay stops there.

use sdso_net::NodeId;

/// One committed fact in a process's write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurRecord {
    /// Written once when the log is created (and again after each
    /// checkpoint): who this log belongs to and which membership epoch it
    /// last operated in. Recovery asserts the identity matches before
    /// trusting anything else.
    Ident {
        /// The owning process.
        node: NodeId,
        /// The membership epoch at write time.
        epoch: u32,
    },
    /// A committed logical-tick boundary: everything before it in the log
    /// happened at or before `time`.
    Tick {
        /// The logical (rendezvous) tick just completed.
        time: u64,
        /// The Lamport frontier at that boundary.
        lamport: u64,
    },
    /// A committed local write to a shared object.
    Write {
        /// The object written.
        object: u32,
        /// Byte offset of the write.
        offset: u32,
        /// The bytes written.
        bytes: Vec<u8>,
        /// Lamport stamp of the write.
        stamp: u64,
        /// The writing process (version tie-breaker).
        writer: NodeId,
    },
    /// An opaque application-state blob (e.g. a game core's private
    /// state), tagged so one log can carry several kinds.
    App {
        /// Application-defined discriminator.
        tag: u8,
        /// The encoded state.
        bytes: Vec<u8>,
    },
}

const TAG_IDENT: u8 = 1;
const TAG_TICK: u8 = 2;
const TAG_WRITE: u8 = 3;
const TAG_APP: u8 = 4;
// Tag 5 is retired (old logs may hold replicated lock-manager entries
// under it): it decodes to `None` like any unknown tag. Do not reuse it.

impl DurRecord {
    /// The record's wire tag (also the `WalAppend` event operand).
    pub fn tag(&self) -> u8 {
        match self {
            DurRecord::Ident { .. } => TAG_IDENT,
            DurRecord::Tick { .. } => TAG_TICK,
            DurRecord::Write { .. } => TAG_WRITE,
            DurRecord::App { .. } => TAG_APP,
        }
    }

    /// Encodes the record as a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.tag());
        match self {
            DurRecord::Ident { node, epoch } => {
                out.extend_from_slice(&u32::from(*node).to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            DurRecord::Tick { time, lamport } => {
                out.extend_from_slice(&time.to_le_bytes());
                out.extend_from_slice(&lamport.to_le_bytes());
            }
            DurRecord::Write { object, offset, bytes, stamp, writer } => {
                out.extend_from_slice(&object.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&stamp.to_le_bytes());
                out.extend_from_slice(&u32::from(*writer).to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            DurRecord::App { tag, bytes } => {
                out.push(*tag);
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    /// Decodes a WAL payload; `None` on any malformed input (the store
    /// treats that as corruption and stops replay).
    pub fn decode(payload: &[u8]) -> Option<DurRecord> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            TAG_IDENT => DurRecord::Ident { node: r.node()?, epoch: r.u32()? },
            TAG_TICK => DurRecord::Tick { time: r.u64()?, lamport: r.u64()? },
            TAG_WRITE => {
                let object = r.u32()?;
                let offset = r.u32()?;
                let stamp = r.u64()?;
                let writer = r.node()?;
                let bytes = r.bytes()?;
                DurRecord::Write { object, offset, bytes, stamp, writer }
            }
            TAG_APP => {
                let tag = r.u8()?;
                let bytes = r.bytes()?;
                DurRecord::App { tag, bytes }
            }
            _ => return None,
        };
        r.end(rec)
    }
}

/// A bounds-checked little-endian cursor; every read is `None` past the
/// end of the input.
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// `value` if the whole input was consumed, else `None`.
    pub(crate) fn end<T>(self, value: T) -> Option<T> {
        (self.pos == self.data.len()).then_some(value)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let b = *self.data.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let s = self.data.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let s = self.data.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn node(&mut self) -> Option<NodeId> {
        NodeId::try_from(self.u32()?).ok()
    }

    pub(crate) fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        let s = self.data.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(s.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<DurRecord> {
        vec![
            DurRecord::Ident { node: 3, epoch: 7 },
            DurRecord::Tick { time: 42, lamport: 99 },
            DurRecord::Write { object: 5, offset: 16, bytes: vec![1, 2, 3], stamp: 8, writer: 2 },
            DurRecord::App { tag: 9, bytes: b"state".to_vec() },
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in samples() {
            let encoded = rec.encode();
            assert_eq!(DurRecord::decode(&encoded), Some(rec));
        }
    }

    #[test]
    fn trailing_garbage_and_truncation_are_rejected() {
        for rec in samples() {
            let mut encoded = rec.encode();
            encoded.push(0);
            assert_eq!(DurRecord::decode(&encoded), None, "trailing byte must fail");
            let short = &encoded[..encoded.len() - 2];
            assert_eq!(DurRecord::decode(short), None, "truncated payload must fail");
        }
        assert_eq!(DurRecord::decode(&[]), None);
        assert_eq!(DurRecord::decode(&[200]), None, "unknown tag");
        // A lock entry as tag 5 used to write it: term, index, then a
        // grant of lock 4 to node 1.
        let mut retired = vec![5];
        retired.extend_from_slice(&2u64.to_le_bytes());
        retired.extend_from_slice(&11u64.to_le_bytes());
        retired.push(0);
        retired.extend_from_slice(&4u32.to_le_bytes());
        retired.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(DurRecord::decode(&retired), None, "tag 5 is retired");
    }

    /// A record of every kind, built from raw fields.
    fn record(kind: u8, a: u16, b: u32, c: u64, bytes: Vec<u8>) -> DurRecord {
        match kind {
            0 => DurRecord::Ident { node: a, epoch: b },
            1 => DurRecord::Tick { time: c, lamport: c ^ u64::from(b) },
            2 => DurRecord::Write { object: b, offset: u32::from(a), bytes, stamp: c, writer: a },
            _ => DurRecord::App { tag: a as u8, bytes },
        }
    }

    /// The decoder's contract on any input: it never panics, and whatever
    /// it accepts re-encodes to exactly the bytes it was given (so no
    /// payload with retired tag 5 is accepted).
    fn check_decode(input: &[u8]) -> Result<(), TestCaseError> {
        if let Some(rec) = DurRecord::decode(input) {
            prop_assert_eq!(rec.encode(), input.to_vec(), "accepted {:?}", rec);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_payloads_decode_canonically_or_not_at_all(
            tag in 0u8..=6,
            body in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let mut input = vec![tag];
            input.extend_from_slice(&body);
            check_decode(&input)?;
        }

        #[test]
        fn damaged_records_decode_canonically_or_not_at_all(
            (kind, a, b, c) in (0u8..4, any::<u16>(), any::<u32>(), any::<u64>()),
            bytes in proptest::collection::vec(any::<u8>(), 0..16),
            pos_permille in 0u64..1000,
            flip in any::<u8>(),
            cut in any::<bool>(),
        ) {
            let mut input = record(kind, a, b, c, bytes).encode();
            let pos = (input.len() * pos_permille as usize) / 1000;
            if cut {
                input.truncate(pos);
            } else {
                input[pos] ^= flip;
            }
            check_decode(&input)?;
        }
    }
}
