//! Point-in-time object-store snapshots.
//!
//! A snapshot bounds WAL replay: once an image is durably on disk, every
//! record it covers is redundant and the log can be truncated. Images are
//! self-checking — a magic header, a version byte and a trailing CRC over
//! the body — so a half-written image (crash during checkpoint, before
//! the atomic rename landed) is detected and ignored, falling back to the
//! previous state.

use sdso_net::NodeId;

use crate::record::Reader;
use crate::wal::crc32;

const MAGIC: &[u8; 4] = b"SDSN";
const VERSION: u8 = 1;

/// One object's state inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapObject {
    /// The object's id.
    pub id: u32,
    /// Lamport stamp of its newest write.
    pub stamp: u64,
    /// The stamping writer (version tie-breaker).
    pub writer: NodeId,
    /// The full object body.
    pub body: Vec<u8>,
}

/// A point-in-time image of one process's durable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotImage {
    /// The owning process.
    pub node: NodeId,
    /// Membership epoch at checkpoint time.
    pub epoch: u32,
    /// Logical (rendezvous-tick) frontier at checkpoint time.
    pub time: u64,
    /// Lamport frontier at checkpoint time.
    pub lamport: u64,
    /// Every object modified since initialisation.
    pub objects: Vec<SnapObject>,
    /// Opaque application state (e.g. the game core).
    pub app: Vec<u8>,
}

impl SnapshotImage {
    /// Encodes the image with its integrity trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&u32::from(self.node).to_le_bytes());
        body.extend_from_slice(&self.epoch.to_le_bytes());
        body.extend_from_slice(&self.time.to_le_bytes());
        body.extend_from_slice(&self.lamport.to_le_bytes());
        body.extend_from_slice(&(self.objects.len() as u32).to_le_bytes());
        for obj in &self.objects {
            body.extend_from_slice(&obj.id.to_le_bytes());
            body.extend_from_slice(&obj.stamp.to_le_bytes());
            body.extend_from_slice(&u32::from(obj.writer).to_le_bytes());
            body.extend_from_slice(&(obj.body.len() as u32).to_le_bytes());
            body.extend_from_slice(&obj.body);
        }
        body.extend_from_slice(&(self.app.len() as u32).to_le_bytes());
        body.extend_from_slice(&self.app);

        let mut out = Vec::with_capacity(body.len() + 9);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Decodes an image; `None` when the bytes are missing, torn, or fail
    /// their checksum (recovery then proceeds without a snapshot).
    pub fn decode(bytes: &[u8]) -> Option<SnapshotImage> {
        if bytes.len() < MAGIC.len() + 1 + 4 || &bytes[..4] != MAGIC || bytes[4] != VERSION {
            return None;
        }
        let body = &bytes[5..bytes.len() - 4];
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if crc32(body) != crc {
            return None;
        }
        let mut r = Reader::new(body);
        let node = r.node()?;
        let epoch = r.u32()?;
        let time = r.u64()?;
        let lamport = r.u64()?;
        let count = r.u32()? as usize;
        let mut objects = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let id = r.u32()?;
            let stamp = r.u64()?;
            let writer = r.node()?;
            let body = r.bytes()?;
            objects.push(SnapObject { id, stamp, writer, body });
        }
        let app = r.bytes()?;
        r.end(SnapshotImage { node, epoch, time, lamport, objects, app })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotImage {
        SnapshotImage {
            node: 2,
            epoch: 5,
            time: 31,
            lamport: 90,
            objects: vec![
                SnapObject { id: 1, stamp: 88, writer: 2, body: vec![9; 16] },
                SnapObject { id: 7, stamp: 90, writer: 0, body: vec![1, 2, 3] },
            ],
            app: b"core-state".to_vec(),
        }
    }

    #[test]
    fn image_round_trips() {
        let img = sample();
        assert_eq!(SnapshotImage::decode(&img.encode()), Some(img));
    }

    #[test]
    fn torn_or_corrupt_image_is_rejected() {
        let encoded = sample().encode();
        for cut in [0, 3, 5, encoded.len() / 2, encoded.len() - 1] {
            assert_eq!(SnapshotImage::decode(&encoded[..cut]), None, "torn at {cut}");
        }
        let mut flipped = encoded.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert_eq!(SnapshotImage::decode(&flipped), None, "interior corruption");
        assert_eq!(SnapshotImage::decode(b"not a snapshot"), None);
    }
}
