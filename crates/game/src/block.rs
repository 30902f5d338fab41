//! Block contents and their fixed-size object encoding.
//!
//! Each grid block is one shared object. The encoded form is a fixed-size
//! byte array so that a block write always produces a whole-object diff —
//! which makes the runtime's per-object last-writer-wins rule exact (see
//! `sdso_core` crate docs). The payload size is configurable: the paper's
//! "effects of different data sizes" future-work experiment (our Ext. A)
//! grows it to model blocks carrying sensor images.

use sdso_net::NodeId;

use crate::world::{Direction, Pos};

/// Minimum encoded size of a block.
pub const MIN_BLOCK_BYTES: usize = 16;

/// A shot event recorded in the shooter's own block: "I fired at `target`
/// on my tick `tick`". Victims apply damage to themselves when they observe
/// a record aimed at the position they occupied (victim-side damage keeps
/// every block single-writer except for move races, which the lowest-ID
/// rule arbitrates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FireRecord {
    /// The block fired at.
    pub target: Pos,
    /// The shooter's iteration count when firing (monotonic per shooter,
    /// used by victims to deduplicate). Four bytes in the encoded block.
    pub tick: u32,
}

/// What a block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Block {
    /// Nothing.
    #[default]
    Empty,
    /// The goal every team races toward.
    Goal,
    /// A pick-up worth `points`.
    Bonus {
        /// Score value.
        points: u8,
    },
    /// Destroys a tank that drives onto it (consumed in the process).
    Bomb,
    /// Impassable terrain.
    Obstacle,
    /// A team's tank.
    Tank {
        /// Owning team (= process id).
        team: NodeId,
        /// Tank index within the team.
        tank: u8,
        /// Hit points left.
        hp: u8,
        /// Current facing.
        facing: Direction,
        /// Most recent shot, if any.
        fired: Option<FireRecord>,
    },
}

const TAG_EMPTY: u8 = 0;
const TAG_GOAL: u8 = 1;
const TAG_BONUS: u8 = 2;
const TAG_BOMB: u8 = 3;
const TAG_OBSTACLE: u8 = 4;
const TAG_TANK: u8 = 5;

impl Block {
    /// Encodes into exactly `size` bytes (zero-padded).
    ///
    /// # Panics
    ///
    /// Panics if `size < MIN_BLOCK_BYTES`.
    pub fn encode(&self, size: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(size, &mut buf);
        buf
    }

    /// [`Block::encode`] into `buf`, which ends up exactly `size` bytes
    /// long whatever it held before; a buffer kept across writes
    /// allocates only when it grows.
    ///
    /// # Panics
    ///
    /// Panics if `size < MIN_BLOCK_BYTES`.
    pub fn encode_into(&self, size: usize, buf: &mut Vec<u8>) {
        assert!(size >= MIN_BLOCK_BYTES, "block payload too small");
        buf.clear();
        buf.resize(size, 0);
        match self {
            Block::Empty => buf[0] = TAG_EMPTY,
            Block::Goal => buf[0] = TAG_GOAL,
            Block::Bonus { points } => {
                buf[0] = TAG_BONUS;
                buf[1] = *points;
            }
            Block::Bomb => buf[0] = TAG_BOMB,
            Block::Obstacle => buf[0] = TAG_OBSTACLE,
            Block::Tank { team, tank, hp, facing, fired } => {
                buf[0] = TAG_TANK;
                buf[1..3].copy_from_slice(&team.to_le_bytes());
                buf[3] = *tank;
                buf[4] = *hp;
                buf[5] = facing.index();
                if let Some(f) = fired {
                    buf[6] = 1;
                    buf[7..9].copy_from_slice(&f.target.x.to_le_bytes());
                    buf[9..11].copy_from_slice(&f.target.y.to_le_bytes());
                    buf[11..15].copy_from_slice(&f.tick.to_le_bytes());
                }
            }
        }
    }

    /// Decodes a block from an object payload.
    ///
    /// Returns `None` for malformed contents (which only a corrupted store
    /// could produce).
    pub fn decode(bytes: &[u8]) -> Option<Block> {
        if bytes.len() < MIN_BLOCK_BYTES {
            return None;
        }
        match bytes[0] {
            TAG_EMPTY => Some(Block::Empty),
            TAG_GOAL => Some(Block::Goal),
            TAG_BONUS => Some(Block::Bonus { points: bytes[1] }),
            TAG_BOMB => Some(Block::Bomb),
            TAG_OBSTACLE => Some(Block::Obstacle),
            TAG_TANK => {
                let team = NodeId::from_le_bytes([bytes[1], bytes[2]]);
                let tank = bytes[3];
                let hp = bytes[4];
                let facing = Direction::from_index(bytes[5])?;
                let fired = if bytes[6] == 1 {
                    Some(FireRecord {
                        target: Pos::new(
                            u16::from_le_bytes([bytes[7], bytes[8]]),
                            u16::from_le_bytes([bytes[9], bytes[10]]),
                        ),
                        tick: u32::from_le_bytes([bytes[11], bytes[12], bytes[13], bytes[14]]),
                    })
                } else {
                    None
                };
                Some(Block::Tank { team, tank, hp, facing, fired })
            }
            _ => None,
        }
    }

    /// Whether a tank may drive onto this block.
    pub fn passable(&self) -> bool {
        matches!(self, Block::Empty | Block::Goal | Block::Bonus { .. } | Block::Bomb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(block: Block) {
        let mut reused = vec![0xAB; 100];
        for size in [MIN_BLOCK_BYTES, 64, 2048, 64] {
            let encoded = block.encode(size);
            assert_eq!(encoded.len(), size);
            assert_eq!(Block::decode(&encoded), Some(block));
            block.encode_into(size, &mut reused);
            assert_eq!(reused, encoded, "a reused buffer encodes alike");
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Block::Empty);
        roundtrip(Block::Goal);
        roundtrip(Block::Bonus { points: 25 });
        roundtrip(Block::Bomb);
        roundtrip(Block::Obstacle);
        roundtrip(Block::Tank { team: 7, tank: 2, hp: 3, facing: Direction::East, fired: None });
        roundtrip(Block::Tank {
            team: 300,
            tank: 0,
            hp: 1,
            facing: Direction::North,
            fired: Some(FireRecord { target: Pos::new(31, 23), tick: 12345 }),
        });
        roundtrip(Block::Tank {
            team: NodeId::MAX,
            tank: 1,
            hp: 2,
            facing: Direction::West,
            fired: Some(FireRecord { target: Pos::new(0, 0), tick: u32::MAX }),
        });
    }

    #[test]
    fn passability() {
        assert!(Block::Empty.passable());
        assert!(Block::Goal.passable());
        assert!(Block::Bomb.passable(), "bombs are traps, not walls");
        assert!(!Block::Obstacle.passable());
        assert!(!Block::Tank { team: 0, tank: 0, hp: 1, facing: Direction::North, fired: None }
            .passable());
    }

    #[test]
    fn malformed_input_is_none_not_panic() {
        assert_eq!(Block::decode(&[]), None);
        assert_eq!(Block::decode(&[99; 16]), None);
        let mut bad_facing =
            Block::Tank { team: 0, tank: 0, hp: 1, facing: Direction::North, fired: None }
                .encode(16);
        bad_facing[5] = 77;
        assert_eq!(Block::decode(&bad_facing), None);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_payload_panics() {
        let _ = Block::Empty.encode(4);
    }
}
