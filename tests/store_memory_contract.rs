//! The memory contract of the object store (docs/ARCHITECTURE.md §9): a
//! store holds one copy of each distinct registered body plus one copy of
//! each object actually written, not a replica and an initial copy of
//! every object.
//!
//! A counting global allocator tracks this process's live heap bytes; the
//! store's share is the difference between two readings around the calls.
//! The counter is process-wide, so this file holds one test: two measured
//! at once would count each other.

use std::collections::BTreeSet;

use sdso_core::{LogicalTime, ObjectId, ObjectStore, Version};
use sdso_game::Scenario;

#[path = "common/counting.rs"]
mod counting;

use counting::{bytes, live};

#[test]
fn a_store_holds_its_distinct_bodies_and_its_written_objects() {
    const BLOCK: usize = 4096;
    let world = Scenario::paper(2, 3).with_block_bytes(BLOCK).initial_world();
    let cells = world.len();
    assert_eq!(cells, 768, "the paper's 32x24 grid");
    let distinct = world.iter().map(|block| block.encode(BLOCK)).collect::<BTreeSet<_>>().len();
    let every_body = bytes(cells * BLOCK);

    // Sharing: the distinct bodies, the replica table and the intern set.
    let before = live();
    let mut store = ObjectStore::new();
    for (id, block) in world.iter().enumerate() {
        store.share(ObjectId(id as u32), block.encode(BLOCK)).unwrap();
    }
    let shared = live() - before;
    assert!(
        shared < every_body / 10,
        "sharing {cells} bodies of {BLOCK} bytes ({distinct} distinct) holds {shared} bytes, \
         not under a tenth of {every_body}"
    );
    assert!(shared >= bytes(distinct * BLOCK), "{shared} bytes hold {distinct} distinct bodies");

    // Writing `k` objects copies `k` bodies, whichever body each shares.
    let k = 96;
    let written: Vec<u32> = (0..cells as u32).step_by(cells / k).collect();
    assert_eq!(written.len(), k);
    let stamp = Version::new(LogicalTime::from_ticks(1), 0);
    for &id in &written {
        store.write(ObjectId(id), 1, &[0xA5], stamp).unwrap();
    }
    let grew = live() - before - shared;
    let copies = bytes(k * BLOCK);
    assert!(
        (copies..=copies + copies / 20).contains(&grew),
        "writing {k} objects grew the store by {grew} bytes, not about {copies}"
    );

    // A written object is its own: writing it again copies nothing.
    for &id in &written {
        store.write(ObjectId(id), 2, &[0x5A], stamp).unwrap();
    }
    assert_eq!(live() - before - shared, grew, "a second write copied again");
    println!(
        "{cells} objects, {distinct} distinct bodies of {BLOCK} bytes: {shared} bytes shared \
         ({:.1} % of {every_body}), +{grew} after writing {k}",
        100.0 * shared as f64 / every_body as f64
    );
}
