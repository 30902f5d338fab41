//! The counting global allocator of the allocation and memory contracts
//! (`alloc_contract.rs`, `store_memory_contract.rs`,
//! `wire_memory_contract.rs`, `ec_memory_contract.rs`). A contract includes it with
//! `#[path = "common/counting.rs"] mod counting;`, which installs it for
//! the whole test process. It counts allocations, live heap bytes and
//! their high-water mark, then defers to the system allocator.
//!
//! The counters are process-wide, so each contract file holds one test:
//! two measured at once would count each other.

// Each contract reads only the counters it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// `n` bytes as a signed count.
pub fn bytes(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// Allocations and reallocations so far in this process.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Live heap bytes.
pub fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the live bytes, and returns them.
pub fn reset_peak() -> i64 {
    let live = live();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most live heap bytes since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

fn grow(n: i64) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(bytes(layout.size()));
        // SAFETY: forwarded unchanged; the caller's obligations carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(bytes(layout.size()));
        // SAFETY: forwarded unchanged; the caller's obligations carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(bytes(new_size) - bytes(layout.size()));
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(bytes(layout.size()), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
