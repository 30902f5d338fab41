//! The allocation contract of the lookahead exchange path
//! (docs/ARCHITECTURE.md §9): heap allocations per node-tick of a whole
//! simulated game, set-up cancelled out.
//!
//! A counting global allocator sees every allocation in this process: the
//! game, the runtime, the session, the codec and the simulator's scheduler.
//! One cell plays the same scenario for 200 ticks and for 100 ticks; the
//! difference over the 100 extra ticks of every node is what one steady
//! node-tick costs, since world generation, `share`, the schedule seed and
//! the final read-out happen once in both runs. The budgets are half of
//! what the path cost before its buffers were reused (BSYNC: 33.2 at 2
//! nodes, 362.7 at 16; 177 is the tighter of that and an earlier
//! measurement's 353) and three quarters of it (MSYNC: 27.9 and 289.3;
//! MSYNC2: 21.7 and 175.1). EC is printed, not asserted: its allocations
//! are lock messages, a different path.
//!
//! One test function on purpose: the counter is process-wide, so two cells
//! measured at once would count each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sdso_game::{Protocol, Scenario};
use sdso_harness::{converged, run_experiment};
use sdso_sim::NetworkModel;

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller's obligations carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller's obligations carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one whole run of `ticks` ticks.
fn allocations(protocol: Protocol, nodes: u16, ticks: u64) -> u64 {
    let scenario = Scenario::paper(nodes, 1).with_ticks(ticks);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = run_experiment(&scenario, protocol, NetworkModel::paper_testbed())
        .expect("every node finishes");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(converged(&run), "{protocol} at {nodes} nodes did not converge");
    after - before
}

/// Steady-state allocations per node-tick: (200-tick run − 100-tick run)
/// ÷ the 100 extra ticks of every node.
fn per_node_tick(protocol: Protocol, nodes: u16) -> f64 {
    let long = allocations(protocol, nodes, 200);
    let short = allocations(protocol, nodes, 100);
    long.saturating_sub(short) as f64 / (100.0 * f64::from(nodes))
}

#[test]
fn lookahead_exchanges_allocate_within_budget_per_node_tick() {
    // (protocol, nodes, budget per node-tick)
    let budgets = [
        (Protocol::Bsync, 2, 16.6),
        (Protocol::Bsync, 16, 177.0),
        (Protocol::Msync, 2, 20.9),
        (Protocol::Msync, 16, 217.0),
        (Protocol::Msync2, 2, 16.3),
        (Protocol::Msync2, 16, 131.0),
    ];
    let mut report = String::new();
    let mut over = Vec::new();
    for (protocol, nodes, budget) in budgets {
        let measured = per_node_tick(protocol, nodes);
        report.push_str(&format!(
            "{protocol} at {nodes} nodes: {measured:.1} allocations per node-tick (budget {budget})\n"
        ));
        if measured > budget {
            over.push(format!("{protocol} at {nodes} nodes: {measured:.1} > {budget}"));
        }
    }
    for nodes in [2, 16] {
        let measured = per_node_tick(Protocol::Entry, nodes);
        report.push_str(&format!(
            "{} at {nodes} nodes: {measured:.1} allocations per node-tick (not asserted)\n",
            Protocol::Entry
        ));
    }
    println!("{report}");
    assert!(over.is_empty(), "over budget:\n{}\n{report}", over.join("\n"));
}
