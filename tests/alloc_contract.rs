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
//! MSYNC2: 21.7 and 175.1). EC's allocations are lock messages, a
//! different path; its budgets are what it costs since a lock message is
//! encoded once into a pooled frame, decoded from a slice of the received
//! one, and freezes and reclaims its buffer without allocating, and since
//! its end-of-run flush sends each peer one `State` of diffs instead of a
//! whole body per object (7.9 at 2 nodes, 14.3 at 16), each rounded up to
//! the next whole allocation. It cost 46.4 and 97.9 before the pooled
//! frames and 8.6 and 22.9 before the diff flush, so none of those
//! allocations can come back.
//!
//! One test function on purpose: the counter is process-wide, so two cells
//! measured at once would count each other.

use sdso_game::{Protocol, Scenario};
use sdso_harness::{converged, run_experiment};
use sdso_sim::NetworkModel;

#[path = "common/counting.rs"]
mod counting;

/// Allocations of one whole run of `ticks` ticks.
fn allocations(protocol: Protocol, nodes: u16, ticks: u64) -> u64 {
    let scenario = Scenario::paper(nodes, 1).with_ticks(ticks);
    let before = counting::allocations();
    let run = run_experiment(&scenario, protocol, NetworkModel::paper_testbed())
        .expect("every node finishes");
    let after = counting::allocations();
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
        (Protocol::Entry, 2, 8.0),
        (Protocol::Entry, 16, 15.0),
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
    println!("{report}");
    assert!(over.is_empty(), "over budget:\n{}\n{report}", over.join("\n"));
}
