//! The allocation contract of the exchange and lock paths
//! (docs/ARCHITECTURE.md §9): heap allocations per node-tick of a whole
//! simulated game, set-up cancelled out, and per EC lock round trip over
//! real sockets, each without the reliability layer and with
//! `RetryConfig::default()`.
//!
//! A counting global allocator sees every allocation in this process: the
//! game, the runtime, the session, the codec, the simulator's scheduler and
//! the reactor. A simulated cell plays the same scenario for 200 ticks and
//! for 100 ticks; the difference over the 100 extra ticks of every node is
//! what one steady node-tick costs, since world generation, `share`, the
//! schedule seed and the final read-out happen once in both runs. A cell
//! and its reliable twin share one budget: the larger measured count
//! rounded up to the next whole allocation. Without the layer and with it:
//! BSYNC 2.12 and 2.12 at 2 nodes, 34.39 and 34.39 at 16; MSYNC 2.95 and
//! 2.96, 41.74 and 42.28; MSYNC2 3.00 and 3.00, 43.33 and 43.79; EC 5.96
//! and 5.96, 12.51 and 10.84. At 16 nodes the reliable game runs on
//! another virtual schedule, so its count may fall as well as rise; what
//! MSYNC's and MSYNC2's rise is, a standalone ack draws a pooled buffer on
//! one thread and the peer's receive returns it to another, so the sender
//! later makes a fresh frame buffer and grows it. A warm reliable link
//! itself allocates nothing per
//! frame: it keeps a frame's bytes in a buffer of its own, not a clone of
//! the message. The counts are deterministic, the same in debug and
//! release, so one allocation more per node-tick anywhere on a path a cell
//! runs (the pooled encode, the envelope, the local read, the store lookup,
//! codec v2's scan kernels, a block's encoding, an s-function's board)
//! fails the cell.
//!
//! The socket cells time nothing; they count. Node 0 takes and releases a
//! write lock that node 1 manages, over `ReactorMesh::local(2)` — where a
//! turn reads its lone link without asking `poll` — and over `local(3)`,
//! where it polls, with and without the reliability layer. After 2 000
//! round trips of warm-up, 20 000 more may allocate at most once per 100
//! trips, on every node together: a frame is encoded, envelope and all,
//! into a pooled buffer, written, read, and decoded from a slice of the
//! read buffer without a fresh allocation.
//!
//! One test function on purpose: the counter is process-wide, so two cells
//! measured at once would count each other.

use std::collections::BTreeSet;

use sdso_core::{DsoConfig, ObjectId, RetryConfig, SdsoRuntime};
use sdso_game::{Protocol, Scenario};
use sdso_harness::{converged, run_experiment};
use sdso_net::reactor::ReactorMesh;
use sdso_protocols::{EntryConsistency, LockRequest};
use sdso_sim::NetworkModel;

#[path = "common/counting.rs"]
mod counting;

/// Allocations of one whole run of `ticks` ticks, under `reliability` when
/// given.
fn allocations(
    protocol: Protocol,
    nodes: u16,
    ticks: u64,
    reliability: Option<RetryConfig>,
) -> u64 {
    let mut scenario = Scenario::paper(nodes, 1).with_ticks(ticks);
    if let Some(retry) = reliability {
        scenario = scenario.with_reliability(retry);
    }
    let before = counting::allocations();
    let run = run_experiment(&scenario, protocol, NetworkModel::paper_testbed())
        .expect("every node finishes");
    let after = counting::allocations();
    assert!(converged(&run), "{protocol} at {nodes} nodes did not converge");
    after - before
}

/// Steady-state allocations per node-tick: (200-tick run − 100-tick run)
/// ÷ the 100 extra ticks of every node.
fn per_node_tick(protocol: Protocol, nodes: u16, reliability: Option<RetryConfig>) -> f64 {
    let long = allocations(protocol, nodes, 200, reliability);
    let short = allocations(protocol, nodes, 100, reliability);
    long.saturating_sub(short) as f64 / (100.0 * f64::from(nodes))
}

/// Allocations per EC write-lock round trip on a lock node 1 manages, over
/// `ReactorMesh::local(nodes)` and under `reliability` when given: node 0
/// counts its last 20 000 of 22 000 acquire/release pairs; every other
/// node serves in `finish` until node 0 is done.
fn per_socket_round_trip(nodes: usize, reliability: Option<RetryConfig>) -> f64 {
    const WARM_UP: u32 = 2_000;
    const TRIPS: u32 = 20_000;
    let object = ObjectId(1);
    let handles: Vec<_> = ReactorMesh::local(nodes)
        .expect("mesh")
        .into_iter()
        .map(|ep| {
            std::thread::spawn(move || {
                let config = DsoConfig::compact().with_reliability(reliability);
                let mut rt = SdsoRuntime::new(ep, config);
                rt.share(object, vec![0; 8]).expect("share");
                let me = rt.node_id();
                let mut ec = EntryConsistency::new(rt);
                assert_eq!(ec.manager_of_view(object), 1);
                let mut counted = None;
                if me == 0 {
                    let lock = [LockRequest::write(object)];
                    let unmodified = BTreeSet::new();
                    let mut before = 0;
                    for trip in 0..WARM_UP + TRIPS {
                        if trip == WARM_UP {
                            before = counting::allocations();
                        }
                        ec.acquire(&lock).expect("acquire");
                        ec.release_all(&unmodified).expect("release");
                    }
                    counted = Some(counting::allocations() - before);
                }
                ec.finish().expect("finish");
                counted
            })
        })
        .collect();
    let counted: u64 = handles.into_iter().filter_map(|h| h.join().expect("node panicked")).sum();
    counted as f64 / f64::from(TRIPS)
}

#[test]
fn lookahead_exchanges_allocate_within_budget_per_node_tick() {
    // (protocol, nodes, budget per node-tick)
    let budgets = [
        (Protocol::Bsync, 2, 3.0),
        (Protocol::Bsync, 16, 35.0),
        (Protocol::Msync, 2, 3.0),
        (Protocol::Msync, 16, 43.0),
        (Protocol::Msync2, 2, 3.0),
        (Protocol::Msync2, 16, 44.0),
        (Protocol::Entry, 2, 6.0),
        (Protocol::Entry, 16, 13.0),
    ];
    let mut report = String::new();
    let mut over = Vec::new();
    // A reliable row is held to the budget of its row without the layer.
    let arq = [(None, ""), (Some(RetryConfig::default()), ", reliable")];
    for (protocol, nodes, budget) in budgets {
        for (reliability, how) in arq {
            let measured = per_node_tick(protocol, nodes, reliability);
            let cell = format!("{protocol} at {nodes} nodes{how}");
            report.push_str(&format!(
                "{cell}: {measured:.2} allocations per node-tick (budget {budget})\n"
            ));
            if measured > budget {
                over.push(format!("{cell}: {measured:.1} > {budget}"));
            }
        }
    }
    for nodes in [2, 3] {
        for (reliability, how) in arq {
            let budget = 0.01;
            let measured = per_socket_round_trip(nodes, reliability);
            let cell = format!("EC over ReactorMesh::local({nodes}){how}");
            report.push_str(&format!(
                "{cell}: {measured:.4} allocations per lock round trip (budget {budget})\n"
            ));
            if measured > budget {
                over.push(format!("{cell}: {measured:.4} > {budget}"));
            }
        }
    }
    println!("{report}");
    assert!(over.is_empty(), "over budget:\n{}\n{report}", over.join("\n"));
}
