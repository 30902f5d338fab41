//! The memory contract of EC's flush (docs/ARCHITECTURE.md §9): the
//! barrier that ends an EC run sends each peer one `State` of diffs from
//! the registered bodies, so EC's run peaks at no more than 1.25× the live
//! heap of MSYNC2's on the same world. When the flush pushed one whole
//! body per object per peer it set EC's peak, at about 1.75× MSYNC2's.
//!
//! A counting global allocator tracks this process's live heap bytes and
//! their high-water mark; a run's peak is the mark above the live bytes it
//! started from. The run is the `sim16-dc-allon` benchmark workload's
//! shape, as in `wire_memory_contract.rs`: 16 teams on the paper's world
//! at 256-byte blocks, reliability on, the default wire, payload-sized
//! frames, the modelled 10 Gbps link, 100 ticks. The counter is
//! process-wide, so this file holds one test: two runs measured at once
//! would count each other.

use sdso_core::RetryConfig;
use sdso_game::{Protocol, Scenario};
use sdso_harness::{converged, run_experiment};
use sdso_sim::NetworkModel;

#[path = "common/counting.rs"]
mod counting;

/// The peak live heap of one run above what was live before it, in bytes.
fn peak_heap(protocol: Protocol) -> i64 {
    let mut scenario = Scenario::paper(16, 3)
        .with_block_bytes(256)
        .with_reliability(RetryConfig::default())
        .with_ticks(100);
    scenario.frame_wire_len = None;
    let before = counting::reset_peak();
    let run = run_experiment(&scenario, protocol, NetworkModel::datacenter())
        .expect("every node finishes");
    let peak = counting::peak() - before;
    assert!(converged(&run), "{protocol} did not converge");
    drop(run);
    peak
}

fn mib(bytes: i64) -> f64 {
    bytes as f64 / f64::from(1 << 20)
}

#[test]
fn ec_peaks_within_a_quarter_above_msync2() {
    let ec = peak_heap(Protocol::Entry);
    let msync2 = peak_heap(Protocol::Msync2);
    let ratio = ec as f64 / msync2 as f64;
    let report =
        format!("EC {:.2} MiB, MSYNC2 {:.2} MiB peak live heap: {ratio:.2}×", mib(ec), mib(msync2));
    println!("{report}");
    assert!(ratio <= 1.25, "EC's peak is more than 1.25× MSYNC2's: {report}");
}
