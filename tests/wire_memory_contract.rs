//! The memory contract of the default wire (docs/ARCHITECTURE.md §9):
//! codec v2 holds no per-link copy of the objects it carries, so a run on
//! the default wire peaks at no more live heap than the same run on the
//! paper's v1 frames.
//!
//! A counting global allocator tracks this process's live heap bytes and
//! their high-water mark; a run's peak is the mark above the live bytes it
//! started from. The run is the `sim16-dc-allon` benchmark workload's
//! shape: 16 teams on the paper's world at 256-byte blocks, reliability
//! on, payload-sized frames, the modelled 10 Gbps link, 100 ticks. The
//! counter is process-wide, so this file holds one test: two runs measured
//! at once would count each other.

use sdso_core::{RetryConfig, WireConfig};
use sdso_game::{Protocol, Scenario};
use sdso_harness::{converged, run_experiment};
use sdso_sim::NetworkModel;

#[path = "common/counting.rs"]
mod counting;

/// The peak live heap of one run above what was live before it, in bytes.
fn peak_heap(protocol: Protocol, wire: WireConfig) -> i64 {
    let mut scenario = Scenario::paper(16, 3)
        .with_block_bytes(256)
        .with_reliability(RetryConfig::default())
        .with_wire(wire)
        .with_ticks(100);
    scenario.frame_wire_len = None;
    let before = counting::reset_peak();
    let run = run_experiment(&scenario, protocol, NetworkModel::datacenter())
        .expect("every node finishes");
    let peak = counting::peak() - before;
    assert!(converged(&run), "{protocol} on {wire:?} did not converge");
    drop(run);
    peak
}

fn mib(bytes: i64) -> f64 {
    bytes as f64 / f64::from(1 << 20)
}

#[test]
fn the_default_wire_peaks_at_no_more_heap_than_v1() {
    let mut report = String::new();
    let mut over = Vec::new();
    for protocol in [Protocol::Bsync, Protocol::Msync2] {
        let default = peak_heap(protocol, WireConfig::default());
        let v1 = peak_heap(protocol, WireConfig::v1());
        report.push_str(&format!(
            "{protocol}: default wire {:.2} MiB, v1 {:.2} MiB peak live heap\n",
            mib(default),
            mib(v1)
        ));
        if default > v1 {
            over.push(format!("{protocol}: {default} > {v1} bytes"));
        }
    }
    println!("{report}");
    assert!(over.is_empty(), "the default wire peaked above v1:\n{}\n{report}", over.join("\n"));
}
