//! Schedule-replay regressions and explorer smoke coverage.
//!
//! The pinned schedules below are `Explorer`-minimized choice vectors
//! (trailing default-0 choices trimmed) captured from development runs of
//! `sdso-check explore`. Each steers every early delivery race off the
//! default path — exactly the shape a minimized counterexample takes —
//! so the protocols' invariants stay pinned against the most adversarial
//! orders the explorer found, and `Explorer::replay` itself is exercised
//! end to end.

use std::sync::Arc;

use proptest::prelude::*;
use sdso_check::scenarios::{self, Protocol};
use sdso_sim::{Explorer, ReplayOracle};

/// One pinned schedule per protocol.
const PINNED: &[(Protocol, &[usize])] = &[
    (Protocol::Bsync, &[1, 1, 0, 1, 0, 1, 1, 1]),
    (Protocol::Msync, &[1, 0, 1, 1, 1, 0, 1]),
    (Protocol::Msync2, &[1, 1, 1, 0, 1, 1]),
    (Protocol::Ec, &[1, 1, 0, 1, 1, 1, 0, 1]),
];

#[test]
fn pinned_schedules_replay_with_invariants_intact() {
    for &(protocol, schedule) in PINNED {
        let oracle = Arc::new(ReplayOracle::new(schedule.to_vec()));
        scenarios::run_once(protocol, Arc::clone(&oracle))
            .unwrap_or_else(|e| panic!("{} under {schedule:?}: {e}", protocol.name()));
        // The schedule must actually steer deliveries: a trace shorter
        // than the preset means the scenario shrank and the pin is stale.
        let trace = oracle.trace();
        assert!(
            trace.len() >= schedule.len(),
            "{}: only {} choice points for pinned schedule of {}",
            protocol.name(),
            trace.len(),
            schedule.len()
        );
    }
}

#[test]
fn explorer_replay_api_round_trips() {
    let (protocol, schedule) = (Protocol::Bsync, vec![1, 1]);
    Explorer::replay(&schedule, |oracle| scenarios::run_once(protocol, oracle))
        .expect("pinned bsync schedule satisfies invariants");
}

#[test]
fn explorer_smoke_covers_every_protocol() {
    // A fast bounded sweep (full coverage gates run in CI via the
    // `sdso-check explore` binary): every protocol must yield a healthy
    // set of distinct interleavings with no invariant violation.
    let explorer = Explorer::new(6, 24);
    for protocol in Protocol::ALL {
        let report = scenarios::explore(protocol, explorer);
        assert!(report.violation.is_none(), "{}: {:?}", protocol.name(), report.violation);
        assert!(
            report.distinct >= 8,
            "{}: only {} distinct schedules at depth 6",
            protocol.name(),
            report.distinct
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn random_schedules_never_violate_invariants(
        schedule in proptest::collection::vec(0usize..3, 0..10),
        which in 0usize..4,
    ) {
        let protocol = Protocol::ALL[which];
        let oracle = Arc::new(ReplayOracle::new(schedule.clone()));
        if let Err(e) = scenarios::run_once(protocol, oracle) {
            prop_assert!(false, "{} under {:?}: {}", protocol.name(), schedule, e);
        }
    }
}
