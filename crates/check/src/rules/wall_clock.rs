//! `wall-clock`: no host-time or OS-entropy sources in deterministic code.
//!
//! The simulator, the core runtime, and the protocol layer must be
//! bit-for-bit replayable: time comes from the `net::time` virtual clocks
//! (`SimInstant`/`SimSpan`) and randomness from seeded PRNGs. Real
//! transports (`reactor.rs`, `memory.rs`) legitimately read the host clock
//! and are out of scope; `fault.rs` is in scope because fault plans must
//! replay identically.

use super::FileCtx;
use crate::diag::Diagnostic;

/// Rule identifier.
pub const RULE: &str = "wall-clock";

/// Exact files in scope.
const SCOPE_FILES: &[&str] = &["crates/net/src/fault.rs", "crates/net/src/time.rs"];
/// Path prefixes in scope. `crates/obs` is in scope because recorder
/// timestamps must replay in sim runs; its one sanctioned host-clock
/// reader (`clock.rs`, used only on real transports) is carried in
/// `allowlists/wall-clock.allow`, keeping the rule deny-by-default.
const SCOPE_PREFIXES: &[&str] =
    &["crates/sim/src/", "crates/core/src/", "crates/protocols/src/", "crates/obs/src/"];

/// Forbidden constructs and what to use instead.
const PATTERNS: &[(&str, &str)] = &[
    ("std::time::Instant", "net::time::SimInstant"),
    ("std::time::SystemTime", "net::time::SimInstant"),
    ("Instant::now", "the scheduler's virtual clock"),
    ("SystemTime", "net::time::SimInstant"),
    ("UNIX_EPOCH", "net::time::SimInstant"),
    ("thread::sleep", "Endpoint::advance (virtual time)"),
    ("thread_rng", "a seeded `sdso_net::DetRng`"),
    ("OsRng", "a seeded `sdso_net::DetRng`"),
    ("from_entropy", "a fixed or plan-provided seed"),
    ("getrandom", "a seeded `sdso_net::DetRng`"),
];

/// True if `rel_path` is governed by this rule.
pub fn in_scope(rel_path: &str) -> bool {
    SCOPE_FILES.contains(&rel_path) || SCOPE_PREFIXES.iter().any(|p| rel_path.starts_with(p))
}

/// Runs the rule over one prepared file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !in_scope(ctx.rel_path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for &(pat, instead) in PATTERNS {
        for at in crate::lexer::find_bounded(ctx.clean, pat) {
            out.push(ctx.diag(
                RULE,
                at,
                format!(
                    "non-deterministic source `{pat}` in replay-critical code; \
                     use {instead}"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean_source, strip_test_modules};

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let clean = strip_test_modules(&clean_source(src));
        let lines: Vec<&str> = src.lines().collect();
        check(&FileCtx { rel_path: path, clean: &clean, lines: &lines })
    }

    #[test]
    fn flags_host_clock_in_sim() {
        let d = run("crates/sim/src/scheduler.rs", "let t = std::time::Instant::now();");
        assert!(!d.is_empty());
    }

    #[test]
    fn sim_instant_is_not_confused_with_instant() {
        let src = "let t = SimInstant::from_micros(sent_at); let s = SimInstant::ZERO;";
        assert!(run("crates/sim/src/scheduler.rs", src).is_empty());
    }

    #[test]
    fn real_transports_are_out_of_scope() {
        let src = "let t = std::time::Instant::now();";
        assert!(run("crates/net/src/reactor.rs", src).is_empty());
        assert!(run("crates/net/src/memory.rs", src).is_empty());
    }

    #[test]
    fn fault_plans_must_be_deterministic() {
        let d = run("crates/net/src/fault.rs", "let mut rng = thread_rng();");
        assert!(!d.is_empty());
    }

    #[test]
    fn obs_crate_is_in_scope() {
        // The scoped allowlist (not this rule) is what exempts clock.rs,
        // so the raw rule must flag host time anywhere in crates/obs.
        let src = "let epoch = std::time::Instant::now();";
        assert!(!run("crates/obs/src/recorder.rs", src).is_empty());
        assert!(!run("crates/obs/src/clock.rs", src).is_empty());
    }
}
