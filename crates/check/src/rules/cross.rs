//! The cross-file reachability pass for `no-panic`, built on
//! [`crate::callgraph`].
//!
//! Clippy polices the panicking constructs *written in* protocol-path
//! files; this pass polices what protocol-path code *calls*: a call from
//! an in-scope file (see [`super::no_panic::scope`]) to an out-of-scope
//! function that may panic (directly or transitively) is a finding at the
//! call site, with the full chain to the panicking construct in the
//! message. Clippy's `unwrap_used`/`panic`/… denies report in-scope
//! panics directly; this pass reports out-of-scope panics at the boundary
//! call that can reach them.

use crate::callgraph::{CallGraph, Reason};
use crate::diag::Diagnostic;
use crate::rules::{no_panic, Prepared};

/// Runs the `no-panic` reachability pass.
pub fn check(files: &[Prepared], graph: &CallGraph) -> Vec<Diagnostic> {
    let refs: Vec<(&str, &str)> =
        files.iter().map(|f| (f.rel_path.as_str(), f.clean.as_str())).collect();
    let in_scope = no_panic::scope(files);
    // Direct facts: panicking constructs in OUT-of-scope files only — the
    // in-scope ones are clippy's to report.
    let mut direct: Vec<Option<Reason>> = vec![None; graph.defs.len()];
    for (file_idx, file) in files.iter().enumerate() {
        if in_scope[file_idx] || file.rel_path.starts_with("crates/check/") {
            continue;
        }
        for &(pat, what) in no_panic::PATTERNS {
            for at in crate::lexer::find_bounded(&file.clean, pat) {
                if let Some(d) = graph.def_at(file_idx, at) {
                    if direct[d].is_none() {
                        direct[d] = Some(Reason::Direct { what: what.to_owned(), offset: at });
                    }
                }
            }
        }
    }
    let reasons = graph.propagate(direct);
    let mut out = Vec::new();
    for (caller_idx, caller) in graph.defs.iter().enumerate() {
        let caller_file = &files[caller.file];
        if !in_scope[caller.file] {
            continue;
        }
        for e in &graph.calls_from[caller_idx] {
            let callee = &graph.defs[e.callee];
            if in_scope[callee.file] {
                continue; // the boundary is crossed at the first out-call
            }
            if reasons[e.callee].is_some() {
                let chain = graph.render_chain(&reasons, &refs, e.callee);
                out.push(caller_file.diag(
                    no_panic::RULE,
                    e.offset,
                    format!(
                        "call from `{}` into code that may panic: {chain}; make the \
                         callee total or return a typed error across the boundary",
                        caller.name
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean_source, strip_test_modules};

    fn run_rule(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let prepared: Vec<Prepared> = files
            .iter()
            .map(|(p, s)| Prepared {
                rel_path: (*p).to_owned(),
                src: (*s).to_owned(),
                clean: strip_test_modules(&clean_source(s)),
            })
            .collect();
        let refs: Vec<(&str, &str)> =
            prepared.iter().map(|f| (f.rel_path.as_str(), f.clean.as_str())).collect();
        let graph = CallGraph::build(&refs);
        check(&prepared, &graph)
    }

    /// Puts `crates/protocols` in the `no-panic` scope.
    const PROTOCOLS_LIB: (&str, &str) =
        ("crates/protocols/src/lib.rs", "#![cfg_attr(not(test), deny(clippy::unwrap_used))]");

    #[test]
    fn panic_two_files_away_is_reported_at_the_boundary_call() {
        let d = run_rule(&[
            PROTOCOLS_LIB,
            ("crates/protocols/src/entry.rs", "fn apply() { let v = decode_all(b); }"),
            (
                "crates/core/src/codec.rs",
                "pub fn decode_all(b: &[u8]) { inner(b) }\n\
              fn inner(b: &[u8]) { b.first().unwrap(); }",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "no-panic");
        assert_eq!(d[0].path, "crates/protocols/src/entry.rs");
        assert!(d[0].message.contains("`decode_all` -> `inner`"), "{}", d[0].message);
        assert!(d[0].message.contains("crates/core/src/codec.rs:2"), "{}", d[0].message);
    }

    #[test]
    fn non_panicking_callee_is_fine() {
        let d = run_rule(&[
            PROTOCOLS_LIB,
            ("crates/protocols/src/entry.rs", "fn apply() { total(b); }"),
            ("crates/core/src/codec.rs", "pub fn total(b: &[u8]) -> usize { b.len() }"),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn out_of_scope_caller_is_not_reported() {
        let d = run_rule(&[
            ("crates/game/src/ai.rs", "fn think() { deep_panics(); }"),
            ("crates/core/src/util.rs", "pub fn deep_panics() { x.unwrap(); }"),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }
}
