//! Cross-file reachability passes for `no-panic` and
//! `no-alloc-in-hot-path`, built on [`crate::callgraph`].
//!
//! Clippy and the file-scoped rules police constructs *written in*
//! protocol-path files; these passes police what protocol-path code
//! *calls*:
//!
//! * **`no-panic` reachability** — a call from an in-scope file (see
//!   [`super::no_panic::scope`]) to an out-of-scope function that may
//!   panic (directly or transitively) is a finding at the call site, with
//!   the full chain to the panicking construct in the message. Clippy's
//!   `unwrap_used`/`panic`/… denies report in-scope panics directly; this
//!   pass reports out-of-scope panics at the boundary call that can reach
//!   them.
//! * **`no-alloc-in-hot-path` cross-file** — a `sdso-check: hot-path`
//!   function calling a function that *directly* allocates is a finding at
//!   the call site. One level deep by design: transitive alloc taint over
//!   a name-based graph would flag half the workspace on cold error
//!   paths; the marker discipline is that hot functions keep their direct
//!   callees allocation-free or marked (and thus checked) themselves.

use crate::callgraph::{CallGraph, Reason};
use crate::diag::Diagnostic;
use crate::lexer::line_of;
use crate::rules::{no_alloc_hot_path, no_panic, Prepared};

/// Runs both cross-file passes.
pub fn check(files: &[Prepared], graph: &CallGraph) -> Vec<Diagnostic> {
    let refs: Vec<(&str, &str)> =
        files.iter().map(|f| (f.rel_path.as_str(), f.clean.as_str())).collect();
    let mut out = cross_panic(files, graph, &refs);
    out.extend(cross_alloc(files, graph));
    out
}

fn cross_panic(files: &[Prepared], graph: &CallGraph, refs: &[(&str, &str)]) -> Vec<Diagnostic> {
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
                let chain = graph.render_chain(&reasons, refs, e.callee);
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

fn cross_alloc(files: &[Prepared], graph: &CallGraph) -> Vec<Diagnostic> {
    // Which definitions carry the hot-path marker. Attribution matches the
    // per-file rule exactly: a marker governs the first `fn` at or after
    // its own line, and only that one.
    let mut marked = vec![false; graph.defs.len()];
    for (file_idx, file) in files.iter().enumerate() {
        if file.rel_path.starts_with("crates/check/") {
            continue;
        }
        let mut line_start = 0usize;
        for line in file.src.lines() {
            let this_start = line_start;
            line_start += line.len() + 1;
            if !line.contains(no_alloc_hot_path::MARKER) {
                continue;
            }
            let Some(&fn_at) = crate::lexer::find_bounded(&file.clean[this_start..], "fn ").first()
            else {
                continue;
            };
            let fn_at = fn_at + this_start;
            if let Some(d_idx) =
                graph.defs.iter().position(|d| d.file == file_idx && d.sig_offset == fn_at)
            {
                marked[d_idx] = true;
            }
        }
    }
    // Which definitions directly allocate.
    let mut allocates: Vec<Option<(&str, usize)>> = vec![None; graph.defs.len()];
    for (d_idx, d) in graph.defs.iter().enumerate() {
        let file = &files[d.file];
        if file.rel_path.starts_with("crates/check/") {
            continue;
        }
        let body = &file.clean[d.body.0..d.body.1];
        for &(pat, _) in no_alloc_hot_path::PATTERNS {
            if let Some(&at) = crate::lexer::find_bounded(body, pat).first() {
                allocates[d_idx] = Some((pat, d.body.0 + at));
                break;
            }
        }
    }
    let mut out = Vec::new();
    for (caller_idx, caller) in graph.defs.iter().enumerate() {
        if !marked[caller_idx] {
            continue;
        }
        for e in &graph.calls_from[caller_idx] {
            // A marked callee is checked in its own right; flagging the
            // call too would double-report every hot->hot composition.
            if marked[e.callee] {
                continue;
            }
            if let Some((pat, alloc_at)) = allocates[e.callee] {
                let callee = &graph.defs[e.callee];
                let callee_file = &files[callee.file];
                out.push(files[caller.file].diag(
                    no_alloc_hot_path::RULE,
                    e.offset,
                    format!(
                        "hot-path `{}` calls `{}`, which allocates (`{pat}..` at {}:{}); \
                         pool the allocation or mark the callee hot-path",
                        caller.name,
                        callee.name,
                        callee_file.rel_path,
                        line_of(&callee_file.clean, alloc_at),
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

    #[test]
    fn hot_path_calling_direct_allocator_is_reported() {
        let d = run_rule(&[(
            "crates/net/src/frame.rs",
            "// sdso-check: hot-path\nfn flush(out: &mut BytesMut) { \
                 build_scratch(out); }\nfn build_scratch(out: &mut BytesMut) { \
                 let v = Vec::new(); }",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "no-alloc-in-hot-path");
        assert!(d[0].message.contains("`flush` calls `build_scratch`"), "{}", d[0].message);
    }

    #[test]
    fn hot_path_calling_marked_callee_is_not_double_reported() {
        let d = run_rule(&[(
            "crates/net/src/frame.rs",
            "// sdso-check: hot-path\nfn flush(out: &mut BytesMut) { refill(out); }\n\
             // sdso-check: hot-path\nfn refill(out: &mut BytesMut) { out.clear(); }",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}
