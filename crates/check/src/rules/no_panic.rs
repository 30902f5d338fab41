//! `no-panic`: no `unwrap()`/`expect()`/`panic!` (or their cousins) in
//! protocol-path non-test code.
//!
//! S-DSO's runtime, protocols, and transports must surface failures through
//! the typed `error.rs` paths — a panic in a replica is an availability
//! fault the paper's model does not allow for. Tests and scoped-out crates
//! (the simulator harness, the game) may panic freely.

use super::FileCtx;
use crate::diag::Diagnostic;

/// Rule identifier.
pub const RULE: &str = "no-panic";

/// Exact files in scope.
const SCOPE_FILES: &[&str] = &["crates/core/src/runtime.rs", "crates/core/src/session.rs"];
/// Path prefixes in scope.
const SCOPE_PREFIXES: &[&str] = &["crates/protocols/src/", "crates/net/src/", "crates/shard/src/"];

/// Panicking constructs and how to refer to them in the diagnostic.
/// Shared with the cross-file reachability pass in [`super::cross`].
pub const PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()`"),
    (".expect(", "`.expect(..)`"),
    ("panic!", "`panic!`"),
    ("unreachable!", "`unreachable!`"),
    ("todo!", "`todo!`"),
    ("unimplemented!", "`unimplemented!`"),
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
    for &(pat, what) in PATTERNS {
        for at in crate::lexer::find_bounded(ctx.clean, pat) {
            out.push(ctx.diag(
                RULE,
                at,
                format!(
                    "{what} in non-test protocol code; propagate a typed error \
                     (see error.rs) instead of panicking"
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
    fn flags_unwrap_in_scope() {
        for path in ["crates/protocols/src/entry.rs", "crates/core/src/session.rs"] {
            let d = run(path, "fn f() { x.unwrap(); }");
            assert_eq!(d.len(), 1, "{path}");
            assert_eq!(d[0].line, 1);
        }
    }

    #[test]
    fn ignores_out_of_scope_and_tests() {
        assert!(run("crates/game/src/ai.rs", "fn f() { x.unwrap(); }").is_empty());
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        assert!(run("crates/protocols/src/entry.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(id); z.unwrap_or_default(); }";
        assert!(run("crates/net/src/tcp.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_count() {
        let src = "fn f() { let s = \".unwrap()\"; } // panic!(\"no\")";
        assert!(run("crates/core/src/runtime.rs", src).is_empty());
    }
}
