//! `fd-ownership`: raw file descriptors stay inside `sys.rs`.
//!
//! The reactor's safety story rests on every descriptor having exactly one
//! owner whose `Drop` closes it: `UnixStream` for the waker's socket pair,
//! `TcpStream`/`TcpListener` for sockets. A `RawFd` returned, stored, or
//! converted anywhere else in `sdso-net` is a leak or a double-close
//! waiting to happen (and is exactly how fd-recycling races start: a stale
//! raw fd closed after the number was reused now closes an unrelated
//! socket). `sys.rs` — the FFI boundary — is the single file
//! allowed to touch raw descriptors; its `Poller` API takes
//! `&impl AsRawFd` so callers never need to.

use super::FileCtx;
use crate::diag::Diagnostic;

/// Rule identifier.
pub const RULE: &str = "fd-ownership";

/// The only file allowed to handle raw descriptors.
const EXEMPT: &str = "crates/net/src/sys.rs";

/// Path prefix governed by this rule.
const SCOPE_PREFIX: &str = "crates/net/src/";

/// Raw-descriptor constructs and why each is denied.
const PATTERNS: &[(&str, &str)] = &[
    ("RawFd", "raw descriptors have no owner; pass `&impl AsRawFd` into sys.rs instead"),
    ("from_raw_fd", "ownership conjured from an integer; construct owned types in sys.rs"),
    ("into_raw_fd", "ownership discarded into an integer; keep the owning type alive"),
    ("as_raw_fd", "borrowed raw fd escapes its owner's lifetime tracking"),
    ("AsRawFd", "fd-trait plumbing belongs behind the sys.rs boundary"),
];

/// Runs the rule over one prepared file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !ctx.rel_path.starts_with(SCOPE_PREFIX) || ctx.rel_path == EXEMPT {
        return Vec::new();
    }
    let mut out = Vec::new();
    for &(pat, why) in PATTERNS {
        for at in crate::lexer::find_bounded(ctx.clean, pat) {
            // Reject identifier tails (`RawFdTable`, `as_raw_fd_count`).
            let after = ctx.clean.as_bytes().get(at + pat.len());
            if after.is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_') {
                continue;
            }
            out.push(ctx.diag(RULE, at, format!("`{pat}` outside sys.rs: {why}")));
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
    fn raw_fd_outside_sys_is_flagged() {
        let src = "pub fn leak(l: &TcpListener) -> RawFd { l.as_raw_fd() }";
        let d = run("crates/net/src/reactor.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn sys_rs_is_exempt() {
        let src = "pub fn add(&self, fd: RawFd) { x.as_raw_fd(); }";
        assert!(run("crates/net/src/sys.rs", src).is_empty());
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        let src = "pub fn f() -> RawFd { 3 }";
        assert!(run("crates/core/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn tests_inside_net_files_are_stripped_first() {
        let src = "#[cfg(test)]\nmod tests { fn t() { s.as_raw_fd(); } }";
        assert!(run("crates/net/src/reactor.rs", src).is_empty());
    }
}
