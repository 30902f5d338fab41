//! `unsafe-audit`: every `unsafe` carries a written soundness argument.
//!
//! Two obligations, both deny-by-default across the whole workspace:
//!
//! * every `unsafe` keyword (block, fn, impl) must have a `// SAFETY:`
//!   comment on its own line or within the three lines above it;
//! * a module containing FFI (`extern "…"` blocks) must open with a
//!   `## Safety audit` doc-header containing a markdown table (`//! |`
//!   rows) with one row naming each `fn` its `extern` blocks declare, and
//!   that function's contract.
//!
//! The reactor's `sys.rs` is the motivating case: raw `poll`/`getrlimit`
//! bindings whose soundness rests on argument conventions the compiler
//! cannot check. An unsafe block without its argument is a review hazard;
//! an FFI module without its table is an unauditable one, and a table that
//! names functions the block no longer declares audits nothing.

use super::FileCtx;
use crate::diag::Diagnostic;

/// Rule identifier.
pub const RULE: &str = "unsafe-audit";

/// How many lines above an `unsafe` the `SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 3;

/// Runs the rule over one prepared file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for at in crate::lexer::find_bounded(ctx.clean, "unsafe") {
        // `find_bounded` checks the leading boundary only; reject tails
        // like `unsafe_op` ourselves.
        let after = ctx.clean.as_bytes().get(at + "unsafe".len());
        if after.is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_') {
            continue;
        }
        let line = crate::lexer::line_of(ctx.clean, at);
        let lo = line.saturating_sub(SAFETY_WINDOW + 1);
        let justified =
            ctx.lines[lo..line.min(ctx.lines.len())].iter().any(|l| l.contains("SAFETY:"));
        if !justified {
            out.push(ctx.diag(
                RULE,
                at,
                format!(
                    "`unsafe` without a `// SAFETY:` justification within {SAFETY_WINDOW} \
                     lines above; state why the invariants hold"
                ),
            ));
        }
    }
    if let Some(&at) = crate::lexer::find_bounded(ctx.clean, "extern \"").first() {
        let has_header = ctx.lines.iter().any(|l| l.contains("## Safety audit"));
        let rows: Vec<&str> =
            ctx.lines.iter().map(|l| l.trim_start()).filter(|l| l.starts_with("//! |")).collect();
        if !has_header || rows.is_empty() {
            out.push(
                ctx.diag(
                    RULE,
                    at,
                    "FFI module without a `## Safety audit` doc table; add a `//! ## Safety \
                 audit` header with one `//! | entry point | contract |` row per foreign \
                 function"
                        .to_owned(),
                ),
            );
        } else {
            for (at, name) in foreign_fns(ctx.clean) {
                let cell = format!("`{name}`");
                if !rows.iter().any(|row| row.contains(&cell)) {
                    out.push(ctx.diag(
                        RULE,
                        at,
                        format!(
                            "foreign function `{name}` has no row in the `## Safety audit` \
                             table; add `//! | {cell} | <contract> |`"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Every `fn` declared inside an `extern "…" { … }` block of the cleaned
/// source, with its offset. `extern "C" fn f() {}` is a definition, not a
/// block, and is skipped.
fn foreign_fns(clean: &str) -> Vec<(usize, String)> {
    let b = clean.as_bytes();
    let mut out = Vec::new();
    for at in crate::lexer::find_bounded(clean, "extern \"") {
        // The ABI literal is blanked but keeps its quotes.
        let abi = at + "extern \"".len();
        let Some(close) = clean[abi..].find('"').map(|i| abi + i + 1) else { continue };
        let open = close + (clean[close..].len() - clean[close..].trim_start().len());
        if b.get(open) != Some(&b'{') {
            continue;
        }
        let Some(end) = crate::callgraph::match_brace(b, open) else { continue };
        let block = &clean[open..end];
        for f in crate::lexer::find_bounded(block, "fn") {
            let rest = &block[f + 2..];
            if !rest.starts_with(char::is_whitespace) {
                continue;
            }
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                out.push((open + f, name));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean_source, strip_test_modules};

    fn run(src: &str) -> Vec<Diagnostic> {
        let clean = strip_test_modules(&clean_source(src));
        let lines: Vec<&str> = src.lines().collect();
        check(&FileCtx { rel_path: "crates/net/src/sys.rs", clean: &clean, lines: &lines })
    }

    #[test]
    fn unjustified_unsafe_is_flagged() {
        let d = run("fn f() { unsafe { core() } }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("SAFETY:"));
    }

    #[test]
    fn safety_comment_within_window_passes() {
        let src = "fn f() {\n    // SAFETY: fd is owned and open.\n    unsafe { core() }\n}";
        assert!(run(src).is_empty());
        let far = "fn f() {\n    // SAFETY: too far away.\n\n\n\n\n    unsafe { core() }\n}";
        assert_eq!(run(far).len(), 1);
    }

    #[test]
    fn unsafe_in_identifier_is_not_the_keyword() {
        assert!(run("fn f() { let unsafe_count = 1; not_unsafe(); }").is_empty());
    }

    #[test]
    fn ffi_without_audit_table_is_flagged() {
        let d = run("extern \"C\" { fn close(fd: i32) -> i32; }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Safety audit"));
    }

    #[test]
    fn ffi_with_audit_table_passes() {
        let src = "//! ## Safety audit\n//! | entry point | contract |\n//! | `close` | fd \
                   is open |\nextern \"C\" { fn close(fd: i32) -> i32; }";
        assert!(run(src).is_empty());
    }

    /// A table left naming the functions of an earlier binding audits
    /// nothing: every declared `fn` needs a row of its own.
    #[test]
    fn every_foreign_function_needs_a_row_naming_it() {
        let stale = "//! ## Safety audit\n//! | entry point | contract |\n//! | `select` | the \
                     fd sets are writable |\nextern \"C\" {\n    fn poll(fds: *mut PollFd, nfds: \
                     u64, timeout: i32) -> i32;\n}";
        let d = run(stale);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`poll`"), "{}", d[0].message);
        assert!(run(&stale.replace("select", "poll")).is_empty());
        // A definition with an ABI is not a foreign declaration.
        assert!(foreign_fns("extern \"C\" fn callback() { inner(); }").is_empty());
    }

    #[test]
    fn unsafe_impl_needs_justification_too() {
        let d = run("unsafe impl Send for Poller {}");
        assert_eq!(d.len(), 1);
        let ok = "// SAFETY: all fields are fds, sendable by construction.\n\
                  unsafe impl Send for Poller {}";
        assert!(run(ok).is_empty());
    }
}
