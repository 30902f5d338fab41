//! `unsafe-audit`: every FFI module carries a written soundness argument.
//!
//! A module containing FFI (`extern "…"` blocks) must open with a
//! `## Safety audit` doc-header containing a markdown table (`//! |` rows)
//! with one row naming each `fn` its `extern` blocks declare, and that
//! function's contract. The other half of the audit, a `// SAFETY:`
//! comment on every `unsafe` block and impl, is
//! `clippy::undocumented_unsafe_blocks`, warned workspace-wide in the root
//! `Cargo.toml`.
//!
//! The reactor's `sys.rs` is the motivating case: raw `poll`/`getrlimit`
//! bindings whose soundness rests on argument conventions the compiler
//! cannot check. An FFI module without its table is unauditable, and a
//! table that names functions the block no longer declares audits nothing.

use super::FileCtx;
use crate::diag::Diagnostic;

/// Rule identifier.
pub const RULE: &str = "unsafe-audit";

/// Runs the rule over one prepared file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
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
}
