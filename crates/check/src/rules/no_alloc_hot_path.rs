//! `no-alloc-in-hot-path`: no per-call heap allocation in functions marked
//! as data-path hot paths.
//!
//! The put→diff→buffer→encode→send pipeline is designed to be
//! allocation-free in steady state: encode scratch comes from the buffer
//! pool, frames append into reusable [`BytesMut`]s, and batched writes
//! reuse one scratch buffer per flush. A function opts into enforcement by
//! carrying the marker `sdso-check: hot-path` in a comment on or above its
//! signature; the rule then denies allocating constructs inside that
//! function's body. Everything unmarked is out of scope — this rule is
//! opt-in where the others are deny-by-default, because "hot" is a design
//! decision the code must declare.

use super::FileCtx;
use crate::diag::Diagnostic;

/// Rule identifier.
pub const RULE: &str = "no-alloc-in-hot-path";

/// The opt-in marker, written in a comment on or above a function.
pub const MARKER: &str = "sdso-check: hot-path";

/// Allocating constructs and what the hot path should use instead.
/// Shared with the cross-file pass in [`super::cross`].
pub const PATTERNS: &[(&str, &str)] = &[
    ("Vec::new(", "pooled or caller-provided scratch"),
    ("Vec::with_capacity(", "pooled or caller-provided scratch"),
    ("vec![", "pooled or caller-provided scratch"),
    (".to_vec(", "a borrow or pooled scratch"),
    (".clone()", "a move or a borrow"),
    (".to_owned(", "a borrow"),
    ("String::new(", "a static or pooled buffer"),
    ("format!", "a preformatted constant"),
    ("Box::new(", "an inline value"),
    ("BytesMut::with_capacity(", "BufPool::get"),
];

/// Runs the rule over one prepared file.
///
/// Markers live in comments, which the lexer blanks out of `ctx.clean` —
/// so they are found in the original `ctx.lines`, and the function body
/// they govern is then brace-matched in the cleaned text (where braces
/// inside strings cannot mislead the matcher).
pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    // The lint infrastructure itself spells the marker as data (this file,
    // its fixtures, suppression plumbing) and is not protocol code.
    if ctx.rel_path.starts_with("crates/check/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut line_start = 0usize; // byte offset of the current line
    for line in ctx.lines {
        let this_start = line_start;
        line_start += line.len() + 1;
        if !line.contains(MARKER) {
            continue;
        }
        let Some((body_start, body_end)) = marked_fn_body(ctx.clean, this_start) else {
            continue;
        };
        let body = &ctx.clean[body_start..body_end];
        for &(pat, instead) in PATTERNS {
            for at in crate::lexer::find_bounded(body, pat) {
                out.push(ctx.diag(
                    RULE,
                    body_start + at,
                    format!(
                        "allocation `{pat}..` inside a `{MARKER}` function; \
                         use {instead}"
                    ),
                ));
            }
        }
    }
    out
}

/// Finds the body of the function a marker at byte `from` applies to:
/// the brace-matched block following the next `fn` keyword at or after
/// the marker's line. Returns `(body_start, body_end)` offsets into the
/// cleaned text (exclusive of the braces themselves).
fn marked_fn_body(clean: &str, from: usize) -> Option<(usize, usize)> {
    let fn_at = crate::lexer::find_bounded(&clean[from..], "fn ").first().copied()? + from;
    let open = clean[fn_at..].find('{')? + fn_at;
    let bytes = clean.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open + 1, i));
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean_source, strip_test_modules};

    fn run(src: &str) -> Vec<Diagnostic> {
        let clean = strip_test_modules(&clean_source(src));
        let lines: Vec<&str> = src.lines().collect();
        check(&FileCtx { rel_path: "crates/net/src/frame.rs", clean: &clean, lines: &lines })
    }

    #[test]
    fn unmarked_functions_may_allocate() {
        let src = "fn cold() -> Vec<u8> { let v = Vec::new(); v }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn marked_function_denies_allocation() {
        let src = "/// Fast. sdso-check: hot-path\n\
                   fn hot(out: &mut Vec<u8>) { let v = data.to_vec(); out.extend(v); }";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains(".to_vec("));
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn marker_governs_only_its_own_function() {
        let src = "/// sdso-check: hot-path\n\
                   fn hot(out: &mut Vec<u8>) { out.extend_from_slice(b\"x\"); }\n\
                   fn cold() { let v = vec![0u8; 8]; drop(v); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn clone_and_vec_macro_are_denied() {
        let src = "// sdso-check: hot-path\n\
                   fn hot(x: &Payload) { let y = x.clone(); let b = vec![0u8; 4]; }";
        let d = run(src);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn braces_in_strings_do_not_break_matching() {
        let src = "/// sdso-check: hot-path\n\
                   fn hot() { let s = \"}}{{\"; }\n\
                   fn cold() { let v = Vec::new(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn marker_in_test_module_is_harmless() {
        // Bodies inside #[cfg(test)] are blanked, so no fn is found and
        // nothing is flagged.
        let src = "#[cfg(test)]\nmod tests {\n  // sdso-check: hot-path\n  \
                   fn t() { let v = Vec::new(); }\n}\n";
        assert!(run(src).is_empty());
    }
}
