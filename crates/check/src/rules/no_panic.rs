//! `no-panic`: protocol-path code does not call into code that may panic.
//!
//! S-DSO's runtime, protocols, and transports must surface failures through
//! the typed `error.rs` paths — a panic in a replica is an availability
//! fault the paper's model does not allow for. Clippy polices the panics
//! *written in* that code: the scope denies `clippy::{unwrap_used,
//! expect_used, panic, unreachable, todo, unimplemented}` outside tests.
//! What clippy cannot see is a call out of the scope into a helper that
//! panics; [`super::cross`] reports those, and this module tells it which
//! files are in scope by reading that same deny.

use std::collections::HashSet;

use super::Prepared;

/// Rule identifier.
pub const RULE: &str = "no-panic";

/// The lint whose `deny` puts a file in scope: the first of the six the
/// scope denies.
const SCOPE_LINT: &str = "clippy::unwrap_used";

/// Panicking constructs and how to refer to them in the diagnostic, for
/// the reachability pass in [`super::cross`].
pub const PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()`"),
    (".expect(", "`.expect(..)`"),
    ("panic!", "`panic!`"),
    ("unreachable!", "`unreachable!`"),
    ("todo!", "`todo!`"),
    ("unimplemented!", "`unimplemented!`"),
];

/// Which of `files` are in scope, by index. A file is when it, an ancestor
/// `mod.rs` or its crate's `lib.rs` carries an inner attribute that denies
/// [`SCOPE_LINT`]: lint levels reach down the module tree the same way.
pub fn scope(files: &[Prepared]) -> Vec<bool> {
    let denies: HashSet<&str> =
        files.iter().filter(|f| denies_panics(&f.clean)).map(|f| f.rel_path.as_str()).collect();
    files
        .iter()
        .map(|f| {
            denies.contains(f.rel_path.as_str())
                || f.rel_path.match_indices('/').any(|(at, _)| {
                    let dir = &f.rel_path[..=at];
                    ["mod.rs", "lib.rs"]
                        .iter()
                        .any(|file| denies.contains(format!("{dir}{file}").as_str()))
                })
        })
        .collect()
}

/// True if the cleaned source has an inner attribute whose `deny(..)`
/// lists [`SCOPE_LINT`], as `#![cfg_attr(not(test), deny(..))]` does.
fn denies_panics(clean: &str) -> bool {
    let flat: String = clean.split_whitespace().collect();
    flat.match_indices("#![").any(|(at, _)| {
        let attr = flat[at..].split(']').next().unwrap_or_default();
        attr.split("deny(").skip(1).any(|group| {
            group.split(')').next().unwrap_or_default().split(',').any(|l| l == SCOPE_LINT)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::diag::Diagnostic;
    use crate::lexer::{clean_source, strip_test_modules};

    /// Spread over lines, as rustfmt leaves a long attribute.
    const DENY: &str =
        "#![cfg_attr(\n    not(test),\n    deny(clippy::panic, clippy::unwrap_used)\n)]\n";

    fn prepare(files: &[(&str, &str)]) -> Vec<Prepared> {
        let prepare = |(p, s): &(&str, &str)| Prepared {
            rel_path: (*p).to_owned(),
            src: (*s).to_owned(),
            clean: strip_test_modules(&clean_source(s)),
        };
        files.iter().map(prepare).collect()
    }

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let prepared = prepare(files);
        let refs: Vec<(&str, &str)> =
            prepared.iter().map(|f| (f.rel_path.as_str(), f.clean.as_str())).collect();
        crate::rules::cross::check(&prepared, &CallGraph::build(&refs))
    }

    /// A call from a file under the deny into a helper that unwraps is
    /// flagged; the same call from a file without it is not.
    #[test]
    fn flags_unwrap_in_scope() {
        let helper =
            ("crates/core/src/util.rs", "pub fn first(b: &[u8]) -> u8 { *b.first().unwrap() }");
        let caller = ("crates/protocols/src/entry.rs", "fn apply(b: &[u8]) -> u8 { first(b) }");
        let d = run(&[("crates/protocols/src/lib.rs", DENY), caller, helper]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].rule, d[0].path.as_str()), (RULE, caller.0));
        assert!(run(&[("crates/protocols/src/lib.rs", "mod entry;"), caller, helper]).is_empty());
    }

    /// The deny reaches its own file, the files below an ancestor module
    /// file and the whole crate below `lib.rs`, and nothing else; a deny
    /// inside a test module is not the scope's.
    #[test]
    fn ignores_out_of_scope_and_tests() {
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{DENY}}}");
        let files = prepare(&[
            ("crates/core/src/runtime.rs", DENY),
            ("crates/core/src/store.rs", ""),
            ("crates/game/src/shard/mod.rs", DENY),
            ("crates/game/src/shard/lattice.rs", ""),
            ("crates/game/src/ai.rs", ""),
            ("crates/net/src/lib.rs", DENY),
            ("crates/net/src/reactor.rs", ""),
            ("crates/sim/src/lib.rs", &in_test),
        ]);
        assert_eq!(scope(&files), [true, false, true, true, false, true, true, false]);
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let total = "pub fn first(b: &[u8]) -> u8 { b.first().copied().unwrap_or_default() }";
        let d = run(&[
            ("crates/net/src/lib.rs", DENY),
            ("crates/net/src/reactor.rs", "fn turn(b: &[u8]) -> u8 { first(b) }"),
            ("crates/core/src/util.rs", total),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    /// A deny written in a comment or a string, or one of another lint,
    /// puts nothing in scope.
    #[test]
    fn strings_and_comments_do_not_count() {
        let files = prepare(&[
            ("crates/a/src/lib.rs", "// #![deny(clippy::unwrap_used)]"),
            ("crates/b/src/lib.rs", "const S: &str = \"#![deny(clippy::unwrap_used)]\";"),
            ("crates/c/src/lib.rs", "#![deny(clippy::todo)]\n#![allow(clippy::unwrap_used)]"),
            ("crates/d/src/lib.rs", "#![deny(clippy::panic, clippy::unwrap_used)]"),
        ]);
        assert_eq!(scope(&files), [false, false, false, true]);
    }
}
