//! The living docs name only what exists: every backticked path, cited
//! test, config item and `experiments` command in them is checked against
//! the tree, so a rename or a deletion that leaves a doc behind fails here.

use std::path::{Path, PathBuf};

/// This file is registered by `crates/bench`, two levels below the root.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// The docs the checks below read. History files (CHANGES, ROADMAP) are
/// out of scope.
const LIVING_DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "docs/ARCHITECTURE.md",
    "EXPERIMENTS.md",
    "PAPER.md",
    ".claude/skills/verify/SKILL.md",
];

/// `doc` split on backticks, fence lines dropped (they would flip the
/// parity): the odd pieces are the backticked spans.
fn backtick_pieces(root: &Path, doc: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root.join(doc)).unwrap();
    let text: Vec<&str> = text.lines().filter(|l| !l.trim_start().starts_with("```")).collect();
    text.join("\n").split('`').map(str::to_owned).collect()
}

/// Every backticked `crates/…`, `tests/…`, `examples/…`, `shims/…`,
/// `benchmark/…`, `docs/…` or `.github/…` path in the living docs exists.
/// A `:line` or `::item` suffix is cut off; globs and `<placeholder>`s are
/// skipped. A path followed by `` : `name` ``, as in ARCHITECTURE §9's
/// "Asserted by" column, cites a function: `fn name` must occur in that
/// file.
#[test]
fn documented_paths_exist() {
    let root = workspace_root();
    let mut missing = Vec::new();
    for &doc in LIVING_DOCS {
        let pieces = backtick_pieces(&root, doc);
        for (i, span) in pieces.iter().enumerate().skip(1).step_by(2) {
            let Some(word) = span.split_whitespace().next() else { continue };
            let path = word.split(':').next().unwrap_or(word);
            let named =
                ["crates/", "tests/", "examples/", "shims/", "benchmark/", "docs/", ".github/"]
                    .iter()
                    .any(|dir| path.starts_with(dir));
            if !named || path.contains(['*', '<']) {
                continue;
            }
            let Ok(src) = std::fs::read_to_string(root.join(path)) else {
                if !root.join(path).exists() {
                    missing.push(format!("{doc}: `{span}`"));
                }
                continue;
            };
            let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
            let cited = match (pieces.get(i + 1), pieces.get(i + 2)) {
                (Some(gap), Some(name))
                    if gap.trim() == ":" && !name.is_empty() && name.chars().all(ident) =>
                {
                    name
                }
                _ => continue,
            };
            let defined = src
                .match_indices(&format!("fn {cited}"))
                .any(|(at, m)| !src[at + m.len()..].starts_with(ident));
            if !defined {
                missing.push(format!("{doc}: `{span}`: `{cited}` (no `fn {cited}` there)"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "documented paths or tests that do not exist:\n{}",
        missing.join("\n")
    );
}

/// Config items deleted from `crates/core/src/config.rs`: a living doc
/// that still names one, qualified or not, describes a knob that is gone.
const RETIRED_CONFIG: &[&str] = &["xor_delta", "batch_frames", "batch_dedup"];

/// Every backticked `WireConfig::x`, `DsoConfig::x` or `RetryConfig::x` in
/// the living docs — `Type::{x, y}` lists included — names a `pub` field
/// or a `pub fn` of `crates/core/src/config.rs` (or, for `default`, that
/// type's `Default` impl), and no backticked span names a
/// [`RETIRED_CONFIG`] item.
#[test]
fn documented_config_items_exist() {
    let root = workspace_root();
    let src = std::fs::read_to_string(root.join("crates/core/src/config.rs")).unwrap();
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let exists = |ty: &str, item: &str| {
        let named = |pattern: String| {
            src.match_indices(&pattern).any(|(at, m)| !src[at + m.len()..].starts_with(ident))
        };
        named(format!("pub fn {item}"))
            || src.contains(&format!("pub {item}: "))
            || (item == "default" && src.contains(&format!("impl Default for {ty} ")))
    };
    let mut wrong = Vec::new();
    let mut seen = 0;
    for &doc in LIVING_DOCS {
        for span in backtick_pieces(&root, doc).iter().skip(1).step_by(2) {
            let words = span.split(|c: char| !ident(c));
            if let Some(name) = words.into_iter().find(|w| RETIRED_CONFIG.contains(w)) {
                wrong.push(format!("{doc}: `{span}`: `{name}` was deleted"));
            }
            for ty in ["WireConfig", "DsoConfig", "RetryConfig"] {
                for (at, _) in span.match_indices(&format!("{ty}::")) {
                    let rest = &span[at + ty.len() + 2..];
                    let items = match rest.strip_prefix('{') {
                        Some(list) => list.split('}').next().unwrap_or_default(),
                        None => rest.split(|c: char| !ident(c)).next().unwrap_or_default(),
                    };
                    for item in items.split(',').map(str::trim).filter(|i| !i.is_empty()) {
                        seen += 1;
                        if !exists(ty, item) {
                            wrong.push(format!("{doc}: `{span}`: no `{ty}::{item}`"));
                        }
                    }
                }
            }
        }
    }
    assert!(seen > 10, "only {seen} documented config items found");
    assert!(
        wrong.is_empty(),
        "documented config items that crates/core/src/config.rs does not have:\n{}",
        wrong.join("\n")
    );
}

/// Every backticked `experiments <command>` in the living docs names a
/// command the binary accepts: one of `sdso_bench::COMMANDS`, which its
/// dispatch reads too. A `--` before the command, as in
/// `--bin experiments -- fig5`, is skipped; a flag there is no command.
#[test]
fn documented_experiments_commands_exist() {
    let root = workspace_root();
    let mut unknown = Vec::new();
    let mut seen = 0;
    for &doc in LIVING_DOCS {
        for span in backtick_pieces(&root, doc).iter().skip(1).step_by(2) {
            let mut words = span.split_whitespace();
            while words.by_ref().any(|word| word == "experiments") {
                let Some(command) = words.by_ref().find(|&word| word != "--") else { break };
                if command.starts_with('-') {
                    continue;
                }
                seen += 1;
                if !sdso_bench::COMMANDS.contains(&command) {
                    unknown.push(format!("{doc}: `{span}`"));
                }
            }
        }
    }
    assert!(seen > 10, "only {seen} documented `experiments` commands found");
    assert!(
        unknown.is_empty(),
        "documented `experiments` commands the binary does not accept \
         (sdso_bench::COMMANDS):\n{}",
        unknown.join("\n")
    );
}
