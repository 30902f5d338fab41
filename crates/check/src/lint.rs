//! The lint driver: file discovery, rule execution, suppression.
//!
//! Two phases. Phase one reads every source file and runs the per-file
//! rules. Phase two builds the workspace call graph and runs the one
//! cross-file pass, `no-blocking-in-reactor`. A finding on a line that
//! carries an inline `sdso-check: allow(R)` marker for its rule is dropped
//! ([`crate::allowlist`]).

use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::lexer::{clean_source, strip_test_modules};
use crate::rules::{self, FileCtx, Prepared};

/// Result of one lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Surviving (unsuppressed) diagnostics, sorted by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

/// Lints every `crates/*/src/**/*.rs` under `root`.
///
/// # Errors
///
/// Returns a description if `root` has no `crates/` directory or a source
/// file cannot be read.
pub fn run(root: &Path) -> Result<LintReport, String> {
    let files = discover(root)?;
    let mut prepared = Vec::with_capacity(files.len());
    for path in &files {
        let rel = rel_path(root, path);
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let clean = strip_test_modules(&clean_source(&src));
        prepared.push(Prepared { rel_path: rel, src, clean });
    }
    // Phase one: per-file rules.
    let mut raw = Vec::new();
    for f in &prepared {
        let lines: Vec<&str> = f.src.lines().collect();
        let ctx = FileCtx { rel_path: &f.rel_path, clean: &f.clean, lines: &lines };
        raw.extend(rules::run_all(&ctx));
    }
    // Phase two: the cross-file pass over the workspace call graph.
    let refs: Vec<(&str, &str)> =
        prepared.iter().map(|f| (f.rel_path.as_str(), f.clean.as_str())).collect();
    let graph = CallGraph::build(&refs);
    raw.extend(rules::no_blocking_reactor::check(&prepared, &graph));
    let mut diagnostics = Vec::new();
    for d in raw {
        let line_text = prepared
            .iter()
            .find(|f| f.rel_path == d.path)
            .and_then(|f| f.src.lines().nth(d.line.saturating_sub(1)))
            .unwrap_or("");
        if !crate::allowlist::allows(d.rule, line_text) {
            diagnostics.push(d);
        }
    }
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(LintReport { diagnostics, files_scanned: files.len() })
}

/// All `.rs` files under `<root>/crates/*/src`, sorted for determinism.
fn discover(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates)
        .map_err(|e| format!("no crates/ directory under {}: {e}", root.display()))?;
    let mut files = Vec::new();
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Root-relative path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The check crate lives at `<workspace>/crates/check`.
    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
    }

    #[test]
    fn workspace_is_clean() {
        let report = run(&workspace_root()).unwrap();
        assert!(report.files_scanned > 30, "scanned {}", report.files_scanned);
        let rendered: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
        assert!(report.diagnostics.is_empty(), "workspace must lint clean:\n{rendered:?}");
    }

    /// The docs the checks below read. History files (CHANGES,
    /// RELEASE_NOTES, ROADMAP) are out of scope.
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

    /// Every backticked `crates/…`, `tests/…`, `examples/…` or `shims/…`
    /// path in the living docs exists. A `:line` or `::item` suffix is
    /// cut off; globs and `<placeholder>`s are skipped. A path followed
    /// by `` : `name` ``, as in ARCHITECTURE §9's "Asserted by" column,
    /// cites a function: `fn name` must occur in that file.
    #[test]
    fn documented_paths_exist() {
        let root = workspace_root();
        let mut missing = Vec::new();
        for &doc in LIVING_DOCS {
            let pieces = backtick_pieces(&root, doc);
            for (i, span) in pieces.iter().enumerate().skip(1).step_by(2) {
                let Some(word) = span.split_whitespace().next() else { continue };
                let path = word.split(':').next().unwrap_or(word);
                let named = ["crates/", "tests/", "examples/", "shims/"]
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

    /// Every backticked `WireConfig::x`, `DsoConfig::x` or `RetryConfig::x`
    /// in the living docs — `Type::{x, y}` lists included — names a `pub`
    /// field or a `pub fn` of `crates/core/src/config.rs` (or, for
    /// `default`, that type's `Default` impl), and no backticked span names
    /// a [`RETIRED_CONFIG`] item.
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
    /// command the binary accepts: one of `sdso_bench::COMMANDS`, which
    /// its dispatch reads too. A `--` before the command, as in
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

    #[test]
    fn violation_fixture_is_caught() {
        let fixture = workspace_root().join("crates/check/fixtures/violations");
        let report = run(&fixture).unwrap();
        let rules: std::collections::BTreeSet<&str> =
            report.diagnostics.iter().map(|d| d.rule).collect();
        for rule in ["unsafe-audit", "fd-ownership", "no-blocking-in-reactor"] {
            assert!(rules.contains(rule), "fixture must trip {rule}; got {rules:?}");
        }
    }

    #[test]
    fn cross_file_findings_land_at_the_boundary() {
        let fixture = workspace_root().join("crates/check/fixtures/violations");
        let report = run(&fixture).unwrap();
        // The blocking recv is reached through a helper in another file.
        assert!(
            report.diagnostics.iter().any(|d| d.rule == "no-blocking-in-reactor"
                && d.path == "crates/net/src/dial_helper.rs"
                && d.message.contains("`turn` -> `drain_commands_slowly`")),
            "cross-file blocking finding missing:\n{:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn clean_fixture_lints_clean() {
        let fixture = workspace_root().join("crates/check/fixtures/clean");
        let report = run(&fixture).unwrap();
        let rendered: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
        assert!(report.diagnostics.is_empty(), "bug-removed twins must pass:\n{rendered:?}");
    }
}
