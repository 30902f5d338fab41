//! Per-rule allowlists, with rot detection.
//!
//! Each rule `R` reads `allowlists/R.allow` (relative to the check crate,
//! overridable with `--allow-dir`). An entry is one line:
//!
//! ```text
//! # comment
//! crates/net/src/reactor.rs          # whole file
//! crates/net/src/reactor.rs: shutdown( # only lines containing the needle
//! ```
//!
//! A diagnostic is suppressed when its path ends with the entry's path and,
//! if a needle is given, the offending source line contains the needle.
//! Additionally, the inline marker `sdso-check: allow(R)` in a comment on
//! the offending line suppresses rule `R` for that line only.
//!
//! Every file entry counts its hits during a run. An entry that suppressed
//! nothing is **rot** — the code it excused has been fixed or moved, and a
//! stale entry is a standing invitation to reintroduce the bug silently —
//! so the driver turns unused entries into [`STALE_RULE`] diagnostics.

use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;

use crate::diag::Diagnostic;

/// Rule identifier for unused-allowlist-entry findings.
pub const STALE_RULE: &str = "stale-allow";

/// One suppression entry.
#[derive(Debug, Clone)]
struct Entry {
    path: String,
    needle: Option<String>,
    /// The allowlist file this entry came from (as given on disk).
    source: String,
    /// 1-based line within that file.
    line: usize,
    /// The entry text verbatim, for reports.
    raw: String,
    /// Diagnostics suppressed by this entry during the current run.
    hits: Cell<u32>,
}

/// One entry's usage after a run, for `--list-allows`.
#[derive(Debug)]
pub struct AllowUse {
    /// Rule the entry belongs to.
    pub rule: String,
    /// `file:line` of the entry.
    pub location: String,
    /// The entry text verbatim.
    pub entry: String,
    /// Diagnostics it suppressed.
    pub hits: u32,
}

/// All loaded allowlists, keyed by rule name.
#[derive(Debug, Default)]
pub struct Allowlists {
    by_rule: HashMap<String, Vec<Entry>>,
}

impl Allowlists {
    /// Loads `<dir>/<rule>.allow` for every file present in `dir`.
    /// A missing or unreadable directory yields an empty set.
    pub fn load(dir: &Path) -> Self {
        let mut by_rule = HashMap::new();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Allowlists { by_rule };
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(rule) =
                path.file_name().and_then(|n| n.to_str()).and_then(|n| n.strip_suffix(".allow"))
            else {
                continue;
            };
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            by_rule.insert(rule.to_owned(), parse(&text, &path.display().to_string()));
        }
        Allowlists { by_rule }
    }

    /// True if the `(rule, path, line_text)` triple is suppressed. File
    /// entries that match have their hit counter bumped.
    pub fn allows(&self, rule: &str, path: &str, line_text: &str) -> bool {
        if inline_marker(line_text, rule) {
            return true;
        }
        let Some(entries) = self.by_rule.get(rule) else {
            return false;
        };
        let mut hit = false;
        for e in entries {
            if path.ends_with(&e.path)
                && e.needle.as_ref().is_none_or(|n| line_text.contains(n.as_str()))
            {
                e.hits.set(e.hits.get() + 1);
                hit = true;
            }
        }
        hit
    }

    /// Every entry with its hit count, sorted by rule then source line.
    pub fn usage(&self) -> Vec<AllowUse> {
        let mut out: Vec<AllowUse> = Vec::new();
        let mut rules: Vec<&String> = self.by_rule.keys().collect();
        rules.sort();
        for rule in rules {
            for e in &self.by_rule[rule] {
                out.push(AllowUse {
                    rule: rule.clone(),
                    location: format!("{}:{}", e.source, e.line),
                    entry: e.raw.clone(),
                    hits: e.hits.get(),
                });
            }
        }
        out
    }

    /// One [`STALE_RULE`] diagnostic per entry that suppressed nothing.
    /// Call after the lint pass has filtered every diagnostic.
    pub fn stale_diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut rules: Vec<&String> = self.by_rule.keys().collect();
        rules.sort();
        for rule in rules {
            for e in &self.by_rule[rule] {
                if e.hits.get() == 0 {
                    out.push(Diagnostic {
                        rule: STALE_RULE,
                        path: e.source.clone(),
                        line: e.line,
                        message: format!(
                            "allowlist entry for `{rule}` no longer suppresses anything; \
                             the excused code was fixed or moved — delete the entry"
                        ),
                        snippet: e.raw.clone(),
                    });
                }
            }
        }
        out
    }
}

fn parse(text: &str, source: &str) -> Vec<Entry> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .map(|(line, l)| {
            // `path: needle` — split on the first `: ` (plain `:` would
            // collide with `::` in needles and drive letters never occur).
            let (path, needle) = match l.split_once(": ") {
                Some((p, n)) => (p.trim().to_owned(), Some(n.trim().to_owned())),
                None => (l.to_owned(), None),
            };
            Entry {
                path,
                needle,
                source: source.to_owned(),
                line,
                raw: l.to_owned(),
                hits: Cell::new(0),
            }
        })
        .collect()
}

fn inline_marker(line_text: &str, rule: &str) -> bool {
    line_text
        .find("sdso-check: allow(")
        .map(|at| {
            let rest = &line_text[at + "sdso-check: allow(".len()..];
            rest.split(')')
                .next()
                .is_some_and(|inner| inner.split(',').map(str::trim).any(|r| r == rule))
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists(rule: &str, body: &str) -> Allowlists {
        let mut by_rule = HashMap::new();
        by_rule.insert(rule.to_owned(), parse(body, "test.allow"));
        Allowlists { by_rule }
    }

    #[test]
    fn whole_file_entry_suppresses() {
        let a = lists("no-panic", "crates/net/src/reactor.rs\n# comment\n");
        assert!(a.allows("no-panic", "crates/net/src/reactor.rs", "x.unwrap()"));
        assert!(!a.allows("no-panic", "crates/net/src/memory.rs", "x.unwrap()"));
        assert!(!a.allows("wall-clock", "crates/net/src/reactor.rs", "x"));
    }

    #[test]
    fn needle_entry_matches_line_content() {
        let a = lists("no-panic", "crates/net/src/reactor.rs: spawn thread\n");
        assert!(a.allows("no-panic", "crates/net/src/reactor.rs", "x.expect(\"spawn thread\")"));
        assert!(!a.allows("no-panic", "crates/net/src/reactor.rs", "x.unwrap()"));
    }

    #[test]
    fn inline_marker_suppresses_one_rule() {
        let a = Allowlists::default();
        let line = "let t = Instant::now(); // sdso-check: allow(wall-clock)";
        assert!(a.allows("wall-clock", "any.rs", line));
        assert!(!a.allows("no-panic", "any.rs", line));
    }

    #[test]
    fn unused_entries_become_stale_diagnostics() {
        let a = lists(
            "no-panic",
            "# header\ncrates/net/src/reactor.rs: spawn\ncrates/net/src/gone.rs\n",
        );
        a.allows("no-panic", "crates/net/src/reactor.rs", "x.expect(\"spawn\")");
        let stale = a.stale_diagnostics();
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].rule, STALE_RULE);
        assert_eq!(stale[0].line, 3);
        assert!(stale[0].snippet.contains("gone.rs"));
    }

    #[test]
    fn usage_reports_hit_counts_per_entry() {
        let a = lists("no-panic", "a.rs\nb.rs\n");
        a.allows("no-panic", "crates/x/a.rs", "x.unwrap()");
        a.allows("no-panic", "crates/y/a.rs", "y.unwrap()");
        let usage = a.usage();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].hits, 2);
        assert_eq!(usage[1].hits, 0);
        assert_eq!(usage[0].location, "test.allow:1");
    }

    #[test]
    fn inline_marker_does_not_count_as_an_entry_hit() {
        let a = lists("wall-clock", "never.rs\n");
        assert!(a.allows("wall-clock", "x.rs", "t(); // sdso-check: allow(wall-clock)"));
        assert_eq!(a.stale_diagnostics().len(), 1);
    }
}
