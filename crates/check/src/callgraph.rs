//! A lightweight, name-based call graph over the cleaned workspace source.
//!
//! The workspace builds fully offline (no `syn`), so this is a lexical
//! approximation built on [`crate::lexer`]'s cleaned text: function
//! definitions are found by scanning for `fn name` and brace-matching the
//! body; call sites are identifiers immediately followed by an argument
//! list. Resolution is deliberately conservative — a call edge is only
//! created when the target is unambiguous:
//!
//! * `self.helper(..)` / `Self::helper(..)` resolve against definitions in
//!   the *same file* only (inherent methods overwhelmingly live beside
//!   their callers in this workspace);
//! * free and path calls (`helper(..)`, `module::helper(..)`) resolve to a
//!   same-file definition first, else to a workspace definition with that
//!   name **if exactly one exists**; otherwise no edge.
//!
//! Missing edges make the dependent rule (`no-blocking-in-reactor`)
//! under-approximate, never false-positive on a nonexistent call. The few names
//! that collide with ubiquitous std methods (`new`, `len`, `clone`, …) are
//! ambiguous by construction and drop out on their own.

use std::collections::HashMap;

/// One function definition, located in a prepared file.
#[derive(Debug)]
pub struct Def {
    /// Index into the prepared-file list the graph was built from.
    pub file: usize,
    /// The bare function name (no path, no generics).
    pub name: String,
    /// Body span in cleaned-text bytes, exclusive of the braces.
    pub body: (usize, usize),
}

/// One resolved call edge out of a definition's body.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    /// Callee definition index.
    pub callee: usize,
    /// Byte offset of the call site in the caller's cleaned text.
    pub offset: usize,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Every function definition found, in file order.
    pub defs: Vec<Def>,
    /// Resolved outgoing edges per definition.
    pub calls_from: Vec<Vec<CallEdge>>,
}

impl CallGraph {
    /// Builds the graph from `(rel_path, cleaned_text)` pairs.
    pub fn build(files: &[(&str, &str)]) -> CallGraph {
        let mut defs = Vec::new();
        for (file_idx, (_, clean)) in files.iter().enumerate() {
            parse_defs(file_idx, clean, &mut defs);
        }
        // Name index for global resolution: name -> def indices.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, d) in defs.iter().enumerate() {
            by_name.entry(&d.name).or_default().push(i);
        }
        let mut calls_from: Vec<Vec<CallEdge>> = vec![Vec::new(); defs.len()];
        for (caller_idx, caller) in defs.iter().enumerate() {
            let clean = files[caller.file].1;
            for site in call_sites(clean, caller.body) {
                // Attribute the site to the *innermost* def containing it,
                // so a nested fn's calls are not charged to its parent.
                if innermost_def(&defs, caller.file, site.offset) != Some(caller_idx) {
                    continue;
                }
                let callee = resolve(&defs, &by_name, caller.file, &site);
                if let Some(callee) = callee {
                    if callee != caller_idx {
                        calls_from[caller_idx].push(CallEdge { callee, offset: site.offset });
                    }
                }
            }
        }
        CallGraph { defs, calls_from }
    }
}

/// The definition whose body contains `offset` in `file`, innermost first.
fn innermost_def(defs: &[Def], file: usize, offset: usize) -> Option<usize> {
    defs.iter()
        .enumerate()
        .filter(|(_, d)| d.file == file && d.body.0 <= offset && offset < d.body.1)
        .min_by_key(|(_, d)| d.body.1 - d.body.0)
        .map(|(i, _)| i)
}

/// Scans cleaned text for `fn name … { body }` definitions.
fn parse_defs(file_idx: usize, clean: &str, out: &mut Vec<Def>) {
    let b = clean.as_bytes();
    for at in crate::lexer::find_bounded(clean, "fn ") {
        // Reject `extern "C" fn` pointer types and the tail of idents —
        // find_bounded already checks the leading boundary.
        let mut j = at + 3;
        while j < b.len() && b[j].is_ascii_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        if j == name_start {
            continue; // `fn(` type position, or something odd
        }
        let name = &clean[name_start..j];
        // Find the body's opening brace at paren depth 0; a `;` first means
        // a bodiless declaration (trait method, extern fn) — skip it.
        let mut paren = 0usize;
        let mut open = None;
        while j < b.len() {
            match b[j] {
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren = paren.saturating_sub(1),
                b'{' if paren == 0 => {
                    open = Some(j);
                    break;
                }
                b';' if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let Some(close) = match_brace(b, open) else { continue };
        out.push(Def { file: file_idx, name: name.to_owned(), body: (open + 1, close) });
    }
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn match_brace(b: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// One syntactic call site inside a body.
struct Site {
    /// Byte offset of the called identifier.
    offset: usize,
    /// The called name.
    name: String,
    /// `self.name(..)` / `Self::name(..)` — same-file resolution only.
    method_or_self: bool,
    /// `qualifier::name(..)` (qualifier other than `Self`).
    qualified: bool,
}

/// Keywords that look like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "move", "ref", "mut",
    "else", "unsafe", "impl", "where", "pub", "let", "use", "break", "continue", "dyn", "crate",
];

/// Extracts candidate call sites from `clean[body]`: identifiers followed
/// (modulo whitespace / turbofish) by `(`.
fn call_sites(clean: &str, body: (usize, usize)) -> Vec<Site> {
    let b = clean.as_bytes();
    let mut sites = Vec::new();
    let mut i = body.0;
    while i < body.1 {
        let c = b[i];
        if !(c.is_ascii_alphabetic() || c == b'_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < body.1 && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        let name = &clean[start..i];
        // Skip whitespace, then an optional `::<…>` turbofish.
        let mut j = i;
        while j < body.1 && b[j].is_ascii_whitespace() {
            j += 1;
        }
        if clean[j..].starts_with("::<") {
            let mut depth = 0usize;
            while j < body.1 {
                match b[j] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if b.get(j) != Some(&b'(') || KEYWORDS.contains(&name) {
            continue;
        }
        if b.get(j.wrapping_sub(1)) == Some(&b'!') || b.get(i) == Some(&b'!') {
            continue; // macro invocation
        }
        // A definition's own name looks like a call (`fn inner(`): skip
        // identifiers introduced by the `fn` keyword.
        let prefix = clean[..start].trim_end();
        if prefix.ends_with("fn")
            && prefix[..prefix.len() - 2]
                .bytes()
                .next_back()
                .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == b'_'))
        {
            continue;
        }
        // Classify by what precedes the identifier.
        let before = start.checked_sub(1).map(|k| b[k]);
        let (method_or_self, qualified) = match before {
            Some(b'.') => {
                // Only `self.name(` resolves; other receivers are too
                // ambiguous for a name-based graph.
                if !clean[..start].ends_with("self.") {
                    continue;
                }
                (true, false)
            }
            Some(b':') => {
                let path_head = clean[..start.saturating_sub(2)]
                    .rfind(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                    .map_or(&clean[..start.saturating_sub(2)], |k| {
                        &clean[k + 1..start.saturating_sub(2)]
                    });
                (path_head == "Self", path_head != "Self")
            }
            _ => (false, false),
        };
        sites.push(Site { offset: start, name: name.to_owned(), method_or_self, qualified });
    }
    sites
}

/// Resolves a call site to a definition index, or `None` when ambiguous.
fn resolve(
    defs: &[Def],
    by_name: &HashMap<&str, Vec<usize>>,
    caller_file: usize,
    site: &Site,
) -> Option<usize> {
    let candidates = by_name.get(site.name.as_str())?;
    let same_file: Vec<usize> =
        candidates.iter().copied().filter(|&i| defs[i].file == caller_file).collect();
    if same_file.len() == 1 {
        return Some(same_file[0]);
    }
    if !same_file.is_empty() {
        return None; // several same-file defs of one name: ambiguous
    }
    if site.method_or_self {
        return None; // self-calls never resolve across files
    }
    if candidates.len() == 1 {
        return Some(candidates[0]);
    }
    let _ = site.qualified; // qualifier-aware disambiguation: future work
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean_source, strip_test_modules};

    fn graph(files: &[(&str, &str)]) -> (CallGraph, Vec<(String, String)>) {
        let prepared: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), strip_test_modules(&clean_source(s))))
            .collect();
        let refs: Vec<(&str, &str)> =
            prepared.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
        (CallGraph::build(&refs), prepared)
    }

    #[test]
    fn finds_defs_and_same_file_edges() {
        let (g, _) = graph(&[("a.rs", "fn outer() { helper(1); }\nfn helper(x: u32) {}")]);
        assert_eq!(g.defs.len(), 2);
        let outer = g.defs.iter().position(|d| d.name == "outer").unwrap();
        let helper = g.defs.iter().position(|d| d.name == "helper").unwrap();
        assert_eq!(g.calls_from[outer].len(), 1);
        assert_eq!(g.calls_from[outer][0].callee, helper);
    }

    #[test]
    fn unique_global_resolves_across_files() {
        let (g, _) = graph(&[
            ("a.rs", "fn caller() { crate::b::unique_helper(); }"),
            ("b.rs", "pub fn unique_helper() {}"),
        ]);
        let caller = g.defs.iter().position(|d| d.name == "caller").unwrap();
        assert_eq!(g.calls_from[caller].len(), 1);
    }

    #[test]
    fn ambiguous_names_get_no_edge() {
        let (g, _) = graph(&[
            ("a.rs", "fn caller() { new(); }"),
            ("b.rs", "pub fn new() {}"),
            ("c.rs", "pub fn new() {}"),
        ]);
        let caller = g.defs.iter().position(|d| d.name == "caller").unwrap();
        assert!(g.calls_from[caller].is_empty());
    }

    #[test]
    fn self_method_resolves_same_file_only() {
        let (g, _) = graph(&[
            ("a.rs", "impl T { fn go(&self) { self.step(); } fn step(&self) {} }"),
            ("b.rs", "impl U { fn run(&self) { self.leap(); } }"),
            ("c.rs", "impl V { fn leap(&self) {} }"),
        ]);
        let go = g.defs.iter().position(|d| d.name == "go").unwrap();
        assert_eq!(g.calls_from[go].len(), 1);
        let run = g.defs.iter().position(|d| d.name == "run").unwrap();
        assert!(g.calls_from[run].is_empty(), "self-calls never cross files");
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (g, _) = graph(&[(
            "a.rs",
            "fn f() { if (x) { vec![1]; assert!(true); } while (y) {} return (3); }",
        )]);
        let f = g.defs.iter().position(|d| d.name == "f").unwrap();
        assert!(g.calls_from[f].is_empty());
    }

    #[test]
    fn nested_fn_calls_are_attributed_to_the_inner_def() {
        let (g, _) =
            graph(&[("a.rs", "fn outer() { fn inner() { target(); } inner(); }\nfn target() {}")]);
        let outer = g.defs.iter().position(|d| d.name == "outer").unwrap();
        let inner = g.defs.iter().position(|d| d.name == "inner").unwrap();
        let target = g.defs.iter().position(|d| d.name == "target").unwrap();
        assert_eq!(g.calls_from[inner].iter().map(|e| e.callee).collect::<Vec<_>>(), vec![target]);
        assert_eq!(g.calls_from[outer].iter().map(|e| e.callee).collect::<Vec<_>>(), vec![inner]);
    }

    #[test]
    fn turbofish_calls_are_sites() {
        let (g, _) = graph(&[("a.rs", "fn f() { parse::<u32>(s); }\nfn parse(s: &str) {}")]);
        let f = g.defs.iter().position(|d| d.name == "f").unwrap();
        assert_eq!(g.calls_from[f].len(), 1);
    }
}
