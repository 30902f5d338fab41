//! The lint rule catalogue.
//!
//! Every rule is a pure function from a prepared source file to a list of
//! diagnostics. Rules see *cleaned* text (comments, literal contents, and
//! `#[cfg(test)]` modules blanked — see [`crate::lexer`]) so substring and
//! brace-depth reasoning cannot be fooled by strings or docs, plus the
//! original lines for snippets and inline allow markers.

pub mod fd_ownership;
pub mod no_blocking_reactor;
pub mod unsafe_audit;

use crate::diag::Diagnostic;
use crate::lexer::line_of;

/// One fully-read source file, owned.
///
/// The per-file rules borrow a [`FileCtx`] view of one of these; the
/// cross-file pass ([`no_blocking_reactor`]) takes the whole slice so the
/// call graph can resolve names across files.
#[derive(Debug)]
pub struct Prepared {
    /// Root-relative path, forward slashes.
    pub rel_path: String,
    /// Original source text.
    pub src: String,
    /// Cleaned, test-stripped source (byte offsets match `src`).
    pub clean: String,
}

impl Prepared {
    /// Builds a diagnostic anchored at byte `offset` of the cleaned text.
    pub fn diag(&self, rule: &'static str, offset: usize, message: String) -> Diagnostic {
        let line = line_of(&self.clean, offset);
        Diagnostic {
            rule,
            path: self.rel_path.clone(),
            line,
            message,
            snippet: self
                .src
                .lines()
                .nth(line - 1)
                .map(|l| l.trim().to_owned())
                .unwrap_or_default(),
        }
    }
}

/// One prepared source file.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Root-relative path, forward slashes.
    pub rel_path: &'a str,
    /// Cleaned, test-stripped source (byte offsets match the original).
    pub clean: &'a str,
    /// Original source split into lines (index = line - 1).
    pub lines: &'a [&'a str],
}

impl FileCtx<'_> {
    /// Builds a diagnostic anchored at byte `offset` of the cleaned text.
    pub fn diag(&self, rule: &'static str, offset: usize, message: String) -> Diagnostic {
        let line = line_of(self.clean, offset);
        Diagnostic {
            rule,
            path: self.rel_path.to_owned(),
            line,
            message,
            snippet: self.lines.get(line - 1).map(|l| l.trim().to_owned()).unwrap_or_default(),
        }
    }
}

/// Runs every rule over one file.
pub fn run_all(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(unsafe_audit::check(ctx));
    out.extend(fd_ownership::check(ctx));
    out
}
