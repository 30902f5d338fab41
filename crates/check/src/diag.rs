//! Diagnostics and the machine-readable JSON report.

use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (`unsafe-audit`, `fd-ownership`, …).
    pub rule: &'static str,
    /// Root-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)?;
        if !self.snippet.is_empty() {
            write!(f, "\n    | {}", self.snippet)?;
        }
        Ok(())
    }
}

/// Renders diagnostics as a JSON report (hand-rolled: the workspace builds
/// offline with no serde).
pub fn to_json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"version\": 1,\n");
    s.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    s.push_str(&format!("  \"violations\": {},\n", diags.len()));
    s.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"rule\": \"{}\", ", escape(d.rule)));
        s.push_str(&format!("\"path\": \"{}\", ", escape(&d.path)));
        s.push_str(&format!("\"line\": {}, ", d.line));
        s.push_str(&format!("\"message\": \"{}\", ", escape(&d.message)));
        s.push_str(&format!("\"snippet\": \"{}\"", escape(&d.snippet)));
        s.push('}');
    }
    if !diags.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed() {
        let diags = vec![Diagnostic {
            rule: "fd-ownership",
            path: "crates/net/src/sys.rs".into(),
            line: 42,
            message: "raw fd escapes without an owner".into(),
            snippet: "let fd = sock.into_raw_fd(); // \"quoted\"".into(),
        }];
        let json = to_json(&diags, 7);
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"files_scanned\": 7"));
        assert!(json.contains("\\\"quoted\\\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn display_includes_location_and_rule() {
        let d = Diagnostic {
            rule: "wall-clock",
            path: "crates/sim/src/x.rs".into(),
            line: 3,
            message: "m".into(),
            snippet: String::new(),
        };
        assert_eq!(d.to_string(), "crates/sim/src/x.rs:3: [wall-clock] m");
    }
}
