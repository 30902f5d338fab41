//! The inline suppression marker: `sdso-check: allow(R)` in a comment on
//! the offending line suppresses rule `R` for that line only, so every
//! exception sits next to the code it excuses. Several rules may share one
//! marker: `sdso-check: allow(R1, R2)`.

/// True if `line_text` carries a marker that names `rule`.
pub fn allows(rule: &str, line_text: &str) -> bool {
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

    #[test]
    fn inline_marker_suppresses_one_rule() {
        let line = "let fd = s.into_raw_fd(); // sdso-check: allow(fd-ownership)";
        assert!(allows("fd-ownership", line));
        assert!(!allows("unsafe-audit", line));
        let both = "unsafe { f(fd) }; // sdso-check: allow(unsafe-audit, fd-ownership)";
        assert!(allows("unsafe-audit", both) && allows("fd-ownership", both));
    }
}
