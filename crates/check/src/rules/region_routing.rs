//! `region-routing`: interest routers must actually consult the peer.
//!
//! The sharding layer's whole contract is that a live diff reaches a
//! peer only when that peer's interest set covers the object's region.
//! A `routes` implementation that never reads its peer argument routes
//! every diff to every peer — a leaked cross-region diff that silently
//! restores O(cluster) per-node traffic while every convergence oracle
//! still passes (routing is a pure deferral, so nothing diverges; the
//! regression is invisible except in the traffic gates). The rule scans
//! every `fn routes(..)` defined under `crates/game/src/shard/` and
//! denies bodies that ignore the peer: either the parameter is spelled
//! unused (`_peer`, `_`) or the body text never mentions it. The
//! intentionally conservative blanket router (`DefaultRouter` in
//! `sdso-core`) lives outside the sharding module and is out of scope by
//! construction.

use super::FileCtx;
use crate::diag::Diagnostic;

/// Rule identifier.
pub const RULE: &str = "region-routing";

/// Path prefix governed by this rule.
const SCOPE_PREFIX: &str = "crates/game/src/shard/";

/// The routing decision method every interest router implements.
const PATTERN: &str = "fn routes(";

/// Runs the rule over one prepared file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !ctx.rel_path.starts_with(SCOPE_PREFIX) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let bytes = ctx.clean.as_bytes();
    for at in crate::lexer::find_bounded(ctx.clean, PATTERN) {
        let params_open = at + PATTERN.len() - 1;
        let Some(params_close) = match_paren(bytes, params_open) else { continue };
        let params = &ctx.clean[params_open + 1..params_close];
        let Some(peer) = peer_param(params) else {
            out.push(
                ctx.diag(
                    RULE,
                    at,
                    "`routes` ignores its peer (parameter is unused or missing): every \
                 diff ships to every peer — a leaked cross-region diff"
                        .to_owned(),
                ),
            );
            continue;
        };
        // Trait declarations (`fn routes(..) -> bool;`) have no body.
        let Some(body_open) = body_open(bytes, params_close) else { continue };
        let Some(body_close) = match_brace(bytes, body_open) else { continue };
        let body = &ctx.clean[body_open + 1..body_close];
        if !mentions_ident(body, peer) {
            out.push(ctx.diag(
                RULE,
                at,
                format!(
                    "`routes` never reads `{peer}`: every diff ships to every peer — \
                     a leaked cross-region diff; consult the peer's interest set"
                ),
            ));
        }
    }
    out
}

/// The name of the peer parameter: the first non-`self` parameter. `None`
/// when it is missing or deliberately unused (`_`-prefixed).
fn peer_param(params: &str) -> Option<&str> {
    for param in params.split(',') {
        let name = param.split(':').next().unwrap_or("").trim();
        if name.is_empty() || name.ends_with("self") {
            continue;
        }
        if name.starts_with('_') {
            return None;
        }
        return Some(name);
    }
    None
}

/// Finds the body's opening `{` after the parameter list, skipping a
/// return-type annotation; `None` at a `;` (bodyless declaration).
fn body_open(b: &[u8], params_close: usize) -> Option<usize> {
    let mut i = params_close + 1;
    while i < b.len() {
        match b[i] {
            b'{' => return Some(i),
            b';' => return None,
            _ => i += 1,
        }
    }
    None
}

/// Byte offset of the `)` matching the `(` at `open`.
fn match_paren(b: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
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

/// Byte offset of the `}` matching the `{` at `open`.
fn match_brace(b: &[u8], open: usize) -> Option<usize> {
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

/// True when `body` uses `ident` as a standalone identifier.
fn mentions_ident(body: &str, ident: &str) -> bool {
    crate::lexer::find_bounded(body, ident).iter().any(|&at| {
        let after = body.as_bytes().get(at + ident.len());
        !after.is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean_source, strip_test_modules};

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let clean = strip_test_modules(&clean_source(src));
        let lines: Vec<&str> = src.lines().collect();
        check(&FileCtx { rel_path: path, clean: &clean, lines: &lines })
    }

    const LEAKY: &str = "impl DiffRouter for R {\n    \
         fn routes(&self, _peer: NodeId, object: ObjectId) -> bool {\n        \
         self.lattice.contains(object)\n    }\n}";

    #[test]
    fn unused_peer_param_is_flagged() {
        let d = run("crates/game/src/shard/router.rs", LEAKY);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn body_that_never_reads_peer_is_flagged() {
        let src = "fn routes(&self, peer: NodeId, object: ObjectId) -> bool {\n    \
             self.lattice.contains(object)\n}";
        let d = run("crates/game/src/shard/router.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`peer`"));
    }

    #[test]
    fn consulting_the_peer_is_clean() {
        let src = "fn routes(&self, peer: NodeId, object: ObjectId) -> bool {\n    \
             self.interest_of(peer).covers(self.lattice.region_of_object(object))\n}";
        assert!(run("crates/game/src/shard/router.rs", src).is_empty());
    }

    #[test]
    fn trait_declarations_and_other_crates_are_exempt() {
        let decl = "pub trait DiffRouter { fn routes(&self, peer: NodeId, o: ObjectId) -> bool; }";
        assert!(run("crates/game/src/shard/router.rs", decl).is_empty());
        assert!(run("crates/core/src/router.rs", LEAKY).is_empty());
    }

    #[test]
    fn the_installed_shard_router_is_in_scope() {
        // The router MSYNC2-SHARD installs: its `fn routes` consults the
        // peer, and spelling that parameter unused must trip the rule.
        let path = "crates/game/src/shard/mod.rs";
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let src = std::fs::read_to_string(root.join(path)).unwrap();
        assert!(run(path, &src).is_empty(), "{:?}", run(path, &src));
        let real = "fn routes(&self, peer: NodeId";
        assert_eq!(src.matches(real).count(), 1, "one `fn routes` in {path}");
        let leaky = src.replace(real, "fn routes(&self, _peer: NodeId");
        let d = run(path, &leaky);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE);
    }
}
