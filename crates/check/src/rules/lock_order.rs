//! `lock-order`: lock-acquisition discipline from a declared order table.
//!
//! For every file with more than one lock, the table below declares the
//! only permitted acquisition order (rank 0 first). The rule scans for
//! `.lock()`/`.read()`/`.write()` acquisitions, tracks which guards are
//! still live at each brace depth, and flags two things:
//!
//! * an **inversion** — acquiring a lower-ranked lock while a higher-ranked
//!   guard is live (the classic ABBA deadlock shape);
//! * an **undeclared lock** — an acquisition whose receiver is not in the
//!   table, meaning the table (and the reviewer's mental model) is stale.
//!
//! The scan is conservative: a guard is assumed held until its enclosing
//! block closes, even if it is a statement temporary. That over-approximates
//! lifetimes but never misses a real inversion.
//!
//! `entry.rs` holds no OS mutexes; its discipline is the *distributed*
//! lockset order (ascending object id, PAPER.md §EC) enforced at runtime by
//! a sort in `acquire`. The rule pins that witness: if the sort disappears,
//! the rule fires.

use super::FileCtx;
use crate::diag::Diagnostic;

/// Rule identifier.
pub const RULE: &str = "lock-order";

/// Declared acquisition order for one file. Each rank may carry aliases
/// (local bindings that denote the same lock).
struct Table {
    path: &'static str,
    order: &'static [&'static [&'static str]],
}

const TABLES: &[Table] = &[
    // scheduler.rs: the single state mutex; anything else is undeclared.
    Table { path: "crates/sim/src/scheduler.rs", order: &[&["state"]] },
    // reactor.rs: no lock at all. The poll loop runs on its owner's thread
    // and shares nothing with another thread; a lock here would
    // be a hold-across-`poll` hazard for `no-blocking-in-reactor` to reason
    // about, so any acquisition is flagged as undeclared.
    Table { path: "crates/net/src/reactor.rs", order: &[] },
];

/// `(file, required needle, message-if-missing)` runtime-discipline
/// witnesses.
const WITNESSES: &[(&str, &str, &str)] = &[(
    "crates/protocols/src/entry.rs",
    ".sort_by_key(|l| l.object)",
    "EC lockset discipline: `acquire` must sort lock requests by ascending \
     object id before acquisition (deadlock freedom); the sort witness is gone",
)];

/// Runs the rule over one prepared file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &(path, needle, msg) in WITNESSES {
        if ctx.rel_path == path && !ctx.clean.contains(needle) {
            out.push(ctx.diag(RULE, 0, msg.to_owned()));
        }
    }
    let Some(table) = TABLES.iter().find(|t| t.path == ctx.rel_path) else {
        return out;
    };
    out.extend(scan(ctx, table));
    out
}

fn rank_of(table: &Table, name: &str) -> Option<usize> {
    table.order.iter().position(|aliases| aliases.contains(&name))
}

fn scan(ctx: &FileCtx<'_>, table: &Table) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let b = ctx.clean.as_bytes();
    // Live guards as (rank, name, brace_depth_at_acquisition).
    let mut live: Vec<(usize, String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.2 <= depth);
            }
            b'.' => {
                if let Some(len) = acquisition_at(&ctx.clean[i..]) {
                    if let Some(name) = receiver_name(b, i) {
                        match rank_of(table, &name) {
                            None => out.push(ctx.diag(
                                RULE,
                                i,
                                format!(
                                    "lock `{name}` is not in the declared order table for \
                                     {}; update the table in \
                                     crates/check/src/rules/lock_order.rs",
                                    ctx.rel_path
                                ),
                            )),
                            Some(rank) => {
                                if let Some((held_rank, held, _)) = live.iter().find(|g| g.0 > rank)
                                {
                                    out.push(ctx.diag(
                                        RULE,
                                        i,
                                        format!(
                                            "lock-order inversion: `{name}` (rank {rank}) \
                                             acquired while `{held}` (rank {held_rank}) is \
                                             held; declared order is {}",
                                            render_order(table)
                                        ),
                                    ));
                                }
                                live.push((rank, name, depth));
                            }
                        }
                    }
                    i += len;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// If `s` starts with an acquisition call, returns its length.
fn acquisition_at(s: &str) -> Option<usize> {
    for call in [".lock()", ".read()", ".write()"] {
        if s.starts_with(call) {
            return Some(call.len());
        }
    }
    None
}

/// Extracts the receiver field/binding name directly left of the `.` at
/// byte `dot`: skips one or more trailing `[..]`/`(..)` groups, then reads
/// the identifier (`self.writers[usize::from(p)].lock()` -> `writers`).
fn receiver_name(b: &[u8], dot: usize) -> Option<String> {
    let mut j = dot;
    loop {
        if j == 0 {
            return None;
        }
        let c = b[j - 1];
        if c == b']' || c == b')' {
            let open = if c == b']' { b'[' } else { b'(' };
            let mut depth = 0usize;
            while j > 0 {
                j -= 1;
                if b[j] == c {
                    depth += 1;
                } else if b[j] == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            continue;
        }
        break;
    }
    let end = j;
    while j > 0 && (b[j - 1].is_ascii_alphanumeric() || b[j - 1] == b'_') {
        j -= 1;
    }
    if j == end {
        return None;
    }
    Some(String::from_utf8_lossy(&b[j..end]).into_owned())
}

fn render_order(table: &Table) -> String {
    table.order.iter().map(|aliases| aliases.join("/")).collect::<Vec<_>>().join(" before ")
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

    /// A two-rank order (writer slots before the reader registry), scanned
    /// directly: no file in the tree holds two locks today.
    fn run_two_ranks(src: &str) -> Vec<Diagnostic> {
        let table = Table {
            path: "crates/net/src/two_locks.rs",
            order: &[&["writers", "slot"], &["readers"]],
        };
        let clean = strip_test_modules(&clean_source(src));
        let lines: Vec<&str> = src.lines().collect();
        scan(&FileCtx { rel_path: table.path, clean: &clean, lines: &lines }, &table)
    }

    #[test]
    fn declared_order_passes() {
        let src = "fn f(&self) { let w = self.writers[0].lock(); self.readers.lock().push(h); }";
        assert!(run_two_ranks(src).is_empty());
    }

    #[test]
    fn inversion_is_flagged() {
        let src = "fn f(&self) { let r = self.readers.lock(); let w = self.writers[0].lock(); }";
        let d = run_two_ranks(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("inversion"));
    }

    #[test]
    fn guard_expires_with_its_block() {
        let src =
            "fn f(&self) { { let r = self.readers.lock(); } let w = self.writers[0].lock(); }";
        assert!(run_two_ranks(src).is_empty());
    }

    #[test]
    fn undeclared_lock_is_flagged() {
        let src = "fn f(&self) { self.mystery.lock(); }";
        let d = run("crates/sim/src/scheduler.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("not in the declared order table"));
        // The reactor declares no lock, so its first one is undeclared.
        let d = run("crates/net/src/reactor.rs", "fn turn(&mut self) { self.peer_events.lock(); }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn missing_sort_witness_fires_for_entry() {
        let d = run("crates/protocols/src/entry.rs", "fn acquire() {}");
        assert_eq!(d.len(), 1);
        let ok = "fn acquire() { sorted.sort_by_key(|l| l.object); }";
        assert!(run("crates/protocols/src/entry.rs", ok).is_empty());
    }
}
