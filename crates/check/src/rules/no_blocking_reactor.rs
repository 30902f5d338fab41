//! `no-blocking-in-reactor`: the poll turn never blocks anywhere but
//! `poll`.
//!
//! One poll loop multiplexes every connection of an endpoint, and its turn
//! runs inside every endpoint call, on the owner's thread. Any other
//! blocking point in a turn — a sleeping backoff, a blocking channel
//! receive, a connect, a blocking socket write — stalls *all* peers at once
//! and the caller with them, and holding a lock across the `poll` call
//! publishes that stall to every thread that touches the lock. The
//! rule takes the poll turn (`fn turn` in `crates/net/src/reactor.rs`),
//! walks the call graph to everything reachable from it, and denies:
//!
//! * known blocking constructs (`thread::sleep`, blocking channel
//!   `recv`/`recv_timeout`, `TcpStream::connect`/`connect_timeout`,
//!   blocking reads/writes, `join()`, `set_nonblocking(false)`) in any
//!   reachable function, across files and crates;
//! * a lock guard held live across a `.wait(` call (the `poll` wrapper)
//!   in any reachable function.
//!
//! The dialer thread exists precisely so a turn never connects; code it
//! alone runs is not reachable from `turn` and is exempt by construction,
//! as is the endpoint's bounded blocking flush on drop. A deliberate
//! exception would carry an inline `sdso-check: allow(no-blocking-in-reactor)`
//! with its justification.

use std::collections::HashMap;

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::rules::Prepared;

/// Rule identifier.
pub const RULE: &str = "no-blocking-in-reactor";

/// The file whose `fn turn` definitions root the reachability walk.
const ROOT_FILE: &str = "crates/net/src/reactor.rs";
/// The root: one poll turn, which every endpoint call runs.
const ROOT_FN: &str = "turn";

/// Blocking constructs and why each stalls the poll turn.
const PATTERNS: &[(&str, &str)] = &[
    ("thread::sleep", "sleeps the poll turn; use a DeadlineQueue timer"),
    (".recv()", "blocking channel receive; use try_recv and the waker"),
    (".recv_timeout(", "blocking channel receive; use try_recv and the waker"),
    ("connect_timeout(", "blocking connect; hand the dial to the dialer thread"),
    ("TcpStream::connect(", "blocking connect; hand the dial to the dialer thread"),
    (".write_all(", "blocking write loop; queue bytes and wait for writability"),
    (".read_to_end(", "unbounded blocking read; read readiness-driven chunks"),
    (".read_exact(", "blocking read loop; decode incrementally from the buffer"),
    (".join()", "joins a thread from the poll turn; join from the endpoint's Drop"),
    ("set_nonblocking(false)", "switches a socket to blocking mode in the poll turn"),
];

/// Runs the rule: reachability from `Reactor::turn` plus the
/// lock-across-wait scan.
pub fn check(files: &[Prepared], graph: &CallGraph) -> Vec<Diagnostic> {
    let Some(root_file) = files.iter().position(|f| f.rel_path == ROOT_FILE) else {
        return Vec::new();
    };
    let roots: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| d.file == root_file && d.name == ROOT_FN)
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return Vec::new();
    }
    // BFS with parents so diagnostics can print how `turn` reaches the sin.
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut queue: std::collections::VecDeque<usize> = roots.iter().copied().collect();
    let mut reachable: std::collections::HashSet<usize> = roots.iter().copied().collect();
    while let Some(d) = queue.pop_front() {
        for e in &graph.calls_from[d] {
            if reachable.insert(e.callee) {
                parent.insert(e.callee, d);
                queue.push_back(e.callee);
            }
        }
    }
    let mut out = Vec::new();
    for &d in &reachable {
        let def = &graph.defs[d];
        let file = &files[def.file];
        let body = &file.clean[def.body.0..def.body.1];
        let chain = chain_to_root(graph, &parent, &roots, d);
        for &(pat, why) in PATTERNS {
            for at in crate::lexer::find_bounded(body, pat) {
                out.push(file.diag(
                    RULE,
                    def.body.0 + at,
                    format!("`{pat}` in the poll turn ({chain}): {why}"),
                ));
            }
        }
        for at in locks_across_wait(body) {
            out.push(file.diag(
                RULE,
                def.body.0 + at,
                format!(
                    "lock guard held across `.wait(` in the poll turn ({chain}); \
                     release the guard before blocking in poll"
                ),
            ));
        }
    }
    out
}

/// `turn -> a -> b` rendering of how the root reaches `def`.
fn chain_to_root(
    graph: &CallGraph,
    parent: &HashMap<usize, usize>,
    roots: &[usize],
    def: usize,
) -> String {
    let mut names = vec![graph.defs[def].name.clone()];
    let mut cur = def;
    while !roots.contains(&cur) {
        let Some(&p) = parent.get(&cur) else { break };
        names.push(graph.defs[p].name.clone());
        cur = p;
    }
    names.reverse();
    format!("`{}`", names.join("` -> `"))
}

/// Offsets (into `body`) of `.wait(` calls made while a `.lock()` guard
/// acquired in the same body is still live (conservatively: until its
/// enclosing block closes).
fn locks_across_wait(body: &str) -> Vec<usize> {
    let b = body.as_bytes();
    let mut out = Vec::new();
    let mut held: Vec<usize> = Vec::new(); // brace depth per live guard
    let mut depth = 0usize;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                held.retain(|&g| g <= depth);
            }
            b'.' => {
                if body[i..].starts_with(".lock()") {
                    held.push(depth);
                    i += ".lock()".len();
                    continue;
                }
                if body[i..].starts_with(".wait(") && !held.is_empty() {
                    out.push(i);
                    i += ".wait(".len();
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean_source, strip_test_modules};

    fn run_rule(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let prepared: Vec<Prepared> = files
            .iter()
            .map(|(p, s)| Prepared {
                rel_path: (*p).to_owned(),
                src: (*s).to_owned(),
                clean: strip_test_modules(&clean_source(s)),
            })
            .collect();
        let refs: Vec<(&str, &str)> =
            prepared.iter().map(|f| (f.rel_path.as_str(), f.clean.as_str())).collect();
        let graph = CallGraph::build(&refs);
        check(&prepared, &graph)
    }

    #[test]
    fn sleep_in_turn_is_flagged() {
        let d = run_rule(&[(
            "crates/net/src/reactor.rs",
            "impl Reactor { fn turn(&mut self) { std::thread::sleep(d); } }",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("thread::sleep"));
    }

    #[test]
    fn blocking_reached_through_helper_in_other_file_is_flagged() {
        let d = run_rule(&[
            (
                "crates/net/src/reactor.rs",
                "impl Reactor { fn turn(&mut self) { pause_briefly(); } }",
            ),
            ("crates/net/src/deadline.rs", "pub fn pause_briefly() { thread::sleep(MS); }"),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].path, "crates/net/src/deadline.rs");
        assert!(d[0].message.contains("`turn` -> `pause_briefly`"), "{}", d[0].message);
    }

    #[test]
    fn unreachable_blocking_is_exempt() {
        let d = run_rule(&[(
            "crates/net/src/reactor.rs",
            "impl Reactor { fn turn(&mut self) {} }\n\
             fn dialer_loop() { thread::sleep(MS); rx.recv(); }",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lock_across_wait_is_flagged_and_scoped_release_passes() {
        let bad = run_rule(&[(
            "crates/net/src/reactor.rs",
            "impl Reactor { fn turn(&mut self) { let g = self.shared.x.lock(); \
             self.poller.wait(&mut ev, t); } }",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("held across"));
        let good = run_rule(&[(
            "crates/net/src/reactor.rs",
            "impl Reactor { fn turn(&mut self) { { let g = self.shared.x.lock(); } \
             self.poller.wait(&mut ev, t); } }",
        )]);
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn try_recv_is_not_blocking() {
        let d = run_rule(&[(
            "crates/net/src/reactor.rs",
            "impl Reactor { fn turn(&mut self) { while let Ok(c) = self.cmd_rx.try_recv() {} } }",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}
