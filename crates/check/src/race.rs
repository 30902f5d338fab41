//! `race`: offline happens-before race detection over flight-recorder
//! event logs.
//!
//! The flight recorder ([`sdso_obs`]) gives every node a totally ordered
//! stream of events; synchronizing pairs among them — message send/recv,
//! lock grant/release, worker-thread spawn/join — induce a partial order
//! (happens-before) across nodes. Two accesses to the same shared object
//! are a **race** when neither happens before the other and at least one
//! is a write. This module replays an exported event log
//! ([`sdso_obs::export::event_log`] JSON), maintains one vector clock per
//! node, and reports every unordered conflicting pair, Eraser/FastTrack
//! style but post-mortem: the trace is evidence, the clocks are the proof.
//!
//! Synchronization model:
//!
//! * `Send(peer, ..)` snapshots the sender's clock into a FIFO per
//!   `(sender, peer)` channel; the matching `Recv` pops and joins it.
//!   (A stream socket preserves per-pair order, so FIFO matching is sound.)
//! * `LockGrant(object)` joins the lock's clock; `LockRelease(object)`
//!   stores the holder's clock into it. The EC lock manager hands grants
//!   over messages, so the send/recv edges carry the strong ordering;
//!   the lock edges tighten it when both sides appear in the trace.
//! * `ThreadSpawn(child, WORKER)` snapshots the spawner's clock; the
//!   child's stream joins it before its first event. `ThreadJoin(child,
//!   WORKER)` waits for the child's stream to drain, then joins its final
//!   clock. Other roles (retired ones, in old logs) are internal threads
//!   without streams of their own and carry no cross-stream edge.
//! * `ObjectRead`/`ObjectWrite` are the accesses being checked.
//!
//! The ring buffer drops oldest events under pressure, so a `Recv` may
//! have no surviving `Send` (or a child no surviving spawn). A blocked
//! stream only stalls while some other stream can make progress; at a
//! global standstill the replay processes one blocked event *without* its
//! edge and counts it in [`RaceReport::unmatched`] — detection degrades
//! to more possible false positives instead of failing, and the count
//! tells you how much to trust the output.

use std::collections::{HashMap, VecDeque};

use sdso_obs::EventKind;

/// One node's exported event stream.
#[derive(Debug)]
pub struct NodeStream {
    /// Node id.
    pub node: u32,
    /// Events the ring dropped before export (0 = the trace is complete).
    pub dropped: u64,
    /// `(at_micros, kind, a, b, c)` tuples in recording order.
    pub events: Vec<(u64, u8, u32, u32, u32)>,
}

/// One access that participates in a race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Node that performed the access.
    pub node: u32,
    /// Its timestamp (microseconds, that node's clock).
    pub at: u64,
    /// True if the access is a write.
    pub write: bool,
}

/// An unordered conflicting pair of accesses to one object.
#[derive(Debug, Clone, Copy)]
pub struct Race {
    /// The shared object both sides touched.
    pub object: u32,
    /// The access that was processed first.
    pub first: Access,
    /// The later, conflicting access.
    pub second: Access,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape = match (self.first.write, self.second.write) {
            (true, true) => "write-write",
            (true, false) => "write-read",
            _ => "read-write",
        };
        write!(
            f,
            "{shape} race on object {}: node {} at {}us vs node {} at {}us \
             (no happens-before edge between them)",
            self.object, self.first.node, self.first.at, self.second.node, self.second.at
        )
    }
}

/// Result of one replay.
#[derive(Debug)]
pub struct RaceReport {
    /// Unordered conflicting pairs, deduplicated per (object, node pair,
    /// shape).
    pub races: Vec<Race>,
    /// Streams replayed.
    pub nodes: usize,
    /// Events processed.
    pub events: usize,
    /// Synchronizing events replayed without their edge (truncated trace);
    /// nonzero means races below may include false positives.
    pub unmatched: usize,
    /// Sum of per-node dropped counts from the recorder rings.
    pub dropped: u64,
}

type Clock = Vec<u64>;

fn join(into: &mut Clock, other: &Clock) {
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

fn leq(a: &Clock, b: &Clock) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// A recorded access with the clock it happened at.
#[derive(Debug, Clone)]
struct Stamped {
    access: Access,
    clock: Clock,
}

/// Replays `streams` and reports every racy access pair.
pub fn analyze(streams: &[NodeStream]) -> RaceReport {
    let n = streams.len();
    let index_of: HashMap<u32, usize> =
        streams.iter().enumerate().map(|(i, s)| (s.node, i)).collect();
    // Which nodes have a surviving WORKER spawn record pointing at them —
    // those streams wait for the spawn edge before starting.
    let mut spawned: HashMap<usize, bool> = HashMap::new();
    for s in streams {
        for &(_, kind, a, b, _) in &s.events {
            if kind == EventKind::ThreadSpawn as u8
                && b == sdso_obs::THREAD_ROLE_WORKER
                && index_of.contains_key(&a)
            {
                spawned.insert(index_of[&a], false);
            }
        }
    }
    let mut clocks: Vec<Clock> = vec![vec![0; n]; n];
    let mut cursors: Vec<usize> = vec![0; n];
    let mut channels: HashMap<(usize, usize), VecDeque<Clock>> = HashMap::new();
    let mut lock_clocks: HashMap<u32, Clock> = HashMap::new();
    let mut spawn_clocks: HashMap<usize, Clock> = HashMap::new();
    let mut last_write: HashMap<u32, Stamped> = HashMap::new();
    let mut reads: HashMap<u32, Vec<Stamped>> = HashMap::new();
    let mut races: Vec<Race> = Vec::new();
    let mut race_keys: std::collections::HashSet<(u32, u32, u32, bool, bool)> =
        std::collections::HashSet::new();
    let mut events = 0usize;
    let mut unmatched = 0usize;

    // True if stream `i`'s next event can be processed with all its edges.
    let ready = |i: usize,
                 cursors: &[usize],
                 channels: &HashMap<(usize, usize), VecDeque<Clock>>,
                 spawn_clocks: &HashMap<usize, Clock>|
     -> bool {
        let cur = cursors[i];
        if cur >= streams[i].events.len() {
            return false;
        }
        if cur == 0 && spawned.contains_key(&i) && !spawn_clocks.contains_key(&i) {
            return false;
        }
        let (_, kind, a, b, _) = streams[i].events[cur];
        if kind == EventKind::Recv as u8 {
            if let Some(&sender) = index_of.get(&a) {
                return channels.get(&(sender, i)).is_some_and(|q| !q.is_empty());
            }
            return true; // sender not in the trace: nothing to wait for
        }
        if kind == EventKind::ThreadJoin as u8 && b == sdso_obs::THREAD_ROLE_WORKER {
            if let Some(&child) = index_of.get(&a) {
                return cursors[child] >= streams[child].events.len();
            }
        }
        true
    };

    loop {
        // Prefer the ready stream whose next event is earliest; timestamps
        // are only roughly comparable across nodes, but this keeps lock
        // release-before-grant pairs in their real order almost always.
        let mut pick: Option<(usize, u64)> = None;
        for i in 0..n {
            if ready(i, &cursors, &channels, &spawn_clocks) {
                let at = streams[i].events[cursors[i]].0;
                if pick.is_none_or(|(_, best)| at < best) {
                    pick = Some((i, at));
                }
            }
        }
        let (i, forced) = match pick {
            Some((i, _)) => (i, false),
            None => {
                // Global standstill: every remaining stream is blocked.
                // Force the earliest blocked event through without its edge.
                let mut blocked: Option<(usize, u64)> = None;
                for i in 0..n {
                    if cursors[i] < streams[i].events.len() {
                        let at = streams[i].events[cursors[i]].0;
                        if blocked.is_none_or(|(_, best)| at < best) {
                            blocked = Some((i, at));
                        }
                    }
                }
                match blocked {
                    Some((i, _)) => (i, true),
                    None => break, // all streams drained
                }
            }
        };
        let cur = cursors[i];
        let (at, kind, a, b, c) = streams[i].events[cur];
        cursors[i] += 1;
        events += 1;
        if forced {
            unmatched += 1;
        }
        if cur == 0 {
            if let Some(sc) = spawn_clocks.get(&i) {
                let sc = sc.clone();
                join(&mut clocks[i], &sc);
            }
        }
        clocks[i][i] += 1;
        let kind = EventKind::ALL.into_iter().find(|&k| k as u8 == kind);
        match kind {
            Some(EventKind::Send) => {
                if let Some(&peer) = index_of.get(&a) {
                    channels.entry((i, peer)).or_default().push_back(clocks[i].clone());
                }
            }
            Some(EventKind::Recv) => {
                if let Some(&sender) = index_of.get(&a) {
                    if let Some(sc) = channels.get_mut(&(sender, i)).and_then(VecDeque::pop_front) {
                        let clock = sc;
                        join(&mut clocks[i], &clock);
                    } else if !forced {
                        // ready() said go because the sender queue check
                        // passed; reaching here means the send was dropped.
                        unmatched += 1;
                    }
                }
            }
            Some(EventKind::LockGrant) => {
                if let Some(lc) = lock_clocks.get(&a) {
                    let lc = lc.clone();
                    join(&mut clocks[i], &lc);
                }
            }
            Some(EventKind::LockRelease) => {
                lock_clocks.insert(a, clocks[i].clone());
            }
            Some(EventKind::ThreadSpawn) => {
                if b == sdso_obs::THREAD_ROLE_WORKER {
                    if let Some(&child) = index_of.get(&a) {
                        spawn_clocks.insert(child, clocks[i].clone());
                    }
                }
            }
            Some(EventKind::ThreadJoin) => {
                if b == sdso_obs::THREAD_ROLE_WORKER {
                    if let Some(&child) = index_of.get(&a) {
                        let child_clock = clocks[child].clone();
                        join(&mut clocks[i], &child_clock);
                    }
                }
            }
            Some(EventKind::ObjectRead) => {
                let access = Access { node: streams[i].node, at, write: false };
                if let Some(w) = last_write.get(&a) {
                    if w.access.node != access.node && !leq(&w.clock, &clocks[i]) {
                        push_race(&mut races, &mut race_keys, a, w.access, access);
                    }
                }
                reads.entry(a).or_default().push(Stamped { access, clock: clocks[i].clone() });
            }
            Some(EventKind::ObjectWrite) => {
                let access = Access { node: streams[i].node, at, write: true };
                if let Some(w) = last_write.get(&a) {
                    if w.access.node != access.node && !leq(&w.clock, &clocks[i]) {
                        push_race(&mut races, &mut race_keys, a, w.access, access);
                    }
                }
                for r in reads.get(&a).map(Vec::as_slice).unwrap_or_default() {
                    if r.access.node != access.node && !leq(&r.clock, &clocks[i]) {
                        push_race(&mut races, &mut race_keys, a, r.access, access);
                    }
                }
                reads.remove(&a);
                last_write.insert(a, Stamped { access, clock: clocks[i].clone() });
            }
            // No cross-node edge: BatchSend duplicates per-message Sends,
            // DiffMerge is co-emitted with ObjectWrite, the rest are local.
            _ => {
                let _ = c;
            }
        }
    }
    RaceReport {
        races,
        nodes: n,
        events,
        unmatched,
        dropped: streams.iter().map(|s| s.dropped).sum(),
    }
}

fn push_race(
    races: &mut Vec<Race>,
    keys: &mut std::collections::HashSet<(u32, u32, u32, bool, bool)>,
    object: u32,
    first: Access,
    second: Access,
) {
    let key = (object, first.node, second.node, first.write, second.write);
    if keys.insert(key) {
        races.push(Race { object, first, second });
    }
}

/// Parses the [`sdso_obs::export::event_log`] JSON format.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn parse_event_log(text: &str) -> Result<Vec<NodeStream>, String> {
    let mut p = Parser { b: text.as_bytes(), i: 0 };
    p.ws();
    p.expect(b'{')?;
    let mut streams = Vec::new();
    loop {
        p.ws();
        let key = p.string()?;
        p.ws();
        p.expect(b':')?;
        p.ws();
        match key.as_str() {
            "version" => {
                let v = p.number()?;
                if v != 1 {
                    return Err(format!("unsupported event-log version {v}"));
                }
            }
            "nodes" => {
                p.expect(b'[')?;
                p.ws();
                if !p.eat(b']') {
                    loop {
                        streams.push(parse_node(&mut p)?);
                        p.ws();
                        if !p.eat(b',') {
                            p.expect(b']')?;
                            break;
                        }
                        p.ws();
                    }
                }
            }
            other => return Err(format!("unexpected key `{other}`")),
        }
        p.ws();
        if !p.eat(b',') {
            p.expect(b'}')?;
            break;
        }
    }
    Ok(streams)
}

fn parse_node(p: &mut Parser<'_>) -> Result<NodeStream, String> {
    p.ws();
    p.expect(b'{')?;
    let mut node = 0u32;
    let mut dropped = 0u64;
    let mut events = Vec::new();
    loop {
        p.ws();
        let key = p.string()?;
        p.ws();
        p.expect(b':')?;
        p.ws();
        match key.as_str() {
            "node" => node = p.number()? as u32,
            "dropped" => dropped = p.number()?,
            "events" => {
                p.expect(b'[')?;
                p.ws();
                if !p.eat(b']') {
                    loop {
                        p.ws();
                        p.expect(b'[')?;
                        let mut vals = [0u64; 5];
                        for (k, v) in vals.iter_mut().enumerate() {
                            p.ws();
                            *v = p.number()?;
                            p.ws();
                            if k < 4 {
                                p.expect(b',')?;
                            }
                        }
                        p.expect(b']')?;
                        events.push((
                            vals[0],
                            vals[1] as u8,
                            vals[2] as u32,
                            vals[3] as u32,
                            vals[4] as u32,
                        ));
                        p.ws();
                        if !p.eat(b',') {
                            p.expect(b']')?;
                            break;
                        }
                    }
                }
            }
            other => return Err(format!("unexpected key `{other}` in node object")),
        }
        p.ws();
        if !p.eat(b',') {
            p.expect(b'}')?;
            break;
        }
    }
    Ok(NodeStream { node, dropped, events })
}

/// Minimal pull parser for the fixed event-log grammar: objects, arrays,
/// double-quoted keys, and unsigned integers. Not a general JSON parser
/// on purpose — the exporter never emits floats, escapes, or nulls.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {} (found `{}`)",
                c as char,
                self.i,
                self.b.get(self.i).map(|&x| x as char).unwrap_or('∅'),
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        while self.b.get(self.i).is_some_and(|&c| c != b'"') {
            self.i += 1;
        }
        let s = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.expect(b'"')?;
        Ok(s)
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.i;
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("number out of range at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPAWN: u8 = EventKind::ThreadSpawn as u8;
    const JOIN: u8 = EventKind::ThreadJoin as u8;
    const SEND: u8 = EventKind::Send as u8;
    const RECV: u8 = EventKind::Recv as u8;
    const GRANT: u8 = EventKind::LockGrant as u8;
    const RELEASE: u8 = EventKind::LockRelease as u8;
    const READ: u8 = EventKind::ObjectRead as u8;
    const WRITE: u8 = EventKind::ObjectWrite as u8;
    const WORKER: u32 = sdso_obs::THREAD_ROLE_WORKER;

    fn stream(node: u32, events: &[(u64, u8, u32, u32, u32)]) -> NodeStream {
        NodeStream { node, dropped: 0, events: events.to_vec() }
    }

    #[test]
    fn unsynchronized_writes_race() {
        let r = analyze(&[stream(0, &[(10, WRITE, 7, 1, 8)]), stream(1, &[(11, WRITE, 7, 1, 8)])]);
        assert_eq!(r.races.len(), 1, "{r:?}");
        assert_eq!(r.races[0].object, 7);
        assert!(r.races[0].first.write && r.races[0].second.write);
    }

    #[test]
    fn message_edge_orders_the_writes() {
        let r = analyze(&[
            stream(0, &[(10, WRITE, 7, 1, 8), (11, SEND, 1, 1, 32)]),
            stream(1, &[(12, RECV, 0, 1, 32), (13, WRITE, 7, 2, 8)]),
        ]);
        assert!(r.races.is_empty(), "{:?}", r.races);
        assert_eq!(r.unmatched, 0);
    }

    #[test]
    fn lock_edge_orders_the_writes() {
        let r = analyze(&[
            stream(0, &[(10, GRANT, 7, 1, 0), (11, WRITE, 7, 1, 8), (12, RELEASE, 7, 0, 0)]),
            stream(1, &[(20, GRANT, 7, 1, 0), (21, WRITE, 7, 2, 8), (22, RELEASE, 7, 0, 0)]),
        ]);
        assert!(r.races.is_empty(), "{:?}", r.races);
    }

    #[test]
    fn read_write_race_is_reported() {
        let r = analyze(&[stream(0, &[(10, READ, 7, 1, 0)]), stream(1, &[(11, WRITE, 7, 2, 8)])]);
        assert_eq!(r.races.len(), 1, "{r:?}");
        assert!(!r.races[0].first.write && r.races[0].second.write);
    }

    #[test]
    fn spawn_and_join_edges_order_parent_and_child() {
        // Parent writes, spawns child; child writes; parent joins, writes
        // again. Fully ordered: no race.
        let r = analyze(&[
            stream(
                0,
                &[
                    (1, WRITE, 7, 1, 8),
                    (2, SPAWN, 1, WORKER, 0),
                    (9, JOIN, 1, WORKER, 0),
                    (10, WRITE, 7, 3, 8),
                ],
            ),
            stream(1, &[(5, WRITE, 7, 2, 8)]),
        ]);
        assert!(r.races.is_empty(), "{:?}", r.races);
    }

    #[test]
    fn truncated_trace_degrades_to_unmatched_not_deadlock() {
        // Recv whose Send was dropped from the ring: the replay must
        // terminate and count the missing edge.
        let r = analyze(&[
            stream(0, &[(12, RECV, 1, 1, 32), (13, WRITE, 7, 2, 8)]),
            stream(1, &[(20, WRITE, 7, 3, 8)]),
        ]);
        assert_eq!(r.unmatched, 1, "{r:?}");
        assert_eq!(r.races.len(), 1);
    }

    #[test]
    fn event_log_json_round_trips() {
        let json = r#"{"version":1,"nodes":[
            {"node":0,"dropped":2,"events":[[10,21,7,1,8],[11,8,1,1,32]]},
            {"node":1,"dropped":0,"events":[]}]}"#;
        let streams = parse_event_log(json).unwrap();
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].node, 0);
        assert_eq!(streams[0].dropped, 2);
        assert_eq!(streams[0].events, vec![(10, 21, 7, 1, 8), (11, 8, 1, 1, 32)]);
        assert!(streams[1].events.is_empty());
    }

    #[test]
    fn racy_fixture_is_flagged_and_clean_fixture_passes() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/races");
        let racy =
            parse_event_log(&std::fs::read_to_string(dir.join("racy.json")).unwrap()).unwrap();
        let r = analyze(&racy);
        assert!(!r.races.is_empty(), "seeded racy trace must be flagged: {r:?}");
        let clean =
            parse_event_log(&std::fs::read_to_string(dir.join("clean.json")).unwrap()).unwrap();
        let r = analyze(&clean);
        assert!(r.races.is_empty(), "synchronized trace must pass: {:?}", r.races);
        assert_eq!(r.unmatched, 0, "every sync event must find its edge: {r:?}");
    }

    #[test]
    fn bad_version_and_malformed_json_are_errors() {
        assert!(parse_event_log(r#"{"version":2,"nodes":[]}"#).is_err());
        assert!(parse_event_log(r#"{"version":1,"nodes":[{"node":0}"#).is_err());
    }
}
