//! Exporters: Chrome-trace (Perfetto-loadable) JSON and a plain-text
//! histogram dump.
//!
//! The Chrome trace format is the stable subset documented by the
//! Trace Event Format spec: `"ph":"X"` complete events carry spans,
//! `"ph":"i"` carries instants, `"ph":"M"` names tracks. One process
//! (`pid` 1) represents the cluster; each node gets its own thread
//! (`tid` = node + 1), so Perfetto shows one track per node.

use std::fmt::Write as _;

use crate::event::{EventKind, EventRecord, FAULT_DELAY, FAULT_DROP, FAULT_DUP};
use crate::registry::{bucket_upper_bound, RegistrySnapshot};

/// Renders the event rings of a cluster — `(node, events)` pairs, events
/// oldest-first — as a Chrome-trace JSON document.
///
/// Spans are reconstructed by pairing begin/end records: `exchange` from
/// `ExchangeBegin`/`ExchangeEnd`, `rendezvous_wait` from the wait pair,
/// and `lock_hold` from `LockGrant` to the matching `LockRelease` of the
/// same object. Faults, resyncs, retransmits and lock requests become
/// instants. Send/Recv records are summarized in track metadata counts
/// rather than emitted individually (they dominate event volume without
/// adding visual information at cluster scale).
pub fn chrome_trace(nodes: &[(u16, Vec<EventRecord>)]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let emit = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    emit(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"sdso cluster\"}}"
            .to_owned(),
        &mut out,
        &mut first,
    );

    for (node, events) in nodes {
        let tid = u64::from(*node) + 1;
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"node {node}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            ),
            &mut out,
            &mut first,
        );

        // Open begin-records awaiting their end; lock holds keyed by object.
        let mut open_exchange: Option<&EventRecord> = None;
        let mut open_wait: Option<&EventRecord> = None;
        let mut open_locks: Vec<(u32, u64, u32)> = Vec::new(); // (object, ts, mode)

        for ev in events {
            match ev.kind {
                EventKind::ExchangeBegin => open_exchange = Some(ev),
                EventKind::ExchangeEnd => {
                    if let Some(begin) = open_exchange.take() {
                        emit(
                            span(
                                tid,
                                "exchange",
                                begin.at,
                                ev.at,
                                &format!(
                                    "\"tick\":{},\"due_peers\":{},\"updates_sent\":{},\
                                     \"updates_applied\":{}",
                                    begin.a, begin.b, ev.b, ev.c
                                ),
                            ),
                            &mut out,
                            &mut first,
                        );
                    }
                }
                EventKind::RendezvousWaitBegin => open_wait = Some(ev),
                EventKind::RendezvousWaitEnd => {
                    if let Some(begin) = open_wait.take() {
                        emit(
                            span(
                                tid,
                                "rendezvous_wait",
                                begin.at,
                                ev.at,
                                &format!("\"tick\":{},\"outstanding\":{}", begin.a, begin.b),
                            ),
                            &mut out,
                            &mut first,
                        );
                    }
                }
                EventKind::LockGrant => open_locks.push((ev.a, ev.at, ev.b)),
                EventKind::LockRelease => {
                    if let Some(pos) = open_locks.iter().position(|(obj, _, _)| *obj == ev.a) {
                        let (obj, begin_ts, mode) = open_locks.remove(pos);
                        emit(
                            span(
                                tid,
                                "lock_hold",
                                begin_ts,
                                ev.at,
                                &format!(
                                    "\"object\":{obj},\"mode\":\"{}\"",
                                    if mode == 0 { "read" } else { "write" }
                                ),
                            ),
                            &mut out,
                            &mut first,
                        );
                    }
                }
                EventKind::LockAcquire => emit(
                    instant(
                        tid,
                        "lock_acquire",
                        ev.at,
                        &format!(
                            "\"object\":{},\"mode\":\"{}\"",
                            ev.a,
                            if ev.b == 0 { "read" } else { "write" }
                        ),
                    ),
                    &mut out,
                    &mut first,
                ),
                EventKind::FaultInjected => emit(
                    instant(tid, "fault", ev.at, &format!("\"verdict\":\"{}\"", fault_name(ev.a))),
                    &mut out,
                    &mut first,
                ),
                EventKind::Resync => emit(
                    instant(tid, "resync", ev.at, &format!("\"silent_rounds\":{}", ev.a)),
                    &mut out,
                    &mut first,
                ),
                EventKind::Retransmit => emit(
                    instant(
                        tid,
                        "retransmit",
                        ev.at,
                        &format!("\"peer\":{},\"seq\":{}", ev.a, ev.b),
                    ),
                    &mut out,
                    &mut first,
                ),
                EventKind::DiffMerge => emit(
                    instant(tid, "diff_merge", ev.at, &format!("\"object\":{}", ev.a)),
                    &mut out,
                    &mut first,
                ),
                EventKind::ViewChange => emit(
                    instant(
                        tid,
                        "view_change",
                        ev.at,
                        &format!("\"epoch\":{},\"joined\":{},\"left\":{}", ev.a, ev.b, ev.c),
                    ),
                    &mut out,
                    &mut first,
                ),
                EventKind::SnapshotSend => emit(
                    instant(
                        tid,
                        "snapshot_send",
                        ev.at,
                        &format!("\"peer\":{},\"bytes\":{},\"epoch\":{}", ev.a, ev.b, ev.c),
                    ),
                    &mut out,
                    &mut first,
                ),
                EventKind::SnapshotInstall => emit(
                    instant(
                        tid,
                        "snapshot_install",
                        ev.at,
                        &format!("\"donor\":{},\"objects\":{},\"epoch\":{}", ev.a, ev.b, ev.c),
                    ),
                    &mut out,
                    &mut first,
                ),
                EventKind::PeerDown => emit(
                    instant(tid, "peer_down", ev.at, &format!("\"peer\":{}", ev.a)),
                    &mut out,
                    &mut first,
                ),
                EventKind::BatchSend => emit(
                    instant(
                        tid,
                        "batch_send",
                        ev.at,
                        &format!("\"peer\":{},\"msgs\":{},\"bytes\":{}", ev.a, ev.b, ev.c),
                    ),
                    &mut out,
                    &mut first,
                ),
                EventKind::ThreadSpawn => emit(
                    instant(
                        tid,
                        "thread_spawn",
                        ev.at,
                        &format!("\"child\":{},\"role\":{}", ev.a, ev.b),
                    ),
                    &mut out,
                    &mut first,
                ),
                EventKind::ThreadJoin => emit(
                    instant(
                        tid,
                        "thread_join",
                        ev.at,
                        &format!("\"child\":{},\"role\":{}", ev.a, ev.b),
                    ),
                    &mut out,
                    &mut first,
                ),
                EventKind::WalReplay => emit(
                    instant(
                        tid,
                        "wal_replay",
                        ev.at,
                        &format!("\"records\":{},\"truncated\":{}", ev.a, ev.b),
                    ),
                    &mut out,
                    &mut first,
                ),
                EventKind::Recover => emit(
                    instant(
                        tid,
                        "recover",
                        ev.at,
                        &format!("\"node\":{},\"epoch\":{},\"records\":{}", ev.a, ev.b, ev.c),
                    ),
                    &mut out,
                    &mut first,
                ),
                // Like Send/Recv, per-access object events dominate volume
                // without adding visual information; the race checker reads
                // them from the event log instead.
                EventKind::Send
                | EventKind::Recv
                | EventKind::ObjectRead
                | EventKind::ObjectWrite
                | EventKind::WalAppend => {}
            }
        }
    }

    out.push_str("\n]}\n");
    out
}

/// Renders per-node event rings as the raw event-log JSON consumed by
/// `sdso-check race`: every record verbatim as a `[at, kind, a, b, c]`
/// tuple, plus the per-node drop count so the checker knows when the ring
/// truncated history (dropped prefixes weaken, but do not invalidate,
/// happens-before edges).
///
/// Each input tuple is `(node, dropped, events)`, events oldest-first.
/// The format is versioned and append-only:
///
/// ```json
/// {"version":1,"nodes":[{"node":0,"dropped":0,"events":[[12,8,1,0,64]]}]}
/// ```
pub fn event_log(nodes: &[(u16, u64, Vec<EventRecord>)]) -> String {
    let mut out = String::from("{\"version\":1,\"nodes\":[\n");
    for (i, (node, dropped, events)) in nodes.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(out, "{{\"node\":{node},\"dropped\":{dropped},\"events\":[");
        for (j, ev) in events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            if j % 16 == 0 {
                out.push('\n');
            }
            let _ = write!(out, "[{},{},{},{},{}]", ev.at, ev.kind as u8, ev.a, ev.b, ev.c);
        }
        out.push_str("]}");
    }
    out.push_str("\n]}\n");
    out
}

fn span(tid: u64, name: &str, begin: u64, end: u64, args: &str) -> String {
    let dur = end.saturating_sub(begin);
    format!(
        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\"cat\":\"sdso\",\
         \"ts\":{begin},\"dur\":{dur},\"args\":{{{args}}}}}"
    )
}

fn instant(tid: u64, name: &str, ts: u64, args: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\"cat\":\"sdso\",\
         \"ts\":{ts},\"s\":\"t\",\"args\":{{{args}}}}}"
    )
}

fn fault_name(bits: u32) -> &'static str {
    if bits & FAULT_DROP != 0 {
        "drop"
    } else if bits & FAULT_DUP != 0 {
        "duplicate"
    } else if bits & FAULT_DELAY != 0 {
        "delay"
    } else {
        "deliver"
    }
}

/// Renders every histogram in a registry snapshot as an aligned
/// plain-text dump with count, mean, percentiles and per-bucket bars.
pub fn text_histogram_dump(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, h) in &snapshot.histograms {
        let _ = writeln!(
            out,
            "{name}: count={} mean={:.1} p50<={} p90<={} p99<={}",
            h.count,
            h.mean(),
            h.percentile(50.0),
            h.percentile(90.0),
            h.percentile(99.0),
        );
        let max = h.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &n) in h.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let bar_len = (n * 40).div_ceil(max) as usize;
            let _ = writeln!(
                out,
                "  <= {:>20}  {:>8}  {}",
                bucket_upper_bound(i),
                n,
                "#".repeat(bar_len)
            );
        }
        out.push('\n');
    }
    if out.is_empty() {
        out.push_str("(no histograms recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Histogram;

    fn ev(at: u64, kind: EventKind, a: u32, b: u32, c: u32) -> EventRecord {
        EventRecord { at, kind, a, b, c }
    }

    #[test]
    fn trace_pairs_spans_and_names_tracks() {
        let events = vec![
            ev(100, EventKind::ExchangeBegin, 1, 3, 0),
            ev(110, EventKind::RendezvousWaitBegin, 1, 3, 0),
            ev(150, EventKind::RendezvousWaitEnd, 1, 0, 0),
            ev(160, EventKind::ExchangeEnd, 1, 2, 5),
            ev(200, EventKind::LockGrant, 7, 1, 0),
            ev(260, EventKind::LockRelease, 7, 0, 0),
            ev(300, EventKind::FaultInjected, FAULT_DROP, 0, 0),
            ev(310, EventKind::BatchSend, 2, 3, 6144),
        ];
        let json = chrome_trace(&[(4, events)]);
        assert!(json.contains("\"name\":\"node 4\""));
        assert!(json.contains("\"name\":\"exchange\""));
        assert!(json.contains("\"ts\":100,\"dur\":60"));
        assert!(json.contains("\"name\":\"rendezvous_wait\""));
        assert!(json.contains("\"name\":\"lock_hold\""));
        assert!(json.contains("\"mode\":\"write\""));
        assert!(json.contains("\"verdict\":\"drop\""));
        assert!(json.contains("\"name\":\"batch_send\""));
        assert!(json.contains("\"msgs\":3,\"bytes\":6144"));
        // Structural sanity: balanced braces/brackets means parseable JSON
        // for this escape-free subset.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn unmatched_begin_records_do_not_break_export() {
        let events = vec![ev(10, EventKind::ExchangeBegin, 0, 1, 0)];
        let json = chrome_trace(&[(0, events)]);
        assert!(!json.contains("\"name\":\"exchange\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn event_log_round_trips_records_verbatim() {
        let events = vec![
            ev(12, EventKind::Send, 1, 0, 64),
            ev(15, EventKind::ThreadSpawn, 3, 3, 0),
            ev(20, EventKind::ObjectWrite, 7, 2, 128),
        ];
        let json = event_log(&[(0, 0, events), (1, 5, Vec::new())]);
        assert!(json.starts_with("{\"version\":1"));
        assert!(json.contains("\"node\":0,\"dropped\":0"));
        assert!(json.contains("\"node\":1,\"dropped\":5"));
        assert!(json.contains("[12,8,1,0,64]"));
        assert!(json.contains("[15,18,3,3,0]"));
        assert!(json.contains("[20,21,7,2,128]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn histogram_dump_lists_percentiles() {
        let reg = crate::registry::MetricsRegistry::new();
        let h: Histogram = reg.histogram("net.wire_bytes");
        for v in [10u64, 20, 300, 4000] {
            h.observe(v);
        }
        let dump = text_histogram_dump(&reg.snapshot());
        assert!(dump.contains("net.wire_bytes"));
        assert!(dump.contains("count=4"));
        assert!(dump.contains("p99<="));
        assert!(dump.contains('#'));
    }
}
