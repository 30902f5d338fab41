//! `TimedEndpoint`: the benchmark's one measuring decorator.
//!
//! It wraps any [`Endpoint`] and keeps one [`Span`] in memory per
//! `send`/`send_batch`/`broadcast`/`recv`/`recv_deadline`/`try_recv`/
//! `advance` call, timestamped with the inner endpoint's own `now()` —
//! so the same code yields virtual time under the simulator and wall time
//! on sockets. Every other method forwards untouched. Spans leave through
//! a [`SpanSink`] when the endpoint is dropped (`run_node` consumes it).
//!
//! Tick boundaries come from the two `advance` calls every game driver
//! makes per tick (think cost, then write cost): each span carries the
//! number of `advance` calls seen before it, from which [`layer_split`]
//! derives the tick it belongs to and whether it ran in the application
//! phase (between the two) or the synchronisation phase (after the
//! second).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use sdso_net::{
    Endpoint, Incoming, NetError, NetMetricsSnapshot, NodeId, Payload, PeerEvent, Recorder,
    SimInstant, SimSpan,
};

/// Which `Endpoint` method a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Send,
    SendBatch,
    Broadcast,
    Recv,
    RecvDeadline,
    TryRecv,
    Advance,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Send => "send",
            Call::SendBatch => "send_batch",
            Call::Broadcast => "broadcast",
            Call::Recv => "recv",
            Call::RecvDeadline => "recv_deadline",
            Call::TryRecv => "try_recv",
            Call::Advance => "advance",
        }
    }

    fn is_send(self) -> bool {
        matches!(self, Call::Send | Call::SendBatch | Call::Broadcast)
    }
}

/// One timed call into the wrapped endpoint.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub call: Call,
    /// Microseconds on the inner endpoint's clock.
    pub start: u64,
    pub end: u64,
    /// `advance` calls this endpoint had seen when the call began; the
    /// span's parent tick and phase follow from it.
    pub advances: u32,
    /// Payloads handed to (or returned by) the call.
    pub msgs: u32,
    /// Their modelled wire bytes.
    pub bytes: u32,
}

/// Where a node's spans land when its endpoint is dropped.
pub type SpanSink = Arc<Mutex<Vec<Span>>>;

/// The decorator. See the module docs.
pub struct TimedEndpoint<E: Endpoint> {
    inner: E,
    spans: Vec<Span>,
    advances: u32,
    sink: SpanSink,
}

impl<E: Endpoint> TimedEndpoint<E> {
    pub fn new(inner: E, sink: SpanSink) -> Self {
        TimedEndpoint { inner, spans: Vec::new(), advances: 0, sink }
    }

    fn push(&mut self, call: Call, start: SimInstant, msgs: u32, bytes: u32) {
        self.spans.push(Span {
            call,
            start: start.as_micros(),
            end: self.inner.now().as_micros(),
            advances: self.advances,
            msgs,
            bytes,
        });
    }

    fn push_recv(&mut self, call: Call, start: SimInstant, got: Option<&Incoming>) {
        let (msgs, bytes) = got.map_or((0, 0), |m| (1, m.payload.wire_len()));
        self.push(call, start, msgs, bytes);
    }
}

impl<E: Endpoint> Drop for TimedEndpoint<E> {
    fn drop(&mut self) {
        // A poisoned sink means the collector already panicked; the spans
        // are of no use to anyone then.
        if let Ok(mut sink) = self.sink.lock() {
            *sink = std::mem::take(&mut self.spans);
        }
    }
}

impl<E: Endpoint> Endpoint for TimedEndpoint<E> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn send(&mut self, to: NodeId, payload: Payload) -> Result<(), NetError> {
        let bytes = payload.wire_len();
        let start = self.inner.now();
        let result = self.inner.send(to, payload);
        self.push(Call::Send, start, 1, bytes);
        result
    }
    fn send_batch(&mut self, to: NodeId, payloads: Vec<Payload>) -> Result<(), NetError> {
        let msgs = payloads.len() as u32;
        let bytes = payloads.iter().map(Payload::wire_len).sum();
        let start = self.inner.now();
        let result = self.inner.send_batch(to, payloads);
        self.push(Call::SendBatch, start, msgs, bytes);
        result
    }
    fn recv(&mut self) -> Result<Incoming, NetError> {
        let start = self.inner.now();
        let result = self.inner.recv();
        self.push_recv(Call::Recv, start, result.as_ref().ok());
        result
    }
    fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
        let start = self.inner.now();
        let result = self.inner.try_recv();
        self.push_recv(Call::TryRecv, start, result.as_ref().ok().and_then(Option::as_ref));
        result
    }
    fn recv_deadline(&mut self, timeout: SimSpan) -> Result<Option<Incoming>, NetError> {
        let start = self.inner.now();
        let result = self.inner.recv_deadline(timeout);
        self.push_recv(Call::RecvDeadline, start, result.as_ref().ok().and_then(Option::as_ref));
        result
    }
    fn advance(&mut self, dt: SimSpan) {
        let start = self.inner.now();
        self.inner.advance(dt);
        self.push(Call::Advance, start, 0, 0);
        self.advances += 1;
    }
    fn now(&self) -> SimInstant {
        self.inner.now()
    }
    fn metrics(&self) -> NetMetricsSnapshot {
        self.inner.metrics()
    }
    fn metrics_delta(&mut self) -> NetMetricsSnapshot {
        self.inner.metrics_delta()
    }
    fn attach_recorder(&mut self, recorder: Recorder) {
        self.inner.attach_recorder(recorder);
    }
    fn remove_peer(&mut self, peer: NodeId) {
        self.inner.remove_peer(peer);
    }
    fn add_peer(&mut self, peer: NodeId) {
        self.inner.add_peer(peer);
    }
    fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        self.inner.take_peer_events()
    }
    fn broadcast(&mut self, payload: &Payload) -> Result<(), NetError> {
        let msgs = self.inner.num_nodes().saturating_sub(1) as u32;
        let bytes = msgs * payload.wire_len();
        let start = self.inner.now();
        let result = self.inner.broadcast(payload);
        self.push(Call::Broadcast, start, msgs, bytes);
        result
    }
}

/// Per-tick layer totals of one traced cell, summed over every node's
/// complete ticks (a node's last tick is left out: from outside, its
/// synchronisation cannot be told from the terminal flush that follows).
#[derive(Debug, Default)]
pub struct LayerSplit {
    /// Complete ticks summed over nodes.
    pub ticks: u64,
    /// Every complete tick's duration in µs, for percentiles.
    pub tick_us: Vec<u64>,
    /// First→second `advance` (inclusive of both calls), minus endpoint
    /// time inside.
    pub app_us: u64,
    /// Second `advance`→next tick's first, minus endpoint time inside.
    pub sync_self_us: u64,
    /// Time inside `send`/`send_batch`/`broadcast`.
    pub send_us: u64,
    /// Time inside `recv`/`recv_deadline`/`try_recv`.
    pub blocked_us: u64,
    pub send_calls: u64,
    pub send_msgs: u64,
    /// Σ over nodes of (last span's end − first span's start): the whole
    /// run as the spans see it, with what precedes the first tick, the
    /// last tick and the terminal flush.
    pub covered_us: u64,
}

impl LayerSplit {
    /// |covered − whole| ÷ whole, in percent, where `whole_us` is the
    /// traced nodes' run time as the end-to-end metric measures it
    /// (`NodeStats::exec_time`, or the benchmark's own clock around
    /// `run_node`).
    ///
    /// `app` and `sync_self` are residuals — an interval minus the
    /// endpoint spans inside — so the four parts add up to the interval
    /// they split by construction, over the complete ticks and over the
    /// whole run alike. What can go wrong is the interval: time `run_node`
    /// spends before its first or after its last endpoint call, and the
    /// endpoint's clock disagreeing with the benchmark's. This holds the
    /// span-covered window to the whole measured elsewhere.
    pub fn sum_error_pct(&self, whole_us: f64) -> f64 {
        100.0 * (self.covered_us as f64 - whole_us).abs() / whole_us
    }
}

/// Splits every node's spans into ticks and layers.
///
/// # Errors
///
/// Reports the cell invalid — rather than guessing — when a node did not
/// see exactly `2 × ticks` `advance` calls.
pub fn layer_split<S: AsRef<[Span]>>(nodes: &[S], ticks: u64) -> Result<LayerSplit, String> {
    let mut split = LayerSplit::default();
    for (node, spans) in nodes.iter().enumerate() {
        let spans = spans.as_ref();
        let advances = spans.iter().filter(|s| s.call == Call::Advance).count() as u64;
        if advances != 2 * ticks {
            return Err(format!(
                "node {node} saw {advances} advance calls, expected {}",
                2 * ticks
            ));
        }
        // Tick k opens at the start of advance number 2k and its
        // application phase closes at the end of advance number 2k+1.
        let first: Vec<u64> = spans
            .iter()
            .filter(|s| s.call == Call::Advance && s.advances % 2 == 0)
            .map(|s| s.start)
            .collect();
        let second: Vec<u64> = spans
            .iter()
            .filter(|s| s.call == Call::Advance && s.advances % 2 == 1)
            .map(|s| s.end)
            .collect();
        let complete = first.len() - 1;
        let mut net_in_app = vec![0u64; complete];
        let mut net_in_sync = vec![0u64; complete];
        for s in spans.iter().filter(|s| s.call != Call::Advance && s.advances > 0) {
            let tick = (s.advances as usize - 1) / 2;
            if tick >= complete {
                continue;
            }
            let dur = s.end - s.start;
            if s.advances % 2 == 1 {
                net_in_app[tick] += dur;
            } else {
                net_in_sync[tick] += dur;
            }
            if s.call.is_send() {
                split.send_us += dur;
                split.send_calls += 1;
                split.send_msgs += u64::from(s.msgs);
            } else {
                split.blocked_us += dur;
            }
        }
        for k in 0..complete {
            split.tick_us.push(first[k + 1] - first[k]);
            split.app_us += second[k] - first[k] - net_in_app[k];
            split.sync_self_us += first[k + 1] - second[k] - net_in_sync[k];
        }
        split.ticks += complete as u64;
        if let (Some(head), Some(tail)) = (spans.first(), spans.last()) {
            split.covered_us += tail.end - head.start;
        }
    }
    Ok(split)
}

/// At most this many ticks per node go into the Chrome trace file; the
/// layer split always uses every span.
const TRACE_FILE_TICKS: u32 = 20;

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// process per node, a `tick` span per tick as the parent track and one
/// child span per endpoint call.
pub fn chrome_trace(nodes: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut sep = "";
    let mut event = |out: &mut String,
                     name: &str,
                     node: usize,
                     tid: u32,
                     s: u64,
                     e: u64,
                     args: &str| {
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{node},\"tid\":{tid},\"ts\":{s},\"dur\":{},\"args\":{{{args}}}}}",
            e - s
        );
        sep = ",\n";
    };
    for (node, spans) in nodes.iter().enumerate() {
        let mut tick_start = None;
        for s in spans.iter().take_while(|s| s.advances < 2 * TRACE_FILE_TICKS) {
            if s.call == Call::Advance && s.advances % 2 == 0 {
                if let Some(start) = tick_start.replace(s.start) {
                    let tick = s.advances / 2 - 1;
                    event(&mut out, "tick", node, 0, start, s.start, &format!("\"tick\":{tick}"));
                }
            }
            let args = format!(
                "\"tick\":{},\"msgs\":{},\"bytes\":{}",
                (i64::from(s.advances) + i64::from(s.call == Call::Advance) + 1) / 2 - 1,
                s.msgs,
                s.bytes
            );
            event(&mut out, s.call.name(), node, 1, s.start, s.end, &args);
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_net::TraceConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// An endpoint that only notes which of its methods were called.
    #[derive(Default)]
    struct Probe {
        calls: Arc<Mutex<Vec<&'static str>>>,
        clock: AtomicU64,
    }

    impl Probe {
        fn note(&self, name: &'static str) {
            self.calls.lock().unwrap().push(name);
        }
    }

    impl Endpoint for Probe {
        fn node_id(&self) -> NodeId {
            self.note("node_id");
            0
        }
        fn num_nodes(&self) -> usize {
            3
        }
        fn send(&mut self, _: NodeId, _: Payload) -> Result<(), NetError> {
            self.note("send");
            Ok(())
        }
        fn send_batch(&mut self, _: NodeId, _: Vec<Payload>) -> Result<(), NetError> {
            self.note("send_batch");
            Ok(())
        }
        fn recv(&mut self) -> Result<Incoming, NetError> {
            self.note("recv");
            Ok(Incoming { from: 1, payload: Payload::data(vec![0u8; 10]) })
        }
        fn try_recv(&mut self) -> Result<Option<Incoming>, NetError> {
            self.note("try_recv");
            Ok(None)
        }
        fn recv_deadline(&mut self, _: SimSpan) -> Result<Option<Incoming>, NetError> {
            self.note("recv_deadline");
            Ok(None)
        }
        fn advance(&mut self, dt: SimSpan) {
            self.note("advance");
            self.clock.fetch_add(dt.as_micros(), Ordering::Relaxed);
        }
        fn now(&self) -> SimInstant {
            // Every reading differs, so spans have distinct edges.
            SimInstant::from_micros(self.clock.fetch_add(1, Ordering::Relaxed) + 1)
        }
        fn metrics(&self) -> NetMetricsSnapshot {
            self.note("metrics");
            NetMetricsSnapshot::default()
        }
        fn metrics_delta(&mut self) -> NetMetricsSnapshot {
            self.note("metrics_delta");
            NetMetricsSnapshot::default()
        }
        fn attach_recorder(&mut self, _: Recorder) {
            self.note("attach_recorder");
        }
        fn remove_peer(&mut self, _: NodeId) {
            self.note("remove_peer");
        }
        fn add_peer(&mut self, _: NodeId) {
            self.note("add_peer");
        }
        fn take_peer_events(&mut self) -> Vec<PeerEvent> {
            self.note("take_peer_events");
            vec![PeerEvent::Down(2)]
        }
        fn broadcast(&mut self, _: &Payload) -> Result<(), NetError> {
            self.note("broadcast");
            Ok(())
        }
    }

    #[test]
    fn every_method_forwards_to_the_same_method_of_the_inner_endpoint() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let sink: SpanSink = Arc::default();
        let mut ep = TimedEndpoint::new(
            Probe { calls: Arc::clone(&calls), clock: Default::default() },
            Arc::clone(&sink),
        );
        let payload = || Payload::data(vec![0u8; 8]).with_wire_len(100);
        assert_eq!(ep.node_id(), 0);
        assert_eq!(ep.num_nodes(), 3);
        ep.send(1, payload()).unwrap();
        ep.send_batch(1, vec![payload(), payload()]).unwrap();
        ep.broadcast(&payload()).unwrap();
        ep.advance(SimSpan::from_micros(50));
        assert_eq!(ep.recv().unwrap().from, 1);
        assert!(ep.try_recv().unwrap().is_none());
        assert!(ep.recv_deadline(SimSpan::from_micros(5)).unwrap().is_none());
        ep.metrics();
        ep.metrics_delta();
        ep.attach_recorder(Recorder::new(0, TraceConfig::off()));
        ep.remove_peer(2);
        ep.add_peer(2);
        assert_eq!(ep.take_peer_events(), vec![PeerEvent::Down(2)]);
        assert_eq!(
            *calls.lock().unwrap(),
            [
                "node_id",
                "send",
                "send_batch",
                "broadcast",
                "advance",
                "recv",
                "try_recv",
                "recv_deadline",
                "metrics",
                "metrics_delta",
                "attach_recorder",
                "remove_peer",
                "add_peer",
                "take_peer_events"
            ],
            "a defaulted method must not decay into the inner endpoint's other methods"
        );

        drop(ep);
        let spans = sink.lock().unwrap();
        let seen: Vec<(Call, u32, u32, u32)> =
            spans.iter().map(|s| (s.call, s.advances, s.msgs, s.bytes)).collect();
        assert_eq!(
            seen,
            [
                (Call::Send, 0, 1, 100),
                (Call::SendBatch, 0, 2, 200),
                (Call::Broadcast, 0, 2, 200),
                (Call::Advance, 0, 0, 0),
                (Call::Recv, 1, 1, 10),
                (Call::TryRecv, 1, 0, 0),
                (Call::RecvDeadline, 1, 0, 0),
            ]
        );
        assert!(spans.iter().all(|s| s.end > s.start));
        assert_eq!(spans[3].end - spans[3].start, 51, "advance spans cover the modelled compute");
    }

    fn span(call: Call, start: u64, end: u64, advances: u32) -> Span {
        Span { call, start, end, advances, msgs: 1, bytes: 64 }
    }

    /// Two ticks of one node: think 10, a recv of 5 inside the application
    /// phase, write 4, then a send of 3 and a recv of 20 while syncing.
    fn two_ticks() -> Vec<Span> {
        let mut spans = Vec::new();
        for k in 0..2u32 {
            let t = u64::from(k) * 100;
            spans.push(span(Call::Advance, t, t + 10, 2 * k));
            spans.push(span(Call::RecvDeadline, t + 12, t + 17, 2 * k + 1));
            spans.push(span(Call::Advance, t + 20, t + 24, 2 * k + 1));
            spans.push(span(Call::SendBatch, t + 30, t + 33, 2 * k + 2));
            spans.push(span(Call::Recv, t + 40, t + 60, 2 * k + 2));
        }
        spans
    }

    #[test]
    fn layer_split_attributes_self_time_and_is_held_to_the_run_time() {
        let split = layer_split(&[two_ticks()], 2).unwrap();
        // Only tick 0 is complete: it runs from 0 to tick 1's first
        // advance at 100.
        assert_eq!(split.ticks, 1);
        assert_eq!(split.tick_us, [100]);
        assert_eq!(split.app_us, 24 - 5);
        assert_eq!(split.send_us, 3);
        assert_eq!(split.blocked_us, 5 + 20);
        assert_eq!(split.sync_self_us, 100 - 24 - 3 - 20);
        assert_eq!((split.send_calls, split.send_msgs), (1, 1));
        // The spans cover 0..160; the node ran for 164 µs.
        assert_eq!(split.covered_us, 160);
        assert!((split.sum_error_pct(164.0) - 100.0 * 4.0 / 164.0).abs() < 1e-9);
    }

    #[test]
    fn layer_split_refuses_a_node_with_the_wrong_number_of_advances() {
        let mut spans = two_ticks();
        spans.retain(|s| !(s.call == Call::Advance && s.advances == 3));
        let err = layer_split(&[spans], 2).unwrap_err();
        assert!(err.contains("3 advance calls, expected 4"), "{err}");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_a_parent_span_per_tick() {
        let text = chrome_trace(&[two_ticks()]);
        let json = sdso_bench::json::Json::parse(&text).unwrap();
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        let named =
            |n: &str| events.iter().filter(|e| e.get("name").unwrap().as_str() == Some(n)).count();
        assert_eq!(named("tick"), 1);
        assert_eq!(named("advance"), 4);
        assert_eq!(named("recv"), 2);
    }
}
