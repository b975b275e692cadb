//! Hierarchical span tracing with Chrome trace-event export.
//!
//! A [`Tracer`] hands out [`SpanHandle`]s forming a tree per trace: every
//! span records its id, parent id, start offset and duration (nanoseconds
//! since the tracer's epoch), free-form key-value attributes, and point
//! events. Finished traces land in a bounded ring buffer and can be
//! rendered as Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`) by [`chrome_trace_json`].
//!
//! Sampling is head-based: request `k` is recorded when `k ≡ 0 (mod N)`
//! (`N` = `sample_every`). Unsampled traces are still *measured* so that a
//! slow one — root duration ≥ `slow_threshold_ns` — is kept anyway
//! (tail-keep for outliers).
//!
//! The overhead contract matches the profiling layer: with the tracer
//! disabled, [`Tracer::start_trace`] is a single relaxed atomic load and
//! every [`SpanHandle`] operation is a no-op on a `None` — **no clock reads
//! on the hot path**.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// One finished span within a trace.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id, unique within the tracer's lifetime. The root's parent is 0.
    pub id: u64,
    pub parent: u64,
    pub name: String,
    /// Logical track ("client", "server", …) — rendered as separate Chrome
    /// trace threads so both sides of a wire round-trip stay visually apart.
    pub track: &'static str,
    /// Nanoseconds since the tracer epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub attrs: Vec<(String, String)>,
    /// Point events: (offset since epoch, name).
    pub events: Vec<(u64, String)>,
}

/// One finished trace: a root span plus all of its descendants.
#[derive(Debug, Clone)]
pub struct Trace {
    pub id: u64,
    pub name: String,
    /// Whether head-based sampling picked this trace (a kept-because-slow
    /// trace has `sampled == false`).
    pub sampled: bool,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub spans: Vec<SpanRecord>,
}

/// Listing row for a stored trace (`/traces`, `:trace`).
#[derive(Debug, Clone)]
pub struct TraceSummary {
    pub id: u64,
    pub name: String,
    pub sampled: bool,
    pub dur_ns: u64,
    pub spans: usize,
}

/// In-flight trace buffer shared by all live spans of one trace.
struct TraceBuf {
    tracer: Arc<TracerInner>,
    id: u64,
    name: String,
    sampled: bool,
    start_ns: u64,
    spans: Mutex<Vec<SpanRecord>>,
}

struct TracerInner {
    enabled: AtomicBool,
    sample_every: AtomicU64,
    slow_ns: AtomicU64,
    /// Trace sequence number, drives 1-in-N sampling.
    seq: AtomicU64,
    /// Id allocator shared by traces and spans.
    next_id: AtomicU64,
    epoch: Instant,
    store: Mutex<TraceRing>,
}

struct TraceRing {
    cap: usize,
    traces: VecDeque<Trace>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The tracing subsystem: cheap to clone, safe to share across threads.
#[derive(Clone)]
pub struct Tracer(Arc<TracerInner>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer keeping the last 64 traces, sampling 1-in-1, with
    /// a 10ms always-keep-slow threshold.
    pub fn new() -> Tracer {
        Tracer::with_capacity(64)
    }

    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer(Arc::new(TracerInner {
            enabled: AtomicBool::new(false),
            sample_every: AtomicU64::new(1),
            slow_ns: AtomicU64::new(10_000_000),
            seq: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            store: Mutex::new(TraceRing { cap: cap.max(1), traces: VecDeque::new() }),
        }))
    }

    pub fn enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    pub fn sample_every(&self) -> u64 {
        self.0.sample_every.load(Ordering::Relaxed)
    }

    /// Head-based sampling rate: keep 1 trace in every `n` (0 is treated
    /// as 1, i.e. keep everything).
    pub fn set_sample_every(&self, n: u64) {
        self.0.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    pub fn slow_threshold_ns(&self) -> u64 {
        self.0.slow_ns.load(Ordering::Relaxed)
    }

    /// A trace whose root lasts at least this long is kept even when the
    /// head-based sampler skipped it.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.0.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// Start a new trace. When the tracer is disabled this is one atomic
    /// load and the returned handle is inert — no allocation, no clock.
    pub fn start_trace(&self, name: &str) -> SpanHandle {
        self.start_trace_on(name, TRACK_CLIENT)
    }

    /// [`Tracer::start_trace`] with an explicit root track (a server uses
    /// [`TRACK_SERVER`] so its request traces render on the server thread).
    pub fn start_trace_on(&self, name: &str, track: &'static str) -> SpanHandle {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return SpanHandle(None);
        }
        let n = self.0.sample_every.load(Ordering::Relaxed).max(1);
        let seq = self.0.seq.fetch_add(1, Ordering::Relaxed);
        let sampled = seq.is_multiple_of(n);
        let trace_id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        let span_id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.0.epoch.elapsed().as_nanos() as u64;
        let buf = Arc::new(TraceBuf {
            tracer: self.0.clone(),
            id: trace_id,
            name: name.to_string(),
            sampled,
            start_ns,
            spans: Mutex::new(Vec::new()),
        });
        SpanHandle(Some(Box::new(ActiveSpan {
            buf,
            id: span_id,
            parent: 0,
            name: name.to_string(),
            track,
            start_ns,
            root: true,
            state: Mutex::new(SpanState::default()),
        })))
    }

    /// Number of traces currently stored.
    pub fn len(&self) -> usize {
        lock(&self.0.store).traces.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        lock(&self.0.store).traces.clear();
    }

    /// Stored traces, oldest first.
    pub fn summaries(&self) -> Vec<TraceSummary> {
        lock(&self.0.store)
            .traces
            .iter()
            .map(|t| TraceSummary {
                id: t.id,
                name: t.name.clone(),
                sampled: t.sampled,
                dur_ns: t.dur_ns,
                spans: t.spans.len(),
            })
            .collect()
    }

    /// Id of the most recently finished stored trace.
    pub fn latest_id(&self) -> Option<u64> {
        lock(&self.0.store).traces.back().map(|t| t.id)
    }

    pub fn get(&self, id: u64) -> Option<Trace> {
        lock(&self.0.store).traces.iter().find(|t| t.id == id).cloned()
    }

    /// Chrome trace-event JSON for a stored trace.
    pub fn export_chrome(&self, id: u64) -> Option<String> {
        self.get(id).map(|t| chrome_trace_json(&t).to_string())
    }

    /// Chrome trace-event JSON for the most recent stored trace.
    pub fn export_latest_chrome(&self) -> Option<String> {
        let id = self.latest_id()?;
        self.export_chrome(id)
    }

    fn finish_trace(inner: &TracerInner, buf: &TraceBuf, end_ns: u64, spans: Vec<SpanRecord>) {
        let dur_ns = end_ns.saturating_sub(buf.start_ns);
        let keep = buf.sampled || dur_ns >= inner.slow_ns.load(Ordering::Relaxed);
        if !keep {
            return;
        }
        let mut ring = lock(&inner.store);
        let trace =
            Trace { id: buf.id, name: buf.name.clone(), sampled: buf.sampled, start_ns: buf.start_ns, dur_ns, spans };
        // The ring is keyed by trace id: if this id is already stored
        // (a trace reported through more than one keep path, e.g. both
        // sampled and slow), replace it in place instead of duplicating.
        if let Some(existing) = ring.traces.iter_mut().find(|t| t.id == buf.id) {
            *existing = trace;
            return;
        }
        if ring.traces.len() == ring.cap {
            ring.traces.pop_front();
        }
        ring.traces.push_back(trace);
    }
}

/// Track names used by the pipeline.
pub const TRACK_CLIENT: &str = "client";
pub const TRACK_SERVER: &str = "server";

#[derive(Debug, Default)]
struct SpanState {
    attrs: Vec<(String, String)>,
    events: Vec<(u64, String)>,
}

struct ActiveSpan {
    buf: Arc<TraceBuf>,
    id: u64,
    parent: u64,
    name: String,
    track: &'static str,
    start_ns: u64,
    root: bool,
    state: Mutex<SpanState>,
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        let end_ns = self.buf.tracer.epoch.elapsed().as_nanos() as u64;
        let state = std::mem::take(&mut *lock(&self.state));
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            track: self.track,
            start_ns: self.start_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
            attrs: state.attrs,
            events: state.events,
        };
        {
            lock(&self.buf.spans).push(rec);
        }
        if self.root {
            let spans = std::mem::take(&mut *lock(&self.buf.spans));
            Tracer::finish_trace(&self.buf.tracer, &self.buf, end_ns, spans);
        }
    }
}

/// A handle on a live span. Dropping it finishes the span; an inactive
/// handle (disabled tracing, unsampled path) makes every method a no-op.
pub struct SpanHandle(Option<Box<ActiveSpan>>);

impl SpanHandle {
    /// The inert handle: every operation on it is free.
    pub fn none() -> SpanHandle {
        SpanHandle(None)
    }

    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Trace id this span belongs to, when active.
    pub fn trace_id(&self) -> Option<u64> {
        self.0.as_ref().map(|s| s.buf.id)
    }

    /// Start a child span on the same track. The name is only formatted
    /// when this span is active, so a `format_args!` name costs nothing
    /// with tracing off.
    pub fn child(&self, name: impl std::fmt::Display) -> SpanHandle {
        match &self.0 {
            None => SpanHandle(None),
            Some(s) => {
                let id = s.buf.tracer.next_id.fetch_add(1, Ordering::Relaxed);
                let start_ns = s.buf.tracer.epoch.elapsed().as_nanos() as u64;
                SpanHandle(Some(Box::new(ActiveSpan {
                    buf: s.buf.clone(),
                    id,
                    parent: s.id,
                    name: name.to_string(),
                    track: s.track,
                    start_ns,
                    root: false,
                    state: Mutex::new(SpanState::default()),
                })))
            }
        }
    }

    /// Attach a key-value attribute. The value is only formatted when the
    /// span is active.
    pub fn attr(&self, key: &str, value: impl std::fmt::Display) {
        if let Some(s) = &self.0 {
            lock(&s.state).attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Record a point event at the current time.
    pub fn event(&self, name: &str) {
        if let Some(s) = &self.0 {
            let ts = s.buf.tracer.epoch.elapsed().as_nanos() as u64;
            lock(&s.state).events.push((ts, name.to_string()));
        }
    }

    /// Record a completed child span that *ends now* and lasted `dur_ns`.
    ///
    /// Used for operators whose work is interleaved across a loop (e.g. the
    /// accumulated forward-extend time of an anchored evaluation): the
    /// duration is exact, the placement approximate. Attribute values are
    /// only formatted when the span is active.
    pub fn span_dur(&self, name: &str, dur_ns: u64, attrs: &[(&str, &dyn std::fmt::Display)]) {
        if let Some(s) = &self.0 {
            let end_ns = s.buf.tracer.epoch.elapsed().as_nanos() as u64;
            let id = s.buf.tracer.next_id.fetch_add(1, Ordering::Relaxed);
            lock(&s.buf.spans).push(SpanRecord {
                id,
                parent: s.id,
                name: name.to_string(),
                track: s.track,
                start_ns: end_ns.saturating_sub(dur_ns),
                dur_ns,
                attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
                events: Vec::new(),
            });
        }
    }

    /// Record a finished child span reported by a remote peer, placed
    /// `offset_ns` after this span's start on the given track. This is how
    /// a Gremlin client materializes the server's per-request timings into
    /// its own trace (correlated by request id in `attrs`).
    pub fn remote_span(
        &self,
        name: &str,
        offset_ns: u64,
        dur_ns: u64,
        track: &'static str,
        attrs: Vec<(String, String)>,
    ) {
        if let Some(s) = &self.0 {
            let id = s.buf.tracer.next_id.fetch_add(1, Ordering::Relaxed);
            lock(&s.buf.spans).push(SpanRecord {
                id,
                parent: s.id,
                name: name.to_string(),
                track,
                start_ns: s.start_ns.saturating_add(offset_ns),
                dur_ns,
                attrs,
                events: Vec::new(),
            });
        }
    }

    /// Finish the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

fn tid_of(track: &str) -> u32 {
    match track {
        TRACK_CLIENT => 1,
        TRACK_SERVER => 2,
        _ => 3,
    }
}

/// Render a trace as Chrome trace-event JSON (the `{"traceEvents": […]}`
/// object format). Spans become `"ph": "X"` complete events with
/// microsecond timestamps relative to the trace start; events become
/// thread-scoped `"ph": "i"` instants; tracks become named threads.
pub fn chrome_trace_json(trace: &Trace) -> Json {
    let meta = |tid: u32, kind: &str, name: &str| {
        Json::obj([
            ("name", kind.into()),
            ("ph", "M".into()),
            ("pid", 1u32.into()),
            ("tid", tid.into()),
            ("args", Json::obj([("name", name.into())])),
        ])
    };
    let mut events = vec![meta(0, "process_name", "nepal")];
    let mut tracks: Vec<&str> = trace.spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    events.extend(tracks.iter().map(|t| meta(tid_of(t), "thread_name", t)));
    let us = |ns: u64| Json::Num(ns.saturating_sub(trace.start_ns) as f64 / 1000.0);
    let mut spans: Vec<&SpanRecord> = trace.spans.iter().collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    for s in &spans {
        let ids = [("span_id", s.id.into()), ("parent_id", s.parent.into())];
        let args = Json::obj(ids.into_iter().chain(s.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str().into()))));
        events.push(Json::obj([
            ("name", s.name.as_str().into()),
            ("ph", "X".into()),
            ("ts", us(s.start_ns)),
            ("dur", Json::Num(s.dur_ns as f64 / 1000.0)),
            ("pid", 1u32.into()),
            ("tid", tid_of(s.track).into()),
            ("args", args),
        ]));
        for (ts, name) in &s.events {
            events.push(Json::obj([
                ("name", name.as_str().into()),
                ("ph", "i".into()),
                ("s", "t".into()),
                ("ts", us(*ts)),
                ("pid", 1u32.into()),
                ("tid", tid_of(s.track).into()),
                ("args", Json::obj([("span_id", s.id.into())])),
            ]));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ms".into()),
        (
            "otherData",
            Json::obj([
                ("trace_id", trace.id.into()),
                ("trace_name", trace.name.as_str().into()),
                ("dur_ns", trace.dur_ns.into()),
            ]),
        ),
    ])
}

/// JSON listing of stored traces (the `/traces` endpoint body).
pub fn summaries_json(summaries: &[TraceSummary]) -> Json {
    Json::Arr(
        summaries
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", s.id.into()),
                    ("name", s.name.as_str().into()),
                    ("sampled", s.sampled.into()),
                    ("dur_ns", s.dur_ns.into()),
                    ("spans", s.spans.into()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_tracer() -> Tracer {
        let t = Tracer::new();
        t.set_enabled(true);
        t.set_slow_threshold_ns(u64::MAX);
        t
    }

    #[test]
    fn disabled_tracer_hands_out_inert_spans() {
        let t = Tracer::new();
        let span = t.start_trace("query");
        assert!(!span.is_active());
        let child = span.child("plan");
        assert!(!child.is_active());
        child.attr("k", "v");
        child.event("e");
        drop(child);
        drop(span);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_nest_and_record_parent_ids() {
        let t = enabled_tracer();
        let root = t.start_trace("query");
        root.attr("text", "Retrieve P …");
        {
            let plan = root.child("plan");
            plan.event("anchor-chosen");
            let inner = plan.child("anchor-select");
            inner.attr("candidates", 3);
            drop(inner);
            drop(plan);
        }
        drop(root);
        assert_eq!(t.len(), 1);
        let tr = t.get(t.latest_id().unwrap()).unwrap();
        assert_eq!(tr.name, "query");
        assert_eq!(tr.spans.len(), 3);
        let root_rec = tr.spans.iter().find(|s| s.name == "query").unwrap();
        let plan_rec = tr.spans.iter().find(|s| s.name == "plan").unwrap();
        let inner_rec = tr.spans.iter().find(|s| s.name == "anchor-select").unwrap();
        assert_eq!(root_rec.parent, 0);
        assert_eq!(plan_rec.parent, root_rec.id);
        assert_eq!(inner_rec.parent, plan_rec.id);
        assert_eq!(plan_rec.events.len(), 1);
        assert_eq!(inner_rec.attrs, vec![("candidates".to_string(), "3".to_string())]);
        // Children start no earlier than parents and are contained in the root.
        assert!(plan_rec.start_ns >= root_rec.start_ns);
        assert!(plan_rec.start_ns + plan_rec.dur_ns <= root_rec.start_ns + root_rec.dur_ns);
    }

    #[test]
    fn sampling_one_in_n_keeps_exactly_the_expected_requests() {
        let t = enabled_tracer();
        t.set_sample_every(3);
        for i in 0..9 {
            let span = t.start_trace(&format!("q{i}"));
            drop(span);
        }
        // Requests 0, 3, 6 are sampled: exactly 3 kept, deterministically.
        assert_eq!(t.len(), 3);
        let names: Vec<String> = t.summaries().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["q0", "q3", "q6"]);
        assert!(t.summaries().iter().all(|s| s.sampled));
    }

    #[test]
    fn slow_traces_are_kept_despite_sampling() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.set_sample_every(1_000_000);
        t.set_slow_threshold_ns(0); // everything counts as slow
        drop(t.start_trace("q0")); // sampled (seq 0)
        drop(t.start_trace("q1")); // unsampled but slow
        assert_eq!(t.len(), 2);
        assert!(!t.get(t.latest_id().unwrap()).unwrap().sampled);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let t = Tracer::with_capacity(4);
        t.set_enabled(true);
        t.set_slow_threshold_ns(u64::MAX);
        for i in 0..10 {
            drop(t.start_trace(&format!("q{i}")));
        }
        assert_eq!(t.len(), 4);
        let names: Vec<String> = t.summaries().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["q6", "q7", "q8", "q9"]);
    }

    #[test]
    fn trace_ring_keeps_one_entry_per_trace_id() {
        let t = enabled_tracer();
        let root = t.start_trace("q");
        let id = root.trace_id().unwrap();
        drop(root);
        assert_eq!(t.len(), 1);
        // A second report of the same trace id (e.g. the sampled and the
        // slow keep-paths both firing) replaces the stored entry in place.
        let stored = t.get(id).unwrap();
        let buf = TraceBuf {
            tracer: t.0.clone(),
            id,
            name: "q".into(),
            sampled: false,
            start_ns: stored.start_ns,
            spans: Mutex::new(Vec::new()),
        };
        t.set_slow_threshold_ns(0); // second report arrives via the slow keep-path
        Tracer::finish_trace(&t.0, &buf, stored.start_ns + 999, Vec::new());
        assert_eq!(t.len(), 1, "no duplicate entry for the same trace id");
        assert_eq!(t.get(id).unwrap().dur_ns, 999, "replaced in place");
    }

    #[test]
    fn remote_and_duration_spans_attach_to_the_trace() {
        let t = enabled_tracer();
        let root = t.start_trace("round-trip");
        root.remote_span("evaluate", 10, 500, TRACK_SERVER, vec![("requestId".into(), "req-1".into())]);
        root.span_dur("Extend(fwd)", 250, &[("rows", &7)]);
        drop(root);
        let tr = t.get(t.latest_id().unwrap()).unwrap();
        assert_eq!(tr.spans.len(), 3);
        let remote = tr.spans.iter().find(|s| s.name == "evaluate").unwrap();
        assert_eq!(remote.track, TRACK_SERVER);
        assert_eq!(remote.dur_ns, 500);
        assert_eq!(remote.attrs[0].1, "req-1");
        let op = tr.spans.iter().find(|s| s.name == "Extend(fwd)").unwrap();
        assert_eq!(op.dur_ns, 250);
    }

    #[test]
    fn chrome_export_has_complete_events_and_tracks() {
        let t = enabled_tracer();
        let root = t.start_trace("query");
        root.remote_span("decode", 5, 100, TRACK_SERVER, vec![]);
        let child = root.child("plan");
        child.event("bound");
        drop(child);
        drop(root);
        let doc = crate::json::parse_json(&t.export_latest_chrome().unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
        assert!(events.iter().any(|e| field(e, "ph").as_deref() == Some("X")));
        assert!(events.iter().any(|e| field(e, "ph").as_deref() == Some("i")));
        let threads: Vec<String> = events.iter().filter_map(|e| e.get("args").and_then(|a| field(a, "name"))).collect();
        assert!(threads.iter().any(|n| n == "server"), "{threads:?}");
        assert!(threads.iter().any(|n| n == "client"), "{threads:?}");
        assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        let t = enabled_tracer();
        let name = "a\"b\\c\nd\u{1}";
        let root = t.start_trace(name);
        root.attr("k\t", "v\"");
        drop(root);
        let text = t.export_latest_chrome().unwrap();
        assert!(text.contains(r#""a\"b\\c\nd\u0001""#), "{text}");
        let doc = crate::json::parse_json(&text).unwrap();
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("trace_name").and_then(Json::as_str), Some(name));
        let root_ev = doc.get("traceEvents").and_then(Json::as_arr).unwrap().last().unwrap();
        assert_eq!(root_ev.get("args").and_then(|a| a.get("k\t")).and_then(Json::as_str), Some("v\""));
    }
}
