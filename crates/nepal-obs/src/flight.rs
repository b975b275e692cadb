//! Black-box flight recorder: per-thread ring buffers of compact wide
//! events, written lock-free on the hot path and stitched into one
//! chronological stream on read.
//!
//! Every interesting moment in the serving path — a query finishing, an
//! admission decision, a deadline trip, a journal torn-tail recovery, a
//! pool worker parking, an alert changing state — is a [`WideEvent`]: one
//! cache line of atomics (sequence, timestamp, kind, three payload words,
//! sixteen bytes of inline label). Each thread writes into its own
//! fixed-size ring, so the hot path is a handful of relaxed stores plus
//! two release stores and never takes a lock or allocates. Readers stitch
//! all rings into one stream ordered by the global sequence counter.
//!
//! Per-slot consistency uses a seqlock-style stamp: the writer clears the
//! stamp, publishes the payload, then stores the event's (unique, nonzero)
//! sequence number as the stamp with release ordering. A reader accepts a
//! slot only when the stamp reads the same nonzero sequence before and
//! after copying the payload (with an acquire fence in between), so a
//! wrap-around overwrite racing the read is detected and the slot skipped
//! rather than surfaced torn. Sequence numbers are process-unique, so the
//! double-read can never ABA.
//!
//! The recorder is **off by default**: a disabled [`emit`] is one relaxed
//! atomic load. [`recorder`] is the process-global instance used by the
//! emit points threaded through the engine, server, pool, and journal;
//! standalone [`FlightRecorder`] instances exist for tests.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

use crate::json::Json;

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_EVENTS: usize = 4096;

/// What a wide event records. Encoded as one byte in the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A query entered the engine. `a` = fingerprint.
    QueryStart = 1,
    /// A query completed. `a` = fingerprint, `b` = latency µs, `c` = rows;
    /// label = chosen anchor of the query's last planned variable.
    QueryEnd = 2,
    /// A query failed. `a` = fingerprint, `b` = latency µs; label = error kind.
    QueryError = 3,
    /// The server admitted a connection. `a` = queue depth after push.
    AdmissionAccept = 4,
    /// The server shed a connection. `a` = queue depth, `b` = retry-after ms.
    AdmissionShed = 5,
    /// A deadline tripped mid-evaluation. `a` = fingerprint (0 when
    /// unknown); label = scope (`engine` / `serve`).
    DeadlineTrip = 6,
    /// An explicit cancellation tripped. label = scope.
    CancelTrip = 7,
    /// A store mutation (the journal's write stream). `a` = uid, `b` =
    /// class id; label = op (`insert_node`, `update`, …).
    JournalMutation = 8,
    /// A torn trailing record was dropped during recovery. `a` = line
    /// number, `b` = dropped lines; label = `journal` or `qlog`.
    TornTail = 9,
    /// A pool worker finished (parked): `a` = jobs run, `b` = steals,
    /// `c` = busy µs.
    PoolPark = 10,
    /// An SLO alert changed state. `a` = from, `b` = to (state codes);
    /// label = rule name.
    AlertTransition = 11,
    /// Server drain began. `a` = inflight, `b` = queued at drain start.
    DrainStart = 12,
    /// Server drain finished. `a` = clean (0/1), `b` = shed queued,
    /// `c` = waited ms.
    DrainEnd = 13,
    /// A diagnostics snapshot was written. label = trigger.
    Snapshot = 14,
    /// A panic unwound through the panic hook. label = thread name.
    Panic = 15,
    /// A served request completed. `a` = status code, `b` = latency µs.
    RequestDone = 16,
}

impl FlightKind {
    fn from_u8(v: u8) -> Option<FlightKind> {
        Some(match v {
            1 => FlightKind::QueryStart,
            2 => FlightKind::QueryEnd,
            3 => FlightKind::QueryError,
            4 => FlightKind::AdmissionAccept,
            5 => FlightKind::AdmissionShed,
            6 => FlightKind::DeadlineTrip,
            7 => FlightKind::CancelTrip,
            8 => FlightKind::JournalMutation,
            9 => FlightKind::TornTail,
            10 => FlightKind::PoolPark,
            11 => FlightKind::AlertTransition,
            12 => FlightKind::DrainStart,
            13 => FlightKind::DrainEnd,
            14 => FlightKind::Snapshot,
            15 => FlightKind::Panic,
            16 => FlightKind::RequestDone,
            _ => return None,
        })
    }

    /// Stable snake_case name used in JSON and on the dashboard.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::QueryStart => "query_start",
            FlightKind::QueryEnd => "query_end",
            FlightKind::QueryError => "query_error",
            FlightKind::AdmissionAccept => "admission_accept",
            FlightKind::AdmissionShed => "admission_shed",
            FlightKind::DeadlineTrip => "deadline_trip",
            FlightKind::CancelTrip => "cancel_trip",
            FlightKind::JournalMutation => "journal_mutation",
            FlightKind::TornTail => "torn_tail",
            FlightKind::PoolPark => "pool_park",
            FlightKind::AlertTransition => "alert_transition",
            FlightKind::DrainStart => "drain_start",
            FlightKind::DrainEnd => "drain_end",
            FlightKind::Snapshot => "snapshot",
            FlightKind::Panic => "panic",
            FlightKind::RequestDone => "request_done",
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideEvent {
    /// Process-unique, monotonically assigned sequence number — the
    /// stitch order across threads.
    pub seq: u64,
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    /// Ring ordinal (registration order) of the writing thread.
    pub thread: u32,
    pub kind: FlightKind,
    pub a: u64,
    pub b: u64,
    pub c: u64,
    /// Inline label, truncated to 16 bytes at write time.
    pub label: String,
}

impl WideEvent {
    /// Compact human-readable payload rendering for the dashboard.
    pub fn describe(&self) -> String {
        match self.kind {
            FlightKind::QueryStart => format!("fp={:016x}", self.a),
            FlightKind::QueryEnd => {
                format!("fp={:016x} lat={}µs rows={} anchor={}", self.a, self.b, self.c, self.label)
            }
            FlightKind::QueryError => format!("fp={:016x} lat={}µs err={}", self.a, self.b, self.label),
            FlightKind::AdmissionAccept => format!("queue={}", self.a),
            FlightKind::AdmissionShed => format!("queue={} retry_after={}ms", self.a, self.b),
            FlightKind::DeadlineTrip => format!("fp={:016x} scope={}", self.a, self.label),
            FlightKind::CancelTrip => format!("scope={}", self.label),
            FlightKind::JournalMutation => format!("op={} uid={} class={}", self.label, self.a, self.b),
            FlightKind::TornTail => format!("source={} line={} dropped={}", self.label, self.a, self.b),
            FlightKind::PoolPark => format!("jobs={} steals={} busy={}µs", self.a, self.b, self.c),
            FlightKind::AlertTransition => format!("rule={} {}→{}", self.label, state_name(self.a), state_name(self.b)),
            FlightKind::DrainStart => format!("inflight={} queued={}", self.a, self.b),
            FlightKind::DrainEnd => {
                format!("clean={} shed_queued={} waited={}ms", self.a != 0, self.b, self.c)
            }
            FlightKind::Snapshot => format!("trigger={}", self.label),
            FlightKind::Panic => format!("thread={}", self.label),
            FlightKind::RequestDone => format!("status={} lat={}µs", self.a, self.b),
        }
    }

    /// One event as a JSON object. Kinds whose `a` is a query fingerprint
    /// carry it as `"fp"` (16 hex digits, as in qlog and `/top.json`) in
    /// place of `a`, so the 64-bit value never passes through an `f64`.
    pub fn to_json(&self, epoch_unix_ms: u64) -> Json {
        let a = match self.kind {
            FlightKind::QueryStart | FlightKind::QueryEnd | FlightKind::QueryError | FlightKind::DeadlineTrip => {
                ("fp", Json::hex(self.a))
            }
            _ => ("a", self.a.into()),
        };
        Json::obj([
            ("seq", self.seq.into()),
            ("unix_ms", (epoch_unix_ms + self.ts_us / 1000).into()),
            ("ts_us", self.ts_us.into()),
            ("thread", self.thread.into()),
            ("kind", self.kind.name().into()),
            a,
            ("b", self.b.into()),
            ("c", self.c.into()),
            ("label", self.label.as_str().into()),
            ("detail", self.describe().into()),
        ])
    }
}

fn state_name(code: u64) -> &'static str {
    // Mirrors the SLO alert state machine codes (see `slo::AlertState`).
    match code {
        0 => "ok",
        1 => "pending",
        2 => "firing",
        3 => "resolved",
        _ => "?",
    }
}

/// Slot layout: 8 atomics = 64 bytes = one cache line.
/// `[stamp, ts_us, kind, a, b, c, label_lo, label_hi]`.
const SLOT_WORDS: usize = 8;

struct Ring {
    ordinal: u32,
    /// Name of the (latest) owning thread — rings are recycled when a
    /// thread exits, so short-lived threads don't grow the registry.
    name: Mutex<String>,
    /// Total events ever written to this ring (tail accounting only; the
    /// per-slot stamps carry the consistency protocol).
    written: AtomicU64,
    slots: Vec<AtomicU64>,
    capacity: usize,
}

impl Ring {
    fn new(ordinal: u32, name: String, capacity: usize) -> Ring {
        let capacity = capacity.max(8);
        let mut slots = Vec::with_capacity(capacity * SLOT_WORDS);
        for _ in 0..capacity * SLOT_WORDS {
            slots.push(AtomicU64::new(0));
        }
        Ring { ordinal, name: Mutex::new(name), written: AtomicU64::new(0), slots, capacity }
    }

    #[allow(clippy::too_many_arguments)]
    fn write(&self, seq: u64, ts_us: u64, kind: FlightKind, a: u64, b: u64, c: u64, label: &str) {
        let n = self.written.load(Ordering::Relaxed);
        let base = (n as usize % self.capacity) * SLOT_WORDS;
        let s = &self.slots[base..base + SLOT_WORDS];
        // Seqlock write: invalidate, publish payload, stamp with the
        // event's unique sequence. The release fence keeps the payload
        // stores from becoming visible before the invalidation, so a
        // reader that observes new payload under an old stamp re-reads
        // the stamp and rejects the slot.
        s[0].store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        s[1].store(ts_us, Ordering::Relaxed);
        s[2].store(kind as u8 as u64, Ordering::Relaxed);
        s[3].store(a, Ordering::Relaxed);
        s[4].store(b, Ordering::Relaxed);
        s[5].store(c, Ordering::Relaxed);
        let (lo, hi) = encode_label(label);
        s[6].store(lo, Ordering::Relaxed);
        s[7].store(hi, Ordering::Relaxed);
        s[0].store(seq, Ordering::Release);
        self.written.store(n + 1, Ordering::Relaxed);
    }

    fn read_slot(&self, idx: usize) -> Option<WideEvent> {
        let base = idx * SLOT_WORDS;
        let s = &self.slots[base..base + SLOT_WORDS];
        let s1 = s[0].load(Ordering::Acquire);
        if s1 == 0 {
            return None;
        }
        let ts_us = s[1].load(Ordering::Relaxed);
        let kind = s[2].load(Ordering::Relaxed);
        let a = s[3].load(Ordering::Relaxed);
        let b = s[4].load(Ordering::Relaxed);
        let c = s[5].load(Ordering::Relaxed);
        let lo = s[6].load(Ordering::Relaxed);
        let hi = s[7].load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        let s2 = s[0].load(Ordering::Relaxed);
        if s1 != s2 {
            // Overwritten mid-read: skip rather than surface a torn event.
            return None;
        }
        let kind = FlightKind::from_u8(kind as u8)?;
        Some(WideEvent { seq: s1, ts_us, thread: self.ordinal, kind, a, b, c, label: decode_label(lo, hi) })
    }
}

fn encode_label(label: &str) -> (u64, u64) {
    let mut bytes = [0u8; 16];
    let src = label.as_bytes();
    let n = src.len().min(16);
    bytes[..n].copy_from_slice(&src[..n]);
    (u64::from_le_bytes(bytes[..8].try_into().unwrap()), u64::from_le_bytes(bytes[8..].try_into().unwrap()))
}

fn decode_label(lo: u64, hi: u64) -> String {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&lo.to_le_bytes());
    bytes[8..].copy_from_slice(&hi.to_le_bytes());
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(16);
    String::from_utf8_lossy(&bytes[..end]).into_owned()
}

struct Inner {
    enabled: AtomicBool,
    /// Next sequence number; starts at 1 so 0 can mean "empty slot".
    seq: AtomicU64,
    /// Per-ring capacity applied to rings registered from now on.
    capacity: AtomicUsize,
    epoch: Instant,
    epoch_unix_ms: u64,
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Rings whose owning thread has exited, available for reuse — keeps
    /// the registry bounded by peak thread count, not thread churn.
    free: Mutex<Vec<Arc<Ring>>>,
}

/// One ring's registration info plus write/drop counters.
#[derive(Debug, Clone)]
pub struct RingStats {
    pub thread: u32,
    pub name: String,
    pub capacity: usize,
    pub written: u64,
    /// Events pushed out of the ring by wrap-around.
    pub dropped: u64,
}

/// Recorder-wide counters for `/flight` and the snapshot bundle.
#[derive(Debug, Clone)]
pub struct FlightStats {
    pub enabled: bool,
    pub rings: Vec<RingStats>,
    pub total_written: u64,
    pub total_dropped: u64,
}

/// The flight recorder: a registry of per-thread rings sharing one
/// sequence counter and epoch. Cheap to clone (all state is shared).
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

/// A registered per-thread writer. Cheap to clone; writes are only safe
/// from one thread at a time per handle's ring (the registration model —
/// one handle per thread — guarantees this in practice; concurrent use
/// degrades to skipped slots, never torn reads).
#[derive(Clone)]
pub struct FlightHandle {
    inner: Arc<Inner>,
    ring: Arc<Ring>,
}

impl FlightHandle {
    /// Record one wide event. Lock-free: a seq fetch_add, one clock read,
    /// and nine atomic stores into this thread's own ring.
    pub fn emit(&self, kind: FlightKind, a: u64, b: u64, c: u64, label: &str) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let ts_us = self.inner.epoch.elapsed().as_micros() as u64;
        self.ring.write(seq, ts_us, kind, a, b, c, label);
    }

    /// Return the ring to the recorder's free list for reuse by a future
    /// thread. Recorded events stay readable until overwritten.
    fn release(&self) {
        self.inner.free.lock().unwrap_or_else(|e| e.into_inner()).push(self.ring.clone());
    }
}

impl FlightRecorder {
    /// A standalone recorder (enabled) with the given per-thread ring
    /// capacity — for tests. The process-global instance is [`recorder`].
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                seq: AtomicU64::new(1),
                capacity: AtomicUsize::new(capacity.max(8)),
                epoch: Instant::now(),
                epoch_unix_ms: unix_ms(),
                rings: Mutex::new(Vec::new()),
                free: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Register a ring for the calling thread and return its writer.
    /// Reuses a released ring when one is available.
    pub fn handle(&self, name: &str) -> FlightHandle {
        if let Some(ring) = self.inner.free.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            *ring.name.lock().unwrap_or_else(|e| e.into_inner()) = name.to_string();
            return FlightHandle { inner: self.inner.clone(), ring };
        }
        let mut rings = self.inner.rings.lock().unwrap_or_else(|e| e.into_inner());
        let ordinal = rings.len() as u32;
        let capacity = self.inner.capacity.load(Ordering::Relaxed);
        let ring = Arc::new(Ring::new(ordinal, name.to_string(), capacity));
        rings.push(ring.clone());
        FlightHandle { inner: self.inner.clone(), ring }
    }

    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Set the capacity used by rings registered *from now on* (existing
    /// rings keep theirs) — call before the first emit on each thread.
    pub fn set_capacity(&self, events: usize) {
        self.inner.capacity.store(events.max(8), Ordering::Relaxed);
    }

    /// Milliseconds of UNIX time at the recorder's epoch (ts_us = 0).
    pub fn epoch_unix_ms(&self) -> u64 {
        self.inner.epoch_unix_ms
    }

    /// Microseconds elapsed since the recorder's epoch.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Stitch every ring into one stream ordered by sequence number.
    pub fn events(&self) -> Vec<WideEvent> {
        let rings: Vec<Arc<Ring>> =
            self.inner.rings.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect();
        let mut out = Vec::new();
        for ring in &rings {
            for idx in 0..ring.capacity {
                if let Some(e) = ring.read_slot(idx) {
                    out.push(e);
                }
            }
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// The stitched stream restricted to the trailing `window`.
    pub fn events_since(&self, window: Duration) -> Vec<WideEvent> {
        let now = self.now_us();
        let cutoff = now.saturating_sub(window.as_micros() as u64);
        let mut v = self.events();
        v.retain(|e| e.ts_us >= cutoff);
        v
    }

    pub fn stats(&self) -> FlightStats {
        let rings = self.inner.rings.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(rings.len());
        let (mut total_written, mut total_dropped) = (0u64, 0u64);
        for r in rings.iter() {
            let written = r.written.load(Ordering::Relaxed);
            let dropped = written.saturating_sub(r.capacity as u64);
            total_written += written;
            total_dropped += dropped;
            out.push(RingStats {
                thread: r.ordinal,
                name: r.name.lock().unwrap_or_else(|e| e.into_inner()).clone(),
                capacity: r.capacity,
                written,
                dropped,
            });
        }
        FlightStats { enabled: self.is_enabled(), rings: out, total_written, total_dropped }
    }

    /// The `/flight` document: recorder stats plus the stitched stream
    /// (trailing `window`, newest last), capped at `limit` events.
    pub fn render_json(&self, window: Duration, limit: usize) -> Json {
        let stats = self.stats();
        let mut events = self.events_since(window);
        let skipped = events.len().saturating_sub(limit);
        events.drain(..skipped);
        let threads = stats
            .rings
            .iter()
            .map(|r| {
                Json::obj([
                    ("thread", r.thread.into()),
                    ("name", r.name.as_str().into()),
                    ("capacity", r.capacity.into()),
                    ("written", r.written.into()),
                    ("dropped", r.dropped.into()),
                ])
            })
            .collect();
        let epoch = self.epoch_unix_ms();
        Json::obj([
            ("enabled", stats.enabled.into()),
            ("epoch_unix_ms", epoch.into()),
            ("window_secs", window.as_secs().into()),
            ("total_written", stats.total_written.into()),
            ("total_dropped", stats.total_dropped.into()),
            ("omitted", skipped.into()),
            ("threads", Json::Arr(threads)),
            ("events", Json::Arr(events.iter().map(|e| e.to_json(epoch)).collect())),
        ])
    }
}

fn unix_ms() -> u64 {
    SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

// --- process-global recorder -------------------------------------------------

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-global recorder used by all built-in emit points.
/// Created disabled; `nepal-serve` (or a test) switches it on.
pub fn recorder() -> &'static FlightRecorder {
    GLOBAL.get_or_init(|| {
        let r = FlightRecorder::new(DEFAULT_RING_EVENTS);
        r.set_enabled(false);
        r
    })
}

/// TLS wrapper returning the ring to the free list when the thread exits.
struct TlsGuard(FlightHandle);

impl Drop for TlsGuard {
    fn drop(&mut self) {
        self.0.release();
    }
}

thread_local! {
    static TLS_HANDLE: std::cell::RefCell<Option<TlsGuard>> = const { std::cell::RefCell::new(None) };
}

/// Record one wide event on the process-global recorder. When the
/// recorder is disabled this is a single relaxed atomic load; when
/// enabled, the calling thread's ring is registered on first use (named
/// after the OS thread, recycled on thread exit) and written lock-free
/// thereafter.
pub fn emit(kind: FlightKind, a: u64, b: u64, c: u64, label: &str) {
    let g = recorder();
    if !g.is_enabled() {
        return;
    }
    TLS_HANDLE.with(|h| {
        let mut h = h.borrow_mut();
        if h.is_none() {
            let name = std::thread::current().name().map(str::to_string).unwrap_or_else(|| "anon".to_string());
            *h = Some(TlsGuard(g.handle(&name)));
        }
        h.as_ref().unwrap().0.emit(kind, a, b, c, label);
    });
}

// --- recovery counters -------------------------------------------------------
//
// Torn-tail recoveries happen during load, usually before any
// MetricsRegistry exists, so they land in process-global counters that
// `Telemetry` exports as `nepal_journal_torn_tail_total` /
// `nepal_qlog_torn_tail_total` via a delta refresher.

/// Journal loads that dropped a torn trailing record.
pub static JOURNAL_TORN_TAIL: AtomicU64 = AtomicU64::new(0);
/// Query-log reads that dropped a torn trailing record.
pub static QLOG_TORN_TAIL: AtomicU64 = AtomicU64::new(0);

/// Record a journal torn-tail recovery: bump the process counter and
/// emit a wide event.
pub fn note_journal_torn_tail(line: u64, dropped_lines: u64) {
    JOURNAL_TORN_TAIL.fetch_add(1, Ordering::Relaxed);
    emit(FlightKind::TornTail, line, dropped_lines, 0, "journal");
}

/// Record a qlog torn-tail recovery.
pub fn note_qlog_torn_tail(line: u64) {
    QLOG_TORN_TAIL.fetch_add(1, Ordering::Relaxed);
    emit(FlightKind::TornTail, line, 1, 0, "qlog");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_payload_and_label() {
        let r = FlightRecorder::new(16);
        let h = r.handle("main");
        h.emit(FlightKind::QueryEnd, 0xabcd, 1500, 42, "VM.uid");
        h.emit(FlightKind::AdmissionShed, 3, 250, 0, "");
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, FlightKind::QueryEnd);
        assert_eq!((ev[0].a, ev[0].b, ev[0].c), (0xabcd, 1500, 42));
        assert_eq!(ev[0].label, "VM.uid");
        assert!(ev[0].seq < ev[1].seq);
        assert_eq!(ev[1].kind, FlightKind::AdmissionShed);
        assert_eq!(ev[1].label, "");
    }

    #[test]
    fn labels_truncate_at_sixteen_bytes() {
        let r = FlightRecorder::new(8);
        let h = r.handle("main");
        h.emit(FlightKind::Snapshot, 0, 0, 0, "a-very-long-trigger-name");
        assert_eq!(r.events()[0].label, "a-very-long-trig");
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let r = FlightRecorder::new(8);
        let h = r.handle("main");
        for i in 0..20 {
            h.emit(FlightKind::QueryStart, i, 0, 0, "");
        }
        let ev = r.events();
        assert_eq!(ev.len(), 8, "capacity bounds retention");
        // Newest 8 survive, in order.
        let kept: Vec<u64> = ev.iter().map(|e| e.a).collect();
        assert_eq!(kept, (12..20).collect::<Vec<u64>>());
        let st = r.stats();
        assert_eq!(st.total_written, 20);
        assert_eq!(st.total_dropped, 12);
    }

    #[test]
    fn stitching_interleaves_rings_by_sequence() {
        let r = FlightRecorder::new(64);
        let h1 = r.handle("t1");
        let h2 = r.handle("t2");
        h1.emit(FlightKind::QueryStart, 1, 0, 0, "");
        h2.emit(FlightKind::QueryStart, 2, 0, 0, "");
        h1.emit(FlightKind::QueryEnd, 1, 0, 0, "");
        h2.emit(FlightKind::QueryEnd, 2, 0, 0, "");
        let ev = r.events();
        assert_eq!(ev.len(), 4);
        let seqs: Vec<u64> = ev.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "stream must be seq-ordered");
        assert_eq!(ev.iter().filter(|e| e.thread == 0).count(), 2);
        assert_eq!(ev.iter().filter(|e| e.thread == 1).count(), 2);
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let r = FlightRecorder::new(8);
        let h = r.handle("main");
        r.set_enabled(false);
        h.emit(FlightKind::QueryStart, 1, 0, 0, "");
        assert!(r.events().is_empty());
        r.set_enabled(true);
        h.emit(FlightKind::QueryStart, 2, 0, 0, "");
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn window_filter_keeps_recent_events() {
        let r = FlightRecorder::new(8);
        let h = r.handle("main");
        h.emit(FlightKind::QueryStart, 1, 0, 0, "");
        assert_eq!(r.events_since(Duration::from_secs(60)).len(), 1);
        std::thread::sleep(Duration::from_millis(5));
        assert!(r.events_since(Duration::from_micros(1)).is_empty(), "stale events fall out of the window");
    }

    #[test]
    fn render_json_is_parseable_shape() {
        let r = FlightRecorder::new(8);
        let h = r.handle("writer");
        h.emit(FlightKind::DrainEnd, 1, 0, 12, "");
        let json = r.render_json(Duration::from_secs(30), 100).to_string();
        assert!(json.contains("\"kind\":\"drain_end\""), "{json}");
        assert!(json.contains("\"name\":\"writer\""), "{json}");
        assert!(json.contains("\"enabled\":true"), "{json}");
    }

    #[test]
    fn global_emit_is_noop_while_disabled() {
        // The global recorder defaults off; an emit must not register a ring.
        let before = recorder().stats().rings.len();
        emit(FlightKind::QueryStart, 9, 0, 0, "");
        assert_eq!(recorder().stats().rings.len(), before);
    }

    #[test]
    fn concurrent_writers_lose_nothing_within_capacity() {
        let r = FlightRecorder::new(1024);
        let threads = 4;
        let per = 500;
        let mut handles = Vec::new();
        for t in 0..threads {
            let h = r.handle(&format!("w{t}"));
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    h.emit(FlightKind::QueryStart, (t * per + i) as u64, 0, 0, "");
                }
            }));
        }
        for th in handles {
            th.join().unwrap();
        }
        let ev = r.events();
        assert_eq!(ev.len(), threads * per);
        let mut payloads: Vec<u64> = ev.iter().map(|e| e.a).collect();
        payloads.sort_unstable();
        payloads.dedup();
        assert_eq!(payloads.len(), threads * per, "no lost or duplicated events");
    }
}
