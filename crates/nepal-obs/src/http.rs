//! Std-only HTTP/1.1 telemetry endpoint.
//!
//! [`Telemetry`] bundles the observable state of a running engine — the
//! [`MetricsRegistry`] and the [`Tracer`] store, plus pluggable
//! per-backend health checks, the [`SloEngine`] and a store resource
//! provider — and maps `GET` paths onto it:
//!
//! | path             | body                                            |
//! |------------------|-------------------------------------------------|
//! | `/metrics`       | Prometheus text exposition format               |
//! | `/metrics.json`  | the registry as JSON                            |
//! | `/healthz`       | deep readiness: checks + firing alerts + store  |
//! | `/alerts.json`   | SLO rule states as JSON                         |
//! | `/dashboard`     | self-contained HTML overview                    |
//! | `/qlog.json`     | qlog status + per-fingerprint q-error as JSON   |
//! | `/traces`        | stored trace summaries                          |
//! | `/traces/latest` | newest trace as Chrome trace-event JSON         |
//! | `/traces/<id>`   | one trace as Chrome trace-event JSON            |
//! | `/flight`        | flight-recorder wide events (`?secs=`, `?limit=`) |
//! | `/top.json`      | per-fingerprint cost table (`?n=`, `?sort=`)    |
//! | `/history.json`  | metrics history ring snapshots (`?tail=`)       |
//! | `/snapshot`      | GET lists bundles; POST writes one on demand    |
//! | `/drain`         | the final drain report, once recorded           |
//!
//! `/metrics` runs only the *cheap* refreshers (O(classes) gauge
//! updates); `?deep=1` additionally runs the registered deep refreshers
//! (exact store walks) — never pay the full walk on a default scrape.
//!
//! `/healthz` is a *deep* readiness check: it runs every registered
//! health check, refreshes pull-gauges, evaluates the attached SLO rules,
//! and answers 503 when a check fails **or** any alert is firing — so a
//! load balancer sheds traffic on the same signal an operator would page
//! on.
//!
//! [`TelemetryServer`] is the listener: a nonblocking accept loop on a
//! background thread that hands each connection to its own short-lived
//! thread (`Connection: close`), so a stalled or slow client cannot block
//! concurrent scrapes. Request handling is pure (`Telemetry::handle`) so
//! the routing is testable without a socket.

use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

use crate::flight::{self, FlightKind, FlightRecorder};
use crate::history::{sparkline, HistoryRing};
use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::profile::fmt_ns;
use crate::qlog::{EstimateFeedback, QueryLog};
use crate::slo::{alerts_json, AlertStatus, SloEngine};
use crate::stmt::{StmtSort, StmtStats};
use crate::trace::{chrome_trace_json, summaries_json, Tracer};

type HealthCheck = Box<dyn Fn() -> Result<String, String> + Send>;
type Refresher = Box<dyn Fn() + Send>;
type ResourceProvider = Box<dyn Fn() -> ResourceSummary + Send>;

/// Per-class store footprint as served on `/dashboard` and `/healthz`.
/// Deliberately store-agnostic: nepal-graph converts its `MemoryReport`
/// into this shape (the dependency points graph → obs).
#[derive(Debug, Clone)]
pub struct ResourceClass {
    pub name: String,
    /// `"node"` or `"edge"`.
    pub kind: &'static str,
    pub entities: u64,
    pub alive: u64,
    pub versions: u64,
    pub bytes: u64,
}

/// A point-in-time store resource summary.
#[derive(Debug, Clone, Default)]
pub struct ResourceSummary {
    pub classes: Vec<ResourceClass>,
    /// Σ class bytes (version chains + property payloads + entry slots).
    pub entity_bytes: u64,
    pub adjacency_bytes: u64,
    pub unique_index_bytes: u64,
    /// Size of a full journal save (durability estimate, not heap).
    pub journal_bytes: u64,
    /// entity + adjacency + unique-index bytes.
    pub total_bytes: u64,
    /// Version-chain length distribution: (≤ length bound, entities).
    pub chain_histogram: Vec<(u64, u64)>,
}

/// The query-log state the endpoint serves: the estimate-vs-actual
/// aggregator plus, when durable logging is on, the log file handle.
struct QlogState {
    feedback: Arc<EstimateFeedback>,
    log: Option<Arc<QueryLog>>,
}

/// Where anomaly-triggered diagnostics bundles land, and how much flight
/// history each carries.
#[derive(Debug, Clone)]
pub struct SnapshotConfig {
    /// Directory for `snapshot-*.json` bundles (created on first write).
    pub dir: PathBuf,
    /// Bundles retained; the oldest are deleted past this (0 = unbounded).
    pub keep: usize,
    /// Trailing window of wide events included in each bundle.
    pub window: Duration,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig { dir: PathBuf::from("nepal-snapshots"), keep: 8, window: Duration::from_secs(30) }
    }
}

/// Everything the telemetry endpoint can serve.
pub struct Telemetry {
    pub metrics: Arc<MetricsRegistry>,
    pub tracer: Tracer,
    health: Mutex<Vec<(String, HealthCheck)>>,
    refreshers: Mutex<Vec<Refresher>>,
    /// Expensive pull-gauge walks (exact store footprint): run only on
    /// `/metrics?deep=1`, never on a default scrape.
    deep_refreshers: Mutex<Vec<Refresher>>,
    qlog: Mutex<Option<QlogState>>,
    /// Per-fingerprint statement cost table, served on `/top.json`.
    stmt: Mutex<Option<Arc<StmtStats>>>,
    /// Metrics history ring, served on `/history.json`.
    history: Mutex<Option<Arc<HistoryRing>>>,
    slo: Mutex<Option<Arc<SloEngine>>>,
    resources: Mutex<Option<ResourceProvider>>,
    flight: Mutex<Option<FlightRecorder>>,
    snapshots: Mutex<Option<SnapshotConfig>>,
    /// Static config/build facts embedded in every bundle.
    build_info: Mutex<Vec<(String, String)>>,
    /// Final drain report, set at shutdown; served on `/drain`.
    drain: Mutex<Option<Json>>,
    /// Alert names currently firing — tracks *entry* into firing so the
    /// alert trigger snapshots once per episode, not per scrape.
    firing_seen: Mutex<HashSet<String>>,
    /// Epoch ms of the last alert-triggered snapshot (debounce).
    alert_snap_ms: AtomicU64,
    /// Monotonic suffix keeping bundle filenames unique within one ms.
    snap_counter: AtomicU64,
}

const CT_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";
const CT_JSON: &str = "application/json";
const CT_HTML: &str = "text/html; charset=utf-8";

impl Telemetry {
    pub fn new(metrics: Arc<MetricsRegistry>, tracer: Tracer) -> Telemetry {
        let t = Telemetry {
            metrics,
            tracer,
            health: Mutex::new(Vec::new()),
            refreshers: Mutex::new(Vec::new()),
            deep_refreshers: Mutex::new(Vec::new()),
            qlog: Mutex::new(None),
            stmt: Mutex::new(None),
            history: Mutex::new(None),
            slo: Mutex::new(None),
            resources: Mutex::new(None),
            flight: Mutex::new(None),
            snapshots: Mutex::new(None),
            build_info: Mutex::new(Vec::new()),
            drain: Mutex::new(None),
            firing_seen: Mutex::new(HashSet::new()),
            alert_snap_ms: AtomicU64::new(0),
            snap_counter: AtomicU64::new(0),
        };
        // Torn-tail recoveries happen at load time, before any registry
        // exists, so they live in process-global counters; export them as
        // real metrics via a delta refresher.
        let journal =
            t.metrics.counter("nepal_journal_torn_tail_total", "Journal loads that dropped a torn trailing record");
        let qlog =
            t.metrics.counter("nepal_qlog_torn_tail_total", "Query-log reads that dropped a torn trailing record");
        let (prev_j, prev_q) = (AtomicU64::new(0), AtomicU64::new(0));
        t.add_refresher(move || {
            let cur = flight::JOURNAL_TORN_TAIL.load(Ordering::Relaxed);
            journal.add(cur.saturating_sub(prev_j.swap(cur, Ordering::Relaxed)));
            let cur = flight::QLOG_TORN_TAIL.load(Ordering::Relaxed);
            qlog.add(cur.saturating_sub(prev_q.swap(cur, Ordering::Relaxed)));
        });
        t
    }

    /// Attach the flight recorder: `/flight` serves its stitched stream
    /// and every snapshot bundle embeds the trailing event window.
    pub fn set_flight(&self, recorder: FlightRecorder) {
        *self.flight.lock().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    }

    /// Enable anomaly-triggered snapshot bundles (see [`SnapshotConfig`]).
    /// Once set, `POST /snapshot`, a firing alert, the panic hook, and
    /// SIGQUIT all dump bundles into `cfg.dir`.
    pub fn set_snapshots(&self, cfg: SnapshotConfig) {
        *self.snapshots.lock().unwrap_or_else(|e| e.into_inner()) = Some(cfg);
    }

    /// Static config/build facts (`version`, flags, …) embedded in every
    /// snapshot bundle under `"build"`.
    pub fn set_build_info(&self, info: Vec<(String, String)>) {
        *self.build_info.lock().unwrap_or_else(|e| e.into_inner()) = info;
    }

    /// Record the final drain report so `/drain` and the shutdown
    /// snapshot can serve it.
    pub fn set_drain_json(&self, json: Json) {
        *self.drain.lock().unwrap_or_else(|e| e.into_inner()) = Some(json);
    }

    /// Attach the engine's plan-feedback aggregator (and the durable log
    /// handle when one is open) so `/qlog.json` can serve them.
    pub fn set_qlog(&self, feedback: Arc<EstimateFeedback>, log: Option<Arc<QueryLog>>) {
        *self.qlog.lock().unwrap_or_else(|e| e.into_inner()) = Some(QlogState { feedback, log });
    }

    /// Attach the SLO engine: `/alerts.json` serves its rule states and
    /// `/healthz` turns 503 while any rule fires.
    pub fn set_slo(&self, slo: Arc<SloEngine>) {
        *self.slo.lock().unwrap_or_else(|e| e.into_inner()) = Some(slo);
    }

    /// Attach a store resource provider feeding `/dashboard` and the
    /// store section of `/healthz`.
    pub fn set_resources(&self, provider: impl Fn() -> ResourceSummary + Send + 'static) {
        *self.resources.lock().unwrap_or_else(|e| e.into_inner()) = Some(Box::new(provider));
    }

    /// Register a named health check. `Ok(detail)` is healthy, `Err(why)`
    /// is not; `/healthz` runs all of them on every request.
    pub fn add_health(&self, name: &str, check: impl Fn() -> Result<String, String> + Send + 'static) {
        self.health.lock().unwrap_or_else(|e| e.into_inner()).push((name.to_string(), Box::new(check)));
    }

    /// Register a callback run before each `/metrics` render — the hook
    /// point for pull-style gauges (store sizes, ring lengths, …). Keep
    /// these cheap; anything that walks the whole store belongs in
    /// [`Telemetry::add_deep_refresher`].
    pub fn add_refresher(&self, refresh: impl Fn() + Send + 'static) {
        self.refreshers.lock().unwrap_or_else(|e| e.into_inner()).push(Box::new(refresh));
    }

    /// Register an *expensive* pull-gauge walk (exact store footprint,
    /// chain histograms). Runs only on `/metrics?deep=1`, so a default
    /// scrape never pays for a full store walk.
    pub fn add_deep_refresher(&self, refresh: impl Fn() + Send + 'static) {
        self.deep_refreshers.lock().unwrap_or_else(|e| e.into_inner()).push(Box::new(refresh));
    }

    /// Attach the per-fingerprint statement cost table: `/top.json`
    /// serves it and `nepal_stmt_*` gauges export on every scrape.
    pub fn set_stmt(&self, stmt: Arc<StmtStats>) {
        *self.stmt.lock().unwrap_or_else(|e| e.into_inner()) = Some(stmt);
    }

    /// Attach the metrics history ring served on `/history.json` and
    /// rendered as dashboard sparklines. The owner drives `tick()`.
    pub fn set_history(&self, history: Arc<HistoryRing>) {
        *self.history.lock().unwrap_or_else(|e| e.into_inner()) = Some(history);
    }

    fn stmt_handle(&self) -> Option<Arc<StmtStats>> {
        self.stmt.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn history_handle(&self) -> Option<Arc<HistoryRing>> {
        self.history.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn refresh(&self) {
        for r in self.refreshers.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            r();
        }
        if let Some(stmt) = self.stmt_handle() {
            stmt.export(&self.metrics);
        }
    }

    fn refresh_deep(&self) {
        self.refresh();
        for r in self.deep_refreshers.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            r();
        }
    }

    /// Drive the attached history ring from a poll loop. When a snapshot
    /// is due, cheap pull gauges refresh first so the snapshot captures
    /// current values; off-interval polls cost one lock + compare.
    pub fn tick_history(&self) -> bool {
        let Some(h) = self.history_handle() else {
            return false;
        };
        if !h.due() {
            return false;
        }
        self.refresh();
        h.tick(&self.metrics)
    }

    /// Evaluate the attached SLO engine without triggering the snapshot
    /// hook — used from inside `snapshot()` to avoid recursion.
    fn evaluate_slo_raw(&self) -> Option<Vec<AlertStatus>> {
        let slo = self.slo.lock().unwrap_or_else(|e| e.into_inner()).clone();
        slo.map(|s| s.evaluate())
    }

    fn evaluate_slo(&self) -> Option<Vec<AlertStatus>> {
        let statuses = self.evaluate_slo_raw();
        if let Some(sts) = &statuses {
            self.maybe_snapshot_on_firing(sts);
        }
        statuses
    }

    /// An alert *entering* firing dumps one diagnostics bundle, debounced
    /// to at most one alert-triggered snapshot per 30 s.
    fn maybe_snapshot_on_firing(&self, statuses: &[AlertStatus]) {
        let firing: HashSet<String> = statuses.iter().filter(|a| a.state.is_firing()).map(|a| a.name.clone()).collect();
        let newly: Vec<String> = {
            let mut seen = self.firing_seen.lock().unwrap_or_else(|e| e.into_inner());
            let newly = firing.difference(&seen).cloned().collect();
            *seen = firing;
            newly
        };
        if newly.is_empty() || self.snapshots.lock().unwrap_or_else(|e| e.into_inner()).is_none() {
            return;
        }
        let now = unix_ms();
        let last = self.alert_snap_ms.load(Ordering::Relaxed);
        if now.saturating_sub(last) < 30_000 {
            return;
        }
        if self.alert_snap_ms.compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
            let _ = self.snapshot(&format!("alert-{}", newly[0]));
        }
    }

    /// List snapshot bundles on disk, oldest first: `(file name, bytes,
    /// modified unix ms)`.
    pub fn list_snapshots(&self) -> Vec<(String, u64, u64)> {
        let dir = match &*self.snapshots.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(cfg) => cfg.dir.clone(),
            None => return Vec::new(),
        };
        let mut out = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if !name.starts_with("snapshot-") || !name.ends_with(".json") {
                    continue;
                }
                let (bytes, modified) = entry
                    .metadata()
                    .map(|m| {
                        let ms = m
                            .modified()
                            .ok()
                            .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
                            .map(|d| d.as_millis() as u64)
                            .unwrap_or(0);
                        (m.len(), ms)
                    })
                    .unwrap_or((0, 0));
                out.push((name, bytes, modified));
            }
        }
        out.sort();
        out
    }

    /// Write one diagnostics bundle and rotate the directory. Returns the
    /// bundle path, or an error when snapshots are not configured.
    pub fn snapshot(&self, trigger: &str) -> std::io::Result<PathBuf> {
        let cfg = match &*self.snapshots.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(cfg) => cfg.clone(),
            None => {
                return Err(std::io::Error::new(std::io::ErrorKind::NotFound, "snapshots not configured"));
            }
        };
        self.refresh();
        let body = json_body(self.render_bundle(trigger, &cfg));
        std::fs::create_dir_all(&cfg.dir)?;
        let safe: String =
            trigger.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' }).collect();
        let n = self.snap_counter.fetch_add(1, Ordering::Relaxed);
        let path = cfg.dir.join(format!("snapshot-{:013}-{n:04}-{safe}.json", unix_ms()));
        std::fs::write(&path, body)?;
        if cfg.keep > 0 {
            let bundles = self.list_snapshots();
            for (name, _, _) in bundles.iter().take(bundles.len().saturating_sub(cfg.keep)) {
                let _ = std::fs::remove_file(cfg.dir.join(name));
            }
        }
        flight::emit(FlightKind::Snapshot, 0, 0, 0, trigger);
        Ok(path)
    }

    /// Compose the bundle document: everything an on-call engineer needs
    /// to reconstruct the seconds before an anomaly, in one JSON file.
    fn render_bundle(&self, trigger: &str, cfg: &SnapshotConfig) -> Json {
        let build = self.build_info.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let build = Json::Obj(build.into_iter().map(|(k, v)| (k, v.into())).collect());
        let flight = self.flight.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let drain = self.drain.lock().unwrap_or_else(|e| e.into_inner()).clone();
        Json::obj([
            ("trigger", trigger.into()),
            ("written_unix_ms", unix_ms().into()),
            ("build", build),
            ("flight", flight.map(|rec| rec.render_json(cfg.window, 5000)).into()),
            ("metrics", self.metrics.render_json()),
            ("alerts", self.evaluate_slo_raw().map(|st| alerts_json(&st)).into()),
            ("traces", summaries_json(&self.tracer.summaries())),
            ("resources", self.resource_summary().map(|r| resources_json(&r)).into()),
            ("stmt", self.stmt_handle().map(|st| st.render_json(10, StmtSort::default())).into()),
            ("history", self.history_handle().map(|h| h.render_json(Some(120))).into()),
            ("drain", drain.into()),
        ])
    }

    fn resource_summary(&self) -> Option<ResourceSummary> {
        let resources = self.resources.lock().unwrap_or_else(|e| e.into_inner());
        resources.as_ref().map(|p| p())
    }

    /// Deep readiness: health checks + pull-gauge refresh + SLO
    /// evaluation + store totals. 503 when a check fails or an alert
    /// fires.
    fn healthz(&self) -> (u16, Json) {
        // Refresh pull gauges first so watermark rules see current values.
        self.refresh();
        let mut all_ok = true;
        let checks = self
            .health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, check)| {
                let result = match check() {
                    Ok(detail) => Json::obj([("ok", true.into()), ("detail", detail.into())]),
                    Err(why) => {
                        all_ok = false;
                        Json::obj([("ok", false.into()), ("error", why.into())])
                    }
                };
                (name.clone(), result)
            })
            .collect();
        let mut body = BTreeMap::from([("checks".to_string(), Json::Obj(checks))]);
        if let Some(statuses) = self.evaluate_slo() {
            all_ok &= !statuses.iter().any(|a| a.state.is_firing());
            body.insert("alerts".into(), alerts_json(&statuses));
        }
        if let Some(r) = self.resource_summary() {
            body.insert("store".into(), resources_json(&r));
        }
        body.insert("status".into(), if all_ok { "ok" } else { "unhealthy" }.into());
        (if all_ok { 200 } else { 503 }, Json::Obj(body))
    }

    fn dashboard(&self) -> String {
        let mut b = String::from(
            "<!doctype html><html><head><meta charset=\"utf-8\"><title>nepal dashboard</title><style>\
             body{font-family:system-ui,sans-serif;margin:2em;max-width:70em}\
             table{border-collapse:collapse;margin:0.5em 0}\
             td,th{border:1px solid #ccc;padding:0.25em 0.6em;text-align:right}\
             th{background:#f4f4f4}td.l,th.l{text-align:left}\
             .firing{color:#b00020;font-weight:bold}.pending{color:#b07000}\
             .resolved{color:#3a7}.ok{color:#373}\
             h2{margin-top:1.2em;border-bottom:1px solid #ddd}\
             </style></head><body><h1>nepal dashboard</h1>",
        );
        // Alerts.
        b.push_str("<h2>alerts</h2>");
        match self.evaluate_slo() {
            Some(statuses) => {
                let firing = statuses.iter().filter(|a| a.state.is_firing()).count();
                b.push_str(&format!(
                    "<p>{} rule(s), <span class=\"{}\">{} firing</span></p>",
                    statuses.len(),
                    if firing > 0 { "firing" } else { "ok" },
                    firing
                ));
                b.push_str("<table><tr><th class=l>rule</th><th>state</th><th>measured</th><th>burn</th><th class=l>detail</th></tr>");
                for a in &statuses {
                    b.push_str(&format!(
                        "<tr><td class=l>{}</td><td class=\"{}\">{}</td><td>{:.1}</td><td>{:.2}</td><td class=l>{}</td></tr>",
                        html_esc(&a.name),
                        a.state.name(),
                        a.state.name(),
                        a.measured,
                        a.burn,
                        html_esc(&a.detail)
                    ));
                }
                b.push_str("</table>");
            }
            None => b.push_str("<p>no SLO engine attached</p>"),
        }
        // Store footprint.
        b.push_str("<h2>store footprint</h2>");
        match self.resource_summary() {
            Some(r) => {
                b.push_str(&format!(
                    "<p>total <b>{}</b> — entities {}, adjacency {}, unique index {}; journal save ≈ {}</p>",
                    fmt_bytes(r.total_bytes),
                    fmt_bytes(r.entity_bytes),
                    fmt_bytes(r.adjacency_bytes),
                    fmt_bytes(r.unique_index_bytes),
                    fmt_bytes(r.journal_bytes)
                ));
                b.push_str("<table><tr><th class=l>class</th><th class=l>kind</th><th>entities</th><th>alive</th><th>versions</th><th>bytes</th></tr>");
                let mut classes = r.classes.clone();
                classes.sort_by_key(|c| std::cmp::Reverse(c.bytes));
                for c in classes.iter().take(20) {
                    b.push_str(&format!(
                        "<tr><td class=l>{}</td><td class=l>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                        html_esc(&c.name),
                        c.kind,
                        c.entities,
                        c.alive,
                        c.versions,
                        fmt_bytes(c.bytes)
                    ));
                }
                b.push_str("</table>");
                if !r.chain_histogram.is_empty() {
                    b.push_str("<p>version-chain length: ");
                    for (bound, n) in &r.chain_histogram {
                        b.push_str(&format!("≤{bound}: {n} &nbsp; "));
                    }
                    b.push_str("</p>");
                }
            }
            None => b.push_str("<p>no resource provider attached</p>"),
        }
        // Query latency quantiles.
        b.push_str("<h2>query latency</h2>");
        match self.metrics.histogram_handle("nepal_query_duration_ns") {
            Some(h) if h.count() > 0 => b.push_str(&format!(
                "<p>{} queries — p50 {} · p95 {} · p99 {}</p>",
                h.count(),
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.95)),
                fmt_ns(h.quantile(0.99))
            )),
            _ => b.push_str("<p>no queries recorded</p>"),
        }
        // Per-fingerprint cost attribution.
        b.push_str("<h2>top queries by cost</h2>");
        match self.stmt_handle() {
            Some(stmt) => {
                let rows = stmt.top(10, StmtSort::default());
                if rows.is_empty() {
                    b.push_str("<p>no statements recorded</p>");
                } else {
                    b.push_str(&format!(
                        "<p>{} fingerprint(s) tracked, {} evicted — sorted by cpu</p>",
                        stmt.tracked(),
                        stmt.evicted()
                    ));
                    b.push_str(
                        "<table><tr><th class=l>fingerprint</th><th class=l>statement</th><th>calls</th>\
                         <th>cpu</th><th>wall</th><th>rows</th><th>bytes</th><th>mat</th><th>err</th></tr>",
                    );
                    for r in &rows {
                        b.push_str(&format!(
                            "<tr><td class=l><code>{:016x}</code></td><td class=l><code>{}</code></td>\
                             <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                            r.fingerprint,
                            html_esc(&truncate(&r.text, 80)),
                            r.calls,
                            fmt_ns(r.cpu_ns_total),
                            fmt_ns(r.wall_ns_total),
                            r.rows,
                            fmt_bytes(r.bytes_scanned),
                            r.materializations,
                            r.errors + r.deadline_exceeded + r.cancelled,
                        ));
                    }
                    b.push_str("</table>");
                }
                b.push_str("<p><a href=\"/top.json\">/top.json</a></p>");
            }
            None => b.push_str("<p>statement stats not attached</p>"),
        }
        // Metrics history sparklines.
        b.push_str("<h2>metrics history</h2>");
        match self.history_handle() {
            Some(h) if !h.is_empty() => {
                b.push_str(&format!(
                    "<p>{} snapshot(s) at {} ms resolution ({} downsampled away)</p>",
                    h.len(),
                    h.resolution_ms(),
                    h.downsampled()
                ));
                b.push_str("<table><tr><th class=l>metric</th><th class=l>trend</th><th>last</th></tr>");
                const SPARKS: [&str; 5] = [
                    "nepal_queries_total",
                    "nepal_store_total_bytes",
                    "nepal_stmt_cpu_ns",
                    "nepal_stmt_rows",
                    "nepal_requests_total",
                ];
                for name in SPARKS {
                    let series: Vec<f64> = h.series(name).into_iter().map(|(_, v)| v).collect();
                    if series.is_empty() {
                        continue;
                    }
                    b.push_str(&format!(
                        "<tr><td class=l><code>{}</code></td><td class=l>{}</td><td>{}</td></tr>",
                        name,
                        sparkline(&series),
                        series.last().copied().unwrap_or(0.0),
                    ));
                }
                b.push_str("</table>");
                b.push_str("<p><a href=\"/history.json\">/history.json</a></p>");
            }
            Some(_) => b.push_str("<p>history ring attached, no snapshots yet</p>"),
            None => b.push_str("<p>metrics history not attached</p>"),
        }
        // Recent traces.
        b.push_str("<h2>recent traces</h2>");
        let summaries = self.tracer.summaries();
        if summaries.is_empty() {
            b.push_str("<p>trace ring is empty</p>");
        } else {
            b.push_str("<ul>");
            for s in summaries.iter().rev().take(10) {
                b.push_str(&format!(
                    "<li><a href=\"/traces/{}\">#{}</a> {} — {} ({} spans)</li>",
                    s.id,
                    s.id,
                    html_esc(&truncate(&s.name, 90)),
                    fmt_ns(s.dur_ns),
                    s.spans
                ));
            }
            b.push_str("</ul>");
        }
        // Flight recorder: the newest wide events, stitched across threads.
        b.push_str("<h2>flight recorder</h2>");
        match self.flight.lock().unwrap_or_else(|e| e.into_inner()).clone() {
            Some(rec) => {
                let stats = rec.stats();
                b.push_str(&format!(
                    "<p>{} thread ring(s), {} event(s) recorded ({} dropped by wrap-around)</p>",
                    stats.rings.len(),
                    stats.total_written,
                    stats.total_dropped
                ));
                let events = rec.events_since(Duration::from_secs(60));
                if events.is_empty() {
                    b.push_str("<p>no wide events in the last 60s</p>");
                } else {
                    b.push_str("<table><tr><th>seq</th><th>age</th><th>thread</th><th class=l>kind</th><th class=l>detail</th></tr>");
                    let now = rec.now_us();
                    for e in events.iter().rev().take(15) {
                        b.push_str(&format!(
                            "<tr><td>{}</td><td>{:.1}s</td><td>{}</td><td class=l>{}</td><td class=l><code>{}</code></td></tr>",
                            e.seq,
                            now.saturating_sub(e.ts_us) as f64 / 1e6,
                            e.thread,
                            e.kind.name(),
                            html_esc(&e.describe())
                        ));
                    }
                    b.push_str("</table>");
                }
            }
            None => b.push_str("<p>no flight recorder attached</p>"),
        }
        // Snapshot bundles on disk.
        b.push_str("<h2>diagnostics snapshots</h2>");
        if self.snapshots.lock().unwrap_or_else(|e| e.into_inner()).is_some() {
            let bundles = self.list_snapshots();
            if bundles.is_empty() {
                b.push_str("<p>no bundles written (POST /snapshot to force one)</p>");
            } else {
                b.push_str("<table><tr><th class=l>bundle</th><th>size</th></tr>");
                for (name, bytes, _) in bundles.iter().rev().take(10) {
                    b.push_str(&format!(
                        "<tr><td class=l><code>{}</code></td><td>{}</td></tr>",
                        html_esc(name),
                        fmt_bytes(*bytes)
                    ));
                }
                b.push_str("</table>");
            }
        } else {
            b.push_str("<p>snapshots not configured</p>");
        }
        if let Some(d) = &*self.drain.lock().unwrap_or_else(|e| e.into_inner()) {
            b.push_str("<h2>drain report</h2>");
            b.push_str(&format!("<p><code>{}</code></p>", html_esc(&d.to_string())));
        }
        b.push_str(
            "<p><a href=\"/metrics\">/metrics</a> · <a href=\"/alerts.json\">/alerts.json</a> · \
             <a href=\"/healthz\">/healthz</a> · <a href=\"/top.json\">/top.json</a> · \
             <a href=\"/history.json\">/history.json</a> · <a href=\"/qlog.json\">/qlog.json</a> · \
             <a href=\"/traces\">/traces</a> · \
             <a href=\"/flight\">/flight</a> · <a href=\"/snapshot\">/snapshot</a></p></body></html>",
        );
        b
    }

    /// Route a `POST` request path to `(status, content-type, body)`.
    /// Only `/snapshot` accepts POST: it writes a bundle on demand.
    pub fn handle_post(&self, path: &str) -> (u16, &'static str, String) {
        let path = path.split('?').next().unwrap_or(path);
        match path {
            "/snapshot" => match self.snapshot("http") {
                Ok(p) => json(200, Json::obj([("written", p.display().to_string().into())])),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => json_error(404, "snapshots not configured"),
                Err(e) => json_error(500, &e.to_string()),
            },
            _ => (405, CT_TEXT, "POST is supported only on /snapshot\n".to_string()),
        }
    }

    /// Route a request path to `(status, content-type, body)`.
    pub fn handle(&self, path: &str) -> (u16, &'static str, String) {
        let query = path.split_once('?').map(|(_, q)| q).unwrap_or("");
        let path = path.split('?').next().unwrap_or(path);
        match path {
            "/flight" => match self.flight.lock().unwrap_or_else(|e| e.into_inner()).clone() {
                Some(rec) => {
                    let secs = query_param(query, "secs").and_then(|v| v.parse().ok()).unwrap_or(60);
                    let limit = query_param(query, "limit").and_then(|v| v.parse().ok()).unwrap_or(500);
                    json(200, rec.render_json(Duration::from_secs(secs), limit))
                }
                None => json_error(404, "no flight recorder attached"),
            },
            "/snapshot" => {
                let Some(dir) =
                    self.snapshots.lock().unwrap_or_else(|e| e.into_inner()).as_ref().map(|c| c.dir.clone())
                else {
                    return json_error(404, "snapshots not configured");
                };
                let bundles = self
                    .list_snapshots()
                    .into_iter()
                    .map(|(name, bytes, modified)| {
                        Json::obj([
                            ("file", name.into()),
                            ("bytes", bytes.into()),
                            ("modified_unix_ms", modified.into()),
                        ])
                    })
                    .collect();
                json(200, Json::obj([("dir", dir.display().to_string().into()), ("bundles", Json::Arr(bundles))]))
            }
            "/drain" => match &*self.drain.lock().unwrap_or_else(|e| e.into_inner()) {
                Some(d) => json(200, d.clone()),
                None => json_error(404, "no drain recorded"),
            },
            "/metrics" => {
                if query_param(query, "deep").is_some() {
                    self.refresh_deep();
                } else {
                    self.refresh();
                }
                (200, CT_TEXT, self.metrics.render_prometheus())
            }
            "/metrics.json" => {
                if query_param(query, "deep").is_some() {
                    self.refresh_deep();
                } else {
                    self.refresh();
                }
                json(200, self.metrics.render_json())
            }
            "/top.json" => match self.stmt_handle() {
                Some(stmt) => {
                    let n = query_param(query, "n").and_then(|v| v.parse().ok()).unwrap_or(20);
                    let sort = query_param(query, "sort").and_then(StmtSort::parse).unwrap_or_default();
                    json(200, stmt.render_json(n, sort))
                }
                None => json_error(404, "statement stats not attached"),
            },
            "/history.json" => match self.history_handle() {
                Some(h) => json(200, h.render_json(query_param(query, "tail").and_then(|v| v.parse().ok()))),
                None => json_error(404, "metrics history not attached"),
            },
            "/healthz" => {
                let (status, body) = self.healthz();
                json(status, body)
            }
            "/alerts.json" => match self.evaluate_slo() {
                Some(statuses) => json(200, alerts_json(&statuses)),
                None => json_error(404, "no slo engine attached"),
            },
            "/dashboard" => {
                self.refresh();
                (200, CT_HTML, self.dashboard())
            }
            "/qlog.json" => match &*self.qlog.lock().unwrap_or_else(|e| e.into_inner()) {
                Some(q) => {
                    let mut body = BTreeMap::from([
                        ("enabled".to_string(), q.log.is_some().into()),
                        ("fingerprints".to_string(), q.feedback.render_json()),
                    ]);
                    if let Some(Json::Obj(status)) = q.log.as_ref().map(|log| log.status_json()) {
                        body.extend(status);
                    }
                    json(200, Json::Obj(body))
                }
                None => json_error(404, "query log not attached"),
            },
            "/traces" => json(200, summaries_json(&self.tracer.summaries())),
            "/traces/latest" => match self.tracer.latest_id().and_then(|id| self.tracer.get(id)) {
                Some(t) => json(200, chrome_trace_json(&t)),
                None => json_error(404, "no traces stored"),
            },
            _ => {
                if let Some(id) = path.strip_prefix("/traces/").and_then(|s| s.parse::<u64>().ok()) {
                    return match self.tracer.get(id) {
                        Some(t) => json(200, chrome_trace_json(&t)),
                        None => json_error(404, &format!("no trace with id {id}")),
                    };
                }
                (404, CT_TEXT, "not found\n".to_string())
            }
        }
    }
}

/// A JSON response: the compact document plus a trailing newline.
fn json(code: u16, body: Json) -> (u16, &'static str, String) {
    (code, CT_JSON, json_body(body))
}

fn json_error(code: u16, msg: &str) -> (u16, &'static str, String) {
    json(code, Json::obj([("error", msg.into())]))
}

fn json_body(body: Json) -> String {
    let mut s = body.to_string();
    s.push('\n');
    s
}

fn html_esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

fn unix_ms() -> u64 {
    SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// `query_param("secs=5&limit=9", "secs")` → `Some("5")`.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|kv| kv.split_once('=').filter(|(k, _)| *k == key).map(|(_, v)| v))
}

fn resources_json(r: &ResourceSummary) -> Json {
    Json::obj([
        ("total_bytes", r.total_bytes.into()),
        ("entity_bytes", r.entity_bytes.into()),
        ("adjacency_bytes", r.adjacency_bytes.into()),
        ("unique_index_bytes", r.unique_index_bytes.into()),
        ("journal_bytes", r.journal_bytes.into()),
        ("classes", r.classes.len().into()),
    ])
}

static PANIC_HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Install a chaining panic hook that emits a `panic` wide event and
/// dumps a diagnostics bundle before the previous hook (backtrace print)
/// runs. Panics *caught* downstream (e.g. the serving panic barrier)
/// still pass through here, so an evaluation panic under load leaves a
/// bundle behind. Installs at most once per process; later calls are
/// no-ops.
pub fn install_panic_hook(telemetry: Arc<Telemetry>) {
    if PANIC_HOOK_INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let current = std::thread::current();
        flight::emit(FlightKind::Panic, 0, 0, 0, current.name().unwrap_or("anon"));
        // Re-entrancy guard: a panic inside the snapshot writer must not
        // recurse into another snapshot.
        static IN_HOOK: AtomicBool = AtomicBool::new(false);
        if !IN_HOOK.swap(true, Ordering::SeqCst) {
            let _ = telemetry.snapshot("panic");
            IN_HOOK.store(false, Ordering::SeqCst);
        }
        prev(info);
    }));
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max).collect();
        format!("{cut}…")
    }
}

/// `1536` → `"1.5 KiB"`.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut i = 0;
    while v >= 1024.0 && i < UNITS.len() - 1 {
        v /= 1024.0;
        i += 1;
    }
    if i == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[i])
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    respond_with(stream, code, content_type, body, &[]);
}

fn respond_with(stream: &mut TcpStream, code: u16, content_type: &str, body: &str, extra_headers: &[(&str, &str)]) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        code,
        status_text(code),
        content_type,
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Read a request head (through the blank line), bounded at 8 KiB.
fn read_head(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while buf.len() < 8192 {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            break;
        }
        buf.push(byte[0]);
        if buf.ends_with(b"\r\n\r\n") {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

fn serve_connection(telemetry: &Telemetry, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let head = match read_head(&mut stream) {
        Ok(h) => h,
        Err(_) => return,
    };
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" && method != "POST" {
        respond(&mut stream, 405, CT_TEXT, "only GET and POST are supported\n");
        return;
    }
    if path.is_empty() {
        respond(&mut stream, 400, CT_TEXT, "malformed request line\n");
        return;
    }
    let (code, content_type, body) =
        if method == "POST" { telemetry.handle_post(path) } else { telemetry.handle(path) };
    if code == 503 {
        // Not-ready/firing responses carry a retry hint like shed ones.
        respond_with(&mut stream, code, content_type, &body, &[("Retry-After", "1")]);
    } else {
        respond(&mut stream, code, content_type, &body);
    }
}

/// Per-listener cap on concurrently served connections; excess clients
/// get an immediate 503 instead of queueing behind a stalled reader.
const MAX_CONNECTIONS: usize = 64;

/// The background HTTP listener.
pub struct TelemetryServer {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// `telemetry` until the returned handle is dropped. Each accepted
    /// connection runs on its own thread so one slow client never blocks
    /// a concurrent scrape.
    pub fn start(telemetry: Arc<Telemetry>, addr: &str) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        let accept_thread = std::thread::spawn(move || {
            let active = Arc::new(AtomicUsize::new(0));
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        if active.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                            // Overload shed: tell scrapers when to come back
                            // instead of letting them hammer the listener.
                            respond_with(
                                &mut stream,
                                503,
                                CT_TEXT,
                                "connection limit reached\n",
                                &[("Retry-After", "1")],
                            );
                            continue;
                        }
                        active.fetch_add(1, Ordering::Relaxed);
                        let telemetry = telemetry.clone();
                        let active = active.clone();
                        std::thread::spawn(move || {
                            serve_connection(&telemetry, stream);
                            active.fetch_sub(1, Ordering::Relaxed);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(TelemetryServer { addr: local, shutdown, accept_thread: Some(accept_thread) })
    }

    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloRule;

    fn telemetry() -> Arc<Telemetry> {
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.counter("nepal_queries_total", "Total queries").add(5);
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.set_slow_threshold_ns(u64::MAX);
        drop(tracer.start_trace("q"));
        Arc::new(Telemetry::new(metrics, tracer))
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap_or((response.as_str(), ""));
        (head.to_string(), body.to_string())
    }

    #[test]
    fn routing_covers_all_endpoints() {
        let t = telemetry();
        t.add_health("native", || Ok("2194 entities".to_string()));
        let (code, ct, body) = t.handle("/metrics");
        assert_eq!(code, 200);
        assert!(ct.starts_with("text/plain; version=0.0.4"));
        assert!(body.contains("nepal_queries_total 5"));
        let (code, _, body) = t.handle("/metrics.json");
        assert_eq!(code, 200);
        assert!(body.contains("\"nepal_queries_total\":5"));
        let (code, _, body) = t.handle("/healthz");
        assert_eq!(code, 200);
        let doc = crate::json::parse_json(&body).unwrap();
        assert_eq!(doc.get("checks").and_then(|c| c.get("native")).and_then(|n| n.get("ok")), Some(&Json::Bool(true)));
        // Each attached table answers on its JSON route only, and
        // `/slow` is not a route: slow queries live in the trace ring.
        t.set_stmt(Arc::new(StmtStats::new(4)));
        t.set_qlog(Arc::new(EstimateFeedback::new()), None);
        t.set_slo(Arc::new(SloEngine::new(t.metrics.clone())));
        for route in ["/top", "/qlog", "/alerts"] {
            assert_eq!(t.handle(route).0, 404, "{route}");
            let json_route = format!("{route}.json");
            let (code, ct, _) = t.handle(&json_route);
            assert_eq!((code, ct), (200, CT_JSON), "{json_route}");
        }
        assert_eq!(t.handle("/slow").0, 404);
        let (code, ct, body) = t.handle("/dashboard");
        assert_eq!(code, 200);
        assert!(ct.starts_with("text/html"));
        assert!(body.contains("nepal dashboard"));
        let (code, _, body) = t.handle("/traces");
        assert_eq!(code, 200);
        assert!(body.contains("\"name\":\"q\""));
        let id = t.tracer.latest_id().unwrap();
        let (code, _, body) = t.handle(&format!("/traces/{id}"));
        assert_eq!(code, 200);
        assert!(body.contains("traceEvents"));
        let (code, _, _) = t.handle("/traces/latest");
        assert_eq!(code, 200);
        assert_eq!(t.handle("/traces/999999").0, 404);
        assert_eq!(t.handle("/nope").0, 404);
    }

    #[test]
    fn alerts_routes_require_engine_then_serve_states() {
        let t = telemetry();
        assert_eq!(t.handle("/alerts.json").0, 404);
        let slo = Arc::new(SloEngine::new(t.metrics.clone()));
        slo.add(SloRule::gauge_max("noop", "missing_gauge", 1));
        t.set_slo(slo);
        let (code, _, body) = t.handle("/alerts.json");
        assert_eq!(code, 200);
        assert!(body.contains("noop"), "{body}");
        assert!(body.contains("\"firing\":0"), "{body}");
    }

    #[test]
    fn healthz_deepens_with_alerts_and_resources() {
        let t = telemetry();
        t.add_health("store", || Ok("fine".to_string()));
        let g = t.metrics.gauge("pressure", "p");
        let slo = Arc::new(SloEngine::new(t.metrics.clone()));
        slo.add(SloRule::gauge_max("pressure-watermark", "pressure", 100));
        t.set_slo(slo);
        t.set_resources(|| ResourceSummary {
            classes: vec![ResourceClass {
                name: "VM".into(),
                kind: "node",
                entities: 2,
                alive: 2,
                versions: 3,
                bytes: 640,
            }],
            entity_bytes: 640,
            adjacency_bytes: 64,
            unique_index_bytes: 32,
            journal_bytes: 128,
            total_bytes: 736,
            chain_histogram: vec![(1, 1), (2, 1)],
        });

        let (code, _, body) = t.handle("/healthz");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"alerts\":{\"firing\":0"), "{body}");
        assert!(body.contains("\"total_bytes\":736"), "{body}");

        // A firing alert flips readiness to 503.
        g.set(500);
        let (code, _, body) = t.handle("/healthz");
        assert_eq!(code, 503, "{body}");
        assert!(body.contains("\"status\":\"unhealthy\""), "{body}");
        assert!(body.contains("\"alerts\":{\"firing\":1"), "{body}");

        // Recovery resolves and readiness returns.
        g.set(0);
        let (code, _, body) = t.handle("/healthz");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"state\":\"resolved\"") || body.contains("\"state\":\"ok\""), "{body}");

        // Dashboard renders the store table and alert states.
        let (code, _, body) = t.handle("/dashboard");
        assert_eq!(code, 200);
        assert!(body.contains("VM"), "{body}");
        assert!(body.contains("pressure-watermark"), "{body}");
    }

    #[test]
    fn healthz_reports_503_when_a_check_fails() {
        let t = telemetry();
        t.add_health("native", || Ok("fine".to_string()));
        t.add_health("gremlin", || Err("connection refused".to_string()));
        let (code, _, body) = t.handle("/healthz");
        assert_eq!(code, 503);
        assert!(body.contains("\"status\":\"unhealthy\""));
        let doc = crate::json::parse_json(&body).unwrap();
        assert_eq!(
            doc.get("checks").and_then(|c| c.get("gremlin")).and_then(|n| n.get("ok")),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn qlog_routes_require_attachment_then_serve_feedback() {
        let t = telemetry();
        assert_eq!(t.handle("/qlog.json").0, 404);
        let feedback = Arc::new(EstimateFeedback::new());
        t.set_qlog(feedback.clone(), None);
        let (code, _, body) = t.handle("/qlog.json");
        assert_eq!(code, 200);
        assert!(body.contains("\"enabled\":false"), "{body}");
        assert!(body.contains("\"fingerprints\":[]"), "{body}");
    }

    #[test]
    fn top_routes_require_attachment_then_serve_stats() {
        let t = telemetry();
        assert_eq!(t.handle("/top.json").0, 404);
        let stmt = Arc::new(StmtStats::new(16));
        let meter = crate::meter::ResourceMeter::new();
        meter.add_rows(7);
        meter.add_bytes(640);
        stmt.record(0xabcd, "Retrieve VM", crate::stmt::StmtOutcome::Ok, 1_000, 7, Some(&meter.snapshot()));
        t.set_stmt(stmt);
        let (code, ct, body) = t.handle("/top.json?n=5&sort=rows");
        assert_eq!((code, ct), (200, CT_JSON));
        assert!(body.contains("Retrieve VM"), "{body}");
        assert!(body.contains("\"sort\":\"rows\""), "{body}");
        let (code, _, body) = t.handle("/top.json");
        assert_eq!(code, 200);
        assert!(body.contains("\"fingerprint\":\"000000000000abcd\""), "{body}");
        assert!(body.contains("\"rows\":7"), "{body}");
        // The dashboard grows a top-queries panel and /metrics exports
        // nepal_stmt_* families once the table is attached.
        let (_, _, body) = t.handle("/dashboard");
        assert!(body.contains("top queries by cost"), "missing panel");
        assert!(body.contains("000000000000abcd"), "{body}");
        let (_, _, body) = t.handle("/metrics");
        assert!(body.contains("nepal_stmt_calls 1"), "{body}");
        assert!(body.contains("nepal_stmt_rows 7"), "{body}");
    }

    #[test]
    fn history_route_serves_ring_snapshots_and_sparklines() {
        let t = telemetry();
        assert_eq!(t.handle("/history.json").0, 404);
        let ring = Arc::new(HistoryRing::new(Duration::from_millis(10), 8));
        assert!(ring.tick_at(10, &t.metrics));
        assert!(ring.tick_at(20, &t.metrics));
        assert!(ring.tick_at(30, &t.metrics));
        t.set_history(ring);
        let (code, _, body) = t.handle("/history.json");
        assert_eq!(code, 200);
        assert!(body.contains("\"len\":3"), "{body}");
        assert!(body.contains("nepal_queries_total"), "{body}");
        let (code, _, body) = t.handle("/history.json?tail=1");
        assert_eq!(code, 200);
        assert!(body.contains("\"unix_ms\":30"), "{body}");
        assert!(!body.contains("\"unix_ms\":10"), "{body}");
        let (_, _, body) = t.handle("/dashboard");
        assert!(body.contains("metrics history"), "missing panel");
        assert!(body.contains("nepal_queries_total"), "{body}");
    }

    #[test]
    fn deep_refreshers_run_only_on_demand() {
        let t = telemetry();
        let cheap = t.metrics.gauge("cheap_runs", "cheap refresher runs");
        let deep = t.metrics.gauge("deep_runs", "deep refresher runs");
        {
            let cheap = cheap.clone();
            t.add_refresher(move || cheap.set(cheap.get() + 1));
        }
        {
            let deep = deep.clone();
            t.add_deep_refresher(move || deep.set(deep.get() + 1));
        }
        let (_, _, body) = t.handle("/metrics");
        assert!(body.contains("deep_runs 0"), "{body}");
        let (_, _, body) = t.handle("/metrics?deep=1");
        assert!(body.contains("deep_runs 1"), "{body}");
        assert!(cheap.get() >= 2, "cheap refresher must run on every scrape");
        let (_, _, body) = t.handle("/metrics.json?deep=1");
        assert!(body.contains("\"deep_runs\":2"), "{body}");
    }

    #[test]
    fn top_and_history_survive_concurrent_scrapes() {
        let t = telemetry();
        let stmt = Arc::new(StmtStats::new(32));
        t.set_stmt(stmt.clone());
        let ring = Arc::new(HistoryRing::new(Duration::from_millis(1), 64));
        for i in 0..8 {
            ring.tick_at(i * 10, &t.metrics);
        }
        t.set_history(ring.clone());
        let server = TelemetryServer::start(t, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        std::thread::scope(|s| {
            for w in 0..4 {
                let stmt = stmt.clone();
                s.spawn(move || {
                    for i in 0..10 {
                        stmt.record(w * 100 + i, "Retrieve VM", crate::stmt::StmtOutcome::Ok, 500, 1, None);
                        let (head, body) = get(addr, "/top.json");
                        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                        assert!(body.contains("\"statements\""), "{body}");
                        let (head, body) = get(addr, "/history.json");
                        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                        assert!(body.contains("\"snapshots\""), "{body}");
                    }
                });
            }
        });
        drop(server);
    }

    #[test]
    fn refreshers_run_before_metrics_render() {
        let t = telemetry();
        let g = t.metrics.gauge("nepal_store_entities", "entities");
        t.add_refresher(move || g.set(42));
        let (_, _, body) = t.handle("/metrics");
        assert!(body.contains("nepal_store_entities 42"));
    }

    #[test]
    fn metrics_and_healthz_round_trip_over_a_real_socket() {
        let t = telemetry();
        t.add_health("native", || Ok("ok".to_string()));
        let server = TelemetryServer::start(t, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(!body.is_empty());
        assert!(body.contains("nepal_queries_total 5"));

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"status\":\"ok\""));

        let (head, _) = get(addr, "/unknown");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        drop(server); // joins the accept thread
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let t = telemetry();
        let server = TelemetryServer::start(t, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }

    /// A client that connects and stalls mid-request must not block a
    /// concurrent scrape (connections are served on their own threads).
    #[test]
    fn stalled_connection_does_not_block_scrapes() {
        let t = telemetry();
        let server = TelemetryServer::start(t, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // Send half a request line and hold the socket open.
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /met").unwrap();
        stalled.flush().unwrap();

        let start = std::time::Instant::now();
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("nepal_queries_total"));
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "scrape blocked behind stalled client: {:?}",
            start.elapsed()
        );
        drop(stalled);
    }
}
