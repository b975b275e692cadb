//! Observability for Nepal: engine metrics, query profiling, span tracing,
//! and the live telemetry endpoint.
//!
//! Dependency-free by design (the build environment is offline), which
//! is also why it owns the workspace's one JSON codec. The modules:
//!
//! - [`json`] — the [`Json`] value, its writer and parser. Every JSON
//!   surface of the workspace (these routes, qlog lines, snapshot bundles,
//!   bench reports, the Gremlin wire frames) builds a [`Json`] tree and
//!   serialises it once: compact, keys sorted, non-finite numbers as
//!   `null`.
//! - [`metrics`] — atomic [`Counter`]/[`Gauge`]/[`Histogram`] primitives in
//!   a [`MetricsRegistry`], renderable as Prometheus text exposition format
//!   or a [`Json`] document. Histograms use log₂ buckets, sized for
//!   nanosecond latencies, with estimated p50/p95/p99 quantiles.
//! - [`profile`] — the [`QueryProfile`] trace threaded through the query
//!   pipeline: parse/plan/execute phase timings, the anchor candidates the
//!   planner considered with their costs, per-operator
//!   rows-in/rows-out/duration for every `Select`/`Extend`/`Union`, join
//!   build/probe sizes, and free-form backend counters.
//! - [`trace`] — hierarchical [`SpanHandle`] spans under a [`Tracer`] with
//!   head-based sampling, a bounded trace ring that always keeps slow
//!   queries, and a Chrome trace-event JSON exporter (Perfetto /
//!   `chrome://tracing`). Disabled tracing takes no clock reads on the
//!   hot path.
//! - [`http`] — a std-only HTTP listener ([`TelemetryServer`]) serving
//!   `/metrics`, `/metrics.json`, `/healthz`, `/traces`, `/top.json`,
//!   `/qlog.json` (log status), and `/traces/<id>`.
//! - [`qlog`] — the durable query log: append-only JSONL records
//!   ([`QlogRecord`]) with bounded rotation ([`QueryLog`]), normalized
//!   query [`fingerprint`]s, and the planner's per-variable
//!   estimate-vs-actual feedback ([`PlanFeedback`]).
//! - [`stmt`] — the per-fingerprint statement table ([`StmtStats`]): one
//!   bounded LRU row per fingerprint holding its cost and its planner
//!   q-error together, served at `/top.json`.
//! - [`flight`] — the black-box flight recorder: per-thread lock-free
//!   rings of compact wide events ([`WideEvent`]) stitched into one
//!   chronological stream, plus anomaly-triggered diagnostics snapshot
//!   bundles (panic hook, firing alert, SIGQUIT, `POST /snapshot`).
//! - [`slo`] — declarative SLO rules ([`SloRule`]) evaluated by the
//!   pull-time burn-rate engine ([`SloEngine`]): latency-quantile,
//!   error-rate and memory-watermark ceilings with
//!   firing/pending/resolved alert state, exported as
//!   `nepal_alerts_firing` and served at `/alerts.json`.

pub mod flight;
pub mod history;
pub mod http;
pub mod json;
pub mod meter;
pub mod metrics;
pub mod profile;
pub mod qlog;
pub mod slo;
pub mod stmt;
pub mod trace;

pub use flight::{FlightHandle, FlightKind, FlightRecorder, FlightStats, WideEvent, DEFAULT_RING_EVENTS};
pub use history::{sparkline, HistoryRing, HistorySnapshot};
pub use http::{
    fmt_bytes, install_panic_hook, ResourceClass, ResourceSummary, SnapshotConfig, Telemetry, TelemetryServer,
};
pub use json::{parse_json, Json};
pub use meter::{thread_cpu_ns, MeterSnapshot, ResourceMeter};
pub use metrics::{quantile_from_counts, Counter, Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use profile::{fmt_ns, AnchorCandidate, ExecTrace, JoinStep, OpStats, QueryProfile, SearchSplit, VarProfile};
pub use qlog::{fingerprint, qerror, PlanFeedback, QlogRecord, QueryLog, VarFeedback};
pub use slo::{alerts_json, alerts_text, AlertState, AlertStatus, SloEngine, SloRule, SloSignal};
pub use stmt::{StmtEntry, StmtOutcome, StmtSort, StmtStats};
pub use trace::{chrome_trace_json, SpanHandle, SpanRecord, Trace, TraceSummary, Tracer, TRACK_CLIENT, TRACK_SERVER};
