//! The Nepal query engine.
//!
//! Executes parsed queries against the backend registry:
//!
//! 1. Plan each range variable's RPE (anchor selection uses the owning
//!    backend's statistics, §5.1).
//! 2. Order variables by anchor cost; a variable whose own anchor is
//!    expensive *imports* its anchor from a join — "while range variable
//!    Phys does not have explicit anchors, they are provided by the joins
//!    against the anchored range variables D1 and D2" (§3.4).
//! 3. Hash-join the per-variable pathway sets on the Where-clause equality
//!    conditions, possibly across different backends (data integration).
//! 4. Apply temporal semantics: query-level `AT a : b` requires all
//!    coexisting results and reports the maximal joint assertion range;
//!    per-variable `(@t)` scopes are independent (§4).
//! 5. Evaluate `[Not] Exists` subqueries by decorrelation (inner query runs
//!    once; correlated equalities become an anti-/semi-join).
//! 6. Post-process the head: `Retrieve` returns pathways, `Select` runs the
//!    result-processing layer, and the §4 temporal aggregates fold the
//!    joint interval sets.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use nepal_graph::{FxHashMap, Interval, IntervalSet, TimeFilter, Uid};
use nepal_obs::qlog::Fnv64;
use nepal_obs::{
    fingerprint, AnchorCandidate, Counter, Histogram, JoinStep, MeterSnapshot, MetricsRegistry, PlanFeedback,
    QlogRecord, QueryLog, QueryProfile, ResourceMeter, SloEngine, SloRule, SpanHandle, StmtOutcome, StmtStats, Tracer,
    VarProfile,
};
use nepal_rpe::{
    plan_rpe_with, resolved_threads, BoundAtom, CancelCause, CancelToken, CardinalityEstimator, EvalOptions, ExecCtx,
    Folded, Pathway, RpePlan, Seeds, Sink,
};
use nepal_schema::{Schema, Ts, Value};

use crate::ast::{AggFn, Cond, Expr, Head, PathFn, QCmp, Query, SelectItem, TimeSpec};
use crate::backend::{Backend, BackendRegistry};
use crate::error::{NepalError, Result};
use crate::parser::parse_query;

/// Full-history probe range used by temporal aggregates when the query has
/// no explicit `AT` clause.
pub const FULL_RANGE: (Ts, Ts) = (i64::MIN / 4, i64::MAX / 4);

/// One result row.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Pathway bindings in source-declaration order.
    pub pathways: Vec<(String, Pathway)>,
    /// `Select` output values (empty for `Retrieve`).
    pub values: Vec<Value>,
    /// Joint maximal assertion ranges (range queries and aggregates).
    pub times: Option<IntervalSet>,
}

/// A query result.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<ResultRow>,
}

impl QueryResult {
    /// Pathways bound to a variable across all rows (deduplicated).
    pub fn pathways_of(&self, var: &str) -> Vec<&Pathway> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for row in &self.rows {
            for (v, p) in &row.pathways {
                if v == var && seen.insert(&p.elems) {
                    out.push(p);
                }
            }
        }
        out
    }
}

struct BackendEstimator<'a>(&'a dyn Backend);

impl CardinalityEstimator for BackendEstimator<'_> {
    fn estimate(&self, _schema: &Schema, atom: &BoundAtom) -> f64 {
        self.0.estimate(atom)
    }
}

/// Thresholds for [`Engine::install_standard_slos`]. The defaults suit an
/// interactive inventory store: 50ms p99, 1% errors, 1GiB store heap,
/// planner q-error within 64×.
#[derive(Debug, Clone)]
pub struct StandardSlos {
    pub max_p99_ns: u64,
    pub max_error_ratio: f64,
    pub max_store_bytes: i64,
    pub max_qerror: f64,
}

impl Default for StandardSlos {
    fn default() -> StandardSlos {
        StandardSlos { max_p99_ns: 50_000_000, max_error_ratio: 0.01, max_store_bytes: 1 << 30, max_qerror: 64.0 }
    }
}

/// The engine: a backend registry plus the query pipeline.
pub struct Engine {
    pub registry: BackendRegistry,
    /// Options applied to every RPE evaluation. When
    /// [`EvalOptions::cancel`] is set here it acts as a *session/server
    /// parent token*: each query gets a fresh child of it, so cancelling
    /// the parent (REPL `:cancel`, server drain) trips every in-flight and
    /// future query while [`Engine::default_deadline`] still applies
    /// per-query.
    pub eval_options: EvalOptions,
    /// Per-query deadline applied to every query as a fresh child token
    /// (`None` = unbounded). The query's nested runs (view
    /// materialisation, decorrelated `EXISTS`) share its token, so the
    /// deadline bounds the whole query. A tripped deadline surfaces as
    /// [`NepalError::DeadlineExceeded`].
    pub default_deadline: Option<std::time::Duration>,
    /// Engine-level metrics: query counts and latency histograms. Render
    /// with [`MetricsRegistry::render_prometheus`]. Shared (`Arc`) so a
    /// telemetry endpoint can serve it concurrently.
    pub metrics: Arc<MetricsRegistry>,
    /// Span tracer: every `query` call becomes a hierarchical trace when
    /// enabled; when disabled the whole span machinery is a no-op.
    pub tracer: Tracer,
    /// Durable query log (JSONL, bounded rotation). `None` — the default —
    /// leaves the unprofiled hot path untouched: no clock reads beyond the
    /// existing latency pair, no hashing, no I/O.
    pub qlog: Option<Arc<QueryLog>>,
    /// Per-fingerprint statement statistics (cost attribution and planner
    /// accuracy). While enabled, every [`Engine::query`] runs through the
    /// profiled path with a [`ResourceMeter`] attached, and each query's
    /// wall / CPU / row / byte totals and anchor q-error are folded into
    /// its fingerprint's entry. `None` — the default — adds one `Option`
    /// check to the hot path.
    pub stmt: Option<Arc<StmtStats>>,
    /// Named pathway views (§3.4: "Additional views can be defined").
    views: HashMap<String, Query>,
    planner: PlannerMetrics,
}

/// The q-error families every profiled query feeds, registered with the
/// engine so `/metrics` exports them before the first query.
struct PlannerMetrics {
    records: Arc<Counter>,
    misestimates: Arc<Counter>,
    qerror: Arc<Histogram>,
}

/// One query's execution state. The outermost execution creates it;
/// nested runs (view materialisation, decorrelated `EXISTS`) borrow it, so
/// they share the query's cancel token — and with it one deadline — and
/// charge their work to its meter.
struct QueryRun {
    /// The engine's options with this query's token and meter.
    opts: EvalOptions,
    /// Views being materialised around the current run.
    view_depth: u8,
    /// Chosen anchor of the most recently planned variable, rendered only
    /// while the flight recorder is on — carried into its `query_end`
    /// event.
    anchor: String,
}

struct VarEval {
    var: String,
    backend: Option<String>,
    filter: TimeFilter,
    /// Participates in the query-level joint coexistence requirement.
    joint: bool,
    /// `None` for view-sourced variables, whose pathways are filled in
    /// when they are planned.
    plan: Option<RpePlan>,
    pathways: Vec<Pathway>,
}

fn spec_to_filter(spec: &TimeSpec) -> TimeFilter {
    match spec {
        TimeSpec::At(t) => TimeFilter::AsOf(*t),
        TimeSpec::Range(a, b) => TimeFilter::Range(*a, *b),
    }
}

/// What the engine's own row loops (unary filters, joins, coexistence)
/// read of the query's options: its token, polled once per 1024 rows
/// through one counter, and its meter.
struct RowLoop<'a> {
    opts: &'a EvalOptions,
    polls: u64,
}

impl RowLoop<'_> {
    #[inline]
    fn poll(&mut self) -> Result<()> {
        let Some(tok) = &self.opts.cancel else { return Ok(()) };
        self.polls = self.polls.wrapping_add(1);
        if self.polls & ENGINE_CANCEL_MASK != 0 {
            return Ok(());
        }
        match tok.poll() {
            None => Ok(()),
            Some(CancelCause::Deadline) => Err(NepalError::DeadlineExceeded),
            Some(CancelCause::Explicit) => Err(NepalError::Cancelled),
        }
    }
}

/// Poll frequency for the engine's row loops.
const ENGINE_CANCEL_MASK: u64 = 0x3FF; // every 1024 rows

impl Engine {
    pub fn new(registry: BackendRegistry) -> Engine {
        let metrics = Arc::new(MetricsRegistry::new());
        let planner = PlannerMetrics {
            records: metrics.counter("nepal_qlog_records_total", "Query-log records observed"),
            misestimates: metrics.counter("nepal_planner_misestimates_total", "Anchor estimates with q-error > 2"),
            qerror: metrics.histogram(
                "nepal_planner_qerror_x1000",
                "Anchor cardinality q-error (max(est/actual, actual/est)) x1000",
            ),
        };
        Engine {
            registry,
            eval_options: EvalOptions::default(),
            default_deadline: None,
            metrics,
            tracer: Tracer::new(),
            qlog: None,
            stmt: None,
            views: HashMap::new(),
            planner,
        }
    }

    /// Open (or create, appending) a durable query log at `path`, rotating
    /// once the live file exceeds `max_bytes` and keeping `max_files`
    /// rotated generations. While enabled, every [`Engine::query`] runs
    /// through the profiled path so the log carries per-operator actuals.
    pub fn enable_qlog(
        &mut self,
        path: impl AsRef<std::path::Path>,
        max_bytes: u64,
        max_files: usize,
    ) -> std::io::Result<()> {
        self.qlog = Some(Arc::new(QueryLog::open(path, max_bytes, max_files)?));
        Ok(())
    }

    /// Close the durable query log, restoring the zero-overhead hot path.
    pub fn disable_qlog(&mut self) {
        self.qlog = None;
    }

    /// Enable per-fingerprint statement statistics, bounded at `capacity`
    /// tracked fingerprints (LRU eviction beyond that). Returns the shared
    /// table so a telemetry endpoint can serve `/top.json` from it.
    pub fn enable_stmt(&mut self, capacity: usize) -> Arc<StmtStats> {
        let stats = Arc::new(StmtStats::new(capacity));
        self.stmt = Some(stats.clone());
        stats
    }

    /// Disable statement statistics, restoring the unprofiled hot path.
    pub fn disable_stmt(&mut self) {
        self.stmt = None;
    }

    /// Build an [`SloEngine`] over this engine's metrics with the standard
    /// rule set:
    ///
    /// - `query-latency-p99` — windowed p99 of `nepal_query_duration_ns`
    ///   at most `slos.max_p99_ns`;
    /// - `query-error-rate` — `nepal_query_errors_total` over
    ///   `nepal_queries_total` at most `slos.max_error_ratio` per window;
    /// - `store-memory` — `nepal_store_total_bytes` watermark at most
    ///   `slos.max_store_bytes` (kept current by a `StoreGauges`
    ///   refresher);
    /// - `planner-qerror` — windowed p99 of `nepal_planner_qerror_x1000`
    ///   (fed by every profiled query) at most `slos.max_qerror`.
    ///
    /// Pull-time evaluation only: hand the result to
    /// `Telemetry::set_slo` (and/or call `evaluate()` yourself); nothing
    /// here spawns a thread.
    pub fn install_standard_slos(&self, slos: &StandardSlos) -> Arc<SloEngine> {
        let engine = Arc::new(SloEngine::new(self.metrics.clone()));
        engine.add(SloRule::latency("query-latency-p99", "nepal_query_duration_ns", 0.99, slos.max_p99_ns));
        engine.add(SloRule::error_rate(
            "query-error-rate",
            "nepal_query_errors_total",
            "nepal_queries_total",
            slos.max_error_ratio,
        ));
        engine.add(SloRule::gauge_max("store-memory", "nepal_store_total_bytes", slos.max_store_bytes));
        engine.add(SloRule::latency(
            "planner-qerror",
            "nepal_planner_qerror_x1000",
            0.99,
            (slos.max_qerror * 1000.0) as u64,
        ));
        engine
    }

    /// Register a named pathway view: a stored query whose first retrieved
    /// variable supplies the pathways when the view is ranged over
    /// (`Retrieve V From myview V Where …`).
    pub fn define_view(&mut self, name: impl Into<String>, query_text: &str) -> Result<()> {
        let q = parse_query(query_text)?;
        match &q.head {
            Head::Retrieve(vars) if !vars.is_empty() => {}
            _ => return Err(NepalError::Unsupported("a view must be a Retrieve query".into())),
        }
        self.views.insert(name.into(), q);
        Ok(())
    }

    /// Parse and execute a query, recording engine metrics. When the
    /// engine's tracer is enabled, the whole call becomes one hierarchical
    /// trace (parse → plan → execute, down to backend operator spans).
    pub fn query(&mut self, text: &str) -> Result<QueryResult> {
        // With the durable query log or statement statistics enabled,
        // every query takes the profiled path — the log needs
        // per-operator actuals and the stats table needs the resource
        // meter. When both are off (the default) this branch is two
        // `Option` checks and the hot path is exactly the
        // pre-instrumentation code.
        if self.qlog.is_some() || self.stmt.is_some() {
            return self.query_profiled(text).map(|(r, _)| r);
        }
        let mut run = self.begin_query(false);
        self.run_query(text, None, &mut run).0
    }

    /// The state of a new query: a fresh child of the session/server parent
    /// token (if any) carrying the engine's default deadline — one token per
    /// query, so the deadline clock starts here and every nested run
    /// observes it — and, when `profiled`, a fresh resource meter.
    fn begin_query(&self, profiled: bool) -> QueryRun {
        let mut opts = self.eval_options.clone();
        opts.cancel = match (&self.eval_options.cancel, self.default_deadline) {
            (None, None) => None,
            (Some(parent), deadline) => Some(parent.child(deadline)),
            (None, Some(deadline)) => Some(CancelToken::with_deadline(deadline)),
        };
        opts.meter = profiled.then(ResourceMeter::new);
        QueryRun { opts, view_depth: 0, anchor: String::new() }
    }

    /// What [`Engine::query`] and [`Engine::query_profiled`] share: the
    /// flight `QueryStart` event, the root trace span, parse, execute, and
    /// the latency / error / cancellation metrics. Returns the result, the
    /// wall time from before parsing, and the root span — still open, so
    /// it covers whatever bookkeeping the caller adds. `profile`, when
    /// given, also receives the parse time.
    fn run_query(
        &mut self,
        text: &str,
        mut profile: Option<&mut QueryProfile>,
        run: &mut QueryRun,
    ) -> (Result<QueryResult>, u64, SpanHandle) {
        if nepal_obs::flight::recorder().is_enabled() {
            nepal_obs::flight::emit(nepal_obs::FlightKind::QueryStart, fingerprint(text), 0, 0, "");
        }
        let root = self.tracer.start_trace(text);
        let t0 = Instant::now();
        let parse_span = root.child("parse");
        let parsed = parse_query(text);
        drop(parse_span);
        if let Some(p) = profile.as_deref_mut() {
            p.parse_ns = t0.elapsed().as_nanos() as u64;
        }
        let result = parsed.and_then(|q| self.execute_inner(&q, profile, &root, run));
        let total_ns = t0.elapsed().as_nanos() as u64;
        if let Ok(r) = &result {
            root.attr("rows", r.rows.len());
        }
        let rows = result.as_ref().ok().map(|r| r.rows.len() as u64);
        self.record_query_metrics(text, total_ns, rows, &run.anchor);
        if let Err(e) = &result {
            self.note_cancellation_metrics(e);
        }
        (result, total_ns, root)
    }

    /// Parse and execute a query with full profiling (the `EXPLAIN ANALYZE`
    /// path): phase timings, anchor candidates, per-operator statistics.
    pub fn query_profiled(&mut self, text: &str) -> Result<(QueryResult, QueryProfile)> {
        let mut profile = QueryProfile::default();
        let mut run = self.begin_query(true);
        let (result, total_ns, root) = self.run_query(text, Some(&mut profile), &mut run);
        let meter_snap = run.opts.meter.as_ref().map(|m| m.snapshot());
        let mut rec = QlogRecord {
            ts_ms: if self.qlog.is_some() { unix_ms() } else { 0 },
            query: text.to_string(),
            fingerprint: fingerprint(text),
            trace_id: root.trace_id(),
            threads: resolved_threads(self.eval_options.threads) as u64,
            parse_ns: profile.parse_ns,
            total_ns,
            ..QlogRecord::default()
        };
        let outcome = match &result {
            Ok(r) => {
                rec.plan_ns = profile.plan_ns;
                rec.exec_ns = profile.exec_ns;
                rec.rows = r.rows.len() as u64;
                rec.digest = digest_result(r);
                rec.feedback = PlanFeedback::from_profile(&profile);
                StmtOutcome::Ok
            }
            Err(e) => {
                rec.error = Some(e.to_string());
                match e {
                    NepalError::DeadlineExceeded => StmtOutcome::Deadline,
                    NepalError::Cancelled => StmtOutcome::Cancelled,
                    _ => StmtOutcome::Error,
                }
            }
        };
        self.record_profiled(&rec, outcome, meter_snap.as_ref());
        let result = result?;
        profile.query = rec.query;
        profile.total_ns = total_ns;
        profile.result_rows = rec.rows;
        profile.meter = meter_snap;
        Ok((result, profile))
    }

    /// Where every profiled query's one record goes: the q-error metric
    /// families, the statement table and, while it is on, the durable log.
    fn record_profiled(&self, rec: &QlogRecord, outcome: StmtOutcome, meter: Option<&MeterSnapshot>) {
        self.planner.records.inc();
        for v in rec.feedback.vars.iter().filter(|v| !v.candidates.is_empty()) {
            let q = v.qerror();
            self.planner.qerror.observe((q * 1000.0) as u64);
            if q > 2.0 {
                self.planner.misestimates.inc();
            }
        }
        if let Some(stmt) = &self.stmt {
            let worst = rec.feedback.worst_var();
            stmt.record(rec.fingerprint, &rec.query, outcome, rec.total_ns, rec.rows, meter, worst);
        }
        if let Some(qlog) = &self.qlog {
            qlog.append(rec);
        }
    }

    /// Count cancellation outcomes so the serving layer's shed/cancel rates
    /// are observable (`nepal_query_deadline_total` /
    /// `nepal_query_cancelled_total`).
    fn note_cancellation_metrics(&self, e: &NepalError) {
        match e {
            NepalError::DeadlineExceeded => {
                self.metrics
                    .counter("nepal_query_deadline_total", "Queries abandoned because their deadline passed")
                    .inc();
                nepal_obs::flight::emit(nepal_obs::FlightKind::DeadlineTrip, 0, 0, 0, "engine");
            }
            NepalError::Cancelled => {
                self.metrics.counter("nepal_query_cancelled_total", "Queries abandoned by explicit cancellation").inc();
                nepal_obs::flight::emit(nepal_obs::FlightKind::CancelTrip, 0, 0, 0, "engine");
            }
            _ => {}
        }
    }

    fn record_query_metrics(&self, text: &str, total_ns: u64, rows: Option<u64>, anchor: &str) {
        self.metrics.counter("nepal_queries_total", "Queries executed").inc();
        if nepal_obs::flight::recorder().is_enabled() {
            let fp = fingerprint(text);
            match rows {
                Some(n) => nepal_obs::flight::emit(nepal_obs::FlightKind::QueryEnd, fp, total_ns / 1_000, n, anchor),
                None => nepal_obs::flight::emit(nepal_obs::FlightKind::QueryError, fp, total_ns / 1_000, 0, ""),
            }
        }
        match rows {
            Some(n) => {
                self.metrics.histogram("nepal_query_duration_ns", "Query latency in nanoseconds").observe(total_ns);
                self.metrics.histogram("nepal_query_result_rows", "Result rows per query").observe(n);
            }
            None => {
                self.metrics.counter("nepal_query_errors_total", "Queries that returned an error").inc();
            }
        }
    }

    /// Execute a parsed query.
    pub fn execute(&mut self, q: &Query) -> Result<QueryResult> {
        let mut run = self.begin_query(false);
        self.execute_inner(q, None, &SpanHandle::none(), &mut run)
    }

    fn execute_inner(
        &mut self,
        q: &Query,
        profile: Option<&mut QueryProfile>,
        span: &SpanHandle,
        run: &mut QueryRun,
    ) -> Result<QueryResult> {
        if let Some(sinks) = fold_sinks(q) {
            return self.fold_query(q, &sinks, profile, span, run);
        }
        let joined = self.joined_rows(q, profile, span, run)?;
        let _head_span = span.child("head");
        self.finish_head(q, joined)
    }

    /// A query whose answer is a fold of its variables' pathways
    /// ([`fold_sinks`]): plan the variables, ask each backend for its sink's
    /// value instead of the pathways, and combine the values. A count is
    /// the answer; a set of ends answers with its size; two by-end maps
    /// answer with Σₖ cA(k)·cB(k), the number of rows the end equality
    /// would join, probing the smaller map into the larger.
    fn fold_query(
        &mut self,
        q: &Query,
        sinks: &[Sink],
        mut profile: Option<&mut QueryProfile>,
        span: &SpanHandle,
        run: &mut QueryRun,
    ) -> Result<QueryResult> {
        let evals = self.plan_vars(q, None, profile.as_deref_mut(), span, run)?;
        let texec = profile.is_some().then(Instant::now);
        let exec_span = span.child("execute");
        let mut folds = Vec::with_capacity(sinks.len());
        for (i, (e, &sink)) in evals.iter().zip(sinks).enumerate() {
            let plan = e.plan.as_ref().expect("fold_sinks admits PATHS variables only");
            let backend = self.registry.get_mut(e.backend.as_deref())?;
            let teval = profile.is_some().then(Instant::now);
            let var_span = exec_span.child(format_args!("eval:{}", e.var));
            var_span.attr("backend", backend.kind());
            var_span.attr("automaton", plan.automaton.as_str());
            let mut ctx = ExecCtx {
                trace: profile.as_deref_mut().map(|p| &mut p.vars[i].trace),
                span: Some(&var_span),
                metrics: Some(&self.metrics),
            };
            let (folded, mode) = backend.fold_in(plan, e.filter, sink, &run.opts, &mut ctx)?;
            var_span.attr("count", mode.as_str());
            var_span.attr("pathways", folded.pathways());
            drop(var_span);
            if let (Some(p), Some(t)) = (profile.as_deref_mut(), teval) {
                let vp = &mut p.vars[i];
                vp.eval_ns = t.elapsed().as_nanos() as u64;
                vp.pathways = folded.pathways() as u64;
                vp.count = Some(mode.as_str());
                vp.generated = backend.generated(plan, e.filter, Seeds::Anchor);
            }
            folds.push(folded);
        }
        drop(exec_span);
        if let (Some(p), Some(t)) = (profile, texec) {
            p.exec_ns = t.elapsed().as_nanos() as u64;
        }
        let _head_span = span.child("head");
        let n = match &folds[..] {
            [Folded::Count(n)] => *n as u64,
            [Folded::Ends(ends, _)] => ends.len() as u64,
            [Folded::ByEnd(a), Folded::ByEnd(b)] => {
                let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                small.iter().map(|(end, n)| n * large.get(end).copied().unwrap_or(0)).sum()
            }
            _ => unreachable!("fold_sinks pairs each shape with its sinks"),
        };
        let Head::Select(items) = &q.head else { unreachable!("fold_sinks admits Select heads only") };
        Ok(QueryResult {
            columns: vec![item_name(&items[0])],
            rows: vec![ResultRow { pathways: Vec::new(), values: vec![Value::Int(n as i64)], times: None }],
        })
    }

    /// Everything before the head, one phase after another, each under the
    /// span of its name (the unary filters have none): plan each range
    /// variable, execute them in anchor-cost order, apply the
    /// single-variable filters, join, require joint coexistence under a
    /// query-level range, and filter by the `EXISTS` subqueries.
    fn joined_rows(
        &mut self,
        q: &Query,
        mut profile: Option<&mut QueryProfile>,
        span: &SpanHandle,
        run: &mut QueryRun,
    ) -> Result<Joined> {
        let aggregate = matches!(q.head, Head::FirstTimeWhenExists | Head::LastTimeWhenExists | Head::WhenExists);
        // Temporal aggregates need interval sets: default to the full
        // history range when no AT clause is present.
        let query_time = match (&q.time, aggregate) {
            (Some(t), _) => Some(*t),
            (None, true) => Some(TimeSpec::Range(FULL_RANGE.0, FULL_RANGE.1)),
            (None, false) => None,
        };
        let mut evals = self.plan_vars(q, query_time, profile.as_deref_mut(), span, run)?;
        let texec = profile.is_some().then(Instant::now);
        let order = self.eval_vars(q, &mut evals, profile.as_deref_mut(), span, &run.opts)?;
        let mut row_loop = RowLoop { opts: &run.opts, polls: 0 };
        self.unary_filters(q, &mut evals, &mut row_loop)?;
        let mut joined = self.join(q, evals, &order, profile.as_deref_mut(), span, &mut row_loop)?;
        let coexistence_pruned = joined.coexist(query_time, span, &mut row_loop)?;
        let exists_pruned = self.filter_exists(q, &mut joined, span, run)?;
        if let Some(p) = profile {
            p.coexistence_pruned = coexistence_pruned;
            p.exists_pruned = exists_pruned;
            if let Some(t) = texec {
                p.exec_ns = t.elapsed().as_nanos() as u64;
            }
        }
        Ok(joined)
    }

    /// Plan phase: plan each range variable's RPE against its backend's
    /// statistics (§5.1), or materialise the view it ranges over.
    fn plan_vars(
        &mut self,
        q: &Query,
        query_time: Option<TimeSpec>,
        mut profile: Option<&mut QueryProfile>,
        span: &SpanHandle,
        run: &mut QueryRun,
    ) -> Result<Vec<VarEval>> {
        let tphase = profile.is_some().then(Instant::now);
        let plan_span = span.child("plan");
        let mut evals = Vec::with_capacity(q.sources.len());
        for s in &q.sources {
            let (filter, joint) = match (&s.time, &query_time) {
                (Some(t), _) => (spec_to_filter(t), false),
                (None, Some(t)) => (spec_to_filter(t), matches!(t, TimeSpec::Range(_, _))),
                (None, None) => (TimeFilter::Current, false),
            };
            let mut eval = VarEval {
                var: s.var.clone(),
                backend: s.backend.clone(),
                filter,
                joint,
                plan: None,
                pathways: Vec::new(),
            };
            if let Some(view_name) = &s.view {
                eval.pathways = self.materialise_view(view_name, run)?;
                if let Some(p) = profile.as_deref_mut() {
                    p.vars.push(VarProfile {
                        var: s.var.clone(),
                        backend: format!("view `{view_name}`"),
                        pathways: eval.pathways.len() as u64,
                        ..Default::default()
                    });
                }
                evals.push(eval);
                continue;
            }
            let rpe = q.matches_of(&s.var).ok_or_else(|| NepalError::NoMatches(s.var.clone()))?;
            let backend = self.registry.get(s.backend.as_deref())?;
            let tplan = profile.is_some().then(Instant::now);
            let var_span = plan_span.child(format_args!("plan:{}", s.var));
            let plan = plan_rpe_with(backend.schema(), rpe, &BackendEstimator(backend), &var_span)?;
            var_span.attr("anchor_cost", format_args!("{:.1}", plan.anchor.cost));
            if nepal_obs::flight::recorder().is_enabled() {
                run.anchor = plan.anchor_desc(&plan.anchor);
            }
            drop(var_span);
            if let Some(p) = profile.as_deref_mut() {
                let anchors = plan
                    .candidates
                    .iter()
                    .map(|set| AnchorCandidate {
                        desc: plan.anchor_desc(set),
                        cost: set.cost,
                        chosen: set.atoms == plan.anchor.atoms && set.cost == plan.anchor.cost,
                    })
                    .collect();
                p.vars.push(VarProfile {
                    var: s.var.clone(),
                    backend: s.backend.clone().unwrap_or_else(|| self.registry.default_name().to_string()),
                    plan_ns: tplan.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
                    anchors,
                    automaton: Some(plan.automaton.as_str()),
                    ..Default::default()
                });
            }
            eval.plan = Some(plan);
            evals.push(eval);
        }
        drop(plan_span);
        if let (Some(p), Some(t)) = (profile, tphase) {
            p.plan_ns = t.elapsed().as_nanos() as u64;
        }
        Ok(evals)
    }

    /// The pathways of a view's first retrieved variable, from a nested run
    /// of the view's query under this query's state (with a depth guard).
    fn materialise_view(&mut self, view_name: &str, run: &mut QueryRun) -> Result<Vec<Pathway>> {
        let vq = self
            .views
            .get(view_name)
            .cloned()
            .ok_or_else(|| NepalError::UnknownBackend(format!("view `{view_name}`")))?;
        if run.view_depth >= 8 {
            return Err(NepalError::Unsupported("view recursion too deep".into()));
        }
        run.view_depth += 1;
        let result = self.execute_inner(&vq, None, &SpanHandle::none(), run);
        run.view_depth -= 1;
        let Head::Retrieve(vars) = &vq.head else { unreachable!("define_view enforces Retrieve") };
        Ok(result?.pathways_of(&vars[0]).into_iter().cloned().collect())
    }

    /// Execute phase: evaluate the variables one at a time, cheapest anchor
    /// first (view variables are already filled in); parallelism lives
    /// inside each evaluation. A variable whose ends are equated with an
    /// evaluated variable's starts from that variable's distinct ends
    /// instead of its own anchor when they are fewer than the anchor's
    /// estimate — the anchor import of §3.4. Returns the evaluation order,
    /// which the join follows.
    fn eval_vars(
        &mut self,
        q: &Query,
        evals: &mut [VarEval],
        mut profile: Option<&mut QueryProfile>,
        span: &SpanHandle,
        opts: &EvalOptions,
    ) -> Result<Vec<usize>> {
        let exec_span = span.child("execute");
        let cost_of = |e: &VarEval| e.plan.as_ref().map_or(0.0, |p| p.anchor.cost);
        let mut order: Vec<usize> = (0..evals.len()).collect();
        order.sort_by(|&a, &b| cost_of(&evals[a]).total_cmp(&cost_of(&evals[b])));
        // Equality conditions between path ends, used for anchor import.
        let end_links: Vec<(PathFn, &str, PathFn, &str)> = q
            .conds
            .iter()
            .filter_map(|c| match c {
                Cond::Cmp(Expr::PathEnd(fa, va), QCmp::Eq, Expr::PathEnd(fb, vb)) => Some((*fa, &**va, *fb, &**vb)),
                _ => None,
            })
            .collect();
        let mut evaluated: HashSet<String> = HashSet::new();
        for &i in &order {
            let e = &evals[i];
            let Some(plan) = &e.plan else {
                evaluated.insert(e.var.clone());
                continue;
            };
            // Of the evaluated variables this one is linked to, the one
            // with the fewest distinct ends supplies the candidate seeds.
            let mut seed_nodes: Option<(PathFn, Vec<Uid>)> = None;
            for &(fa, va, fb, vb) in &end_links {
                let (my_end, other_end, other_var) = if va == e.var && evaluated.contains(vb) {
                    (fa, fb, vb)
                } else if vb == e.var && evaluated.contains(va) {
                    (fb, fa, va)
                } else {
                    continue;
                };
                let other = evals.iter().find(|o| o.var == other_var).unwrap();
                let mut uids: Vec<Uid> = other.pathways.iter().map(|p| p.end(other_end)).collect();
                uids.sort_unstable();
                uids.dedup();
                match &seed_nodes {
                    Some((_, prev)) if prev.len() <= uids.len() => {}
                    _ => seed_nodes = Some((my_end, uids)),
                }
            }
            let seed_nodes = seed_nodes.filter(|(_, uids)| (uids.len() as f64) < plan.anchor.cost);
            let seeds = match &seed_nodes {
                Some((PathFn::Source, uids)) => Seeds::Sources(uids),
                Some((PathFn::Target, uids)) => Seeds::Targets(uids),
                None => Seeds::Anchor,
            };
            let backend = self.registry.get_mut(e.backend.as_deref())?;
            let teval = profile.is_some().then(Instant::now);
            let var_span = exec_span.child(format_args!("eval:{}", e.var));
            var_span.attr("backend", backend.kind());
            var_span.attr("automaton", plan.automaton.as_str());
            let mut ctx = ExecCtx {
                trace: profile.as_deref_mut().map(|p| &mut p.vars[i].trace),
                span: Some(&var_span),
                metrics: Some(&self.metrics),
            };
            let pathways = backend.eval_in(plan, e.filter, seeds, opts, &mut ctx)?;
            var_span.attr("pathways", pathways.len());
            drop(var_span);
            if let Some(p) = profile.as_deref_mut() {
                let vp = &mut p.vars[i];
                vp.eval_ns = teval.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
                vp.imported_seeds = seed_nodes.as_ref().map(|(_, uids)| uids.len() as u64);
                vp.pathways = pathways.len() as u64;
                vp.generated = backend.generated(plan, e.filter, seeds);
            }
            evaluated.insert(e.var.clone());
            evals[i].pathways = pathways;
        }
        Ok(order)
    }

    /// Unary-filter phase: a condition touching a single variable drops
    /// that variable's failing pathways before the join.
    fn unary_filters(&mut self, q: &Query, evals: &mut [VarEval], row_loop: &mut RowLoop) -> Result<()> {
        for cond in &q.conds {
            let Cond::Cmp(a, op, b) = cond else { continue };
            let var = match (a.var(), b.var()) {
                (Some(v), None) | (None, Some(v)) => v,
                (Some(v), Some(w)) if v == w => v,
                _ => continue,
            };
            let idx = evals.iter().position(|e| e.var == var).expect("conditions mention declared variables only");
            let (filter, backend) = (evals[idx].filter, evals[idx].backend.clone());
            let mut kept = Vec::new();
            for p in std::mem::take(&mut evals[idx].pathways) {
                row_loop.poll()?;
                let lookup = |v: &str| (v == var).then_some(&p);
                let lhs = self.eval_expr(a, &lookup, filter, backend.as_deref())?;
                let rhs = self.eval_expr(b, &lookup, filter, backend.as_deref())?;
                if (lhs == rhs) == (*op == QCmp::Eq) {
                    kept.push(p);
                }
            }
            evals[idx].pathways = kept;
        }
        Ok(())
    }

    /// Join phase: add the variables to the rows in evaluation order — by
    /// hash join when every condition linking a variable to those already
    /// joined equates path ends, by nested loop otherwise.
    fn join(
        &mut self,
        q: &Query,
        evals: Vec<VarEval>,
        order: &[usize],
        mut profile: Option<&mut QueryProfile>,
        span: &SpanHandle,
        row_loop: &mut RowLoop,
    ) -> Result<Joined> {
        // Rows are index vectors aligned with `evals`, stored flat.
        let width = evals.len().max(1);
        let mut rows: Vec<usize> = vec![usize::MAX; width];
        let mut joined: Vec<usize> = Vec::new();
        // Conditions between two different variables, with those variables.
        let binary_conds: Vec<(&Expr, &str, QCmp, &Expr, &str)> = q
            .conds
            .iter()
            .filter_map(|c| match c {
                Cond::Cmp(a, op, b) => match (a.var(), b.var()) {
                    (Some(va), Some(vb)) if va != vb => Some((a, va, *op, b, vb)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        let join_phase_span = span.child("join");
        for &i in order {
            let tjoin = profile.is_some().then(Instant::now);
            let join_span = join_phase_span.child(format_args!("join:{}", evals[i].var));
            let probe_rows = (rows.len() / width) as u64;
            // Conditions applicable once var i joins: they mention it, and
            // their other variable has joined already.
            let is_joined = |v: &str| joined.iter().any(|&j| evals[j].var == v);
            let applicable: Vec<(&Expr, QCmp, &Expr)> = binary_conds
                .iter()
                .filter(|&&(_, va, _, _, vb)| {
                    (va == evals[i].var && is_joined(vb)) || (vb == evals[i].var && is_joined(va))
                })
                .map(|&(a, _, op, b, _)| (a, op, b))
                .collect();
            // (my end, other end, other variable) per condition, when every
            // applicable condition is a `source/target(X) = source/target(Y)`
            // equality.
            let mut key_specs: Vec<(PathFn, PathFn, usize)> = Vec::new();
            let hashable = !applicable.is_empty()
                && applicable.iter().all(|c| {
                    if let (Expr::PathEnd(fa, va), QCmp::Eq, Expr::PathEnd(fb, vb)) = c {
                        let (mine, theirs, other) = if *va == evals[i].var { (fa, fb, vb) } else { (fb, fa, va) };
                        if let Some(j) = evals.iter().position(|e| e.var == *other) {
                            key_specs.push((*mine, *theirs, j));
                            return true;
                        }
                    }
                    false
                });
            rows = if hashable {
                join_span.attr("strategy", "hash");
                hash_join(&evals, i, &key_specs, &rows, width, row_loop)?
            } else {
                join_span.attr("strategy", "nested");
                self.nested_join(&evals, i, &applicable, &rows, width, row_loop)?
            };
            joined.push(i);
            if let Some(mm) = &row_loop.opts.meter {
                mm.add_join_build_rows(evals[i].pathways.len() as u64);
            }
            let emitted = rows.len() / width;
            join_span.attr("probe_rows", probe_rows);
            join_span.attr("build_rows", evals[i].pathways.len());
            join_span.attr("emitted", emitted);
            drop(join_span);
            if let Some(p) = profile.as_deref_mut() {
                p.joins.push(JoinStep {
                    var: evals[i].var.clone(),
                    probe_rows,
                    build_rows: evals[i].pathways.len() as u64,
                    emitted: emitted as u64,
                    elapsed_ns: tjoin.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
                });
            }
        }
        drop(join_phase_span);
        Ok(Joined { evals, width, rows, times: Vec::new() })
    }

    /// Join variable `i` to `rows` by testing `conds` on every (row,
    /// pathway) pair: rows outer, pathway index ascending inner.
    fn nested_join(
        &mut self,
        evals: &[VarEval],
        i: usize,
        conds: &[(&Expr, QCmp, &Expr)],
        rows: &[usize],
        width: usize,
        row_loop: &mut RowLoop,
    ) -> Result<Vec<usize>> {
        let scoped: Vec<_> =
            conds.iter().map(|&(a, op, b)| (a, scope_of(evals, a), op, b, scope_of(evals, b))).collect();
        let mut next_rows = Vec::new();
        let mut trial = vec![usize::MAX; width];
        for row in rows.chunks_exact(width) {
            row_loop.poll()?;
            trial.copy_from_slice(row);
            'cand: for pi in 0..evals[i].pathways.len() {
                trial[i] = pi;
                let lookup = row_lookup(evals, &trial);
                for &(a, (fa, ba), op, b, (fb, bb)) in &scoped {
                    let lhs = self.eval_expr(a, &lookup, fa, ba)?;
                    let rhs = self.eval_expr(b, &lookup, fb, bb)?;
                    if (lhs == rhs) != (op == QCmp::Eq) {
                        continue 'cand;
                    }
                }
                next_rows.extend_from_slice(&trial);
            }
        }
        Ok(next_rows)
    }

    /// Exists phase: filter the rows by each `[Not] Exists` subquery.
    /// Returns the number of rows pruned.
    fn filter_exists(&mut self, q: &Query, joined: &mut Joined, span: &SpanHandle, run: &mut QueryRun) -> Result<u64> {
        let exists_span = span.child("exists");
        let mut pruned = 0u64;
        for cond in &q.conds {
            if let Cond::Exists { negated, query } = cond {
                let before = joined.len();
                self.apply_exists(q, query, *negated, joined, run)?;
                pruned += (before - joined.len()) as u64;
            }
        }
        exists_span.attr("pruned", pruned);
        Ok(pruned)
    }

    fn eval_expr<'p>(
        &mut self,
        expr: &Expr,
        lookup: &dyn Fn(&str) -> Option<&'p Pathway>,
        filter: TimeFilter,
        backend: Option<&str>,
    ) -> Result<Value> {
        let bound = |var: &str| lookup(var).ok_or_else(|| NepalError::UnknownVariable(var.to_string()));
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::PathVar(v) => {
                Err(NepalError::Unsupported(format!("bare pathway variable `{v}` is only valid inside count(…)")))
            }
            Expr::Length(v) => Ok(Value::Int(bound(v)?.len_edges() as i64)),
            Expr::PathEnd(f, v) => Ok(Value::Int(bound(v)?.end(*f).0 as i64)),
            Expr::PathEndField(f, v, field) => {
                let uid = bound(v)?.end(*f);
                let b = self.registry.get_mut(backend)?;
                let schema = b.schema().clone();
                match b.fields(uid, filter) {
                    None => Ok(Value::Null),
                    Some((class, fields)) => {
                        let (idx, _) = schema.resolve_field(class, field).ok_or_else(|| NepalError::UnknownField {
                            class: schema.class(class).name.clone(),
                            field: field.clone(),
                        })?;
                        Ok(fields.get(idx).cloned().unwrap_or(Value::Null))
                    }
                }
            }
        }
    }

    /// Decorrelated EXISTS: join the inner query's rows without its
    /// correlated conditions, collect the inner key tuples, and semi-/
    /// anti-join the outer rows against them in place.
    fn apply_exists(
        &mut self,
        outer_q: &Query,
        inner_q: &Query,
        negated: bool,
        outer: &mut Joined,
        run: &mut QueryRun,
    ) -> Result<()> {
        let inner_vars: Vec<&str> = inner_q.var_names();
        let outer_vars: Vec<&str> = outer_q.var_names();
        let mut local_conds = Vec::new();
        let mut correlated: Vec<(Expr, Expr)> = Vec::new(); // (outer side, inner side)
        for c in &inner_q.conds {
            match c {
                Cond::Cmp(a, op, b) if *op == QCmp::Eq => {
                    let is_outer =
                        |e: &Expr| e.var().is_some_and(|v| !inner_vars.contains(&v) && outer_vars.contains(&v));
                    match (is_outer(a), is_outer(b)) {
                        (true, false) => correlated.push((a.clone(), b.clone())),
                        (false, true) => correlated.push((b.clone(), a.clone())),
                        (false, false) => local_conds.push(c.clone()),
                        (true, true) => {
                            return Err(NepalError::Unsupported(
                                "correlated condition referencing outer variables on both sides".into(),
                            ))
                        }
                    }
                }
                other => local_conds.push(other.clone()),
            }
        }
        let decorrelated = Query {
            time: inner_q.time,
            head: Head::Retrieve(inner_q.sources.iter().map(|s| s.var.clone()).collect()),
            sources: inner_q.sources.clone(),
            conds: local_conds,
        };
        let inner = self.joined_rows(&decorrelated, None, &SpanHandle::none(), run)?;
        // Key set from the inner side of each correlated equality; a row
        // whose key cannot be evaluated matches nothing.
        let mut keys: HashSet<Vec<Value>> = HashSet::new();
        let mut key: Vec<Value> = Vec::with_capacity(correlated.len());
        'inner: for row in inner.rows() {
            key.clear();
            for (_, inner_expr) in &correlated {
                match self.eval_expr(inner_expr, &row_lookup(&inner.evals, row), TimeFilter::Current, None) {
                    Ok(v) => key.push(v),
                    Err(_) => continue 'inner,
                }
            }
            if !keys.contains(key.as_slice()) {
                keys.insert(key.clone());
            }
        }
        let mut kept = 0;
        for r in 0..outer.len() {
            key.clear();
            for (outer_expr, _) in &correlated {
                let lookup = row_lookup(&outer.evals, outer.row(r));
                key.push(self.eval_expr(outer_expr, &lookup, TimeFilter::Current, None)?);
            }
            let exists = if correlated.is_empty() { inner.len() > 0 } else { keys.contains(key.as_slice()) };
            if exists != negated {
                outer.rows.copy_within(r * outer.width..(r + 1) * outer.width, kept * outer.width);
                if !outer.times.is_empty() {
                    outer.times.swap(r, kept);
                }
                kept += 1;
            }
        }
        outer.rows.truncate(kept * outer.width);
        outer.times.truncate(kept);
        Ok(())
    }

    /// Fold every joined row through the aggregate Select items, over
    /// borrowed pathways: nothing is gathered per row.
    fn eval_aggregates(&mut self, items: &[SelectItem], joined: &Joined) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let Some(agg) = item.agg else {
                out.push(match &item.expr {
                    Expr::Literal(v) => v.clone(),
                    _ => unreachable!("checked by caller"),
                });
                continue;
            };
            if let (AggFn::Count, Expr::PathVar(v)) = (agg, &item.expr) {
                // count(P): one unit per row; distinct counts distinct
                // pathways, told apart by their element uids.
                let n = match joined.evals.iter().position(|e| e.var == *v) {
                    None if joined.len() == 0 => 0,
                    None => return Err(NepalError::UnknownVariable(v.clone())),
                    Some(i) if item.distinct => {
                        let paths = &joined.evals[i].pathways;
                        joined.rows().map(|row| paths[row[i]].elems.as_slice()).collect::<HashSet<&[Uid]>>().len()
                    }
                    Some(_) => joined.len(),
                };
                out.push(Value::Int(n as i64));
                continue;
            }
            let (filter, backend) = scope_of(&joined.evals, &item.expr);
            let mut seen: HashSet<Value> = HashSet::new();
            // Values folded so far, the running min/max, and the running
            // sum with whether every value was numeric.
            let (mut n, mut best, mut total, mut numeric) = (0usize, None::<Value>, 0f64, true);
            for row in joined.rows() {
                let v = self.eval_expr(&item.expr, &row_lookup(&joined.evals, row), filter, backend)?;
                if item.distinct && !seen.insert(v.clone()) {
                    continue;
                }
                n += 1;
                match (agg, v) {
                    (AggFn::Count, _) => {}
                    // Among equal values `min` keeps the first, `max` the last.
                    (AggFn::Min, v) => best = Some(best.filter(|b| *b <= v).unwrap_or(v)),
                    (AggFn::Max, v) => best = Some(best.filter(|b| *b > v).unwrap_or(v)),
                    (_, Value::Int(i)) => total += i as f64,
                    (_, Value::Float(f)) => total += f,
                    _ => numeric = false,
                }
            }
            out.push(match agg {
                AggFn::Count => Value::Int(n as i64),
                AggFn::Min | AggFn::Max => best.unwrap_or(Value::Null),
                AggFn::Sum | AggFn::Avg if !numeric => {
                    return Err(NepalError::Unsupported("sum/avg over non-numeric values".into()))
                }
                AggFn::Sum if total.fract() == 0.0 => Value::Int(total as i64),
                AggFn::Sum => Value::Float(total),
                AggFn::Avg if n == 0 => Value::Null,
                AggFn::Avg => Value::Float(total / n as f64),
            });
        }
        Ok(out)
    }

    fn finish_head(&mut self, q: &Query, joined: Joined) -> Result<QueryResult> {
        match &q.head {
            Head::Retrieve(vars) => {
                let every_row = (0..joined.len()).map(|r| (r, Vec::new())).collect();
                Ok(QueryResult { columns: vars.clone(), rows: joined.materialise(every_row) })
            }
            Head::Select(items) => {
                let columns: Vec<String> = items.iter().map(item_name).collect();
                let aggregated = items.iter().any(|i| i.agg.is_some());
                if aggregated {
                    if let Some(bad) = items.iter().find(|i| i.agg.is_none() && !matches!(i.expr, Expr::Literal(_))) {
                        return Err(NepalError::Unsupported(format!(
                            "cannot mix `{}` with aggregates (no GROUP BY in Nepal)",
                            item_name(bad)
                        )));
                    }
                    let values = self.eval_aggregates(items, &joined)?;
                    return Ok(QueryResult {
                        columns,
                        rows: vec![ResultRow { pathways: Vec::new(), values, times: None }],
                    });
                }
                // Select deduplicates identical value rows (bag → set, as
                // the paper's examples imply for "the names and ids"); only
                // the first row of each value tuple is materialised.
                let scopes: Vec<_> = items.iter().map(|item| scope_of(&joined.evals, &item.expr)).collect();
                let mut seen = HashSet::new();
                let mut picked = Vec::new();
                for r in 0..joined.len() {
                    let lookup = row_lookup(&joined.evals, joined.row(r));
                    let mut values = Vec::with_capacity(items.len());
                    for (item, &(filter, backend)) in items.iter().zip(&scopes) {
                        values.push(self.eval_expr(&item.expr, &lookup, filter, backend)?);
                    }
                    let key = (values, joined.times.get(r).cloned().flatten());
                    if !seen.contains(&key) {
                        picked.push((r, key.0.clone()));
                        seen.insert(key);
                    }
                }
                Ok(QueryResult { columns, rows: joined.materialise(picked) })
            }
            Head::WhenExists | Head::FirstTimeWhenExists | Head::LastTimeWhenExists => {
                // Union the joint assertion ranges over all rows.
                let union = joined.times.iter().flatten().fold(IntervalSet::empty(), |u, t| u.union(t));
                let (column, value) = match q.head {
                    Head::WhenExists => ("when_exists", (!union.is_empty()).then(Vec::new)),
                    Head::FirstTimeWhenExists => ("first_time", union.first().map(|t| vec![Value::Ts(t)])),
                    // `Null`: still exists now.
                    _ => (
                        "last_time",
                        union.last().map(|iv| vec![if iv.is_current() { Value::Null } else { Value::Ts(iv.to) }]),
                    ),
                };
                let rows = value
                    .map(|values| ResultRow { pathways: Vec::new(), values, times: Some(union) })
                    .into_iter()
                    .collect();
                Ok(QueryResult { columns: vec![column.to_string()], rows })
            }
        }
    }
}

/// The sinks, one per variable, of a query whose answer is a fold of its
/// variables' pathways, or `None` for every other query. Every variable
/// ranges over `PATHS` (any backend) at `Current`: no view, no `AT`, no
/// per-variable time. The head is one item, and the `Where` clause holds
/// `MATCHES` conditions plus, in the third shape only, one end equality:
/// - `count(P)` over one variable: [`Sink::Count`];
/// - `count(distinct source(P))` or `count(distinct target(P))` over one
///   variable: [`Sink::DistinctEnds`];
/// - `count(A)` or `count(B)` over two variables joined by exactly one
///   `source/target(A) = source/target(B)`: [`Sink::CountByEnd`] on each
///   variable's end of the equality.
fn fold_sinks(q: &Query) -> Option<Vec<Sink>> {
    let Head::Select(items) = &q.head else { return None };
    let [SelectItem { agg: Some(AggFn::Count), distinct, expr }] = &items[..] else { return None };
    if q.time.is_some() || q.sources.iter().any(|s| s.view.is_some() || s.time.is_some()) {
        return None;
    }
    let mut others = q.conds.iter().filter(|c| !matches!(c, Cond::Matches(..)));
    let equality = others.next();
    if others.next().is_some() {
        return None;
    }
    match (&q.sources[..], *distinct, expr, equality) {
        ([s], false, Expr::PathVar(v), None) if *v == s.var => Some(vec![Sink::Count]),
        ([s], true, Expr::PathEnd(f, v), None) if *v == s.var => Some(vec![Sink::DistinctEnds(*f)]),
        ([a, b], false, Expr::PathVar(v), Some(Cond::Cmp(Expr::PathEnd(fx, x), QCmp::Eq, Expr::PathEnd(fy, y))))
            if a.var != b.var && (*v == a.var || *v == b.var) =>
        {
            if (x, y) == (&a.var, &b.var) {
                Some(vec![Sink::CountByEnd(*fx), Sink::CountByEnd(*fy)])
            } else if (x, y) == (&b.var, &a.var) {
                Some(vec![Sink::CountByEnd(*fy), Sink::CountByEnd(*fx)])
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The rows a query's variables join to, after coexistence and `EXISTS`
/// filtering, as indices into the per-variable pathway sets: row `r` binds
/// variable `i` to `evals[i].pathways[rows[r * width + i]]`. Conditions,
/// aggregates and value projections read pathways through the indices;
/// owned result rows are built once, by [`Joined::materialise`].
struct Joined {
    evals: Vec<VarEval>,
    /// `evals.len()`, or 1 for a query without variables.
    width: usize,
    rows: Vec<usize>,
    /// Joint maximal assertion ranges per row; empty when no variable takes
    /// part in a query-level range (every row's times are `None`).
    times: Vec<Option<IntervalSet>>,
}

impl Joined {
    fn len(&self) -> usize {
        self.rows.len() / self.width
    }

    fn row(&self, r: usize) -> &[usize] {
        &self.rows[r * self.width..(r + 1) * self.width]
    }

    fn rows(&self) -> impl Iterator<Item = &[usize]> {
        self.rows.chunks_exact(self.width)
    }

    /// Coexistence phase: under a query-level range `AT a : b`, keep the
    /// rows whose joint variables' assertion ranges intersect, and record
    /// each kept row's maximal joint ranges overlapping `[a, b]`. Without a
    /// query-level range every row survives and carries no times. Returns
    /// the number of rows pruned.
    fn coexist(&mut self, query_time: Option<TimeSpec>, span: &SpanHandle, row_loop: &mut RowLoop) -> Result<u64> {
        let coex_span = span.child("coexistence");
        let mut pruned = 0u64;
        if let (Some(TimeSpec::Range(a, b)), true) = (query_time, self.evals.iter().any(|e| e.joint)) {
            let probe = Interval::new(a, b.saturating_add(1));
            let width = self.width;
            let mut kept = 0;
            'row: for r in 0..self.len() {
                row_loop.poll()?;
                let mut joint: Option<IntervalSet> = None;
                for (e, &pi) in self.evals.iter().zip(&self.rows[r * width..]) {
                    let Some(times) = e.pathways[pi].times.as_ref().filter(|_| e.joint) else { continue };
                    let j = match joint {
                        None => times.clone(),
                        Some(j) => j.intersect(times),
                    };
                    if j.is_empty() {
                        pruned += 1;
                        continue 'row;
                    }
                    joint = Some(j);
                }
                let joint = match joint {
                    Some(j) => {
                        let comps = j.components_overlapping(&probe);
                        if comps.is_empty() {
                            pruned += 1;
                            continue 'row;
                        }
                        Some(IntervalSet::from_intervals(comps))
                    }
                    None => None,
                };
                self.rows.copy_within(r * width..(r + 1) * width, kept * width);
                self.times.push(joint);
                kept += 1;
            }
            self.rows.truncate(kept * width);
        }
        coex_span.attr("pruned", pruned);
        Ok(pruned)
    }

    /// The owned result rows for `picked` (row index, select values), in
    /// that order; each row at most once. A pathway moves out of its
    /// variable's set into the last picked row that references it and is
    /// cloned only for the earlier ones.
    fn materialise(mut self, picked: Vec<(usize, Vec<Value>)>) -> Vec<ResultRow> {
        let mut uses: Vec<Vec<u32>> = self.evals.iter().map(|e| vec![0; e.pathways.len()]).collect();
        for &(r, _) in &picked {
            for (i, &pi) in self.row(r).iter().enumerate() {
                if pi != usize::MAX {
                    uses[i][pi] += 1;
                }
            }
        }
        let mut out = Vec::with_capacity(picked.len());
        for (r, values) in picked {
            let times = self.times.get_mut(r).and_then(Option::take);
            let mut pathways = Vec::with_capacity(self.evals.len());
            for (i, e) in self.evals.iter_mut().enumerate() {
                let pi = self.rows[r * self.width + i];
                if pi == usize::MAX {
                    continue;
                }
                uses[i][pi] -= 1;
                let mut p = if uses[i][pi] == 0 {
                    std::mem::replace(&mut e.pathways[pi], Pathway { elems: Vec::new(), times: None })
                } else {
                    e.pathways[pi].clone()
                };
                // Per-variable range scopes keep their own times.
                if e.joint {
                    p.times = times.clone();
                }
                pathways.push((e.var.clone(), p));
            }
            out.push(ResultRow { pathways, values, times });
        }
        out
    }
}

/// Join variable `i` to `rows` through a hash table over its pathways'
/// ends: `key_specs` holds (its end, other end, other variable) per
/// equality. Emission order (rows outer, pathway index ascending inner)
/// matches the nested loop exactly.
fn hash_join(
    evals: &[VarEval],
    i: usize,
    key_specs: &[(PathFn, PathFn, usize)],
    rows: &[usize],
    width: usize,
    row_loop: &mut RowLoop,
) -> Result<Vec<usize>> {
    // Build side: one fixed-width key per pathway in a flat arena, and per
    // distinct key a chain through `next` in ascending pathway index
    // (filled back to front).
    let build = &evals[i].pathways;
    let k = key_specs.len();
    let mut keys: Vec<u64> = Vec::with_capacity(build.len() * k);
    for p in build {
        keys.extend(key_specs.iter().map(|&(my, _, _)| p.end(my).0));
    }
    let mut heads: FxHashMap<&[u64], usize> = FxHashMap::default();
    let mut next = vec![usize::MAX; build.len()];
    for pi in (0..build.len()).rev() {
        if let Some(after) = heads.insert(&keys[pi * k..(pi + 1) * k], pi) {
            next[pi] = after;
        }
    }
    let mut next_rows = Vec::new();
    let mut probe: Vec<u64> = Vec::with_capacity(k);
    for row in rows.chunks_exact(width) {
        row_loop.poll()?;
        probe.clear();
        probe.extend(key_specs.iter().map(|&(_, other, j)| evals[j].pathways[row[j]].end(other).0));
        let mut pi = heads.get(probe.as_slice()).copied().unwrap_or(usize::MAX);
        while pi != usize::MAX {
            next_rows.extend_from_slice(row);
            let at = next_rows.len() - width + i;
            next_rows[at] = pi;
            pi = next[pi];
        }
    }
    Ok(next_rows)
}

/// The binding of pathway variables in one index row.
fn row_lookup<'a>(evals: &'a [VarEval], row: &'a [usize]) -> impl Fn(&str) -> Option<&'a Pathway> {
    move |var| evals.iter().zip(row).find(|(e, &pi)| pi != usize::MAX && e.var == var).map(|(e, &pi)| &e.pathways[pi])
}

/// The time filter and backend that field lookups of `expr` go through:
/// those of the variable it mentions.
fn scope_of<'a>(evals: &'a [VarEval], expr: &Expr) -> (TimeFilter, Option<&'a str>) {
    expr.var()
        .and_then(|v| evals.iter().find(|e| e.var == v))
        .map_or((TimeFilter::Current, None), |e| (e.filter, e.backend.as_deref()))
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// Deterministic FNV-1a digest of a full query result: columns, then every
/// row's select values (via `Display`), pathway bindings (variable name +
/// element uids), and assertion intervals. Stable across builds — the
/// replay tool compares these digests between a captured qlog and a
/// re-execution.
pub fn digest_result(result: &QueryResult) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(result.columns.len() as u64);
    for c in &result.columns {
        h.write_str(c);
        h.write_u8(0);
    }
    h.write_u64(result.rows.len() as u64);
    for row in &result.rows {
        h.write_u8(b'r');
        for (var, p) in &row.pathways {
            h.write_u8(b'p');
            h.write_str(var);
            h.write_u8(0);
            h.write_u64(p.elems.len() as u64);
            for u in &p.elems {
                h.write_u64(u.0);
            }
            if let Some(times) = &p.times {
                for iv in times.intervals() {
                    h.write_u64(iv.from as u64);
                    h.write_u64(iv.to as u64);
                }
            }
        }
        for v in &row.values {
            h.write_u8(b'v');
            h.write_str(&v.to_string());
            h.write_u8(0);
        }
        if let Some(times) = &row.times {
            h.write_u8(b't');
            for iv in times.intervals() {
                h.write_u64(iv.from as u64);
                h.write_u64(iv.to as u64);
            }
        }
    }
    h.finish()
}

fn expr_name(e: &Expr) -> String {
    match e {
        Expr::PathEnd(PathFn::Source, v) => format!("source({v})"),
        Expr::PathEnd(PathFn::Target, v) => format!("target({v})"),
        Expr::PathEndField(PathFn::Source, v, f) => format!("source({v}).{f}"),
        Expr::PathEndField(PathFn::Target, v, f) => format!("target({v}).{f}"),
        Expr::Length(v) => format!("length({v})"),
        Expr::PathVar(v) => v.clone(),
        Expr::Literal(v) => v.to_string(),
    }
}

fn item_name(item: &SelectItem) -> String {
    let inner = expr_name(&item.expr);
    match item.agg {
        None => inner,
        Some(agg) => {
            let f = match agg {
                AggFn::Count => "count",
                AggFn::Min => "min",
                AggFn::Max => "max",
                AggFn::Sum => "sum",
                AggFn::Avg => "avg",
            };
            if item.distinct {
                format!("{f}(distinct {inner})")
            } else {
                format!("{f}({inner})")
            }
        }
    }
}
