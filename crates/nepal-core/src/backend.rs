//! The retargetable backend interface (§3.1/§5).
//!
//! Nepal is "a shim layer between network applications and one or more
//! database systems": the engine plans queries once and evaluates each
//! range variable against whichever backend holds its data — the native
//! temporal store, the relational substrate (writing SQL), or a Gremlin
//! server reached over the wire protocol.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use nepal_graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal_gremlin::{evaluate_gremlin, GremlinClient, GremlinTime};
use nepal_obs::{OpStats, SpanHandle};
use nepal_relational::{db_from_graph, element_fields, evaluate_relational, RelDb};
use nepal_rpe::anchor::apply_selectivity;
use nepal_rpe::{
    BoundAtom, CardinalityEstimator, EvalOptions, ExecCtx, FoldMode, Folded, Pathway, RpePlan, Seeds, Sink,
};
use nepal_schema::{ClassId, Schema, Value};

use crate::error::{NepalError, Result};

/// A query-evaluation target. The engine evaluates a query's range
/// variables one at a time, each through `&mut self`, so a backend may keep
/// per-call state (wire statistics, lazily built indexes);
/// parallelism lives inside each evaluation. `Send`, so an engine and its
/// backends can be handed to another thread.
pub trait Backend: Send {
    /// Human-readable backend kind.
    fn kind(&self) -> &'static str;

    /// The schema this backend serves.
    fn schema(&self) -> &Arc<Schema>;

    /// Evaluate a planned RPE under a time filter, observing nothing.
    fn eval(&mut self, plan: &RpePlan, filter: TimeFilter, seeds: Seeds, opts: &EvalOptions) -> Result<Vec<Pathway>> {
        self.eval_in(plan, filter, seeds, opts, &mut ExecCtx::default())
    }

    /// Evaluate a planned RPE under a time filter, reporting into whatever
    /// sinks `ctx` carries: per-operator statistics on its trace, operator
    /// child spans under its span. A tripped `opts.cancel` surfaces as
    /// [`NepalError::DeadlineExceeded`] / [`NepalError::Cancelled`].
    fn eval_in(
        &mut self,
        plan: &RpePlan,
        filter: TimeFilter,
        seeds: Seeds,
        opts: &EvalOptions,
        ctx: &mut ExecCtx,
    ) -> Result<Vec<Pathway>>;

    /// What `sink` collects over the pathways [`Backend::eval_in`] returns
    /// from the plan's anchor, and how it was obtained. By default the
    /// pathways are enumerated and folded.
    fn fold_in(
        &mut self,
        plan: &RpePlan,
        filter: TimeFilter,
        sink: Sink,
        opts: &EvalOptions,
        ctx: &mut ExecCtx,
    ) -> Result<(Folded, FoldMode)> {
        Ok((sink.fold(self.eval_in(plan, filter, Seeds::Anchor, opts, ctx)?), FoldMode::Enumerate))
    }

    /// Field values (and runtime class) of an element, for Select
    /// post-processing.
    fn fields(&mut self, uid: Uid, filter: TimeFilter) -> Option<(ClassId, Vec<Value>)>;

    /// Cardinality estimate for anchor costing.
    fn estimate(&self, atom: &BoundAtom) -> f64;

    /// The code this backend's translator writes for evaluating `plan`
    /// under `filter` from `seeds` (SQL statements for the relational
    /// target), if it generates any.
    fn generated(&self, _plan: &RpePlan, _filter: TimeFilter, _seeds: Seeds) -> Vec<String> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Native backend
// ---------------------------------------------------------------------

/// Backend over the in-process temporal graph store.
pub struct NativeBackend {
    pub graph: Arc<TemporalGraph>,
}

impl NativeBackend {
    pub fn new(graph: Arc<TemporalGraph>) -> Self {
        NativeBackend { graph }
    }
}

impl Backend for NativeBackend {
    fn kind(&self) -> &'static str {
        "native"
    }

    fn schema(&self) -> &Arc<Schema> {
        self.graph.schema()
    }

    fn eval_in(
        &mut self,
        plan: &RpePlan,
        filter: TimeFilter,
        seeds: Seeds,
        opts: &EvalOptions,
        ctx: &mut ExecCtx,
    ) -> Result<Vec<Pathway>> {
        let view = GraphView::new(&self.graph, filter);
        nepal_rpe::try_evaluate(&view, plan, seeds, opts, ctx).map_err(NepalError::from)
    }

    fn fold_in(
        &mut self,
        plan: &RpePlan,
        filter: TimeFilter,
        sink: Sink,
        opts: &EvalOptions,
        ctx: &mut ExecCtx,
    ) -> Result<(Folded, FoldMode)> {
        let view = GraphView::new(&self.graph, filter);
        nepal_rpe::try_fold(&view, plan, sink, opts, ctx).map_err(NepalError::from)
    }

    fn fields(&mut self, uid: Uid, filter: TimeFilter) -> Option<(ClassId, Vec<Value>)> {
        let class = self.graph.class_of(uid)?;
        let view = GraphView::new(&self.graph, filter);
        let fields = view.fields(uid)?.to_vec();
        Some((class, fields))
    }

    fn estimate(&self, atom: &BoundAtom) -> f64 {
        nepal_rpe::GraphEstimator { graph: &self.graph }.estimate(self.graph.schema(), atom)
    }
}

// ---------------------------------------------------------------------
// Relational backend
// ---------------------------------------------------------------------

/// Backend over the relational substrate (the Postgres target of §5.2).
pub struct RelationalBackend {
    pub db: RelDb,
    schema: Arc<Schema>,
}

impl RelationalBackend {
    /// Load a temporal graph into a fresh relational database.
    pub fn from_graph(graph: &TemporalGraph) -> Result<Self> {
        let db = db_from_graph(graph).map_err(|e| NepalError::Backend(e.to_string()))?;
        Ok(RelationalBackend { db, schema: graph.schema().clone() })
    }
}

impl Backend for RelationalBackend {
    fn kind(&self) -> &'static str {
        "relational"
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn eval_in(
        &mut self,
        plan: &RpePlan,
        filter: TimeFilter,
        seeds: Seeds,
        opts: &EvalOptions,
        ctx: &mut ExecCtx,
    ) -> Result<Vec<Pathway>> {
        let no_span = SpanHandle::none();
        let span = ctx.span.unwrap_or(&no_span);
        let t0 = ctx.trace.is_some().then(Instant::now);
        let res =
            evaluate_relational(&mut self.db, &self.schema, plan, filter, seeds, opts, span).map_err(|e| match e {
                nepal_relational::RelError::DeadlineExceeded => NepalError::DeadlineExceeded,
                nepal_relational::RelError::Cancelled => NepalError::Cancelled,
                other => NepalError::Backend(other.to_string()),
            })?;
        if let Some(trace) = ctx.trace.as_deref_mut() {
            trace.bump("rel_rows_scanned", res.rows_scanned);
            trace.bump("rel_rows_joined", res.rows_joined);
            let mut op = OpStats::new("Select+Extend", "SQL pipeline over class tables");
            op.rows_in = res.rows_scanned;
            op.rows_out = res.pathways.len() as u64;
            op.elapsed_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            trace.ops.push(op);
        }
        span.attr("rows_scanned", res.rows_scanned);
        span.attr("rows_joined", res.rows_joined);
        Ok(res.pathways)
    }

    fn fields(&mut self, uid: Uid, filter: TimeFilter) -> Option<(ClassId, Vec<Value>)> {
        element_fields(&mut self.db, &self.schema, uid, filter)
    }

    fn estimate(&self, atom: &BoundAtom) -> f64 {
        if atom.unique_eq_pred(&self.schema).is_some() {
            return 1.0;
        }
        let rows = self.db.subtree_rows(&nepal_relational::table_name(&self.schema, atom.class)).max(1) as f64;
        apply_selectivity(rows, atom)
    }

    fn generated(&self, plan: &RpePlan, filter: TimeFilter, seeds: Seeds) -> Vec<String> {
        nepal_relational::script(&self.schema, plan, filter, seeds)
    }
}

// ---------------------------------------------------------------------
// Gremlin backend
// ---------------------------------------------------------------------

/// Backend over a Gremlin server (in-process or TCP transport).
pub struct GremlinBackend<T: nepal_gremlin::server::Transport> {
    pub client: GremlinClient<T>,
    schema: Arc<Schema>,
    /// Apply the ExtendBlock loop-unrolling optimization (§5.2).
    pub use_extend_block: bool,
    last_trips: u64,
}

impl<T: nepal_gremlin::server::Transport> GremlinBackend<T> {
    pub fn new(client: GremlinClient<T>, schema: Arc<Schema>) -> Self {
        GremlinBackend { client, schema, use_extend_block: true, last_trips: 0 }
    }

    /// Round trips used by the last evaluation.
    pub fn last_round_trips(&self) -> u64 {
        self.last_trips
    }
}

impl<T: nepal_gremlin::server::Transport> Backend for GremlinBackend<T> {
    fn kind(&self) -> &'static str {
        "gremlin"
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn eval_in(
        &mut self,
        plan: &RpePlan,
        filter: TimeFilter,
        seeds: Seeds,
        opts: &EvalOptions,
        ctx: &mut ExecCtx,
    ) -> Result<Vec<Pathway>> {
        let no_span = SpanHandle::none();
        let span = ctx.span.unwrap_or(&no_span);
        let time = match filter {
            TimeFilter::Current => GremlinTime::Current,
            TimeFilter::AsOf(t) => GremlinTime::AsOf(t),
            TimeFilter::Range(_, _) => {
                return Err(NepalError::Unsupported(
                    "time-range queries require the relational or native backend (§5.3)".into(),
                ))
            }
        };
        let before = ctx.trace.is_some().then(|| self.client.wire_stats());
        let t0 = ctx.trace.is_some().then(Instant::now);
        let res =
            evaluate_gremlin(&mut self.client, &self.schema, plan, time, seeds, opts, self.use_extend_block, span)
                .map_err(|e| match e {
                    // `opts.cancel` is polled before every round trip.
                    nepal_gremlin::ProtoError::DeadlineExceeded => NepalError::DeadlineExceeded,
                    nepal_gremlin::ProtoError::Cancelled => NepalError::Cancelled,
                    other => NepalError::Backend(other.to_string()),
                })?;
        self.last_trips = res.round_trips;
        span.attr("round_trips", res.round_trips);
        if let (Some(trace), Some(before), Some(t0)) = (ctx.trace.as_deref_mut(), before, t0) {
            let after = self.client.wire_stats();
            trace.bump("gremlin_requests", after.requests - before.requests);
            trace.bump("gremlin_frames_sent", after.frames_sent - before.frames_sent);
            trace.bump("gremlin_frames_received", after.frames_received - before.frames_received);
            trace.bump("gremlin_bytes_sent", after.bytes_sent - before.bytes_sent);
            trace.bump("gremlin_bytes_received", after.bytes_received - before.bytes_received);
            trace.bump("gremlin_partial_batches", after.partial_batches - before.partial_batches);
            trace.bump("gremlin_round_trips", self.last_trips);
            let mut op = OpStats::new("Select+Extend", "Gremlin traversals over the wire");
            op.rows_in = after.requests - before.requests;
            op.rows_out = res.pathways.len() as u64;
            op.elapsed_ns = t0.elapsed().as_nanos() as u64;
            trace.ops.push(op);
        }
        Ok(res.pathways)
    }

    fn fields(&mut self, uid: Uid, _filter: TimeFilter) -> Option<(ClassId, Vec<Value>)> {
        use nepal_gremlin::{GStep, Json};
        let results = self.client.submit(&[GStep::V(vec![uid.0])]).ok()?;
        let results = if results.is_empty() { self.client.submit(&[GStep::E(vec![uid.0])]).ok()? } else { results };
        let j = results.first()?;
        let label = j.get("label")?.as_str()?;
        let class = self.schema.class_by_name(label)?;
        let mut out = Vec::new();
        let props = match j.get("properties") {
            Some(Json::Obj(m)) => m.clone(),
            _ => Default::default(),
        };
        for fd in self.schema.all_fields(class) {
            out.push(props.get(&fd.name).map(nepal_gremlin::json::json_to_value).unwrap_or(Value::Null));
        }
        Some((class, out))
    }

    fn estimate(&self, atom: &BoundAtom) -> f64 {
        // No remote statistics API: fall back to schema hints.
        nepal_rpe::HintEstimator.estimate(&self.schema, atom)
    }
}

// ---------------------------------------------------------------------
// Registry for data integration
// ---------------------------------------------------------------------

/// A named collection of backends: the data-integration layer. Each PATHS
/// variable may route to a different backend (`PATHS P USING legacy`), and
/// the engine joins the resulting pathway sets in the shim (§3.1: "shipping
/// partial results from one target database component to another").
pub struct BackendRegistry {
    backends: HashMap<String, Box<dyn Backend>>,
    default: String,
}

impl BackendRegistry {
    pub fn new(default_name: impl Into<String>, backend: Box<dyn Backend>) -> Self {
        let default = default_name.into();
        let mut backends = HashMap::new();
        backends.insert(default.clone(), backend);
        BackendRegistry { backends, default }
    }

    pub fn add(&mut self, name: impl Into<String>, backend: Box<dyn Backend>) {
        self.backends.insert(name.into(), backend);
    }

    pub fn default_name(&self) -> &str {
        &self.default
    }

    pub fn get_mut(&mut self, name: Option<&str>) -> Result<&mut Box<dyn Backend>> {
        let key = name.unwrap_or(&self.default);
        self.backends.get_mut(key).ok_or_else(|| NepalError::UnknownBackend(key.to_string()))
    }

    pub fn get(&self, name: Option<&str>) -> Result<&dyn Backend> {
        let key = name.unwrap_or(&self.default);
        self.backends.get(key).map(|b| b.as_ref()).ok_or_else(|| NepalError::UnknownBackend(key.to_string()))
    }
}
