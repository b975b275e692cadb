//! The adapter: the only file of the benchmark that names product
//! functions. Every other module drives the product through the items
//! below, so a refactor of `evaluate*` / `Backend::eval*` / `Engine::query`
//! has exactly one file to keep compiling. `benchmark/README.md` lists the
//! signatures this file depends on.

use std::io::Cursor;
use std::sync::Arc;

use nepal::core::{
    digest_result, parse_query, Backend, BackendRegistry, GremlinBackend, NativeBackend, RelationalBackend,
};
use nepal::graph::{
    load_binary, load_journal, save_binary, save_journal, GraphView, SnapshotLoader, TemporalGraph, Uid,
    KEYFRAME_INTERVAL,
};
use nepal::gremlin::{property_graph_from, shared_graph, GremlinClient, GremlinServer};
use nepal::obs::ResourceMeter;
use nepal::rpe::{anchor_scan, evaluate, parse_rpe, plan_rpe, resolved_threads, EvalOptions, GraphEstimator, Seeds};
use nepal::schema::{Schema, Value};
use nepal::workload::{churn_tier, generate_tier, generate_tier_churned, InventoryFeed};

pub use nepal::core::{Engine, Query, QueryResult};
pub use nepal::graph::TimeFilter;
pub use nepal::gremlin::{parse_json, Json};
pub use nepal::rpe::RpePlan;
pub use nepal::schema::{format_ts, Ts};
pub use nepal::workload::SizeTier;

pub const DAY: Ts = 86_400_000_000;

/// Product errors cross the adapter as text: the benchmark only counts and
/// prints them.
pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Worker threads `EvalOptions::default()` resolves to on this host.
pub fn default_threads() -> usize {
    resolved_threads(0)
}

/// An anchorable element: the value of its unique id field, and whether it
/// belongs to the churn schedule's hot set (version chain deeper than the
/// store's keyframe interval, so `AT` reads pay delta materialization).
#[derive(Clone, Copy)]
pub struct Anchor {
    pub id: i64,
    pub hot: bool,
    uid: Uid,
}

/// A generated, churned inventory plus the rosters the op generators draw
/// anchors from.
pub struct World {
    pub graph: Arc<TemporalGraph>,
    pub vnfs: Vec<Anchor>,
    pub hosts: Vec<Anchor>,
    pub vms: Vec<Anchor>,
    pub vfcs: Vec<Anchor>,
    /// Transaction time of the initial load.
    pub start_ts: Ts,
    /// A time inside the broad churn phase, and one inside the hot phase.
    pub t_broad: Ts,
    pub t_hot: Ts,
}

fn roster(g: &TemporalGraph, uids: &[Uid], class: &str, field: &str) -> Vec<Anchor> {
    let schema = g.schema();
    let want = schema.class_by_name(class).expect("class in the ONAP schema");
    uids.iter()
        .filter_map(|&uid| {
            let cls = g.class_of(uid)?;
            if !schema.is_subclass(cls, want) {
                return None;
            }
            let idx = schema.all_fields(cls).iter().position(|f| f.name == field)?;
            match g.current_fields(uid)?.get(idx)? {
                Value::Int(id) => Some(Anchor { id: *id, hot: g.versions(uid).len() > KEYFRAME_INTERVAL, uid }),
                _ => None,
            }
        })
        .collect()
}

/// Generate the tier's topology and run its two churn phases.
pub fn build_world(tier: SizeTier, seed: u64) -> World {
    let (topo, _) = generate_tier_churned(tier, seed);
    let start_ts = topo.params.start_ts;
    let broad_days = tier.broad_churn(seed).days as Ts;
    let (_, hot_days) = tier.hot_churn();
    let hot_start = start_ts + (broad_days + 1) * DAY;
    let g = &topo.graph;
    World {
        vnfs: roster(g, &topo.vnfs, "VNF", "vnf_id"),
        hosts: roster(g, &topo.hosts, "Host", "host_id"),
        vms: roster(g, &topo.containers, "VM", "vm_id"),
        vfcs: roster(g, &topo.vfcs, "VFC", "vfc_id"),
        start_ts,
        t_broad: start_ts + (broad_days / 2) * DAY + DAY / 2,
        t_hot: hot_start + (hot_days as Ts / 2) * DAY + DAY / 2,
        graph: Arc::new(topo.graph),
    }
}

pub fn num_entities(g: &TemporalGraph) -> usize {
    g.num_entities()
}

/// `memory_report().total_bytes / num_entities`.
pub fn bytes_per_entity(g: &TemporalGraph) -> f64 {
    g.memory_report().total_bytes as f64 / g.num_entities().max(1) as f64
}

/// Share of version-history bytes saved by delta encoding, percent.
pub fn delta_savings_pct(g: &TemporalGraph) -> f64 {
    let (stored, full) = g.history_version_bytes();
    if full == 0 {
        0.0
    } else {
        100.0 * (1.0 - stored as f64 / full as f64)
    }
}

// ---- nepal-core: the engine ------------------------------------------------

/// Engine over the native store at product defaults.
pub fn native_engine(world: &World) -> Engine {
    nepal::core::engine_over(world.graph.clone())
}

/// What the traced run of `retarget.backends` replays against: a second
/// pg/gremlin pair outside the engine (the registry boxes its backends,
/// which hides `last_round_trips` and the wire counters), and the server
/// both Gremlin connections talk to.
pub struct Replay {
    pub pg: RelationalBackend,
    pub gremlin: GremlinBackend<std::net::TcpStream>,
    /// Seconds `RelationalBackend::from_graph` took for the engine's copy.
    pub rel_load_s: f64,
    // Declared last: fields drop in order, so the replay client hangs up
    // before the server's drop drains its workers. Drop the engine first.
    _server: GremlinServer,
}

/// The three-way retargeting rig: one engine with the native store as the
/// default backend, `pg` (relational) and `gremlin` (one loopback TCP
/// connection) beside it.
pub fn retarget_rig(world: &World) -> Res<(Engine, Replay)> {
    let g = &world.graph;
    let t0 = std::time::Instant::now();
    let pg = RelationalBackend::from_graph(g).map_err(err)?;
    let rel_load_s = t0.elapsed().as_secs_f64();
    let server = GremlinServer::start(shared_graph(property_graph_from(g))).map_err(err)?;
    let connect = |server: &GremlinServer| -> Res<GremlinBackend<std::net::TcpStream>> {
        Ok(GremlinBackend::new(GremlinClient::new(server.connect().map_err(err)?), g.schema().clone()))
    };
    let mut registry = BackendRegistry::new("native", Box::new(NativeBackend::new(g.clone())));
    registry.add("pg", Box::new(pg));
    registry.add("gremlin", Box::new(connect(&server)?));
    let replay = Replay {
        pg: RelationalBackend::from_graph(g).map_err(err)?,
        gremlin: connect(&server)?,
        rel_load_s,
        _server: server,
    };
    Ok((Engine::new(registry), replay))
}

/// `Engine::query`: parse and execute query text.
pub fn query(engine: &mut Engine, text: &str) -> Res<QueryResult> {
    engine.query(text).map_err(err)
}

pub fn parse(text: &str) -> Res<Query> {
    parse_query(text).map_err(err)
}

/// `Engine::execute` on an already parsed query.
pub fn execute(engine: &mut Engine, q: &Query) -> Res<QueryResult> {
    engine.execute(q).map_err(err)
}

/// `(rows, digest_result)` of a result.
pub fn digest(r: &QueryResult) -> (u64, u64) {
    (r.rows.len() as u64, digest_result(r))
}

/// Pin the engine's evaluator thread count (`0` = product default).
pub fn set_threads(engine: &mut Engine, threads: usize) {
    engine.eval_options.threads = threads;
}

/// Switch every per-query instrument on (tracer sampling 1-in-1, statement
/// statistics, durable query log at `qlog_path`) or all of them off.
pub fn set_observability(engine: &mut Engine, qlog_path: Option<&std::path::Path>) -> Res<()> {
    match qlog_path {
        Some(path) => {
            engine.tracer.set_sample_every(1);
            engine.tracer.set_enabled(true);
            engine.enable_stmt(1024);
            engine.enable_qlog(path, 64 << 20, 1).map_err(err)?;
        }
        None => {
            engine.tracer.set_enabled(false);
            engine.disable_stmt();
            engine.disable_qlog();
        }
    }
    Ok(())
}

// ---- nepal-rpe: planner and evaluator --------------------------------------

/// `parse_rpe` + `plan_rpe` against the store's own cardinality estimator.
pub fn plan(g: &TemporalGraph, rpe: &str) -> Res<RpePlan> {
    let parsed = parse_rpe(rpe).map_err(err)?;
    plan_rpe(g.schema(), &parsed, &GraphEstimator { graph: g }).map_err(err)
}

pub fn plan_candidates(plan: &RpePlan) -> usize {
    plan.candidates.len()
}

/// Exact logical work counters of one evaluation.
#[derive(Default, Clone, Copy)]
pub struct Work {
    pub rows_scanned: u64,
    pub materializations: u64,
    pub seeks: u64,
}

/// `evaluate` from the plan's own anchor under a fresh `ResourceMeter`;
/// returns the pathway count and the meter's counters.
pub fn eval(g: &TemporalGraph, plan: &RpePlan, filter: TimeFilter) -> (usize, Work) {
    let meter = ResourceMeter::new();
    let opts = EvalOptions { meter: Some(meter.clone()), ..Default::default() };
    let n = evaluate(&GraphView::new(g, filter), plan, Seeds::Anchor, &opts).len();
    let s = meter.snapshot();
    (n, Work { rows_scanned: s.rows_scanned, materializations: s.materializations, seeks: s.seeks })
}

/// The plan's anchor Select alone: `anchor_scan` of every anchor atom.
pub fn anchor(g: &TemporalGraph, plan: &RpePlan, filter: TimeFilter) -> usize {
    let view = GraphView::new(g, filter);
    plan.anchor.atoms.iter().map(|&a| anchor_scan(&view, g.schema(), &plan.atoms[a as usize]).len()).sum()
}

/// `fields_at` of one rostered element; the returned length keeps the call
/// observable.
pub fn fields_at(g: &TemporalGraph, a: &Anchor, ts: Ts) -> usize {
    g.fields_at(a.uid, ts).map_or(0, |f| f.len())
}

// ---- backends (nepal-relational, nepal-gremlin) ----------------------------

/// `Backend::eval` from the plan's anchor; returns the pathway count.
pub fn backend_eval(backend: &mut dyn Backend, plan: &RpePlan, filter: TimeFilter) -> Res<usize> {
    backend.eval(plan, filter, Seeds::Anchor, &EvalOptions::default()).map(|p| p.len()).map_err(err)
}

/// `(last_round_trips, bytes sent + received so far)` of a Gremlin backend.
pub fn gremlin_wire(b: &GremlinBackend<std::net::TcpStream>) -> (u64, u64) {
    let w = b.client.wire_stats();
    (b.last_round_trips(), w.bytes_sent + w.bytes_received)
}

/// One bare `g.V().count()` submit: the socket + codec round-trip floor.
pub fn gremlin_ping(b: &mut GremlinBackend<std::net::TcpStream>) -> Res<()> {
    b.client.submit_text("g.V().count()").map(|_| ()).map_err(err)
}

// ---- nepal-graph: the write side -------------------------------------------

/// The source of truth an ingest round replays: an un-churned tier whose
/// current snapshot seeds the inventory feed.
pub struct IngestSource {
    origin: TemporalGraph,
    tier: SizeTier,
    seed: u64,
    start_ts: Ts,
}

pub fn ingest_source(tier: SizeTier, seed: u64) -> IngestSource {
    let topo = generate_tier(tier, seed);
    IngestSource { start_ts: topo.params.start_ts, origin: topo.graph, tier, seed }
}

/// One ingest round's state: an initially empty store synchronised purely
/// from the feed's daily full snapshots.
pub struct IngestRound {
    pub store: TemporalGraph,
    loader: SnapshotLoader,
    feed: InventoryFeed,
}

#[derive(Clone, Copy)]
pub struct ApplyStats {
    /// Snapshot entities diffed by this apply.
    pub entities: u64,
    pub changed: u64,
}

impl IngestSource {
    pub fn schema(&self) -> Arc<Schema> {
        self.origin.schema().clone()
    }

    /// Entities in the source inventory.
    pub fn entities(&self) -> usize {
        self.origin.num_entities()
    }

    pub fn begin_round(&self) -> IngestRound {
        IngestRound {
            store: TemporalGraph::new(self.schema()),
            loader: SnapshotLoader::new(),
            feed: InventoryFeed::from_graph(&self.origin, "OnServer", "Host", self.seed, self.start_ts),
        }
    }

    /// `churn_tier` direct updates, starting the day after the feed's last
    /// delivery; returns the number of mutations applied.
    pub fn churn(&self, round: &mut IngestRound) -> u64 {
        let s = churn_tier(&mut round.store, self.tier, self.seed, round.feed.day_ts() + DAY);
        (s.broad.updates + s.broad.rewires * 2 + s.hot.updates) as u64
    }
}

impl IngestRound {
    /// Mutate the feed's inventory by one day (input generation, untimed).
    pub fn advance(&mut self, flips: usize, migrations: usize) {
        self.feed.advance(flips, migrations);
    }

    /// `SnapshotLoader::apply` of the feed's current full snapshot.
    pub fn apply(&mut self) -> Res<ApplyStats> {
        let (nodes, edges) = self.feed.emit();
        let s = self.loader.apply(&mut self.store, self.feed.day_ts(), nodes, edges).map_err(err)?;
        Ok(ApplyStats {
            entities: (nodes.len() + edges.len()) as u64,
            changed: (s.inserted + s.updated + s.deleted) as u64,
        })
    }

    /// `cache_hits / (hits + misses)` of the loader's ext-id cache.
    pub fn loader_hit_ratio(&self) -> f64 {
        let (h, m) = (self.loader.cache_hits() as f64, self.loader.cache_misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

pub fn journal_save(g: &TemporalGraph) -> Res<Vec<u8>> {
    let mut buf = Vec::new();
    save_journal(g, &mut buf).map_err(err)?;
    Ok(buf)
}

pub fn journal_load(schema: Arc<Schema>, bytes: &[u8]) -> Res<TemporalGraph> {
    load_journal(schema, &mut Cursor::new(bytes)).map_err(err)
}

pub fn binsnap_save(g: &TemporalGraph) -> Res<Vec<u8>> {
    let mut buf = Vec::new();
    save_binary(g, &mut buf).map_err(err)?;
    Ok(buf)
}

/// `load_binary` with `threads` decode workers (`None` = product default).
pub fn binsnap_load(schema: Arc<Schema>, bytes: &[u8], threads: Option<usize>) -> Res<TemporalGraph> {
    load_binary(schema, bytes, threads.unwrap_or_else(nepal::graph::binsnap::default_threads)).map_err(err)
}

/// What a recovered store must reproduce: the version count and the digest
/// of a fixed probe query.
pub fn store_fingerprint(g: TemporalGraph) -> Res<(u64, u64)> {
    let versions = g.num_versions();
    let mut engine = nepal::core::engine_over(Arc::new(g));
    let r =
        engine.query("Select count(P) From PATHS P Where P MATCHES Container()->OnServer()->Host()").map_err(err)?;
    Ok((versions, digest_result(&r)))
}

/// The full-history probe range temporal aggregates use without an `AT`.
pub fn full_range() -> (Ts, Ts) {
    nepal::core::FULL_RANGE
}
