//! One workload, one process: set up, warm up, measure for the window,
//! check every output, report metrics. The untraced run yields the
//! end-to-end metrics; the traced run replays each op layer by layer under
//! spans and yields the per-layer metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::layers::{self, Res, SizeTier, World};
use crate::stats;
use crate::trace::{self, Recorder};
use crate::workloads::{self, Mix, Op, Route, Spec};

pub struct Config {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy tier: for checks, not for numbers.
    pub smoke: bool,
}

impl Config {
    fn tier(&self) -> SizeTier {
        if self.smoke {
            SizeTier::Toy
        } else {
            self.spec.tier
        }
    }
}

pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// One pass over the op list: ops per family, total rows, folded digest.
/// Depends only on the workload, the tier and the seed.
#[derive(Default, Clone, PartialEq, Debug)]
pub struct PassSummary {
    pub family_ops: Vec<(String, u64)>,
    pub rows: u64,
    pub digest: u64,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Per-family rows and sample counts for the human-readable report.
    pub notes: Vec<String>,
    pub pass: PassSummary,
}

/// Set-up is repeated so `setup_s` is a median, not one draw.
const SETUP_REPEATS: usize = 5;

/// Every per-layer metric with its unit. A workload reports 0 for a layer
/// that is not on its path.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.parse_us", "us"),
    ("core.engine_self_us", "us"),
    ("core.residual_pct", "%"),
    ("rpe.plan_us", "us"),
    ("rpe.plan_candidates", "count"),
    ("rpe.eval_us", "us"),
    ("rpe.pathways_per_op", "count"),
    ("rpe.rows_per_result", "count"),
    ("rpe.par_speedup", "ratio"),
    ("graph.anchor_us", "us"),
    ("graph.materializations_per_op", "count"),
    ("graph.seeks_per_op", "count"),
    ("graph.fields_at_hot_ns", "ns"),
    ("graph.fields_at_cold_ns", "ns"),
    ("graph.apply_ms", "ms"),
    ("graph.loader_hit_ratio", "ratio"),
    ("graph.update_ns", "ns"),
    ("graph.upserts_per_s", "1/s"),
    ("graph.recover_s", "s"),
    ("graph.journal_save_s", "s"),
    ("graph.journal_load_s", "s"),
    ("graph.binsnap_save_s", "s"),
    ("graph.binsnap_load_s", "s"),
    ("graph.binsnap_load_par_speedup", "ratio"),
    ("graph.delta_savings_pct", "%"),
    ("rel.load_s", "s"),
    ("rel.eval_us", "us"),
    ("gremlin.eval_us", "us"),
    ("gremlin.round_trips_per_op", "count"),
    ("gremlin.wire_bytes_per_op", "B"),
    ("gremlin.rtt_floor_us", "us"),
    ("obs.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
];

fn layer_metrics() -> Metrics {
    PER_LAYER.iter().map(|&(name, unit)| (name, (0.0, unit))).collect()
}

fn set(m: &mut Metrics, name: &'static str, value: f64) {
    m.get_mut(name).unwrap_or_else(|| panic!("{name} is not a declared per-layer metric")).0 = value;
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Latencies of one measured loop, in ns; index = position in the op cycle.
struct Samples {
    lat: Vec<u64>,
    failed: u64,
}

impl Samples {
    fn ops_per_s(&self) -> f64 {
        // Closed loop, one client, checks outside the op: the time the
        // client spent waiting is the sum of the op latencies.
        self.lat.len() as f64 / (self.lat.iter().sum::<u64>().max(1) as f64 / 1e9)
    }
}

fn latency_metrics(cfg: &Config, s: &Samples, notes: &mut Vec<String>) -> Metrics {
    let us = stats::sorted(&s.lat.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
    let pct = stats::tail_percentile(us.len(), cfg.spec.tail_cap);
    notes.push(format!("  tail_us is p{:.1} of {} samples", pct * 100.0, us.len()));
    Metrics::from([
        ("ops_per_s", (s.ops_per_s(), "1/s")),
        ("p50_us", (stats::quantile(&us, 0.5), "us")),
        ("tail_us", (stats::quantile(&us, pct), "us")),
    ])
}

fn family_notes(families: &[&str], family_of: impl Fn(usize) -> usize, lat: &[u64]) -> Vec<String> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); families.len()];
    for (i, &ns) in lat.iter().enumerate() {
        per[family_of(i)].push(ns as f64 / 1e3);
    }
    families
        .iter()
        .zip(&per)
        .map(|(f, v)| {
            let s = stats::sorted(v);
            format!(
                "  family {f:<20} n={:<6} share={:>5.1}% p50={:>10.1}us p90={:>10.1}us max={:>10.1}us",
                s.len(),
                100.0 * s.len() as f64 / lat.len().max(1) as f64,
                stats::quantile(&s, 0.5),
                stats::quantile(&s, 0.9),
                s.last().copied().unwrap_or(0.0)
            )
        })
        .collect()
}

/// Run `setup` [`SETUP_REPEATS`] times, keeping the last rig; each earlier
/// one is dropped before the next is built so they never coexist.
fn repeated_setup<T>(setup: impl Fn() -> Res<T>) -> Res<(T, f64)> {
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        drop(rig.take());
        let t0 = Instant::now();
        rig = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((rig.expect("SETUP_REPEATS > 0"), stats::median(&times)))
}

// ---- read workloads ----------------------------------------------------------

struct ReadRig {
    // `engine` before `replay`: the engine's Gremlin client must hang up
    // before the server inside `replay` drains.
    engine: layers::Engine,
    replay: Option<layers::Replay>,
    world: World,
    mix: Mix,
    /// `(rows, digest)` per op from the warm-up pass.
    expect: Vec<(u64, u64)>,
}

/// Generate + churn + build backends and engine + one warm-up pass, which
/// also fixes the digest every later execution of each op must reproduce.
fn setup_read(cfg: &Config) -> Res<ReadRig> {
    let world = layers::build_world(cfg.tier(), cfg.seed);
    let (mut engine, replay) = if cfg.spec.name == "retarget.backends" {
        let (engine, replay) = layers::retarget_rig(&world)?;
        (engine, Some(replay))
    } else {
        (layers::native_engine(&world), None)
    };
    let mix = workloads::mix(cfg.spec.name, &world, cfg.seed);
    let mut expect = Vec::with_capacity(mix.ops.len());
    for op in &mix.ops {
        let r = layers::query(&mut engine, &op.text).map_err(|e| format!("{}: {e}", op.text))?;
        expect.push(layers::digest(&r));
    }
    Ok(ReadRig { engine, replay, world, mix, expect })
}

impl ReadRig {
    fn pass_summary(&self) -> PassSummary {
        let mut family_ops: Vec<(String, u64)> = self.mix.families.iter().map(|f| (f.to_string(), 0)).collect();
        for op in &self.mix.ops {
            family_ops[op.family].1 += 1;
        }
        let digests: Vec<u64> = self.expect.iter().map(|e| e.1).collect();
        PassSummary { family_ops, rows: self.expect.iter().map(|e| e.0).sum(), digest: stats::fold_digests(&digests) }
    }

    /// `retarget.backends`: every route of an instance must agree with the
    /// route issued just before it.
    fn cross_route_failures(&self) -> u64 {
        let ops = &self.mix.ops;
        (1..ops.len()).filter(|&i| ops[i].route != Route::Native && self.expect[i - 1] != self.expect[i]).count() as u64
    }

    fn check(&self, i: usize, r: &Res<layers::QueryResult>) -> bool {
        matches!(r, Ok(r) if layers::digest(r) == self.expect[i])
    }

    /// Closed loop, one client: cycle the op list through `Engine::query`
    /// until the window closes.
    fn measure(&mut self, seconds: f64) -> Samples {
        let mut s = Samples { lat: Vec::new(), failed: 0 };
        let t_end = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < t_end {
            let i = s.lat.len() % self.mix.ops.len();
            let t0 = Instant::now();
            let r = layers::query(&mut self.engine, &self.mix.ops[i].text);
            s.lat.push(t0.elapsed().as_nanos() as u64);
            if !self.check(i, &r) {
                s.failed += 1;
            }
        }
        s
    }
}

fn run_read(cfg: &Config) -> Res<Outcome> {
    let (mut rig, setup_s) = repeated_setup(|| setup_read(cfg))?;
    let s = rig.measure(cfg.seconds);
    let mut notes = family_notes(&rig.mix.families, |i| rig.mix.ops[i % rig.mix.ops.len()].family, &s.lat);
    let mut metrics = latency_metrics(cfg, &s, &mut notes);
    metrics.insert("setup_s", (setup_s, "s"));
    metrics.insert("bytes_per_entity", (layers::bytes_per_entity(&rig.world.graph), "B"));
    metrics.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    notes.push(format!("  entities={} ops_in_list={}", layers::num_entities(&rig.world.graph), rig.mix.ops.len()));
    Ok(Outcome {
        attempted: s.lat.len() as u64,
        failed: s.failed + rig.cross_route_failures(),
        metrics,
        notes,
        pass: rig.pass_summary(),
    })
}

/// What the layer-by-layer replay of one op counted.
#[derive(Default)]
struct Replayed {
    candidates: Vec<f64>,
    pathways: Vec<f64>,
    rows_scanned: u64,
    result_rows: u64,
    materializations: Vec<f64>,
    seeks: Vec<f64>,
    round_trips: Vec<f64>,
    wire_bytes: Vec<f64>,
}

/// One op under spans: `op ⊃ {core.query, core.parse, core.execute}` plus
/// the replayed siblings `rpe.plan`, `graph.anchor`, `rpe.eval` (native
/// route) or `rel.eval` / `gremlin.eval` + `gremlin.ping` (retargeted
/// routes). Returns false if any output check failed.
fn replay_op(rig: &mut ReadRig, i: usize, id: u64, rec: &mut Recorder, out: &mut Replayed) -> bool {
    let op: &Op = &rig.mix.ops[i];
    let g = &rig.world.graph;
    let mut ok = true;
    rec.enter("op", id);
    // Whichever of `query` and `parse + execute` runs second finds the
    // op's data in cache; alternating the order keeps that out of the
    // median residual.
    let query_first = id.is_multiple_of(2);
    let mut r = Err(String::new());
    if query_first {
        r = rec.span("core.query", id, || layers::query(&mut rig.engine, &op.text));
    }
    let parsed = rec.span("core.parse", id, || layers::parse(&op.text));
    let r2 = match &parsed {
        Ok(q) => rec.span("core.execute", id, || layers::execute(&mut rig.engine, q)),
        Err(e) => Err(e.clone()),
    };
    if !query_first {
        r = rec.span("core.query", id, || layers::query(&mut rig.engine, &op.text));
    }
    let mut replayed_pathways = 0;
    for var in &op.vars {
        let Ok(plan) = rec.span("rpe.plan", id, || layers::plan(g, &var.rpe)) else {
            ok = false;
            continue;
        };
        out.candidates.push(layers::plan_candidates(&plan) as f64);
        match (op.route, rig.replay.as_mut()) {
            (Route::Pg, Some(replay)) => {
                let n = rec.span("rel.eval", id, || layers::backend_eval(&mut replay.pg, &plan, var.filter));
                ok &= n.is_ok();
                replayed_pathways += n.unwrap_or(0);
            }
            (Route::Gremlin, Some(replay)) => {
                let before = layers::gremlin_wire(&replay.gremlin).1;
                let n = rec.span("gremlin.eval", id, || layers::backend_eval(&mut replay.gremlin, &plan, var.filter));
                ok &= n.is_ok();
                replayed_pathways += n.unwrap_or(0);
                let (trips, after) = layers::gremlin_wire(&replay.gremlin);
                out.round_trips.push(trips as f64);
                out.wire_bytes.push((after - before) as f64);
                ok &= rec.span("gremlin.ping", id, || layers::gremlin_ping(&mut replay.gremlin)).is_ok();
            }
            _ => {
                black_box(rec.span("graph.anchor", id, || layers::anchor(g, &plan, var.filter)));
                let (n, work) = rec.span("rpe.eval", id, || layers::eval(g, &plan, var.filter));
                replayed_pathways += n;
                out.rows_scanned += work.rows_scanned;
                out.materializations.push(work.materializations as f64);
                out.seeks.push(work.seeks as f64);
            }
        }
    }
    rec.exit();
    out.pathways.push(replayed_pathways as f64);
    out.result_rows += rig.expect[i].0;
    ok &= rig.check(i, &r) && rig.check(i, &r2);
    // A single-variable Retrieve returns one row per pathway.
    ok && (!op.retrieve || replayed_pathways as u64 == rig.expect[i].0)
}

/// Hot-set vs cold `fields_at` reads at a time inside the hot churn phase:
/// the hot chains answer through delta materialization.
fn fields_at_ns(world: &World, hot: bool) -> f64 {
    let picks: Vec<_> =
        [&world.vnfs, &world.vms, &world.hosts].into_iter().flatten().filter(|a| a.hot == hot).take(256).collect();
    if picks.is_empty() {
        return 0.0;
    }
    const ROUNDS: usize = 64;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for a in &picks {
            black_box(layers::fields_at(&world.graph, a, world.t_hot));
        }
    }
    t0.elapsed().as_nanos() as f64 / (ROUNDS * picks.len()) as f64
}

/// Per-op `minuend − Σ subtrahends` over the ops that have a `minuend` span.
fn per_op_difference(spans: &[trace::Span], minuend: &str, subtrahends: &[&str]) -> Vec<(f64, f64)> {
    let base = trace::per_op_us(spans, minuend);
    let subs: Vec<_> = subtrahends.iter().map(|n| trace::per_op_us(spans, n)).collect();
    base.iter().map(|(op, &b)| (b, b - subs.iter().map(|s| s.get(op).copied().unwrap_or(0.0)).sum::<f64>())).collect()
}

fn traced_read(cfg: &Config) -> Res<Outcome> {
    let mut rig = setup_read(cfg)?;
    let mut m = layer_metrics();
    let mut rec = Recorder::new();
    let mut out = Replayed::default();
    let mut failed = 0u64;

    // Phase 1 (40 % of the window): the layer-by-layer replay under spans.
    let t_end = Instant::now() + Duration::from_secs_f64(cfg.seconds * 0.4);
    let mut id = 0u64;
    while Instant::now() < t_end {
        let i = id as usize % rig.mix.ops.len();
        if !replay_op(&mut rig, i, id, &mut rec, &mut out) {
            failed += 1;
        }
        id += 1;
    }
    let traced_ops_per_s = 1e6 / mean(&trace::durations_us(&rec.spans, "core.query")).max(1e-9);

    // Phases 2-4 (20 % each), no spans: product defaults, one evaluator
    // thread, and every per-query instrument on.
    let share = cfg.seconds * 0.2;
    let plain = rig.measure(share);
    layers::set_threads(&mut rig.engine, 1);
    let single = rig.measure(share);
    layers::set_threads(&mut rig.engine, 0);
    let qlog = out_dir()?.join(format!("qlog.{}.jsonl", cfg.spec.name));
    layers::set_observability(&mut rig.engine, Some(&qlog))?;
    let observed = rig.measure(share);
    layers::set_observability(&mut rig.engine, None)?;
    let _ = std::fs::remove_file(&qlog);
    failed += plain.failed + single.failed + observed.failed;

    let spans = &rec.spans;
    let med = |name: &str| stats::median(&trace::durations_us(spans, name));
    let med_per_op = |name: &str| stats::median(&trace::per_op_us(spans, name).into_values().collect::<Vec<_>>());
    set(&mut m, "core.parse_us", med("core.parse"));
    set(&mut m, "rpe.plan_us", med_per_op("rpe.plan"));
    set(&mut m, "rpe.plan_candidates", mean(&out.candidates));
    set(&mut m, "rpe.eval_us", med_per_op("rpe.eval"));
    set(&mut m, "rpe.pathways_per_op", mean(&out.pathways));
    set(&mut m, "rpe.rows_per_result", out.rows_scanned as f64 / out.result_rows.max(1) as f64);
    set(&mut m, "rpe.par_speedup", plain.ops_per_s() / single.ops_per_s());
    set(&mut m, "graph.anchor_us", med_per_op("graph.anchor"));
    set(&mut m, "graph.materializations_per_op", mean(&out.materializations));
    set(&mut m, "graph.seeks_per_op", mean(&out.seeks));
    set(&mut m, "graph.fields_at_hot_ns", fields_at_ns(&rig.world, true));
    set(&mut m, "graph.fields_at_cold_ns", fields_at_ns(&rig.world, false));
    set(&mut m, "graph.delta_savings_pct", layers::delta_savings_pct(&rig.world.graph));
    let self_us: Vec<f64> =
        per_op_difference(spans, "core.execute", &["rpe.plan", "rpe.eval", "rel.eval", "gremlin.eval"])
            .iter()
            .map(|&(_, d)| d.max(0.0))
            .collect();
    set(&mut m, "core.engine_self_us", stats::median(&self_us));
    let residual: Vec<f64> = per_op_difference(spans, "core.query", &["core.parse", "core.execute"])
        .iter()
        .map(|&(q, d)| 100.0 * d / q.max(1e-9))
        .collect();
    set(&mut m, "core.residual_pct", stats::median(&residual));
    if let Some(replay) = &rig.replay {
        set(&mut m, "rel.load_s", replay.rel_load_s);
        set(&mut m, "rel.eval_us", med("rel.eval"));
        set(&mut m, "gremlin.eval_us", med("gremlin.eval"));
        set(&mut m, "gremlin.round_trips_per_op", mean(&out.round_trips));
        set(&mut m, "gremlin.wire_bytes_per_op", mean(&out.wire_bytes));
        set(&mut m, "gremlin.rtt_floor_us", med("gremlin.ping"));
    }
    set(&mut m, "obs.overhead_pct", 100.0 * (1.0 - observed.ops_per_s() / plain.ops_per_s()));
    set(&mut m, "trace.overhead_pct", 100.0 * (1.0 - traced_ops_per_s / plain.ops_per_s()));

    write_trace(cfg, spans)?;
    let notes = vec![format!(
        "  replayed ops={} spans={} | untraced ops: default={} threads=1 {} observed={}",
        id,
        spans.len(),
        plain.lat.len(),
        single.lat.len(),
        observed.lat.len()
    )];
    let attempted = id + (plain.lat.len() + single.lat.len() + observed.lat.len()) as u64;
    Ok(Outcome { attempted, failed, metrics: m, notes, pass: rig.pass_summary() })
}

// ---- ingest.recover ------------------------------------------------------------

/// Steps of one ingest round, in order. An op is one timed step.
const INGEST_KINDS: [&str; 5] = ["load_day0", "apply_day", "churn", "save", "recover"];
/// Daily deliveries per round, and recoveries of the finished store.
/// Recoveries hold 5 of 28 ops (18 %) so the p90 tail sits inside their body.
const INGEST_DAYS: usize = 20;
const INGEST_RECOVERS: usize = 5;

#[derive(Default)]
struct Round {
    /// `(kind, latency ns, digest)` per op.
    ops: Vec<(usize, u64, u64)>,
    /// Recoveries whose store differs from the ingested one.
    failed: u64,
    bytes_per_entity: f64,
    delta_savings_pct: f64,
    loader_hit_ratio: f64,
    upserts: u64,
    mutations: u64,
}

impl Round {
    /// Close the innermost open span as this round's next op.
    fn close_op(&mut self, rec: &mut Recorder, kind: usize, digest: u64) {
        self.ops.push((kind, rec.exit(), digest));
    }
}

fn mix2(a: u64, b: u64) -> u64 {
    stats::fold_digests(&[a, b])
}

/// One full round: day 0 into an empty store, the daily deliveries, direct
/// churn, save both formats, then recover from each and check the
/// recovered stores against the ingested one. Every step is a span; op
/// ids count up from `first_id`. `serial_load` adds one single-threaded
/// binary-snapshot load outside any op, for the parallel-load speedup.
fn ingest_round(src: &layers::IngestSource, rec: &mut Recorder, first_id: u64, serial_load: bool) -> Res<Round> {
    let mut round = src.begin_round();
    let (flips, migrations) = ((src.entities() / 2000).max(2), (src.entities() / 6000).max(1));
    let mut out = Round::default();
    let id = |out: &Round| first_id + out.ops.len() as u64;

    for day in 0..=INGEST_DAYS {
        if day > 0 {
            round.advance(flips, migrations);
        }
        rec.enter("graph.apply", id(&out));
        let s = round.apply()?;
        out.close_op(rec, usize::from(day > 0), mix2(s.entities, s.changed));
        out.upserts += s.entities;
    }
    rec.enter("graph.churn", id(&out));
    out.mutations = src.churn(&mut round);
    out.close_op(rec, 2, out.mutations);

    rec.enter("save", id(&out));
    let journal = rec.span("graph.journal_save", id(&out), || layers::journal_save(&round.store))?;
    let binsnap = rec.span("graph.binsnap_save", id(&out), || layers::binsnap_save(&round.store))?;
    out.close_op(rec, 3, mix2(journal.len() as u64, binsnap.len() as u64));

    out.bytes_per_entity = layers::bytes_per_entity(&round.store);
    out.delta_savings_pct = layers::delta_savings_pct(&round.store);
    out.loader_hit_ratio = round.loader_hit_ratio();
    let schema = src.schema();
    let want = layers::store_fingerprint(round.store)?;
    for _ in 0..INGEST_RECOVERS {
        let op = id(&out);
        rec.enter("recover", op);
        let from_journal = rec.span("graph.journal_load", op, || layers::journal_load(schema.clone(), &journal))?;
        let from_binsnap =
            rec.span("graph.binsnap_load", op, || layers::binsnap_load(schema.clone(), &binsnap, None))?;
        out.close_op(rec, 4, mix2(want.0, want.1));
        if layers::store_fingerprint(from_journal)? != want || layers::store_fingerprint(from_binsnap)? != want {
            out.failed += 1;
        }
    }
    if serial_load {
        drop(rec.span("graph.binsnap_load_serial", id(&out), || layers::binsnap_load(schema, &binsnap, Some(1)))?);
    }
    Ok(out)
}

struct IngestRig {
    src: layers::IngestSource,
    /// Digest per op of the warm-up round.
    expect: Vec<u64>,
    pass: PassSummary,
}

fn setup_ingest(cfg: &Config) -> Res<IngestRig> {
    let src = layers::ingest_source(cfg.tier(), cfg.seed);
    let warm = ingest_round(&src, &mut Recorder::new(), 0, false)?;
    if warm.failed > 0 {
        return Err("warm-up round: a recovered store differs from the ingested one".into());
    }
    let mut family_ops: Vec<(String, u64)> = INGEST_KINDS.iter().map(|k| (k.to_string(), 0)).collect();
    for &(kind, _, _) in &warm.ops {
        family_ops[kind].1 += 1;
    }
    let expect: Vec<u64> = warm.ops.iter().map(|o| o.2).collect();
    let pass = PassSummary { family_ops, rows: warm.upserts + warm.mutations, digest: stats::fold_digests(&expect) };
    Ok(IngestRig { src, expect, pass })
}

/// Whole rounds until the window closes (the last round always finishes).
fn measure_ingest(
    rig: &IngestRig,
    seconds: f64,
    rec: &mut Recorder,
    serial_load: bool,
) -> Res<(Samples, Vec<usize>, Round)> {
    let mut s = Samples { lat: Vec::new(), failed: 0 };
    let mut kinds = Vec::new();
    let t0 = Instant::now();
    loop {
        let round = ingest_round(&rig.src, rec, s.lat.len() as u64, serial_load)?;
        s.failed += round.failed;
        for (i, &(kind, ns, digest)) in round.ops.iter().enumerate() {
            s.lat.push(ns);
            kinds.push(kind);
            if rig.expect.get(i) != Some(&digest) {
                s.failed += 1;
            }
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            return Ok((s, kinds, round));
        }
    }
}

fn run_ingest(cfg: &Config) -> Res<Outcome> {
    let (rig, setup_s) = repeated_setup(|| setup_ingest(cfg))?;
    let (s, kinds, last) = measure_ingest(&rig, cfg.seconds, &mut Recorder::new(), false)?;
    let mut notes = family_notes(&INGEST_KINDS, |i| kinds[i], &s.lat);
    let mut metrics = latency_metrics(cfg, &s, &mut notes);
    metrics.insert("setup_s", (setup_s, "s"));
    metrics.insert("bytes_per_entity", (last.bytes_per_entity, "B"));
    metrics.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    Ok(Outcome { attempted: s.lat.len() as u64, failed: s.failed, metrics, notes, pass: rig.pass })
}

fn traced_ingest(cfg: &Config) -> Res<Outcome> {
    let rig = setup_ingest(cfg)?;
    let mut rec = Recorder::new();
    let (s, kinds, last) = measure_ingest(&rig, cfg.seconds, &mut rec, true)?;
    let spans = &rec.spans;
    let med_s = |name: &str| stats::median(&trace::durations_us(spans, name)) / 1e6;
    let total_s = |name: &str| trace::durations_us(spans, name).iter().sum::<f64>() / 1e6;
    let rounds = kinds.iter().filter(|&&k| k == 0).count() as f64;
    let mut m = layer_metrics();
    // Daily deliveries only: day 0 is a bulk insert, a different regime.
    let daily: Vec<f64> = kinds.iter().zip(&s.lat).filter(|(&k, _)| k == 1).map(|(_, &ns)| ns as f64 / 1e6).collect();
    set(&mut m, "graph.apply_ms", stats::median(&daily));
    set(&mut m, "graph.loader_hit_ratio", last.loader_hit_ratio);
    set(&mut m, "graph.update_ns", 1e9 * total_s("graph.churn") / (rounds * last.mutations.max(1) as f64));
    set(&mut m, "graph.upserts_per_s", rounds * last.upserts as f64 / total_s("graph.apply"));
    set(&mut m, "graph.recover_s", med_s("recover"));
    set(&mut m, "graph.journal_save_s", med_s("graph.journal_save"));
    set(&mut m, "graph.journal_load_s", med_s("graph.journal_load"));
    set(&mut m, "graph.binsnap_save_s", med_s("graph.binsnap_save"));
    set(&mut m, "graph.binsnap_load_s", med_s("graph.binsnap_load"));
    set(&mut m, "graph.binsnap_load_par_speedup", med_s("graph.binsnap_load_serial") / med_s("graph.binsnap_load"));
    set(&mut m, "graph.delta_savings_pct", last.delta_savings_pct);
    write_trace(cfg, spans)?;
    let notes = family_notes(&INGEST_KINDS, |i| kinds[i], &s.lat);
    Ok(Outcome { attempted: s.lat.len() as u64, failed: s.failed, metrics: m, notes, pass: rig.pass })
}

// ---- output ---------------------------------------------------------------------

/// `benchmark/out/`, relative to the working directory (the repository root).
pub fn out_dir() -> Res<std::path::PathBuf> {
    let dir = std::path::Path::new("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_trace(cfg: &Config, spans: &[trace::Span]) -> Res<()> {
    let path = out_dir()?.join(format!("trace.{}.json", cfg.spec.name));
    std::fs::write(&path, trace::to_json(spans)).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(cfg: &Config) -> Res<Outcome> {
    match (cfg.spec.name == "ingest.recover", cfg.trace) {
        (false, false) => run_read(cfg),
        (false, true) => traced_read(cfg),
        (true, false) => run_ingest(cfg),
        (true, true) => traced_ingest(cfg),
    }
}
