//! The `reproduce obs-report` experiment: the observability surface
//! benchmarked against the paper workloads.
//!
//! Four measurements, written to `BENCH_memory.json`:
//!
//! 1. **Memory growth under churn** — the virtualized service graph run
//!    through 60 simulated days of field updates and edge rewires, with a
//!    [`TemporalGraph::memory_report`] point every 10 days, and every
//!    point cross-checked against the brute-force
//!    [`TemporalGraph::memory_recount`] walk (worst relative error
//!    recorded; the acceptance bound is 1%).
//! 2. **Accounting overhead** — the Table-1 query workload timed twice on
//!    the same engine: queries alone, then queries + per-query store-gauge
//!    refresh + SLO evaluation. The delta is the price of keeping the
//!    resource gauges and burn-rate engine current on every request (CI
//!    gates this under 5%).
//! 3. **Healthy alerts** — the standard SLO rule set evaluated over the
//!    workload window; a healthy run reports zero firing rules.
//! 4. **Induced overload** — a deliberately impossible latency SLO
//!    (p99 ≤ 1ns) primed, breached by the workload, and then re-evaluated
//!    on an empty window: it must fire and then resolve, demonstrating the
//!    full alert lifecycle.

use std::sync::Arc;
use std::time::Instant;

use nepal_core::{BackendRegistry, Engine, NativeBackend, StandardSlos};
use nepal_graph::{StoreGauges, TemporalGraph};
use nepal_obs::{quantile_from_counts, Json, SloEngine, SloRule};
use nepal_workload::{alive_edges, apply_churn, generate_virtualized, updatable_entities, ChurnParams, VirtParams};

use crate::table1_queries;

const DAY_US: i64 = 86_400_000_000;

/// One point of the memory-growth-under-churn curve.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    pub day: u32,
    pub versions: u64,
    pub entity_bytes: u64,
    pub adjacency_bytes: u64,
    pub unique_index_bytes: u64,
    pub journal_bytes: u64,
    pub total_bytes: u64,
}

/// The full obs-report outcome.
#[derive(Debug, Clone)]
pub struct ObsReport {
    pub churn_curve: Vec<ChurnPoint>,
    /// Worst `|report − recount| / recount` across every curve point and
    /// every reported figure (0.0 = exact agreement).
    pub recount_rel_err: f64,
    pub queries: usize,
    pub baseline_ms: f64,
    pub accounted_ms: f64,
    /// `(accounted − baseline) / baseline`, floored at 0 (timing jitter
    /// can make the accounted pass marginally faster).
    pub overhead_pct: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub healthy_firing: usize,
    pub overload_fired: bool,
    pub overload_resolved: bool,
}

fn report_versions(g: &TemporalGraph) -> u64 {
    g.class_memory().iter().map(|c| c.versions).sum()
}

/// Relative disagreement between two byte figures (0 when both are 0).
fn rel_err(a: u64, b: u64) -> f64 {
    if b == 0 {
        if a == 0 {
            0.0
        } else {
            1.0
        }
    } else {
        (a as f64 - b as f64).abs() / b as f64
    }
}

fn push_point(g: &TemporalGraph, day: u32, curve: &mut Vec<ChurnPoint>, worst: &mut f64) {
    let report = g.memory_report();
    let recount = g.memory_recount();
    for (a, b) in [
        (report.entity_bytes, recount.entity_bytes),
        (report.adjacency_bytes, recount.adjacency_bytes),
        (report.unique_index_bytes, recount.unique_index_bytes),
        (report.total_bytes, recount.total_bytes),
    ] {
        *worst = worst.max(rel_err(a, b));
    }
    curve.push(ChurnPoint {
        day,
        versions: report_versions(g),
        entity_bytes: report.entity_bytes,
        adjacency_bytes: report.adjacency_bytes,
        unique_index_bytes: report.unique_index_bytes,
        journal_bytes: report.journal_bytes,
        total_bytes: report.total_bytes,
    });
}

/// Run the whole experiment. `instances` bounds the per-family query
/// count (the CI smoke uses a handful; the default reproduce run uses 50).
pub fn run_obs_report(instances: usize, seed: u64) -> ObsReport {
    // 1. Memory growth under churn, report-vs-recount checked per point.
    let mut topo = generate_virtualized(VirtParams { seed, ..Default::default() });
    let mut curve = Vec::new();
    let mut worst_err = 0.0f64;
    push_point(&topo.graph, 0, &mut curve, &mut worst_err);
    let (step_days, steps) = (10u32, 6u32);
    let mut start_ts = topo.params.start_ts;
    for s in 1..=steps {
        // Recompute the eligible sets each step: rewires retire edge uids
        // and create fresh ones.
        let updatable = updatable_entities(&topo.graph, "status");
        let rewirable = alive_edges(&topo.graph);
        let params = ChurnParams {
            days: step_days,
            daily_update_fraction: 0.0016,
            daily_rewire_fraction: 0.001,
            seed: seed + s as u64,
        };
        apply_churn(&mut topo.graph, &updatable, &rewirable, start_ts, &params);
        start_ts += step_days as i64 * DAY_US;
        push_point(&topo.graph, s * step_days, &mut curve, &mut worst_err);
    }

    // 2. Accounting overhead over the Table-1 workload.
    let snap = generate_virtualized(VirtParams { seed, ..Default::default() });
    let queries: Vec<String> = table1_queries(&snap, instances)
        .into_iter()
        .flat_map(|(_, rpes)| rpes.into_iter().take(instances))
        .map(|rpe| format!("Retrieve P From PATHS P Where P MATCHES {rpe}"))
        .collect();
    let graph = Arc::new(snap.graph);
    let registry = BackendRegistry::new("native", Box::new(NativeBackend::new(graph.clone())));
    let mut engine = Engine::new(registry);
    let gauges = StoreGauges::register(&engine.metrics);
    // Generous thresholds: a healthy run must report zero firing rules
    // even on a slow CI box.
    let slo = engine.install_standard_slos(&StandardSlos {
        max_p99_ns: 5_000_000_000,
        max_error_ratio: 0.05,
        max_store_bytes: 4 << 30,
        max_qerror: 1e6,
    });
    slo.evaluate(); // prime the windows before the measured workload

    for q in &queries {
        let _ = engine.query(q); // warm-up pass
    }
    // Best-of-three per loop against run-to-run jitter. The overhead
    // numerator is the directly timed refresh+evaluate cost measured in
    // situ inside the accounted loop — differencing the two loop totals
    // would drown the real cost (µs per query) in workload jitter (ms).
    let mut baseline_ms = f64::INFINITY;
    let mut accounted_ms = f64::INFINITY;
    let mut observe_ms = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for q in &queries {
            let _ = engine.query(q);
        }
        baseline_ms = baseline_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let mut obs = 0.0;
        for q in &queries {
            let _ = engine.query(q);
            let t = Instant::now();
            gauges.refresh(&graph);
            slo.evaluate();
            obs += t.elapsed().as_secs_f64() * 1e3;
        }
        accounted_ms = accounted_ms.min(t1.elapsed().as_secs_f64() * 1e3);
        observe_ms = observe_ms.min(obs);
    }
    let overhead_pct = if baseline_ms > 0.0 { (observe_ms / baseline_ms * 100.0).max(0.0) } else { 0.0 };

    // 3. Healthy outcome: latency/error/memory/q-error all inside target.
    gauges.refresh_deep(&graph);
    let healthy_firing = slo.evaluate().iter().filter(|s| s.state.is_firing()).count();

    // Workload latency quantiles from the engine histogram.
    let counts = engine
        .metrics
        .histogram_handle("nepal_query_duration_ns")
        .map(|h| h.bucket_counts())
        .unwrap_or([0; nepal_obs::HISTOGRAM_BUCKETS]);
    let (p50_ns, p95_ns, p99_ns) =
        (quantile_from_counts(&counts, 0.50), quantile_from_counts(&counts, 0.95), quantile_from_counts(&counts, 0.99));

    // 4. Induced overload: impossible latency target fires, then resolves
    // once the window drains.
    let overload = SloEngine::new(engine.metrics.clone());
    overload.add(SloRule::latency("induced-overload", "nepal_query_duration_ns", 0.99, 1));
    overload.evaluate(); // prime: absorb the cumulative history
    for q in queries.iter().take(5) {
        let _ = engine.query(q);
    }
    let overload_fired = overload.evaluate().iter().any(|s| s.state.is_firing());
    let overload_resolved = !overload.evaluate().iter().any(|s| s.state.is_firing());

    ObsReport {
        churn_curve: curve,
        recount_rel_err: worst_err,
        queries: queries.len(),
        baseline_ms,
        accounted_ms,
        overhead_pct,
        p50_ns,
        p95_ns,
        p99_ns,
        healthy_firing,
        overload_fired,
        overload_resolved,
    }
}

/// Render the report for the terminal.
pub fn format_obs_report(r: &ObsReport) -> String {
    let mut s = String::new();
    s.push_str("Observability report: accounting, SLO alerts, churn footprint\n");
    s.push_str(&format!(
        "{:>4} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
        "day", "versions", "entity B", "adjacency B", "journal B", "total B"
    ));
    for p in &r.churn_curve {
        s.push_str(&format!(
            "{:>4} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
            p.day, p.versions, p.entity_bytes, p.adjacency_bytes, p.journal_bytes, p.total_bytes
        ));
    }
    s.push_str(&format!("\nreport vs recount: worst relative error {:.6}% (bound 1%)\n", r.recount_rel_err * 100.0));
    s.push_str(&format!(
        "accounting overhead: {} queries, {:.1} ms bare vs {:.1} ms with refresh+SLO (observe cost {:.2}%)\n",
        r.queries, r.baseline_ms, r.accounted_ms, r.overhead_pct
    ));
    s.push_str(&format!("workload latency: p50 {}ns  p95 {}ns  p99 {}ns\n", r.p50_ns, r.p95_ns, r.p99_ns));
    s.push_str(&format!("healthy run: {} firing alert(s)\n", r.healthy_firing));
    s.push_str(&format!("induced overload: fired={} resolved={}\n", r.overload_fired, r.overload_resolved));
    s
}

/// Render the report as the `BENCH_memory.json` document.
pub fn obs_report_json(r: &ObsReport) -> Json {
    let points = r
        .churn_curve
        .iter()
        .map(|p| {
            Json::obj([
                ("day", p.day.into()),
                ("versions", p.versions.into()),
                ("entity_bytes", p.entity_bytes.into()),
                ("adjacency_bytes", p.adjacency_bytes.into()),
                ("unique_index_bytes", p.unique_index_bytes.into()),
                ("journal_bytes", p.journal_bytes.into()),
                ("total_bytes", p.total_bytes.into()),
            ])
        })
        .collect();
    Json::obj([
        ("churn_curve", Json::Arr(points)),
        ("recount_rel_err_pct", (r.recount_rel_err * 100.0).into()),
        ("queries", r.queries.into()),
        ("baseline_ms", r.baseline_ms.into()),
        ("accounted_ms", r.accounted_ms.into()),
        ("overhead_pct", r.overhead_pct.into()),
        ("latency_ns", Json::obj([("p50", r.p50_ns.into()), ("p95", r.p95_ns.into()), ("p99", r.p99_ns.into())])),
        ("healthy_firing", r.healthy_firing.into()),
        ("overload_fired", r.overload_fired.into()),
        ("overload_resolved", r.overload_resolved.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_report_smoke_holds_acceptance_shape() {
        let r = run_obs_report(2, 42);
        // Churn grows the footprint monotonically in versions and bytes.
        assert_eq!(r.churn_curve.len(), 7);
        assert!(r.churn_curve.last().unwrap().versions > r.churn_curve[0].versions);
        assert!(r.churn_curve.last().unwrap().total_bytes > r.churn_curve[0].total_bytes);
        // Incremental accounting agrees with the brute-force walk within 1%.
        assert!(r.recount_rel_err < 0.01, "recount err {}", r.recount_rel_err);
        // Healthy run: nothing firing; overload fires then resolves.
        assert_eq!(r.healthy_firing, 0);
        assert!(r.overload_fired);
        assert!(r.overload_resolved);
        let json = obs_report_json(&r).to_string();
        assert!(json.contains("\"churn_curve\""));
        assert!(json.contains("\"overload_fired\":true"));
    }
}
