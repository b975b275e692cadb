//! Workload-introspection drill (DESIGN.md §5h): run the tiered workload
//! through a fully instrumented engine and verify the three introspection
//! surfaces tell a complete, machine-checkable story —
//!
//! 1. per-fingerprint cost attribution on `/top.json` (cpu-ns, rows,
//!    bytes, materializations per statement),
//! 2. a nonzero store access heatmap for **every** generated class
//!    (`nepal_heat_*` gauge families), and
//! 3. a populated metrics-history ring on `/history.json` with at least
//!    two snapshots.
//!
//! The drill drives the same [`Telemetry::handle`] router the HTTP
//! endpoint uses, so a green run certifies the operator-visible routes,
//! not just the in-process tables.

use std::sync::Arc;
use std::time::Duration;

use nepal_core::{BackendRegistry, Engine, NativeBackend};
use nepal_graph::{StoreGauges, TemporalGraph};
use nepal_obs::{HistoryRing, Json, StmtSort, Telemetry};
use nepal_workload::{generate_tier_churned, SizeTier};

/// What the drill observed on the three introspection surfaces.
#[derive(Debug, Clone)]
pub struct IntrospectReport {
    pub tier: SizeTier,
    /// Engine queries executed through the instrumented path.
    pub queries: usize,
    /// Distinct fingerprints in the statement-stats table.
    pub fingerprints: usize,
    /// Sums over the top table — nonzero proves attribution flowed.
    pub attributed_cpu_ns: u64,
    pub attributed_rows: u64,
    pub attributed_bytes: u64,
    pub attributed_materializations: u64,
    /// Classes present in the generated store / classes with read heat.
    pub classes_total: usize,
    pub classes_hot: usize,
    /// Classes the heatmap never saw (must be empty to pass).
    pub cold_classes: Vec<String>,
    /// Snapshots admitted to the metrics-history ring.
    pub history_len: usize,
    /// HTTP status codes of the three routes.
    pub top_status: u16,
    pub history_status: u16,
    pub metrics_status: u16,
}

impl IntrospectReport {
    /// Did every introspection surface carry real data?
    pub fn passed(&self) -> bool {
        self.fingerprints >= 1
            && self.attributed_cpu_ns > 0
            && self.attributed_rows > 0
            && self.attributed_bytes > 0
            && self.classes_total > 0
            && self.cold_classes.is_empty()
            && self.history_len >= 2
            && self.top_status == 200
            && self.history_status == 200
            && self.metrics_status == 200
    }
}

/// Read every class through the store's hot paths so the heatmap has
/// something to say about all of them: one extent scan per class plus a
/// few materializing version reads (which also count bytes read).
fn heat_pass(g: &TemporalGraph) {
    for row in g.class_memory() {
        let uids: Vec<_> = g.extent_exact(row.class).iter().copied().take(8).collect();
        for uid in uids {
            let last = g.versions(uid).len().saturating_sub(1);
            let _ = g.fields_of(uid, last);
        }
    }
}

/// Run the drill at `tier`. Builds the churned generator graph, runs the
/// sweep families through an [`Engine`] with statement stats on, performs
/// a per-class read pass, ticks the history ring twice, then audits the
/// `/top.json`, `/history.json`, and `/metrics` routes.
pub fn run_introspect(tier: SizeTier, seed: u64) -> IntrospectReport {
    let (topo, _) = generate_tier_churned(tier, seed);
    let graph = Arc::new(topo.graph);

    let registry = BackendRegistry::new("native", Box::new(NativeBackend::new(graph.clone())));
    let mut engine = Engine::new(registry);
    let gauges = Arc::new(StoreGauges::register(&engine.metrics));
    let stmt = engine.enable_stmt(512);

    let telemetry = Arc::new(Telemetry::new(engine.metrics.clone(), engine.tracer.clone()));
    telemetry.set_stmt(stmt.clone());
    // Minimum (1ms) resolution, so the drill controls snapshot count
    // deterministically instead of sleeping through wall time.
    let history = Arc::new(HistoryRing::new(Duration::from_millis(1), 64));
    telemetry.set_history(history.clone());
    {
        let (gauges, graph) = (gauges.clone(), graph.clone());
        telemetry.add_refresher(move || gauges.refresh(&graph));
    }

    // The tier sweep families as engine statements — unanchored, so the
    // anchor scan fans out over the class extents and the meters see real
    // row/byte traffic. Three repetitions accumulate per-fingerprint calls.
    let families = [
        "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()",
        "Retrieve P From PATHS P Where P MATCHES Service()->[Vertical()]{1,8}->Host()",
        "Retrieve P From PATHS P Where P MATCHES Container()->[VmNetwork()]->VirtualNetwork()",
    ];
    let mut queries = 0usize;
    for _ in 0..3 {
        for q in &families {
            let _ = engine.query(q);
            queries += 1;
        }
    }

    heat_pass(&graph);
    // The ring clamps resolution to 1ms, so back-to-back ticks in the same
    // millisecond are rejected — tick until two snapshots are admitted.
    let mut admitted = 0;
    while admitted < 2 {
        if telemetry.tick_history() {
            admitted += 1;
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let top = stmt.top(64, StmtSort::Cpu);
    let fingerprints = top.len();
    let attributed_cpu_ns: u64 = top.iter().map(|e| e.cpu_ns_total).sum();
    let attributed_rows: u64 = top.iter().map(|e| e.rows).sum();
    let attributed_bytes: u64 = top.iter().map(|e| e.bytes_scanned).sum();
    let attributed_materializations: u64 = top.iter().map(|e| e.materializations).sum();

    let rows = graph.class_memory();
    let classes_total = rows.len();
    let mut cold_classes = Vec::new();
    for row in &rows {
        let heat = graph.class_heat(row.class);
        // Property-less classes (bare relationship edges) can never
        // accumulate bytes_read; read activity alone makes them hot.
        let wants_bytes = !graph.schema().all_fields(row.class).is_empty();
        if !heat.is_hot() || (wants_bytes && heat.bytes_read == 0) {
            cold_classes.push(row.name.clone());
        }
    }
    let classes_hot = classes_total - cold_classes.len();

    let (top_status, _, _) = telemetry.handle("/top.json");
    let (history_status, _, _) = telemetry.handle("/history.json");
    let (metrics_status, _, metrics_text) = telemetry.handle("/metrics");
    debug_assert!(metrics_text.contains("nepal_heat_scans"), "heat gauges must be exported on scrape");

    IntrospectReport {
        tier,
        queries,
        fingerprints,
        attributed_cpu_ns,
        attributed_rows,
        attributed_bytes,
        attributed_materializations,
        classes_total,
        classes_hot,
        cold_classes,
        history_len: history.len(),
        top_status,
        history_status,
        metrics_status,
    }
}

/// Render the drill outcome for the terminal.
pub fn format_introspect(r: &IntrospectReport) -> String {
    format!(
        "Workload-introspection drill ({} tier)\n\
         statements: {} query execution(s) -> {} fingerprint(s) attributed\n\
         attribution: {} cpu-ns  {} row(s)  {} byte(s)  {} materialization(s)\n\
         heatmap: {}/{} class(es) hot{}\n\
         history: {} snapshot(s) in the ring\n\
         routes: /top.json {}  /history.json {}  /metrics {}\n\
         verdict: {}\n",
        r.tier.name(),
        r.queries,
        r.fingerprints,
        r.attributed_cpu_ns,
        r.attributed_rows,
        r.attributed_bytes,
        r.attributed_materializations,
        r.classes_hot,
        r.classes_total,
        if r.cold_classes.is_empty() { String::new() } else { format!("  COLD: {}", r.cold_classes.join(", ")) },
        r.history_len,
        r.top_status,
        r.history_status,
        r.metrics_status,
        if r.passed() { "PASS" } else { "FAIL" }
    )
}

/// Render the drill as the `BENCH_introspect.json` document.
pub fn introspect_json(r: &IntrospectReport) -> Json {
    Json::obj([
        ("tier", r.tier.name().into()),
        ("queries", r.queries.into()),
        ("fingerprints", r.fingerprints.into()),
        ("attributed_cpu_ns", r.attributed_cpu_ns.into()),
        ("attributed_rows", r.attributed_rows.into()),
        ("attributed_bytes", r.attributed_bytes.into()),
        ("attributed_materializations", r.attributed_materializations.into()),
        ("classes_total", r.classes_total.into()),
        ("classes_hot", r.classes_hot.into()),
        ("cold_classes", r.cold_classes.clone().into()),
        ("history_len", r.history_len.into()),
        ("top_status", r.top_status.into()),
        ("history_status", r.history_status.into()),
        ("metrics_status", r.metrics_status.into()),
        ("passed", r.passed().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_drill_attributes_heats_and_snapshots() {
        let r = run_introspect(SizeTier::Toy, 42);
        assert!(r.fingerprints >= 3, "each family has its own fingerprint, got {}", r.fingerprints);
        assert!(r.attributed_cpu_ns > 0 && r.attributed_rows > 0 && r.attributed_bytes > 0);
        assert!(r.cold_classes.is_empty(), "cold classes: {:?}", r.cold_classes);
        assert!(r.history_len >= 2);
        assert!(r.passed(), "{}", format_introspect(&r));
        let json = introspect_json(&r).to_string();
        assert!(json.contains("\"passed\":true"), "{json}");
        assert!(json.contains("\"attributed_cpu_ns\""));
    }
}
