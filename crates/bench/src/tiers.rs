//! The tiered scaling sweep: threads × size tiers over the ONAP-style
//! generator, plus per-tier storage and recovery measurements.
//!
//! Unlike the Table-1 sweep (anchored single-instance queries), each
//! family here is *unanchored and many-seeded* — one evaluation fans out
//! from hundreds-to-thousands of seeds, which is the shape the
//! work-stealing pool actually wins on at the large tier. Per tier the
//! sweep also records bytes/entity, the delta-encoding saving on version
//! history, and recovery time for journal replay vs the binary snapshot.

use std::sync::Arc;
use std::time::Instant;

use nepal_graph::{load_binary, load_journal, save_binary, save_journal, GraphView, TemporalGraph, TimeFilter, Uid};
use nepal_obs::Json;
use nepal_rpe::{evaluate, parse_rpe, plan_rpe, EvalOptions, GraphEstimator, Seeds};
use nepal_workload::{generate_tier_churned, SizeTier, VirtTopology};

/// One measurement of the tier sweep: a many-seed family evaluated with a
/// fixed worker-thread count at a fixed size tier.
#[derive(Debug, Clone)]
pub struct TierScalingRow {
    pub tier: SizeTier,
    pub name: String,
    pub threads: usize,
    pub seeds: usize,
    pub paths: usize,
    pub ms: f64,
    /// Time at 1 thread / time at this thread count (>1 = faster).
    pub speedup: f64,
}

/// Per-tier storage + recovery measurements.
#[derive(Debug, Clone)]
pub struct TierStorageRow {
    pub tier: SizeTier,
    pub entities: u64,
    pub versions: u64,
    /// In-memory store bytes per entity (entity + adjacency + indexes).
    pub bytes_per_entity: f64,
    /// Delta-encoding saving on version-history bytes (non-head versions),
    /// percent.
    pub history_delta_savings_pct: f64,
    pub journal_bytes: u64,
    pub binsnap_bytes: u64,
    /// Wall time to rebuild the store by replaying the text journal.
    pub journal_load_ms: f64,
    /// Wall time to load the binary snapshot (serial decode).
    pub binsnap_load_ms_serial: f64,
    /// Wall time to load the binary snapshot with the sweep's max threads.
    pub binsnap_load_ms_parallel: f64,
    /// journal_load_ms / min(binary load times).
    pub recovery_speedup: f64,
}

/// Everything measured for one tier.
#[derive(Debug, Clone)]
pub struct TierReport {
    pub tier: SizeTier,
    pub storage: TierStorageRow,
    pub rows: Vec<TierScalingRow>,
}

/// The unanchored many-seed families of the sweep: `(name, rpe,
/// seed-roster picker)`. Seeds are rostered from the generator so the
/// fan-out scales with the tier.
fn tier_families(topo: &VirtTopology) -> Vec<(&'static str, &'static str, Vec<Uid>)> {
    vec![
        // Top-down vertical descent from every VNF — the paper's
        // troubleshooting query, unanchored.
        ("vnf_to_host", "VNF()->[Vertical()]{1,6}->Host()", topo.vnfs.clone()),
        // Full service-to-metal descent from every service.
        ("service_to_host", "Service()->[Vertical()]{1,8}->Host()", topo.services.clone()),
        // Virtual-network attachment fan-out from containers (bounded
        // roster: every 4th container).
        (
            "container_to_network",
            "Container()->[VmNetwork()]->VirtualNetwork()",
            topo.containers.iter().copied().step_by(4).collect(),
        ),
    ]
}

fn eval_family(g: &TemporalGraph, rpe: &str, seeds: &[Uid], threads: usize) -> (usize, f64) {
    let plan = plan_rpe(g.schema(), &parse_rpe(rpe).expect("sweep RPE parses"), &GraphEstimator { graph: g })
        .expect("sweep RPE plans");
    let view = GraphView::new(g, TimeFilter::Current);
    let opts = EvalOptions { threads, ..Default::default() };
    let t0 = Instant::now();
    let paths = evaluate(&view, &plan, Seeds::Sources(seeds), &opts);
    (paths.len(), t0.elapsed().as_secs_f64() * 1e3)
}

fn measure_storage(tier: SizeTier, g: &TemporalGraph, max_threads: usize) -> TierStorageRow {
    let report = g.memory_report();
    let entities = g.num_entities() as u64;
    let (hist_stored, hist_full) = g.history_version_bytes();
    let history_delta_savings_pct =
        if hist_full == 0 { 0.0 } else { 100.0 * (1.0 - hist_stored as f64 / hist_full as f64) };

    let mut journal = Vec::new();
    save_journal(g, &mut journal).expect("journal save");
    let mut binsnap = Vec::new();
    save_binary(g, &mut binsnap).expect("binary save");
    let schema: Arc<_> = g.schema().clone();

    // Warm-up load: fault in allocator pools once so neither contender
    // pays the first-touch page-fault cost; every timed load below then
    // reuses freed memory (each store is dropped before the next run).
    drop(load_journal(schema.clone(), &mut std::io::Cursor::new(&journal)).expect("journal load"));

    let t0 = Instant::now();
    let gj = load_journal(schema.clone(), &mut std::io::Cursor::new(&journal)).expect("journal load");
    let journal_load_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(gj.num_versions(), g.num_versions());
    drop(gj);

    let t0 = Instant::now();
    let gb = load_binary(schema.clone(), &binsnap, 1).expect("binary load");
    let binsnap_load_ms_serial = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(gb.num_versions(), g.num_versions());
    drop(gb);

    let binsnap_load_ms_parallel = if max_threads > 1 {
        let t0 = Instant::now();
        let gp = load_binary(schema, &binsnap, max_threads).expect("binary load");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(gp.num_versions(), g.num_versions());
        ms
    } else {
        binsnap_load_ms_serial
    };

    let best_bin = binsnap_load_ms_serial.min(binsnap_load_ms_parallel);
    TierStorageRow {
        tier,
        entities,
        versions: g.num_versions(),
        bytes_per_entity: if entities == 0 { 0.0 } else { report.total_bytes as f64 / entities as f64 },
        history_delta_savings_pct,
        journal_bytes: journal.len() as u64,
        binsnap_bytes: binsnap.len() as u64,
        journal_load_ms,
        binsnap_load_ms_serial,
        binsnap_load_ms_parallel,
        recovery_speedup: if best_bin > 0.0 { journal_load_ms / best_bin } else { 1.0 },
    }
}

/// Run the full sweep: for each tier, generate + churn the graph, run
/// every family at every thread count, and measure storage + recovery.
/// An empty `counts` skips the query sweep entirely (storage-only mode,
/// used by the CI recovery smoke); the binary-snapshot parallel load then
/// uses the host's available parallelism.
pub fn run_scaling_tiers(tiers: &[SizeTier], seed: u64, counts: &[usize]) -> Vec<TierReport> {
    let max_threads = counts.iter().copied().max().unwrap_or_else(nepal_graph::binsnap::default_threads);
    let mut out = Vec::new();
    for &tier in tiers {
        let (topo, _) = generate_tier_churned(tier, seed);
        let g = &topo.graph;
        let mut rows = Vec::new();
        for (name, rpe, seeds) in tier_families(&topo) {
            let mut base_ms = 0.0f64;
            for &t in counts {
                let (paths, ms) = eval_family(g, rpe, &seeds, t);
                if t == 1 {
                    base_ms = ms;
                }
                rows.push(TierScalingRow {
                    tier,
                    name: name.to_string(),
                    threads: t,
                    seeds: seeds.len(),
                    paths,
                    ms,
                    speedup: if ms > 0.0 { base_ms / ms } else { 1.0 },
                });
            }
        }
        let storage = measure_storage(tier, g, max_threads);
        out.push(TierReport { tier, storage, rows });
    }
    out
}

/// Aggregate speedup per (tier, threads): total family ms at 1 thread /
/// total at `threads`.
pub fn tier_aggregates(reports: &[TierReport]) -> Vec<(SizeTier, usize, f64, f64)> {
    let mut out: Vec<(SizeTier, usize, f64, f64)> = Vec::new();
    for rep in reports {
        for r in &rep.rows {
            match out.iter_mut().find(|(t, n, _, _)| *t == r.tier && *n == r.threads) {
                Some(slot) => slot.2 += r.ms,
                None => out.push((r.tier, r.threads, r.ms, 1.0)),
            }
        }
    }
    for i in 0..out.len() {
        let base =
            out.iter().find(|(t, n, _, _)| *t == out[i].0 && *n == 1).map(|(_, _, ms, _)| *ms).unwrap_or(out[i].2);
        out[i].3 = if out[i].2 > 0.0 { base / out[i].2 } else { 1.0 };
    }
    out
}

/// Render the sweep for the terminal.
pub fn format_tier_scaling(reports: &[TierReport]) -> String {
    let mut s = String::new();
    s.push_str("Tiered scaling sweep: unanchored many-seed families, threads x size tiers\n");
    s.push_str(&format!(
        "{:<8} {:<22} {:>7} {:>8} {:>9} {:>11} {:>9}\n",
        "Tier", "Family", "threads", "seeds", "paths", "time", "speedup"
    ));
    for rep in reports {
        for r in &rep.rows {
            s.push_str(&format!(
                "{:<8} {:<22} {:>7} {:>8} {:>9} {:>8.2} ms {:>8.2}x\n",
                r.tier.name(),
                r.name,
                r.threads,
                r.seeds,
                r.paths,
                r.ms,
                r.speedup
            ));
        }
    }
    s.push_str("\nAggregates (sum of family times per tier):\n");
    for (tier, threads, ms, speedup) in tier_aggregates(reports) {
        s.push_str(&format!("{:<8} threads={threads:<3} {ms:>9.2} ms {speedup:>8.2}x\n", tier.name()));
    }
    s.push_str("\nStorage and recovery per tier:\n");
    s.push_str(&format!(
        "{:<8} {:>10} {:>10} {:>8} {:>8} {:>12} {:>12} {:>12} {:>10}\n",
        "Tier", "entities", "versions", "B/ent", "Δsave%", "journal", "binsnap", "jload", "recovery"
    ));
    for rep in reports {
        let st = &rep.storage;
        s.push_str(&format!(
            "{:<8} {:>10} {:>10} {:>8.1} {:>7.1}% {:>11}B {:>11}B {:>9.1}ms {:>9.2}x\n",
            st.tier.name(),
            st.entities,
            st.versions,
            st.bytes_per_entity,
            st.history_delta_savings_pct,
            st.journal_bytes,
            st.binsnap_bytes,
            st.journal_load_ms,
            st.recovery_speedup,
        ));
    }
    s
}

/// Render the sweep as the `BENCH_scaling.json` document. Every record —
/// query rows, aggregates, and storage rows — carries `tier`,
/// `host_parallelism`, and `bytes_per_entity`.
pub fn tier_scaling_json(reports: &[TierReport], counts: &[usize]) -> Json {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let record = |tier: SizeTier, fields: Vec<(&str, Json)>| {
        let bpe = reports.iter().find(|r| r.tier == tier).map(|r| r.storage.bytes_per_entity).unwrap_or(0.0);
        let mut all =
            vec![("tier", tier.name().into()), ("host_parallelism", host.into()), ("bytes_per_entity", bpe.into())];
        all.extend(fields);
        Json::obj(all)
    };
    let rows = reports
        .iter()
        .flat_map(|rep| rep.rows.iter())
        .map(|r| {
            record(
                r.tier,
                vec![
                    ("name", r.name.as_str().into()),
                    ("threads", r.threads.into()),
                    ("seeds", r.seeds.into()),
                    ("paths", r.paths.into()),
                    ("ms", r.ms.into()),
                    ("speedup", r.speedup.into()),
                ],
            )
        })
        .collect();
    let aggregates = tier_aggregates(reports)
        .into_iter()
        .map(|(tier, threads, ms, speedup)| {
            record(tier, vec![("threads", threads.into()), ("total_ms", ms.into()), ("speedup", speedup.into())])
        })
        .collect();
    let storage = reports
        .iter()
        .map(|rep| {
            let st = &rep.storage;
            record(
                st.tier,
                vec![
                    ("entities", st.entities.into()),
                    ("versions", st.versions.into()),
                    ("history_delta_savings_pct", st.history_delta_savings_pct.into()),
                    ("journal_bytes", st.journal_bytes.into()),
                    ("binsnap_bytes", st.binsnap_bytes.into()),
                    ("journal_load_ms", st.journal_load_ms.into()),
                    ("binsnap_load_ms_serial", st.binsnap_load_ms_serial.into()),
                    ("binsnap_load_ms_parallel", st.binsnap_load_ms_parallel.into()),
                    ("recovery_speedup", st.recovery_speedup.into()),
                ],
            )
        })
        .collect();
    Json::obj([
        ("host_parallelism", host.into()),
        ("thread_counts", counts.to_vec().into()),
        ("rows", Json::Arr(rows)),
        ("aggregates", Json::Arr(aggregates)),
        ("storage", Json::Arr(storage)),
    ])
}

/// Gate outcomes for the CI smokes. `None` = gate not applicable on this
/// host (e.g. speedup gates on a single-core runner).
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    pub failures: Vec<String>,
    pub skipped: Vec<String>,
}

impl GateOutcome {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Check the sweep's gates, all against the *largest* swept tier. The
/// `speedup` gate (aggregate at 4 threads) and the `recovery` gate
/// (binary snapshot load vs journal replay — the binary loader's decode
/// is parallel and its apply is overlapped, so the ratio is a parallelism
/// measurement) are skipped (recorded, not failed) when the host has
/// fewer than 4 cores; `delta_savings` applies unconditionally.
pub fn check_gates(
    reports: &[TierReport],
    speedup: Option<f64>,
    recovery: Option<f64>,
    delta_savings: Option<f64>,
) -> GateOutcome {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = GateOutcome::default();
    let Some(top) = reports.iter().map(|r| r.tier).max() else {
        out.failures.push("no tiers swept".into());
        return out;
    };
    if let Some(gate) = speedup {
        if host < 4 {
            out.skipped.push(format!(
                "speedup gate ({gate:.2}x at 4 threads, {} tier) skipped: host_parallelism = {host} < 4",
                top.name()
            ));
        } else {
            match tier_aggregates(reports).iter().find(|(t, n, _, _)| *t == top && *n == 4) {
                Some((_, _, _, speedup)) if *speedup >= gate => {}
                Some((_, _, _, speedup)) => out.failures.push(format!(
                    "aggregate speedup at 4 threads on {} tier is {speedup:.2}x < required {gate:.2}x",
                    top.name()
                )),
                None => out.failures.push(format!("no 4-thread aggregate for {} tier", top.name())),
            }
        }
    }
    if let Some(gate) = recovery {
        if host < 4 {
            out.skipped.push(format!(
                "recovery gate ({gate:.2}x, {} tier) skipped: host_parallelism = {host} < 4",
                top.name()
            ));
        } else {
            let st = &reports.iter().find(|r| r.tier == top).expect("top tier swept").storage;
            if st.recovery_speedup < gate {
                out.failures.push(format!(
                    "binary snapshot recovery on {} tier is {:.2}x vs journal replay, < required {gate:.2}x",
                    top.name(),
                    st.recovery_speedup
                ));
            }
        }
    }
    if let Some(gate) = delta_savings {
        let st = &reports.iter().find(|r| r.tier == top).expect("top tier swept").storage;
        if st.history_delta_savings_pct < gate {
            out.failures.push(format!(
                "history delta savings on {} tier is {:.1}% < required {gate:.1}%",
                top.name(),
                st.history_delta_savings_pct
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_sweep_produces_rows_storage_and_json() {
        let reports = run_scaling_tiers(&[SizeTier::Toy], 42, &[1, 2]);
        assert_eq!(reports.len(), 1);
        let rep = &reports[0];
        assert_eq!(rep.rows.len(), 3 * 2, "3 families x 2 thread counts");
        assert!(rep.rows.iter().all(|r| r.paths > 0), "families must return paths");
        let st = &rep.storage;
        assert!(st.entities > 0 && st.bytes_per_entity > 0.0);
        assert!(st.history_delta_savings_pct > 0.0, "churned toy graph must delta-compress history");
        assert!(st.binsnap_bytes < st.journal_bytes, "binary snapshot must be smaller than the text journal");
        assert!(st.recovery_speedup > 1.0, "binary load must beat journal replay");
        let json = tier_scaling_json(&reports, &[1, 2]).to_string();
        assert!(json.contains("\"tier\":\"toy\""));
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("\"bytes_per_entity\""));
        assert!(json.contains("\"recovery_speedup\""));
    }

    #[test]
    fn gates_report_failures_and_skips() {
        let reports = run_scaling_tiers(&[SizeTier::Toy], 42, &[1]);
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // Impossible delta gate always fails; the impossible recovery gate
        // fails on >=4-core hosts and is recorded skipped on smaller ones
        // (binary-vs-journal recovery is a parallelism measurement).
        let out = check_gates(&reports, None, Some(1e6), Some(99.9));
        if host < 4 {
            assert_eq!(out.failures.len(), 1);
            assert!(out.skipped.iter().any(|s| s.contains("recovery")), "skipped = {:?}", out.skipped);
        } else {
            assert_eq!(out.failures.len(), 2);
        }
        // Speedup gate either applies (>=4 cores) or is recorded skipped.
        let out = check_gates(&reports, Some(1.2), None, None);
        if host < 4 {
            assert!(!out.skipped.is_empty() && out.passed());
        }
    }
}
