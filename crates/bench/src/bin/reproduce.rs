//! Regenerate every table of the paper's evaluation section.
//!
//! ```text
//! reproduce [table1] [table2] [table3] [storage] [scaling] [all]
//!           [--full]          # paper-scale legacy graph (1.6M/7.1M)
//!           [--instances N]   # query instances per type (default 50, as §6)
//!           [--json]          # also write BENCH_table1.json / BENCH_table2.json /
//!                             # BENCH_scaling.json
//! reproduce scaling [--tiers toy,small,medium,large] [--storage-only]
//!           [--gate-speedup X] [--gate-recovery X] [--gate-delta-savings PCT]
//!           # tiered scaling sweep: threads x size tiers over the churned
//!           # ONAP-style generator graph, plus per-tier storage bytes,
//!           # delta-encoding savings, and journal-vs-binary recovery
//!           # times (default tiers: toy,small,medium; --full adds large).
//!           # --storage-only skips the query sweep (CI recovery smoke).
//!           # Gates exit 1 when unmet; the speedup gate (aggregate at 4
//!           # threads on the largest tier) is skipped on hosts with <4
//!           # cores.
//! reproduce capture [--qlog FILE] [--instances N]
//!           # run the deterministic workload with the durable query log on,
//!           # writing a JSONL baseline (default nepal-qlog.jsonl)
//! reproduce replay [--qlog FILE] [--json]
//!           # re-run a captured qlog against the current build and compare
//!           # result digests; exits 1 on any mismatch; --json writes
//!           # BENCH_replay.json
//! reproduce obs-report [--instances N]
//!           # resource accounting + SLO alert experiment: memory growth
//!           # under churn, report-vs-recount agreement, accounting
//!           # overhead over the Table-1 workload, healthy/overload alert
//!           # outcomes; always writes BENCH_memory.json
//! reproduce serve-load [--workers N] [--queue-depth N] [--requests N]
//!           [--overload-x N] [--deadline-ms MS]
//!           # overload benchmark: concurrent clients at and beyond the
//!           # bounded server's capacity — throughput, p50/p95/p99, shed
//!           # rate, plus the flight-recorder on/off overhead comparison
//!           # and the statement-attribution meters-off/on comparison;
//!           # always writes BENCH_serve.json; exits 1 on any evaluation
//!           # panic
//! reproduce introspect [--tier toy|small|medium|large]
//!           # workload-introspection drill (default tier: medium): run
//!           # the sweep families through an instrumented engine and
//!           # verify /top.json attributes per-fingerprint cpu/rows/bytes,
//!           # every generated class has nonzero nepal_heat_* gauges, and
//!           # /history.json holds >=2 snapshots; writes
//!           # BENCH_introspect.json; exits 1 on any cold surface
//! reproduce crash-forensics [--dir DIR]
//!           # crash drill: induce a caught worker panic under concurrent
//!           # load and verify the panic hook leaves a parseable
//!           # diagnostics bundle with events from >=2 threads; exits 1
//!           # on any failed check (default DIR: nepal-crash-forensics)
//! ```

use nepal_bench::{
    capture_workload, check_gates, format_ablation, format_attribution_overhead, format_crash_report,
    format_flight_overhead, format_introspect, format_obs_report, format_query_table, format_replay, format_serve_load,
    format_storage, format_tier_scaling, introspect_json, metrics_snapshot_json, obs_report_json, query_rows_json,
    replay_json, replay_qlog, run_attribution_overhead, run_crash_forensics, run_flight_overhead, run_introspect,
    run_obs_report, run_scaling_tiers, run_serve_load, run_storage, run_table1, run_table2, run_table3,
    scaling_thread_counts, serve_load_json, tier_scaling_json, ServeLoadConfig,
};
use nepal_obs::Json;
use nepal_workload::{LegacyParams, SizeTier};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let json = args.iter().any(|a| a == "--json");
    let instances = args
        .iter()
        .position(|a| a == "--instances")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(50usize);
    let named: Vec<&String> = args.iter().filter(|a| !a.starts_with("--") && a.parse::<usize>().is_err()).collect();
    let qlog_path = args
        .iter()
        .position(|a| a == "--qlog")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "nepal-qlog.jsonl".to_string());

    // Workload capture/replay run standalone (they build their own engine
    // and never mix with the table sweeps).
    if named.iter().any(|a| *a == "capture") {
        match capture_workload(&qlog_path, instances.min(8), 42) {
            Ok(n) => println!("captured {n} queries into {qlog_path}"),
            Err(e) => {
                eprintln!("capture failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if named.iter().any(|a| *a == "replay") {
        let report = match replay_qlog(&qlog_path, 42) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay failed: cannot read {qlog_path}: {e}");
                std::process::exit(1);
            }
        };
        print!("{}", format_replay(&report));
        if json {
            write_report("BENCH_replay.json", &replay_json(&report));
        }
        if !report.passed() {
            std::process::exit(1);
        }
        return;
    }

    if named.iter().any(|a| *a == "obs-report") {
        let report = run_obs_report(instances, 42);
        print!("{}", format_obs_report(&report));
        write_report("BENCH_memory.json", &obs_report_json(&report));
        return;
    }

    if named.iter().any(|a| *a == "serve-load") {
        let flag = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
        let mut cfg = ServeLoadConfig::default();
        if let Some(n) = flag("--workers").and_then(|v| v.parse().ok()) {
            cfg.workers = n;
        }
        if let Some(n) = flag("--queue-depth").and_then(|v| v.parse().ok()) {
            cfg.queue_depth = n;
        }
        if let Some(n) = flag("--requests").and_then(|v| v.parse().ok()) {
            cfg.requests_per_client = n;
        }
        if let Some(n) = flag("--overload-x").and_then(|v| v.parse().ok()) {
            cfg.overload_x = n;
        }
        if let Some(ms) = flag("--deadline-ms").and_then(|v| v.parse().ok()) {
            cfg.deadline = Some(std::time::Duration::from_millis(ms));
        }
        let (rows, panics) = run_serve_load(&cfg, 42);
        print!("{}", format_serve_load(&rows, panics));
        let overhead = run_flight_overhead(&cfg, 42);
        print!("{}", format_flight_overhead(&overhead));
        let attribution = run_attribution_overhead(&cfg, 42);
        print!("{}", format_attribution_overhead(&attribution));
        write_report("BENCH_serve.json", &serve_load_json(&rows, &cfg, panics, Some(&overhead), Some(&attribution)));
        if panics != 0 {
            eprintln!("serve-load observed {panics} evaluation panic(s)");
            std::process::exit(1);
        }
        return;
    }

    if named.iter().any(|a| *a == "introspect") {
        let tier = args
            .iter()
            .position(|a| a == "--tier")
            .and_then(|i| args.get(i + 1))
            .map(|s| {
                SizeTier::from_name(s).unwrap_or_else(|| {
                    eprintln!("unknown tier {s:?} (expected toy|small|medium|large)");
                    std::process::exit(2);
                })
            })
            .unwrap_or(SizeTier::Medium);
        let report = run_introspect(tier, 42);
        print!("{}", format_introspect(&report));
        write_report("BENCH_introspect.json", &introspect_json(&report));
        if !report.passed() {
            std::process::exit(1);
        }
        return;
    }

    if named.iter().any(|a| *a == "crash-forensics") {
        let dir = args
            .iter()
            .position(|a| a == "--dir")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "nepal-crash-forensics".to_string());
        match run_crash_forensics(std::path::Path::new(&dir), 42) {
            Ok(report) => {
                print!("{}", format_crash_report(&report));
                if !report.passed() {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("crash-forensics drill failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let wants = |t: &str| named.is_empty() || named.iter().any(|a| *a == t || *a == "all");
    let legacy_params = if full { LegacyParams::full_scale() } else { LegacyParams::default() };

    println!(
        "Nepal evaluation reproduction (instances per type: {instances}{})",
        if full { ", FULL legacy scale" } else { "" }
    );
    println!("================================================================\n");

    if wants("table1") {
        let rows = run_table1(instances, 42);
        println!(
            "{}",
            format_query_table(
                "Table 1. Query response times, virtualized service graph (~2k nodes / ~11k edges).",
                &rows
            )
        );
        if json {
            write_report("BENCH_table1.json", &query_rows_json(&rows));
            write_report("BENCH_metrics.json", &metrics_snapshot_json(42));
        }
    }
    if wants("table2") {
        let rows = run_table2(legacy_params.clone(), instances);
        println!(
            "{}",
            format_query_table(
                &format!(
                    "Table 2. Query response times, legacy topology ({} nodes / {} edges).",
                    legacy_params.nodes, legacy_params.edges
                ),
                &rows
            )
        );
        if json {
            write_report("BENCH_table2.json", &query_rows_json(&rows));
        }
    }
    if wants("table3") {
        let rows = run_table3(legacy_params.clone(), instances);
        println!("{}", format_ablation(&rows));
    }
    if wants("storage") {
        let rows = run_storage(legacy_params);
        println!("{}", format_storage(&rows));
    }
    if wants("scaling") {
        let flag = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
        let tiers: Vec<SizeTier> = match flag("--tiers") {
            Some(list) => list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    SizeTier::from_name(s).unwrap_or_else(|| {
                        eprintln!("unknown tier {s:?} (expected toy|small|medium|large)");
                        std::process::exit(2);
                    })
                })
                .collect(),
            // Default stays bounded; --full promotes the sweep to the
            // million-entity headline tier.
            None if full => vec![SizeTier::Toy, SizeTier::Small, SizeTier::Medium, SizeTier::Large],
            None => vec![SizeTier::Toy, SizeTier::Small, SizeTier::Medium],
        };
        let counts = if args.iter().any(|a| a == "--storage-only") { Vec::new() } else { scaling_thread_counts() };
        let reports = run_scaling_tiers(&tiers, 42, &counts);
        println!("{}", format_tier_scaling(&reports));
        if json {
            write_report("BENCH_scaling.json", &tier_scaling_json(&reports, &counts));
        }
        let gate = |name: &str| flag(name).and_then(|v| v.parse::<f64>().ok());
        let outcome =
            check_gates(&reports, gate("--gate-speedup"), gate("--gate-recovery"), gate("--gate-delta-savings"));
        for s in &outcome.skipped {
            eprintln!("gate skipped: {s}");
        }
        if !outcome.passed() {
            for f in &outcome.failures {
                eprintln!("gate FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// Write one `BENCH_*.json` report (compact, newline-terminated).
fn write_report(path: &str, report: &Json) {
    match std::fs::write(path, format!("{report}\n")) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
