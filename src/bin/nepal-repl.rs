//! Interactive Nepal shell.
//!
//! ```text
//! cargo run --release --bin nepal-repl            # virtualized demo inventory
//! cargo run --release --bin nepal-repl -- legacy  # legacy topology
//! ```
//!
//! Commands:
//! ```text
//! :help                  this help
//! :schema                list node/edge classes
//! :plan <rpe>            show the Select/Extend/Union plan for an RPE
//! :sql <query>           run on the relational backend and show its SQL
//! :profile <query>       run with profiling and print the operator trace
//! :metrics               engine metrics in Prometheus text format
//! :qlog                  query-log status and worst-estimated fingerprints
//! :qlog on [file]        enable the durable query log (default nepal-qlog.jsonl)
//! :qlog off              disable the durable query log
//! :qlog top N            N worst q-error fingerprints, chosen vs hindsight anchor
//! :top [N] [cpu|rows|bytes|calls|wall]   costliest statement fingerprints
//!                        (`:top wall` ranks the slowest; traced slow
//!                        queries are kept under `:trace`)
//! :trace                 tracing status and buffered traces
//! :trace on|off          enable/disable hierarchical span tracing
//! :trace export <file>   write the latest trace as Chrome trace-event JSON
//! :health                deep health: SLO alert states over the standard rules
//! :mem                   store memory report: per-class bytes, chains, indexes
//! :flight                recent flight-recorder wide events (per-thread rings)
//! :snapshot              write a diagnostics bundle to nepal-snapshots/
//! :stats                 graph statistics
//! :threads [N]           show or set evaluator worker threads (0 = auto)
//! :timeout [ms|off]      show or set the per-query deadline
//! :cancel                trip the session cancel token (Ctrl-C does this
//!                        mid-query); the running/next query aborts with a
//!                        typed error and the token re-arms automatically
//! :quit                  exit
//! EXPLAIN ANALYZE <q>    execute <q> and print its profile
//! <anything else>        executed as a Nepal query
//! ```

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nepal::core::{
    parse_statement, BackendRegistry, Engine, NativeBackend, RelationalBackend, StandardSlos, Statement,
};
use nepal::graph::{StoreGauges, TemporalGraph};
use nepal::obs::{alerts_text, fmt_bytes, fmt_ns, SnapshotConfig, Telemetry};
use nepal::rpe::{parse_rpe, plan_rpe, CancelToken, GraphEstimator};
use nepal::workload::{generate_legacy, generate_virtualized, LegacyParams, VirtParams};

/// Ctrl-C lands here; a watcher thread trips the session cancel token so
/// the query running on the main thread aborts at its next checkpoint
/// instead of the whole REPL dying.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_sig: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2 /* SIGINT */, on_sigint);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Replace a tripped session token with a fresh one (tokens are sticky by
/// design, so cancellation would otherwise outlive the query it aimed at).
fn rearm_cancel(engine: &mut Engine, holder: &Arc<Mutex<CancelToken>>) {
    let fresh = CancelToken::new();
    *holder.lock().unwrap() = fresh.clone();
    engine.eval_options.cancel = Some(fresh);
    INTERRUPTED.store(false, Ordering::SeqCst);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let graph: Arc<TemporalGraph> = if args.iter().any(|a| a == "legacy") {
        eprintln!("loading legacy topology (20k nodes)…");
        Arc::new(generate_legacy(LegacyParams { nodes: 20_000, edges: 90_000, ..Default::default() }).graph)
    } else {
        eprintln!("loading virtualized service inventory (~2k nodes / ~11k edges)…");
        Arc::new(generate_virtualized(VirtParams::default()).graph)
    };
    let mut registry = BackendRegistry::new("native", Box::new(NativeBackend::new(graph.clone())));
    match RelationalBackend::from_graph(&graph) {
        Ok(pg) => registry.add("pg", Box::new(pg)),
        Err(e) => eprintln!("warning: relational backend unavailable ({e}); :sql disabled"),
    }
    let mut engine = Engine::new(registry);
    // Standard SLO rules + store gauges back :health / :mem; the gauge
    // refresh keeps the memory-watermark rule reading current bytes.
    let slo = engine.install_standard_slos(&StandardSlos::default());
    let gauges = StoreGauges::register(&engine.metrics);
    // Per-fingerprint cost attribution backing :top (and bundle snapshots).
    let stmt = engine.enable_stmt(256);

    // Flight recorder on for the session (queries, cancellations, journal
    // mutations land in the per-thread rings); :snapshot composes the same
    // diagnostics bundle the server writes on a panic or firing alert.
    nepal::obs::flight::recorder().set_enabled(true);
    let telemetry = Arc::new(Telemetry::new(engine.metrics.clone(), engine.tracer.clone()));
    telemetry.set_slo(slo.clone());
    telemetry.set_stmt(stmt.clone());
    telemetry.set_flight(nepal::obs::flight::recorder().clone());
    telemetry.set_snapshots(SnapshotConfig::default());
    telemetry.set_build_info(vec![
        ("bin".to_string(), "nepal-repl".to_string()),
        ("version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
    ]);

    // Session cancellation: every query runs as a child of this token
    // (plus the :timeout deadline, if set). Ctrl-C sets a flag; the
    // watcher thread trips the current token within ~20 ms.
    let session_cancel = Arc::new(Mutex::new(CancelToken::new()));
    engine.eval_options.cancel = Some(session_cancel.lock().unwrap().clone());
    install_sigint_handler();
    {
        let holder = session_cancel.clone();
        std::thread::spawn(move || loop {
            if INTERRUPTED.load(Ordering::SeqCst) {
                holder.lock().unwrap().cancel();
            }
            std::thread::sleep(Duration::from_millis(20));
        });
    }
    eprintln!("ready. :help for commands.\n");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("nepal> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        if line == ":help" {
            println!(
                ":schema | :stats | :plan <rpe> | :sql <query> | :profile <query> | :metrics | :quit\n\
                 :threads [N]              show or set evaluator worker threads (0 = auto from NEPAL_THREADS/cores)\n\
                 :timeout [ms|off]         show or set the per-query deadline (typed error on expiry)\n\
                 :cancel                   trip the session cancel token (Ctrl-C does this mid-query)\n\
                 :trace | :trace on|off | :trace export <file>   span tracing / Chrome trace-event export\n\
                 :qlog | :qlog on [file] | :qlog off | :qlog top N   durable query log + planner q-error feedback\n\
                 :top [N] [cpu|rows|bytes|calls|wall]   costliest statement fingerprints (`:top wall` = slowest)\n\
                 :health | :mem            SLO alert states / store memory report\n\
                 :flight | :snapshot       recent wide events / write a diagnostics bundle\n\
                 EXPLAIN ANALYZE <query>   execute and print phase/operator timings\n\
                 <anything else>           executed as a Nepal query\n\
                 example: Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{{1,6}}->Host(host_id=1015)\n\
                 example: EXPLAIN ANALYZE Retrieve P From PATHS P Where P MATCHES VM()->[Vertical()]{{1,4}}->Host()"
            );
            continue;
        }
        if line == ":schema" {
            let s = graph.schema();
            println!("node classes:");
            for c in s.node_classes() {
                if c != nepal::schema::NODE {
                    println!("  {}", s.path_name(c));
                }
            }
            println!("edge classes:");
            for c in s.edge_classes() {
                if c != nepal::schema::EDGE {
                    println!("  {}", s.path_name(c));
                }
            }
            continue;
        }
        if line == ":stats" {
            println!(
                "entities: {}  versions: {}  nodes alive: {}  edges alive: {}",
                graph.num_entities(),
                graph.num_versions(),
                graph.alive_count(nepal::schema::NODE),
                graph.alive_count(nepal::schema::EDGE)
            );
            continue;
        }
        if line == ":threads" || line.starts_with(":threads ") {
            let arg = line.strip_prefix(":threads").unwrap_or("").trim();
            if arg.is_empty() {
                let setting = engine.eval_options.threads;
                println!(
                    "threads: {} (resolved: {})",
                    if setting == 0 { "auto".to_string() } else { setting.to_string() },
                    nepal::rpe::resolved_threads(setting)
                );
            } else {
                match arg.parse::<usize>() {
                    Ok(n) => {
                        engine.eval_options.threads = n;
                        println!("threads set to {} (resolved: {})", n, nepal::rpe::resolved_threads(n));
                    }
                    Err(_) => println!("usage: :threads [N]   (0 = auto)"),
                }
            }
            continue;
        }
        if line == ":timeout" || line.starts_with(":timeout ") {
            let arg = line.strip_prefix(":timeout").unwrap_or("").trim();
            if arg.is_empty() {
                match engine.default_deadline {
                    Some(d) => println!("timeout: {} ms", d.as_millis()),
                    None => println!("timeout: off (:timeout <ms> to set)"),
                }
            } else if arg == "off" || arg == "0" {
                engine.default_deadline = None;
                println!("timeout off");
            } else {
                match arg.parse::<u64>() {
                    Ok(ms) => {
                        engine.default_deadline = Some(Duration::from_millis(ms));
                        println!("timeout set to {ms} ms (queries exceeding it return a typed error)");
                    }
                    Err(_) => println!("usage: :timeout [ms|off]"),
                }
            }
            continue;
        }
        if line == ":cancel" {
            session_cancel.lock().unwrap().cancel();
            println!("session cancel token tripped; the next query aborts with a typed error");
            continue;
        }
        if line == ":metrics" {
            gauges.refresh_deep(&graph);
            print!("{}", engine.metrics.render_prometheus());
            continue;
        }
        if line == ":health" {
            gauges.refresh_deep(&graph);
            let statuses = slo.evaluate();
            let firing = statuses.iter().filter(|s| s.state.is_firing()).count();
            println!("{}", if firing == 0 { "healthy" } else { "DEGRADED" });
            print!("{}", alerts_text(&statuses));
            continue;
        }
        if line == ":mem" {
            let report = gauges.refresh_deep(&graph);
            println!(
                "total {}  (entities {}  adjacency {}  unique indexes {})  journal {}",
                fmt_bytes(report.total_bytes),
                fmt_bytes(report.entity_bytes),
                fmt_bytes(report.adjacency_bytes),
                fmt_bytes(report.unique_index_bytes),
                fmt_bytes(report.journal_bytes),
            );
            let mut rows = report.classes.clone();
            rows.sort_by_key(|r| std::cmp::Reverse(r.bytes));
            println!(
                "{:<24} {:>5} {:>9} {:>9} {:>9} {:>10}",
                "class", "kind", "entities", "alive", "versions", "bytes"
            );
            for c in &rows {
                println!(
                    "{:<24} {:>5} {:>9} {:>9} {:>9} {:>10}",
                    c.name,
                    format!("{:?}", c.kind).to_lowercase(),
                    c.entities,
                    c.alive,
                    c.versions,
                    fmt_bytes(c.bytes)
                );
            }
            let chain: Vec<String> = report
                .chain_histogram
                .iter()
                .map(|(b, n)| format!("≤{}:{n}", if *b == u64::MAX { "∞".to_string() } else { b.to_string() }))
                .collect();
            println!("version-chain lengths: {}", chain.join("  "));
            continue;
        }
        if line == ":flight" {
            let rec = nepal::obs::flight::recorder();
            let stats = rec.stats();
            let (written, dropped) = (stats.total_written, stats.total_dropped);
            println!(
                "flight recorder: {} ring(s), {written} event(s) written, {dropped} overwritten",
                stats.rings.len()
            );
            let events = rec.events();
            let now = rec.now_us();
            for e in events.iter().rev().take(20).rev() {
                println!(
                    "{:>8}  {:>9.3}s ago  [{}] {:<16} {}",
                    e.seq,
                    now.saturating_sub(e.ts_us) as f64 / 1e6,
                    e.thread,
                    e.kind.name(),
                    e.describe()
                );
            }
            continue;
        }
        if line == ":snapshot" {
            match telemetry.snapshot("repl") {
                Ok(path) => println!("diagnostics bundle written: {}", path.display()),
                Err(e) => println!("snapshot failed: {e}"),
            }
            continue;
        }
        if line == ":qlog" || line.starts_with(":qlog ") {
            run_qlog_command(&mut engine, line.strip_prefix(":qlog").unwrap_or("").trim());
            continue;
        }
        if line == ":top" || line.starts_with(":top ") {
            let mut n = 10usize;
            let mut sort = nepal::obs::StmtSort::default();
            let mut ok = true;
            for tok in line.strip_prefix(":top").unwrap_or("").split_whitespace() {
                if let Ok(v) = tok.parse::<usize>() {
                    n = v;
                } else if let Some(s) = nepal::obs::StmtSort::parse(tok) {
                    sort = s;
                } else {
                    ok = false;
                }
            }
            if ok {
                print!("{}", stmt.render_text(n, sort));
            } else {
                println!("usage: :top [N] [cpu|rows|bytes|calls|wall]");
            }
            continue;
        }
        if line == ":trace" || line.starts_with(":trace ") {
            run_trace_command(&engine, line.strip_prefix(":trace").unwrap_or("").trim());
            continue;
        }
        if let Some(q) = line.strip_prefix(":profile ") {
            if let Err(e) = run_profiled(&mut engine, &graph, q) {
                println!("error: {e}");
            }
            continue;
        }
        if let Some(rpe_text) = line.strip_prefix(":plan ") {
            match parse_rpe(rpe_text).map_err(|e| e.to_string()).and_then(|r| {
                plan_rpe(graph.schema(), &r, &GraphEstimator { graph: &graph }).map_err(|e| e.to_string())
            }) {
                Ok(plan) => {
                    for op in plan.operators() {
                        println!("  {op}");
                    }
                    println!(
                        "  source: {}  target: {}  length limit: {} elements",
                        graph.schema().path_name(plan.source_class),
                        graph.schema().path_name(plan.target_class),
                        plan.max_elements
                    );
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(q) = line.strip_prefix(":sql ") {
            match run(&mut engine, q) {
                Ok(()) => {
                    for stmt in engine.registry.get(Some("pg")).map(|b| b.last_generated()).unwrap_or_default() {
                        println!("{stmt}");
                    }
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if line == ":profile" {
            println!("usage: :profile <query>");
            continue;
        }
        if line.starts_with(':') {
            println!("unknown command {}; :help lists commands", line.split_whitespace().next().unwrap_or(line));
            continue;
        }
        // EXPLAIN ANALYZE or a plain query.
        match parse_statement(line) {
            Ok(Statement::ExplainAnalyze(_)) => {
                let q = line
                    .trim_start()
                    .get("EXPLAIN".len()..)
                    .map(|r| r.trim_start())
                    .and_then(|r| r.get("ANALYZE".len()..))
                    .unwrap_or(line);
                if let Err(e) = run_profiled(&mut engine, &graph, q.trim()) {
                    println!("error: {e}");
                }
            }
            Ok(Statement::Query(_)) => {
                if let Err(e) = run_and_print(&mut engine, &graph, line) {
                    println!("error: {e}");
                }
            }
            Err(e) => println!("error: {e}"),
        }
        // A tripped token is sticky: re-arm so one cancellation does not
        // poison every subsequent query in the session.
        if session_cancel.lock().unwrap().is_cancelled() {
            rearm_cancel(&mut engine, &session_cancel);
            println!("(cancel token re-armed)");
        }
    }
}

fn run_trace_command(engine: &Engine, arg: &str) {
    match arg {
        "" => {
            let t = &engine.tracer;
            println!(
                "tracing: {}  sample: 1-in-{}  slow keep: {}  buffered traces: {}",
                if t.enabled() { "on" } else { "off" },
                t.sample_every(),
                fmt_ns(t.slow_threshold_ns()),
                t.len()
            );
            for s in t.summaries() {
                println!("  #{:<4} {:>10}  {:>3} span(s)  {}", s.id, fmt_ns(s.dur_ns), s.spans, s.name);
            }
        }
        "on" => {
            engine.tracer.set_enabled(true);
            println!("tracing on (1-in-{} sampling; slow queries always kept)", engine.tracer.sample_every());
        }
        "off" => {
            engine.tracer.set_enabled(false);
            println!("tracing off");
        }
        _ => {
            if let Some(file) = arg.strip_prefix("export").map(str::trim).filter(|f| !f.is_empty()) {
                match engine.tracer.export_latest_chrome() {
                    Some(json) => match std::fs::write(file, &json) {
                        Ok(()) => {
                            println!("wrote {file} ({} bytes); open in chrome://tracing or ui.perfetto.dev", json.len())
                        }
                        Err(e) => println!("error: could not write {file}: {e}"),
                    },
                    None => println!("no traces buffered; :trace on, run a query, then export"),
                }
            } else {
                println!("usage: :trace | :trace on | :trace off | :trace export <file>");
            }
        }
    }
}

fn run_qlog_command(engine: &mut Engine, arg: &str) {
    match arg {
        "" => {
            match &engine.qlog {
                Some(log) => println!(
                    "query log: on  file: {}  records: {}  bytes: {}  rotations: {}",
                    log.path().display(),
                    log.records(),
                    log.bytes(),
                    log.rotations()
                ),
                None => println!("query log: off (:qlog on [file] to enable)"),
            }
            print!("{}", engine.feedback.render_text(10));
        }
        "off" => {
            engine.disable_qlog();
            println!("query log off");
        }
        _ => {
            if let Some(rest) = arg.strip_prefix("top") {
                match rest.trim().parse::<usize>() {
                    Ok(n) if n > 0 => print!("{}", engine.feedback.render_text(n)),
                    _ => println!("usage: :qlog top N"),
                }
            } else if let Some(rest) = arg.strip_prefix("on") {
                let file = rest.trim();
                let file = if file.is_empty() { "nepal-qlog.jsonl" } else { file };
                match engine.enable_qlog(file, 16 * 1024 * 1024, 4) {
                    Ok(()) => println!("query log on: appending JSONL records to {file}"),
                    Err(e) => println!("error: could not open {file}: {e}"),
                }
            } else {
                println!("usage: :qlog | :qlog on [file] | :qlog off | :qlog top N");
            }
        }
    }
}

fn run(engine: &mut Engine, q: &str) -> Result<(), String> {
    // Force the pg backend for :sql by appending USING pg to each source —
    // parse, rewrite, execute.
    let mut parsed = nepal::core::parse_query(q).map_err(|e| e.to_string())?;
    for s in &mut parsed.sources {
        s.backend = Some("pg".to_string());
    }
    engine.execute(&parsed).map_err(|e| e.to_string())?;
    Ok(())
}

fn run_profiled(engine: &mut Engine, graph: &Arc<TemporalGraph>, q: &str) -> Result<(), String> {
    let (result, profile) = engine.query_profiled(q).map_err(|e| e.to_string())?;
    print!("{}", profile.render());
    print_rows(&result, graph, 5);
    Ok(())
}

fn run_and_print(engine: &mut Engine, graph: &Arc<TemporalGraph>, q: &str) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    let result = engine.query(q).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    println!("-- {} row(s) in {:.3} ms", result.rows.len(), elapsed.as_secs_f64() * 1e3);
    print_rows(&result, graph, 20);
    Ok(())
}

fn print_rows(result: &nepal::core::QueryResult, graph: &Arc<TemporalGraph>, limit: usize) {
    for (i, row) in result.rows.iter().enumerate() {
        if i >= limit {
            println!("   … ({} more rows)", result.rows.len() - limit);
            break;
        }
        if !row.values.is_empty() {
            let vals: Vec<String> = row.values.iter().map(|v| v.to_string()).collect();
            println!("   {}", vals.join(" | "));
        } else {
            for (var, p) in &row.pathways {
                println!("   {var}: {}", p.display(graph));
            }
        }
        if let Some(times) = &row.times {
            println!("      times: {times}");
        }
    }
}
