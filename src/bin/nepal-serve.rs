//! Long-running Nepal demo server: Gremlin wire endpoint + telemetry HTTP.
//!
//! ```text
//! cargo run --release --bin nepal-serve                  # defaults
//! cargo run --release --bin nepal-serve -- --http 9464 --gremlin 8182 --ttl 120 --threads 4
//! cargo run --release --bin nepal-serve -- --qlog nepal-qlog.jsonl   # durable query log
//! ```
//!
//! Starts a Gremlin server over the virtualized demo inventory, an engine
//! with native / relational / gremlin backends and span tracing enabled,
//! and a std-only telemetry HTTP listener serving:
//!
//! ```text
//! GET /metrics        Prometheus text format (engine + store gauges)
//!                     (?deep=1 adds the exact store walk; default scrapes
//!                     run only cheap O(classes) refreshers)
//! GET /metrics.json   the same registry as JSON
//! GET /top.json       per-fingerprint cost + planner q-error (?n=, ?sort=)
//! GET /history.json   metrics history ring (?tail=)
//! GET /healthz        deep readiness: checks + store watermarks + alerts
//! GET /alerts.json    SLO alert states
//! GET /dashboard      self-contained HTML operations dashboard
//! GET /qlog.json      query-log status
//! GET /traces         buffered trace summaries (slow queries always kept)
//! GET /traces/<id>    one trace as Chrome trace-event JSON
//! GET /flight         recent flight-recorder wide events as JSON
//! GET /snapshot       list of on-disk diagnostics bundles
//! POST /snapshot      write a diagnostics bundle now
//! GET /drain          final drain report (404 until shutdown)
//! ```
//!
//! `--ttl <seconds>` exits after that many seconds (0 = run forever) so CI
//! can start the server in the background without leaking it.
//!
//! Serving limits (see DESIGN.md §5e):
//!
//! ```text
//! --deadline-ms <ms>   per-request deadline (Gremlin wire + engine queries)
//! --max-inflight <n>   serving worker pool size (default 4)
//! --queue-depth <n>    bounded admission queue; excess arrivals are shed
//!                      with an explicit 503 overload frame (default 16)
//! --drain-ms <ms>      graceful-drain budget on SIGTERM/SIGINT (default 2000)
//! ```
//!
//! Flight recorder (see DESIGN.md §5f):
//!
//! ```text
//! --flight-events <n>       per-thread ring capacity in events, 0 = off
//!                           (default 4096)
//! --flight-dir <dir>        diagnostics-bundle directory (default
//!                           nepal-snapshots)
//! --flight-keep <n>         bundles kept before rotation (default 8)
//! --flight-window-secs <s>  seconds of wide events included per bundle
//!                           (default 30)
//! ```
//!
//! Snapshots are triggered by a panic anywhere in the process, an SLO
//! alert entering `firing`, SIGQUIT, `POST /snapshot`, and shutdown.
//!
//! On SIGTERM (or SIGINT / ttl expiry) the server stops accepting, lets
//! in-flight work finish within the drain budget, cancels stragglers via
//! the cooperative token, and exits cleanly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nepal::core::{BackendRegistry, Engine, GremlinBackend, NativeBackend, RelationalBackend, StandardSlos};
use nepal::graph::{resource_summary, StoreGauges, TemporalGraph};
use nepal::gremlin::{property_graph_from, GremlinClient, GremlinServer, ServeConfig};
use nepal::obs::{install_panic_hook, HistoryRing, Json, SnapshotConfig, Telemetry, TelemetryServer};
use nepal::workload::{generate_virtualized, VirtParams};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// SIGTERM/SIGINT land here; the main loop polls the flag and drains.
/// std links libc on every supported target, so declaring `signal`
/// directly avoids a dependency for two lines of handler registration.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// SIGQUIT requests a diagnostics snapshot without shutting down; the main
/// loop polls this flag and writes a bundle when it flips.
static SNAPSHOT_REQ: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" fn on_sigquit(_sig: i32) {
    SNAPSHOT_REQ.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGQUIT: i32 = 3;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
        signal(SIGQUIT, on_sigquit);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let http_port: u16 = arg_value(&args, "--http").and_then(|v| v.parse().ok()).unwrap_or(9464);
    let gremlin_port: u16 = arg_value(&args, "--gremlin").and_then(|v| v.parse().ok()).unwrap_or(0);
    let ttl_secs: u64 = arg_value(&args, "--ttl").and_then(|v| v.parse().ok()).unwrap_or(0);
    // Evaluator worker threads: 0 = auto (NEPAL_THREADS or core count).
    let threads: usize = arg_value(&args, "--threads").and_then(|v| v.parse().ok()).unwrap_or(0);
    // Durable query-log file (off unless given).
    let qlog_path = arg_value(&args, "--qlog");
    // Serving limits: deadline, worker pool, admission queue, drain budget.
    let deadline_ms: Option<u64> = arg_value(&args, "--deadline-ms").and_then(|v| v.parse().ok());
    let max_inflight: usize = arg_value(&args, "--max-inflight").and_then(|v| v.parse().ok()).unwrap_or(4);
    let queue_depth: usize = arg_value(&args, "--queue-depth").and_then(|v| v.parse().ok()).unwrap_or(16);
    let drain_ms: u64 = arg_value(&args, "--drain-ms").and_then(|v| v.parse().ok()).unwrap_or(2000);
    // Flight recorder + diagnostics snapshots (see DESIGN.md §5f).
    let flight_events: usize = arg_value(&args, "--flight-events").and_then(|v| v.parse().ok()).unwrap_or(4096);
    let flight_dir = arg_value(&args, "--flight-dir").unwrap_or_else(|| "nepal-snapshots".to_string());
    let flight_keep: usize = arg_value(&args, "--flight-keep").and_then(|v| v.parse().ok()).unwrap_or(8);
    let flight_window_secs: u64 = arg_value(&args, "--flight-window-secs").and_then(|v| v.parse().ok()).unwrap_or(30);
    // Workload introspection: statement-stats table capacity (0 = off) and
    // metrics-history resolution in seconds (0 = off).
    let stmt_capacity: usize = arg_value(&args, "--stmt-capacity").and_then(|v| v.parse().ok()).unwrap_or(512);
    let history_secs: u64 = arg_value(&args, "--history-secs").and_then(|v| v.parse().ok()).unwrap_or(5);

    // Enable the process-wide flight recorder before any subsystem starts,
    // so even startup activity (journal replay, warm-up) is on the record.
    if flight_events > 0 {
        let rec = nepal::obs::flight::recorder();
        rec.set_capacity(flight_events);
        rec.set_enabled(true);
        eprintln!("flight recorder: {flight_events} events/thread, snapshots in {flight_dir}/ (keep {flight_keep})");
    } else {
        eprintln!("flight recorder: off (--flight-events 0)");
    }

    eprintln!("loading virtualized service inventory (~2k nodes / ~11k edges)…");
    let graph: Arc<TemporalGraph> = Arc::new(generate_virtualized(VirtParams::default()).graph);

    // Engine with all three backends; tracing on so every request is
    // eligible for the trace ring served at /traces.
    let mut registry = BackendRegistry::new("native", Box::new(NativeBackend::new(graph.clone())));
    match RelationalBackend::from_graph(&graph) {
        Ok(pg) => registry.add("pg", Box::new(pg)),
        Err(e) => eprintln!("warning: relational backend unavailable ({e})"),
    }
    let mut engine = Engine::new(registry);
    engine.eval_options.threads = threads;
    engine.default_deadline = deadline_ms.map(Duration::from_millis);
    if let Some(ms) = deadline_ms {
        eprintln!("per-request deadline: {ms} ms");
    }
    engine.tracer.set_enabled(true);
    engine.tracer.set_sample_every(1);
    eprintln!("evaluator threads: {}", nepal::rpe::resolved_threads(threads));
    if let Some(path) = &qlog_path {
        match engine.enable_qlog(path, 16 * 1024 * 1024, 4) {
            Ok(()) => eprintln!("query log: appending JSONL records to {path}"),
            Err(e) => eprintln!("warning: could not open query log {path}: {e}"),
        }
    }

    // Per-fingerprint cost attribution: one shared table aggregates both
    // engine queries and Gremlin wire requests, served at /top.json.
    let stmt = (stmt_capacity > 0).then(|| engine.enable_stmt(stmt_capacity));

    // Gremlin wire endpoint over a property-graph mirror, sharing the
    // engine's tracer so server-side request spans land in the same ring.
    let pg = Arc::new(property_graph_from(&graph));
    let serve_cfg = ServeConfig {
        workers: max_inflight.max(1),
        queue_depth,
        deadline: deadline_ms.map(Duration::from_millis),
        drain: Duration::from_millis(drain_ms),
        stmt: stmt.clone(),
        ..ServeConfig::default()
    };
    let mut server = match GremlinServer::start_cfg(
        pg,
        &format!("127.0.0.1:{gremlin_port}"),
        Some(engine.tracer.clone()),
        serve_cfg,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not bind gremlin server: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("serving limits: {} worker(s), queue depth {}", max_inflight.max(1), queue_depth);
    let gremlin_addr = server.addr;
    match server.connect() {
        Ok(stream) => {
            let client = GremlinClient::new(stream);
            engine.registry.add("gremlin", Box::new(GremlinBackend::new(client, graph.schema().clone())));
        }
        Err(e) => eprintln!("warning: gremlin backend unavailable ({e})"),
    }

    // Telemetry endpoint: engine metrics + store gauges, health checks
    // and the trace ring.
    let telemetry = Arc::new(Telemetry::new(engine.metrics.clone(), engine.tracer.clone()));
    telemetry.set_qlog(engine.qlog.clone());
    // The shared statement table serves /top.json and the
    // nepal_stmt_* families.
    if let Some(stmt) = &stmt {
        telemetry.set_stmt(stmt.clone());
        eprintln!("statement stats: tracking up to {stmt_capacity} fingerprints (/top.json)");
    }
    // Metrics history ring: self-scrape snapshots driven from the main
    // poll loop, served at /history.json and embedded in bundles.
    if history_secs > 0 {
        telemetry.set_history(Arc::new(HistoryRing::new(Duration::from_secs(history_secs), 720)));
        eprintln!("metrics history: {history_secs}s resolution, 720 snapshots (/history.json)");
    }
    if flight_events > 0 {
        telemetry.set_flight(nepal::obs::flight::recorder().clone());
        telemetry.set_snapshots(SnapshotConfig {
            dir: flight_dir.clone().into(),
            keep: flight_keep.max(1),
            window: Duration::from_secs(flight_window_secs.max(1)),
        });
        telemetry.set_build_info(vec![
            ("bin".to_string(), "nepal-serve".to_string()),
            ("version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
            ("workers".to_string(), max_inflight.max(1).to_string()),
            ("queue_depth".to_string(), queue_depth.to_string()),
            ("deadline_ms".to_string(), deadline_ms.map_or("none".to_string(), |d| d.to_string())),
        ]);
        // A panicking worker (or any thread) leaves a diagnostics bundle
        // behind before the panic propagates.
        install_panic_hook(telemetry.clone());
    }
    let gauges = Arc::new(StoreGauges::register(&engine.metrics));
    // Seed the exact footprint once at startup, then keep the cheap
    // O(classes) refresh on every scrape; the exact store walk (unique
    // index, journal estimate, chain histogram) runs only on demand via
    // /metrics?deep=1 so a default scrape never pays for it.
    gauges.refresh_deep(&graph);
    {
        let (gauges, graph) = (gauges.clone(), graph.clone());
        telemetry.add_refresher(move || {
            gauges.refresh(&graph);
        });
    }
    {
        let (gauges, graph) = (gauges.clone(), graph.clone());
        telemetry.add_deep_refresher(move || {
            gauges.refresh_deep(&graph);
        });
    }
    let slo = engine.install_standard_slos(&StandardSlos::default());
    telemetry.set_slo(slo.clone());
    {
        let graph = graph.clone();
        telemetry.set_resources(move || resource_summary(&graph.memory_report()));
    }
    {
        let graph = graph.clone();
        telemetry.add_health("store", move || Ok(format!("{} entities", graph.num_entities())));
    }
    {
        let stats = server.stats.clone();
        telemetry.add_health("gremlin", move || {
            Ok(format!("{} request(s) served", stats.requests.load(std::sync::atomic::Ordering::Relaxed)))
        });
    }
    {
        // Serving-limit metrics: gauges mirror the live values; monotonic
        // counters advance by the delta since the previous scrape so
        // Prometheus `rate()` works even though the source is a snapshot.
        let stats = server.stats.clone();
        let m = &engine.metrics;
        let shed = m.counter("nepal_serve_shed_total", "Connections shed at admission with a 503 overload frame");
        let deadlines =
            m.counter("nepal_serve_deadline_total", "Requests abandoned because the serving deadline passed");
        let cancelled = m.counter("nepal_serve_cancelled_total", "In-flight requests cancelled by drain");
        let requests = m.counter("nepal_serve_requests_total", "Requests served on the Gremlin wire endpoint");
        let queue = m.gauge("nepal_serve_queue_depth", "Connections waiting for a serving worker");
        let inflight = m.gauge("nepal_serve_inflight", "Requests being evaluated right now");
        let prev = std::sync::Mutex::new([0u64; 4]);
        telemetry.add_refresher(move || {
            use std::sync::atomic::Ordering::Relaxed;
            let now = [
                stats.shed.load(Relaxed),
                stats.deadline_timeouts.load(Relaxed),
                stats.cancelled_inflight.load(Relaxed),
                stats.requests.load(Relaxed),
            ];
            let mut p = prev.lock().unwrap();
            shed.add(now[0].saturating_sub(p[0]));
            deadlines.add(now[1].saturating_sub(p[1]));
            cancelled.add(now[2].saturating_sub(p[2]));
            requests.add(now[3].saturating_sub(p[3]));
            *p = now;
            queue.set(stats.queue_depth.load(Relaxed) as i64);
            inflight.set(stats.inflight.load(Relaxed) as i64);
        });
    }
    let http = match TelemetryServer::start(telemetry.clone(), &format!("127.0.0.1:{http_port}")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not bind telemetry server: {e}");
            std::process::exit(1);
        }
    };

    // Warm the metrics with one traced query through each backend.
    for backend in ["native", "pg", "gremlin"] {
        let q = format!(
            "Retrieve P From PATHS P USING {backend} Where P MATCHES VM()->[Vertical()]{{1,4}}->Host(host_id=1015)"
        );
        match engine.query(&q) {
            Ok(r) => eprintln!("warm-up ({backend}): {} row(s)", r.rows.len()),
            Err(e) => eprintln!("warm-up ({backend}) failed: {e}"),
        }
    }
    // Drain the cold-start warm-up latencies out of the SLO windows so the
    // first external probe scores only real traffic.
    slo.evaluate();

    println!("gremlin: {gremlin_addr}");
    println!("telemetry: http://{}", http.local_addr());
    println!("try: curl -s http://{}/metrics | head", http.local_addr());

    install_signal_handlers();

    // Run until SIGTERM/SIGINT (or ttl expiry), polling the flag so the
    // drain starts within ~100 ms of the signal.
    let deadline = (ttl_secs > 0).then(|| std::time::Instant::now() + Duration::from_secs(ttl_secs));
    loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            eprintln!("signal received; draining (budget {drain_ms} ms)");
            break;
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            eprintln!("ttl reached; draining (budget {drain_ms} ms)");
            break;
        }
        if SNAPSHOT_REQ.swap(false, Ordering::SeqCst) {
            match telemetry.snapshot("sigquit") {
                Ok(path) => eprintln!("snapshot written: {}", path.display()),
                Err(e) => eprintln!("snapshot failed: {e}"),
            }
        }
        // Admit a metrics-history snapshot when one is due (no-op between
        // intervals; one lock + compare per poll).
        telemetry.tick_history();
        std::thread::sleep(Duration::from_millis(100));
    }

    // Graceful drain: stop accepting, finish in-flight work within the
    // budget, cancel stragglers through the cooperative token.
    let t_drain = std::time::Instant::now();
    let report = server.drain(Duration::from_millis(drain_ms));
    if report.clean {
        eprintln!("drain complete: all in-flight work finished");
    } else {
        eprintln!("drain budget exceeded: stragglers cancelled via token");
    }
    if report.shed_queued > 0 {
        eprintln!("drain shed {} queued connection(s) with overload frames", report.shed_queued);
    }
    // Publish the final drain report through telemetry and leave one last
    // diagnostics bundle behind as the flight recorder's shutdown record.
    telemetry.set_drain_json(Json::obj([
        ("clean", report.clean.into()),
        ("shed_queued", report.shed_queued.into()),
        ("budget_ms", drain_ms.into()),
        ("waited_ms", (t_drain.elapsed().as_millis() as u64).into()),
    ]));
    if flight_events > 0 {
        match telemetry.snapshot("shutdown") {
            Ok(path) => eprintln!("shutdown snapshot: {}", path.display()),
            Err(e) => eprintln!("shutdown snapshot failed: {e}"),
        }
    }
}
