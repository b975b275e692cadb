//! Overload benchmark for the serving path: drive N concurrent clients
//! against a bounded [`GremlinServer`] at and beyond its admission
//! capacity, measuring throughput, latency quantiles, and shed rate.
//!
//! Two phases share one server: **at-capacity** (as many clients as
//! serving workers — nothing should shed) and **overload** (several times
//! the worker count — excess arrivals must be shed with explicit 503
//! frames, and everything that *is* admitted must still complete). Each
//! request uses a fresh connection, since admission is per-connection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nepal_gremlin::{
    property_graph_from, shared_graph, GStep, GremlinClient, GremlinServer, ProtoError, ServeConfig, SharedGraph,
};
use nepal_obs::Json;

use crate::build_virtualized;

/// Knobs for one serve-load run.
#[derive(Debug, Clone)]
pub struct ServeLoadConfig {
    /// Serving worker pool size (`--max-inflight`).
    pub workers: usize,
    /// Bounded admission queue depth.
    pub queue_depth: usize,
    /// Requests each client issues per phase.
    pub requests_per_client: usize,
    /// Overload multiplier: the second phase runs `workers * overload_x`
    /// concurrent clients.
    pub overload_x: usize,
    /// Optional per-request deadline forwarded to the server.
    pub deadline: Option<Duration>,
}

impl Default for ServeLoadConfig {
    fn default() -> Self {
        ServeLoadConfig { workers: 2, queue_depth: 2, requests_per_client: 40, overload_x: 4, deadline: None }
    }
}

/// One phase of the load run.
#[derive(Debug, Clone)]
pub struct ServeLoadRow {
    pub phase: &'static str,
    pub clients: usize,
    pub ok: u64,
    pub shed: u64,
    pub timeouts: u64,
    pub errors: u64,
    pub elapsed_ms: f64,
    pub throughput_rps: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Shed requests / total requests attempted.
    pub shed_rate: f64,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one phase: `clients` threads, each issuing `requests` count
/// traversals over fresh connections.
fn run_phase(phase: &'static str, addr: std::net::SocketAddr, clients: usize, requests: usize) -> ServeLoadRow {
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let timeouts = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let (ok, shed, timeouts, errors) = (ok.clone(), shed.clone(), timeouts.clone(), errors.clone());
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let r0 = Instant::now();
                    let outcome = std::net::TcpStream::connect(addr)
                        .map_err(ProtoError::Io)
                        .and_then(|s| GremlinClient::new(s).submit(&[GStep::V(vec![]), GStep::Count]));
                    match outcome {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            lat.push(r0.elapsed().as_micros() as u64);
                        }
                        Err(ProtoError::Overloaded { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ProtoError::Timeout(_)) => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        // A shed frame racing our request write surfaces as
                        // a broken pipe; count it as an error, not a shed —
                        // the server-side counter is authoritative.
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                lat
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("load client panicked"));
    }
    let elapsed = t0.elapsed();
    latencies.sort_unstable();
    let (ok, shed) = (ok.load(Ordering::Relaxed), shed.load(Ordering::Relaxed));
    let total = (clients * requests) as u64;
    ServeLoadRow {
        phase,
        clients,
        ok,
        shed,
        timeouts: timeouts.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput_rps: ok as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: quantile(&latencies, 0.50),
        p95_us: quantile(&latencies, 0.95),
        p99_us: quantile(&latencies, 0.99),
        shed_rate: shed as f64 / total.max(1) as f64,
    }
}

/// Start a bounded server over the virtualized inventory and run the
/// at-capacity and overload phases against it. Returns the phase rows and
/// the server's evaluation-panic count (must be zero).
pub fn run_serve_load(cfg: &ServeLoadConfig, seed: u64) -> (Vec<ServeLoadRow>, u64) {
    let (snap, _) = build_virtualized(seed);
    let pg = shared_graph(property_graph_from(&snap.graph));
    let server_cfg = ServeConfig {
        workers: cfg.workers.max(1),
        queue_depth: cfg.queue_depth.max(1),
        deadline: cfg.deadline,
        ..ServeConfig::default()
    };
    let mut server = GremlinServer::start_cfg(pg, "127.0.0.1:0", None, server_cfg).expect("bind serve-load server");
    let addr = server.addr;

    let rows = vec![
        run_phase("at-capacity", addr, cfg.workers.max(1), cfg.requests_per_client),
        run_phase("overload", addr, cfg.workers.max(1) * cfg.overload_x.max(2), cfg.requests_per_client),
    ];
    let panics = server.stats.evaluation_panics.load(Ordering::Relaxed);
    let report = server.drain(Duration::from_millis(2000));
    assert!(report.clean, "serve-load drain must finish within its budget");
    (rows, panics)
}

/// Flight-recorder overhead at capacity: the same at-capacity phase run
/// back-to-back with the process-wide recorder off and on.
#[derive(Debug, Clone)]
pub struct FlightOverhead {
    pub off: ServeLoadRow,
    pub on: ServeLoadRow,
    /// Throughput lost with the recorder on, percent (negative = noise in
    /// the recorder's favour).
    pub overhead_pct: f64,
    /// Wide events captured during the recorder-on phase.
    pub events_recorded: u64,
}

/// Measure the flight recorder's serving overhead: one bounded server, the
/// at-capacity phase run twice (recorder off, then on), comparing
/// throughput. An interleaved warm-up phase runs first so neither timed
/// phase pays first-touch costs. Restores the recorder's previous
/// enablement before returning.
pub fn run_flight_overhead(cfg: &ServeLoadConfig, seed: u64) -> FlightOverhead {
    let (snap, _) = build_virtualized(seed);
    let pg = shared_graph(property_graph_from(&snap.graph));
    let server_cfg = ServeConfig {
        workers: cfg.workers.max(1),
        queue_depth: cfg.queue_depth.max(1),
        deadline: cfg.deadline,
        ..ServeConfig::default()
    };
    let mut server = GremlinServer::start_cfg(pg, "127.0.0.1:0", None, server_cfg).expect("bind overhead server");
    let addr = server.addr;
    let clients = cfg.workers.max(1);

    let rec = nepal_obs::flight::recorder();
    let was_enabled = rec.is_enabled();
    rec.set_enabled(false);
    run_phase("warm-up", addr, clients, (cfg.requests_per_client / 4).max(2));
    let off = run_phase("recorder-off", addr, clients, cfg.requests_per_client);
    rec.set_enabled(true);
    let before = rec.stats().total_written;
    let on = run_phase("recorder-on", addr, clients, cfg.requests_per_client);
    let events_recorded = rec.stats().total_written.saturating_sub(before);
    rec.set_enabled(was_enabled);
    let report = server.drain(Duration::from_millis(2000));
    assert!(report.clean, "overhead drain must finish within its budget");

    let overhead_pct = if off.throughput_rps > 0.0 {
        (off.throughput_rps - on.throughput_rps) / off.throughput_rps * 100.0
    } else {
        0.0
    };
    FlightOverhead { off, on, overhead_pct, events_recorded }
}

/// Cost-attribution overhead at capacity: the same at-capacity phase run
/// back-to-back with the per-fingerprint statement meters off and on.
#[derive(Debug, Clone)]
pub struct AttributionOverhead {
    pub off: ServeLoadRow,
    pub on: ServeLoadRow,
    /// Throughput lost with the meters on, percent (negative = noise in
    /// the meters' favour).
    pub overhead_pct: f64,
    /// Distinct fingerprints tracked during the meters-on phase.
    pub fingerprints_tracked: usize,
    /// Statement records captured during the meters-on phase.
    pub calls_recorded: u64,
}

/// Measure the cost-attribution overhead on the serving path: the
/// at-capacity phase run on a bounded server started without a
/// statement-stats table (meters off), then on one started with it
/// (meters on), comparing throughput. The meters-off server skips the
/// CPU-clock samples and the record call — the path every server without
/// attribution runs.
pub fn run_attribution_overhead(cfg: &ServeLoadConfig, seed: u64) -> AttributionOverhead {
    let (snap, _) = build_virtualized(seed);
    let pg = shared_graph(property_graph_from(&snap.graph));
    let (off, _) = attribution_phase(&pg, cfg, None, "meters-off");
    let stmt = Arc::new(nepal_obs::StmtStats::new(512));
    let (on, calls_recorded) = attribution_phase(&pg, cfg, Some(stmt.clone()), "meters-on");
    let overhead_pct = if off.throughput_rps > 0.0 {
        (off.throughput_rps - on.throughput_rps) / off.throughput_rps * 100.0
    } else {
        0.0
    };
    AttributionOverhead { off, on, overhead_pct, fingerprints_tracked: stmt.tracked(), calls_recorded }
}

/// One attribution phase on its own bounded server: a warm-up, then the
/// measured at-capacity phase. Returns the phase row and the statement
/// records the measured phase added.
fn attribution_phase(
    pg: &SharedGraph,
    cfg: &ServeLoadConfig,
    stmt: Option<Arc<nepal_obs::StmtStats>>,
    phase: &'static str,
) -> (ServeLoadRow, u64) {
    let calls = || stmt.as_ref().map_or(0, |s| s.totals().calls);
    let server_cfg = ServeConfig {
        workers: cfg.workers.max(1),
        queue_depth: cfg.queue_depth.max(1),
        deadline: cfg.deadline,
        stmt: stmt.clone(),
        ..ServeConfig::default()
    };
    let mut server =
        GremlinServer::start_cfg(pg.clone(), "127.0.0.1:0", None, server_cfg).expect("bind attribution server");
    let clients = cfg.workers.max(1);
    run_phase("warm-up", server.addr, clients, (cfg.requests_per_client / 4).max(2));
    let before = calls();
    let row = run_phase(phase, server.addr, clients, cfg.requests_per_client);
    let recorded = calls() - before;
    let report = server.drain(Duration::from_millis(2000));
    assert!(report.clean, "attribution drain must finish within its budget");
    (row, recorded)
}

/// Render the attribution-overhead comparison for the terminal.
pub fn format_attribution_overhead(o: &AttributionOverhead) -> String {
    format!(
        "Cost-attribution overhead (at capacity, {} client(s), {} ok request(s) per phase):\n\
         meters off: {:>8.1} req/s  p95 {:>6} us\n\
         meters on:  {:>8.1} req/s  p95 {:>6} us  ({} record(s), {} fingerprint(s))\n\
         overhead: {:.2}% throughput\n",
        o.off.clients,
        o.off.ok,
        o.off.throughput_rps,
        o.off.p95_us,
        o.on.throughput_rps,
        o.on.p95_us,
        o.calls_recorded,
        o.fingerprints_tracked,
        o.overhead_pct
    )
}

/// Render the overhead comparison for the terminal.
pub fn format_flight_overhead(o: &FlightOverhead) -> String {
    format!(
        "Flight-recorder overhead (at capacity, {} client(s), {} ok request(s) per phase):\n\
         recorder off: {:>8.1} req/s  p95 {:>6} us\n\
         recorder on:  {:>8.1} req/s  p95 {:>6} us  ({} wide event(s) captured)\n\
         overhead: {:.2}% throughput\n",
        o.off.clients,
        o.off.ok,
        o.off.throughput_rps,
        o.off.p95_us,
        o.on.throughput_rps,
        o.on.p95_us,
        o.events_recorded,
        o.overhead_pct
    )
}

/// Human-readable table.
pub fn format_serve_load(rows: &[ServeLoadRow], stats_panics: u64) -> String {
    let mut s = String::new();
    s.push_str("Serve-load: bounded admission under concurrent clients (fresh connection per request).\n");
    s.push_str(&format!(
        "{:<12} {:>8} {:>7} {:>6} {:>9} {:>7} {:>10} {:>9} {:>9} {:>9} {:>10}\n",
        "phase",
        "clients",
        "ok",
        "shed",
        "timeouts",
        "errors",
        "thr(req/s)",
        "p50(us)",
        "p95(us)",
        "p99(us)",
        "shed rate"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>8} {:>7} {:>6} {:>9} {:>7} {:>10.1} {:>9} {:>9} {:>9} {:>9.1}%\n",
            r.phase,
            r.clients,
            r.ok,
            r.shed,
            r.timeouts,
            r.errors,
            r.throughput_rps,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.shed_rate * 100.0
        ));
    }
    s.push_str(&format!("evaluation panics: {stats_panics}\n"));
    s
}

/// The `BENCH_serve.json` document, optionally embedding the
/// flight-recorder overhead comparison (the `"flight_overhead"` key) and the
/// cost-attribution overhead comparison (the `"attribution_overhead"` key).
pub fn serve_load_json(
    rows: &[ServeLoadRow],
    cfg: &ServeLoadConfig,
    panics: u64,
    overhead: Option<&FlightOverhead>,
    attribution: Option<&AttributionOverhead>,
) -> Json {
    let config = Json::obj([
        ("workers", cfg.workers.into()),
        ("queue_depth", cfg.queue_depth.into()),
        ("requests_per_client", cfg.requests_per_client.into()),
        ("overload_x", cfg.overload_x.into()),
        ("deadline_ms", cfg.deadline.map(|d| d.as_millis() as u64).into()),
    ]);
    let phases = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("phase", r.phase.into()),
                ("clients", r.clients.into()),
                ("ok", r.ok.into()),
                ("shed", r.shed.into()),
                ("timeouts", r.timeouts.into()),
                ("errors", r.errors.into()),
                ("elapsed_ms", r.elapsed_ms.into()),
                ("throughput_rps", r.throughput_rps.into()),
                ("p50_us", r.p50_us.into()),
                ("p95_us", r.p95_us.into()),
                ("p99_us", r.p99_us.into()),
                ("shed_rate", r.shed_rate.into()),
            ])
        })
        .collect();
    let compare = |off: &ServeLoadRow, on: &ServeLoadRow, pct: f64, extra: Vec<(&str, Json)>| {
        let mut fields = vec![
            ("off_rps", off.throughput_rps.into()),
            ("on_rps", on.throughput_rps.into()),
            ("off_p95_us", off.p95_us.into()),
            ("on_p95_us", on.p95_us.into()),
            ("overhead_pct", pct.into()),
        ];
        fields.extend(extra);
        Json::obj(fields)
    };
    let flight =
        overhead.map(|o| compare(&o.off, &o.on, o.overhead_pct, vec![("events_recorded", o.events_recorded.into())]));
    let attribution = attribution.map(|a| {
        compare(
            &a.off,
            &a.on,
            a.overhead_pct,
            vec![("fingerprints_tracked", a.fingerprints_tracked.into()), ("calls_recorded", a.calls_recorded.into())],
        )
    });
    Json::obj([
        ("config", config),
        ("evaluation_panics", panics.into()),
        ("phases", Json::Arr(phases)),
        ("flight_overhead", flight.into()),
        ("attribution_overhead", attribution.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_serve_load_completes_and_reports() {
        let cfg = ServeLoadConfig { workers: 2, queue_depth: 2, requests_per_client: 6, overload_x: 3, deadline: None };
        let (rows, panics) = run_serve_load(&cfg, 42);
        assert_eq!(panics, 0);
        assert_eq!(rows.len(), 2);
        // At capacity every request is admitted and completes.
        assert_eq!(rows[0].ok, (rows[0].clients * cfg.requests_per_client) as u64);
        // Overload: every attempt is accounted for, and admitted work done.
        let r = &rows[1];
        assert_eq!(r.ok + r.shed + r.timeouts + r.errors, (r.clients * cfg.requests_per_client) as u64);
        assert!(r.ok > 0, "admitted requests must still complete under overload");
        let json = serve_load_json(&rows, &cfg, panics, None, None).to_string();
        assert!(json.contains("\"phase\":\"overload\""), "{json}");
        assert!(json.contains("\"evaluation_panics\":0"), "{json}");
    }

    #[test]
    fn attribution_overhead_records_only_when_enabled() {
        let cfg = ServeLoadConfig { workers: 2, queue_depth: 2, requests_per_client: 6, overload_x: 2, deadline: None };
        let o = run_attribution_overhead(&cfg, 7);
        // The meters-off server has no table to record into; the on
        // phase must have captured every admitted request.
        assert_eq!(o.calls_recorded, o.on.ok);
        assert!(o.fingerprints_tracked >= 1, "the shared count() shape tracks one fingerprint");
        let json = serve_load_json(&[o.off.clone(), o.on.clone()], &cfg, 0, None, Some(&o)).to_string();
        assert!(json.contains("\"attribution_overhead\""), "{json}");
        assert!(json.contains("\"calls_recorded\""), "{json}");
        assert!(format_attribution_overhead(&o).contains("meters on"));
    }
}
