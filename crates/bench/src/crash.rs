//! Crash-forensics drill: induce a worker panic in a loaded server and
//! verify the flight recorder leaves a usable diagnostics bundle behind.
//!
//! The drill is the CI smoke for the black-box recorder (DESIGN.md §5f):
//! start a bounded [`GremlinServer`] with the process-wide recorder on and
//! the panic hook installed, drive it with concurrent clients so several
//! worker threads accumulate wide events, then send the magic
//! [`CHAOS_PANIC_REQUEST_ID`] request. The induced panic is caught by the
//! worker's panic barrier (the client gets a status-500 frame and the
//! server lives on), but the process-wide panic hook still runs first —
//! writing a snapshot bundle exactly as a real crash would. The drill then
//! re-parses the bundle from disk and checks it tells a useful story:
//! valid JSON, a panic trigger, and pre-anomaly events from at least two
//! distinct threads.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use nepal_core::{BackendRegistry, Engine, NativeBackend, StandardSlos};
use nepal_gremlin::protocol::{read_frame, request, write_frame};
use nepal_gremlin::{
    bytecode_to_json, parse_json, property_graph_from, shared_graph, GStep, GremlinClient, GremlinServer, Json,
    ProtoError, ServeConfig, CHAOS_PANIC_REQUEST_ID,
};
use nepal_obs::{install_panic_hook, HistoryRing, SnapshotConfig, Telemetry};

use crate::build_virtualized;

/// What the drill found in the bundle it recovered from disk.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// The bundle written by the panic hook.
    pub bundle_path: PathBuf,
    /// The bundle's `trigger` field (expected: `"panic"`).
    pub trigger: String,
    /// Wide events captured in the bundle.
    pub events: usize,
    /// Distinct ring threads contributing events.
    pub distinct_threads: usize,
    /// Requests the load clients completed before the chaos request.
    pub load_ok: u64,
    /// The server's evaluation-panic counter (expected: exactly 1).
    pub evaluation_panics: u64,
    /// The status code the chaos request was answered with (expected 500).
    pub chaos_status: u64,
    /// Statements attributed in the bundle's top-queries section.
    pub stmt_tracked: usize,
    /// Metrics-history snapshots embedded in the bundle.
    pub history_len: usize,
}

impl CrashReport {
    /// Did the drill prove the recorder works end to end?
    pub fn passed(&self) -> bool {
        self.trigger == "panic"
            && self.events > 0
            && self.distinct_threads >= 2
            && self.evaluation_panics == 1
            && self.chaos_status == 500
            && self.stmt_tracked >= 1
            && self.history_len >= 1
    }
}

/// Run the drill. `dir` receives the snapshot bundles (created if needed);
/// pass a scratch directory — existing bundles in it are rotated like any
/// other snapshot.
pub fn run_crash_forensics(dir: &Path, seed: u64) -> Result<CrashReport, String> {
    // Recorder on for the whole drill (leave it on afterwards: the process
    // is a one-shot CLI, and the panic hook stays installed anyway).
    let rec = nepal_obs::flight::recorder();
    rec.set_enabled(true);

    // Engine + telemetry: the bundle composes metrics/alerts/traces/stmt
    // from a real engine, so run the load through one worth snapshotting.
    let (snap, _) = build_virtualized(seed);
    let graph = Arc::new(snap.graph);
    let registry = BackendRegistry::new("native", Box::new(NativeBackend::new(graph.clone())));
    let mut engine = Engine::new(registry);
    let slo = engine.install_standard_slos(&StandardSlos::default());
    let telemetry = Arc::new(Telemetry::new(engine.metrics.clone(), engine.tracer.clone()));
    telemetry.set_slo(slo);
    telemetry.set_flight(rec.clone());
    telemetry.set_snapshots(SnapshotConfig { dir: dir.to_path_buf(), keep: 4, window: Duration::from_secs(60) });
    telemetry.set_build_info(vec![("bin".to_string(), "crash-forensics".to_string())]);
    // Statement attribution and metrics history ride along in the bundle:
    // the post-crash story should say *what* was running and *how* the
    // gauges were trending, not just that a panic happened.
    let stmt = engine.enable_stmt(64);
    telemetry.set_stmt(stmt);
    let history = Arc::new(HistoryRing::new(Duration::from_millis(0), 32));
    telemetry.set_history(history);
    install_panic_hook(telemetry.clone());

    // A few engine queries so the query-lifecycle events are on the record
    // alongside the server-side ones.
    for q in [
        "Retrieve P From PATHS P Where P MATCHES VM()->[Vertical()]{1,4}->Host()",
        "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()",
    ] {
        let _ = engine.query(q);
    }
    // Two history ticks (1ms apart — the ring's minimum resolution) so the
    // bundle's history tail is non-trivial before the anomaly.
    let mut admitted = 0;
    while admitted < 2 {
        if telemetry.tick_history() {
            admitted += 1;
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let pg = shared_graph(property_graph_from(&graph));
    let cfg = ServeConfig { workers: 3, queue_depth: 8, ..ServeConfig::default() };
    let mut server = GremlinServer::start_cfg(pg, "127.0.0.1:0", None, cfg).map_err(|e| format!("bind server: {e}"))?;
    let addr = server.addr;

    // Concurrent load: several client threads, fresh connection per
    // request, so multiple worker threads write RequestDone events.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut ok = 0u64;
                for _ in 0..20 {
                    let outcome = std::net::TcpStream::connect(addr)
                        .map_err(ProtoError::Io)
                        .and_then(|s| GremlinClient::new(s).submit(&[GStep::V(vec![]), GStep::Count]));
                    if outcome.is_ok() {
                        ok += 1;
                    }
                }
                ok
            })
        })
        .collect();
    let load_ok: u64 = handles.into_iter().map(|h| h.join().expect("load client panicked")).sum();

    // The anomaly: a chaos request that panics inside the worker's panic
    // barrier. The panic hook writes the bundle before the barrier catches.
    let mut conn = server.connect().map_err(|e| format!("connect: {e}"))?;
    let req = request(CHAOS_PANIC_REQUEST_ID, bytecode_to_json(&[GStep::V(vec![]), GStep::Count]));
    write_frame(&mut conn, &req).map_err(|e| format!("chaos write: {e}"))?;
    let resp = read_frame(&mut conn).map_err(|e| format!("chaos read: {e}"))?;
    let chaos_status = resp.get("status").and_then(|s| s.get("code")).and_then(|c| c.as_u64()).unwrap_or(0);
    drop(conn);

    let evaluation_panics = server.stats.evaluation_panics.load(Ordering::Relaxed);
    let report = server.drain(Duration::from_millis(2000));
    if !report.clean {
        return Err("drain did not finish within its budget".to_string());
    }

    // Recover the bundle from disk the way an operator would: newest
    // panic-triggered snapshot in the directory.
    let (name, _, _) = telemetry
        .list_snapshots()
        .into_iter()
        .filter(|(n, _, _)| n.ends_with("-panic.json"))
        .max_by(|a, b| a.2.cmp(&b.2))
        .ok_or("no panic-triggered bundle on disk")?;
    let bundle_path = dir.join(&name);
    let text = std::fs::read_to_string(&bundle_path).map_err(|e| format!("read bundle: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("bundle is not valid JSON: {e}"))?;
    let trigger = doc.get("trigger").and_then(|t| t.as_str()).unwrap_or("").to_string();
    let events = match doc.get("flight").and_then(|f| f.get("events")) {
        Some(Json::Arr(a)) => a.clone(),
        _ => Vec::new(),
    };
    let mut threads: Vec<u64> = events.iter().filter_map(|e| e.get("thread").and_then(|t| t.as_u64())).collect();
    threads.sort_unstable();
    threads.dedup();
    let stmt_tracked = match doc.get("stmt").and_then(|s| s.get("statements")) {
        Some(Json::Arr(a)) => a.len(),
        _ => 0,
    };
    let history_len = doc.get("history").and_then(|h| h.get("len")).and_then(|l| l.as_u64()).unwrap_or(0) as usize;

    Ok(CrashReport {
        bundle_path,
        trigger,
        events: events.len(),
        distinct_threads: threads.len(),
        load_ok,
        evaluation_panics,
        chaos_status,
        stmt_tracked,
        history_len,
    })
}

/// Render the drill outcome for the terminal.
pub fn format_crash_report(r: &CrashReport) -> String {
    format!(
        "Crash-forensics drill: induced worker panic under load\n\
         load: {} request(s) completed before the anomaly\n\
         chaos request answered with status {} (server survived; {} evaluation panic(s) counted)\n\
         bundle: {}\n\
         trigger: {:?}  wide events: {}  distinct threads: {}\n\
         workload context: {} statement(s) attributed, {} history snapshot(s)\n\
         verdict: {}\n",
        r.load_ok,
        r.chaos_status,
        r.evaluation_panics,
        r.bundle_path.display(),
        r.trigger,
        r.events,
        r.distinct_threads,
        r.stmt_tracked,
        r.history_len,
        if r.passed() { "PASS" } else { "FAIL" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn induced_panic_leaves_a_parseable_bundle() {
        let dir = std::env::temp_dir().join(format!("nepal-crash-drill-{}", std::process::id()));
        let report = run_crash_forensics(&dir, 42).expect("drill runs");
        assert_eq!(report.trigger, "panic");
        assert_eq!(report.chaos_status, 500, "chaos request must be answered, not dropped");
        assert_eq!(report.evaluation_panics, 1);
        assert!(report.events > 0, "bundle must carry pre-anomaly wide events");
        assert!(report.distinct_threads >= 2, "events must come from >=2 threads, got {}", report.distinct_threads);
        assert!(report.stmt_tracked >= 1, "bundle must attribute the pre-crash statements");
        assert!(report.history_len >= 1, "bundle must carry the metrics-history tail");
        assert!(report.passed());
        std::fs::remove_dir_all(&dir).ok();
    }
}
