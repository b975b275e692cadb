//! Workload capture and replay over the durable query log.
//!
//! `reproduce capture` runs a deterministic Table-1-derived workload
//! through a full [`Engine`] with the qlog enabled, producing a JSONL
//! baseline: every query with its timings, plan feedback, and result
//! digest. `reproduce replay` rebuilds the same graph (same generator
//! seed), re-runs every recorded query against the *current* build, and
//! compares result digests — a digest mismatch is a semantic regression
//! and hard-fails — alongside latency and cardinality deltas.

use std::sync::Arc;

use nepal_core::{digest_result, BackendRegistry, Engine, NativeBackend};
use nepal_obs::{Json, QlogRecord, QueryLog};

use crate::{build_virtualized, table1_queries};

/// The deterministic capture workload: Table-1 family instances wrapped as
/// full Nepal queries, plus aggregate heads so the digest covers the
/// result-processing layer too.
pub fn workload_queries(seed: u64, instances: usize) -> Vec<String> {
    let (snap, _) = build_virtualized(seed);
    let mut queries = Vec::new();
    for (_, rpes) in table1_queries(&snap, instances) {
        for rpe in rpes.into_iter().take(instances) {
            queries.push(format!("Retrieve P From PATHS P Where P MATCHES {rpe}"));
        }
    }
    queries.push("Select count(P) From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()".to_string());
    queries
        .push("Select count(distinct P) From PATHS P Where P MATCHES Host()->[ConnectedTo()]{1,2}->Host()".to_string());
    queries
}

/// A fresh native engine over the seed-determined virtualized snapshot.
fn fresh_engine(seed: u64) -> Engine {
    let (snap, _) = build_virtualized(seed);
    Engine::new(BackendRegistry::new("native", Box::new(NativeBackend::new(Arc::new(snap.graph)))))
}

/// Capture the workload into a qlog at `path`. Returns the number of
/// queries executed (= records written).
pub fn capture_workload(path: &str, instances: usize, seed: u64) -> std::io::Result<usize> {
    // Start the baseline from an empty live file; earlier captures would
    // otherwise replay twice.
    let _ = std::fs::remove_file(path);
    let queries = workload_queries(seed, instances);
    let mut engine = fresh_engine(seed);
    engine.enable_qlog(path, 64 * 1024 * 1024, 2)?;
    for q in &queries {
        let _ = engine.query(q);
    }
    Ok(queries.len())
}

/// One replayed query compared against its recorded baseline.
#[derive(Debug, Clone)]
pub struct ReplayRow {
    pub query: String,
    pub fingerprint: u64,
    pub base_ns: u64,
    pub base_rows: u64,
    pub base_digest: u64,
    pub base_error: bool,
    pub cur_ns: u64,
    pub cur_rows: u64,
    pub cur_digest: u64,
    pub cur_error: bool,
    pub digest_match: bool,
}

/// The replay verdict over a whole captured workload.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    pub total: usize,
    pub digest_mismatches: usize,
    /// Queries whose error-ness changed (ok→error or error→ok).
    pub error_changes: usize,
    pub base_total_ns: u64,
    pub cur_total_ns: u64,
    pub rows: Vec<ReplayRow>,
}

impl ReplayReport {
    /// Current wall-clock over baseline wall-clock (successful queries
    /// only); > 1 means the current build is slower.
    pub fn latency_ratio(&self) -> f64 {
        if self.base_total_ns == 0 {
            1.0
        } else {
            self.cur_total_ns as f64 / self.base_total_ns as f64
        }
    }

    pub fn passed(&self) -> bool {
        self.digest_mismatches == 0 && self.error_changes == 0
    }
}

/// Replay a captured qlog against a freshly built engine (same generator
/// seed as the capture). Reads only the live log generation.
pub fn replay_qlog(path: &str, seed: u64) -> std::io::Result<ReplayReport> {
    let records = QueryLog::read_records(path)?;
    let mut engine = fresh_engine(seed);
    let mut report = ReplayReport::default();
    for rec in &records {
        let row = replay_one(&mut engine, rec);
        report.total += 1;
        if !row.digest_match {
            report.digest_mismatches += 1;
        }
        if row.base_error != row.cur_error {
            report.error_changes += 1;
        }
        if !row.base_error && !row.cur_error {
            report.base_total_ns += row.base_ns;
            report.cur_total_ns += row.cur_ns;
        }
        report.rows.push(row);
    }
    Ok(report)
}

fn replay_one(engine: &mut Engine, rec: &QlogRecord) -> ReplayRow {
    let base_error = rec.error.is_some();
    let (cur_ns, cur_rows, cur_digest, cur_error) = match engine.query_profiled(&rec.query) {
        Ok((result, profile)) => (profile.total_ns, result.rows.len() as u64, digest_result(&result), false),
        Err(_) => (0, 0, 0, true),
    };
    // Errors carry no digest: error-vs-error matches, ok-vs-error doesn't.
    let digest_match = if base_error || cur_error { base_error == cur_error } else { rec.digest == cur_digest };
    ReplayRow {
        query: rec.query.clone(),
        fingerprint: rec.fingerprint,
        base_ns: rec.total_ns,
        base_rows: rec.rows,
        base_digest: rec.digest,
        base_error,
        cur_ns,
        cur_rows,
        cur_digest,
        cur_error,
        digest_match,
    }
}

/// Render the replay verdict for the terminal.
pub fn format_replay(report: &ReplayReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "Replay: {} quer{} — {} digest mismatch(es), {} error change(s), latency {:.2}x baseline\n",
        report.total,
        if report.total == 1 { "y" } else { "ies" },
        report.digest_mismatches,
        report.error_changes,
        report.latency_ratio()
    ));
    for r in report.rows.iter().filter(|r| !r.digest_match || r.base_error != r.cur_error) {
        s.push_str(&format!(
            "  MISMATCH {:016x} rows {}->{} digest {:016x}->{:016x}\n    {}\n",
            r.fingerprint, r.base_rows, r.cur_rows, r.base_digest, r.cur_digest, r.query
        ));
    }
    s.push_str(if report.passed() { "replay PASSED\n" } else { "replay FAILED\n" });
    s
}

/// Render the replay verdict as the `BENCH_replay.json` document.
pub fn replay_json(report: &ReplayReport) -> Json {
    let rows = report
        .rows
        .iter()
        .map(|r| {
            Json::obj([
                ("query", r.query.as_str().into()),
                ("fp", Json::hex(r.fingerprint)),
                ("base_ns", r.base_ns.into()),
                ("cur_ns", r.cur_ns.into()),
                ("base_rows", r.base_rows.into()),
                ("cur_rows", r.cur_rows.into()),
                ("base_digest", Json::hex(r.base_digest)),
                ("cur_digest", Json::hex(r.cur_digest)),
                ("digest_match", r.digest_match.into()),
                ("base_error", r.base_error.into()),
                ("cur_error", r.cur_error.into()),
            ])
        })
        .collect();
    Json::obj([
        ("total", report.total.into()),
        ("digest_mismatches", report.digest_mismatches.into()),
        ("error_changes", report.error_changes.into()),
        ("latency_ratio", report.latency_ratio().into()),
        ("base_total_ns", report.base_total_ns.into()),
        ("cur_total_ns", report.cur_total_ns.into()),
        ("rows", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_then_replay_has_zero_mismatches() {
        let dir = std::env::temp_dir().join(format!("nepal-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workload.jsonl");
        let path = path.to_str().unwrap();
        let n = capture_workload(path, 2, 42).unwrap();
        assert!(n >= 6, "captured {n} queries");
        let records = QueryLog::read_records(path).unwrap();
        assert_eq!(records.len(), n, "one record per query");
        assert!(records.iter().all(|r| r.error.is_none()));
        assert!(records.iter().any(|r| !r.feedback.vars.is_empty()), "plan feedback recorded");
        // Same seed, same build: digests must all match.
        let report = replay_qlog(path, 42).unwrap();
        assert_eq!(report.total, n);
        assert_eq!(report.digest_mismatches, 0, "{}", format_replay(&report));
        assert!(report.passed());
        let json = replay_json(&report).to_string();
        assert!(json.contains("\"digest_mismatches\":0"), "{json}");
        // A different seed builds a different graph: digests must differ
        // for at least one query (the anchors exist under both seeds only
        // sometimes — error changes also count as failure).
        let bad = replay_qlog(path, 7).unwrap();
        assert!(!bad.passed(), "replay against a different graph must fail");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
