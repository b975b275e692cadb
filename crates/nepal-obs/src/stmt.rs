//! Per-fingerprint statement statistics — the `pg_stat_statements` of the
//! engine. A bounded table keyed by the query-log fingerprint (normalized
//! query shape), aggregating calls, cpu/wall time, rows, bytes,
//! materializations and failure counts next to the planner's accuracy
//! (q-error of the anchor estimate, chosen vs best-in-hindsight anchor),
//! with LRU eviction at a fixed capacity so a workload of unbounded
//! distinct shapes cannot grow memory.
//!
//! The table is fed from the engine's profiled path (one `record` per
//! query, ok or failed) and the Gremlin wire server, and read by
//! `/top.json`, the REPL `:top` command, the dashboard panel and the
//! `nepal_stmt_*` metric families.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::json::Json;
use crate::meter::MeterSnapshot;
use crate::metrics::MetricsRegistry;
use crate::qlog::VarFeedback;

/// How a failed statement ended, for per-fingerprint failure attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtOutcome {
    /// Evaluation completed with a result.
    Ok,
    /// Abandoned at a cancellation checkpoint because the deadline passed.
    Deadline,
    /// Abandoned because the caller cancelled explicitly.
    Cancelled,
    /// Any other error (parse, plan, validation, ...).
    Error,
}

/// Sort key for top-N listings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StmtSort {
    #[default]
    Cpu,
    Rows,
    Bytes,
    Calls,
    Wall,
    /// Worst anchor q-error; statements without an estimate sort last.
    Qerror,
}

impl StmtSort {
    /// Parse a user-facing sort name (`cpu|rows|bytes|calls|wall|qerror`).
    pub fn parse(s: &str) -> Option<StmtSort> {
        match s {
            "cpu" => Some(StmtSort::Cpu),
            "rows" => Some(StmtSort::Rows),
            "bytes" => Some(StmtSort::Bytes),
            "calls" => Some(StmtSort::Calls),
            "wall" => Some(StmtSort::Wall),
            "qerror" => Some(StmtSort::Qerror),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            StmtSort::Cpu => "cpu",
            StmtSort::Rows => "rows",
            StmtSort::Bytes => "bytes",
            StmtSort::Calls => "calls",
            StmtSort::Wall => "wall",
            StmtSort::Qerror => "qerror",
        }
    }
}

/// Aggregated statistics for one statement fingerprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StmtEntry {
    pub fingerprint: u64,
    /// Sample text (normalized shape) of the statement.
    pub text: String,
    pub calls: u64,
    pub errors: u64,
    pub deadline_exceeded: u64,
    pub cancelled: u64,
    pub wall_ns_total: u64,
    pub wall_ns_max: u64,
    pub cpu_ns_total: u64,
    pub cpu_ns_max: u64,
    pub rows: u64,
    pub bytes_scanned: u64,
    pub materializations: u64,
    pub keyframe_hits: u64,
    pub join_build_rows: u64,
    /// Calls that carried an anchor estimate. The planner fields below
    /// cover those calls only, and stay empty while this is 0 (Gremlin-wire
    /// statements never plan).
    pub estimated: u64,
    /// Worst-variable q-error, max and sum over the estimated calls.
    pub max_qerror: f64,
    pub sum_qerror: f64,
    /// The worst variable of the latest estimated call: its estimate, the
    /// observed anchor rows, the chosen anchor and the anchor the planner
    /// would pick knowing the observed count.
    pub last_est: f64,
    pub last_actual: u64,
    pub anchor: String,
    pub hindsight_anchor: String,
}

impl StmtEntry {
    fn sort_key(&self, sort: StmtSort) -> u64 {
        match sort {
            StmtSort::Cpu => self.cpu_ns_total,
            StmtSort::Rows => self.rows,
            StmtSort::Bytes => self.bytes_scanned,
            StmtSort::Calls => self.calls,
            StmtSort::Wall => self.wall_ns_total,
            // The histogram's x1000 resolution; unestimated rows read 0.
            StmtSort::Qerror => (self.max_qerror * 1000.0) as u64,
        }
    }

    pub fn mean_qerror(&self) -> Option<f64> {
        (self.estimated > 0).then(|| self.sum_qerror / self.estimated as f64)
    }

    /// Whether hindsight would have picked a different anchor.
    pub fn mischosen(&self) -> bool {
        !self.hindsight_anchor.is_empty() && self.hindsight_anchor != self.anchor
    }
}

struct Slot {
    entry: StmtEntry,
    /// Monotone touch tick for LRU eviction.
    touched: u64,
}

struct Inner {
    map: HashMap<u64, Slot>,
    tick: u64,
    evicted: u64,
}

/// Bounded per-fingerprint statement-stats table. Thread-safe; every
/// operation takes one short mutex section.
pub struct StmtStats {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for StmtStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StmtStats").field("capacity", &self.capacity).finish()
    }
}

impl StmtStats {
    pub fn new(capacity: usize) -> StmtStats {
        StmtStats { capacity: capacity.max(1), inner: Mutex::new(Inner { map: HashMap::new(), tick: 0, evicted: 0 }) }
    }

    /// Record one finished statement. `meter` carries the deterministic
    /// resource counters when metering was on for this query; `worst` is
    /// the variable with the largest anchor q-error, when any variable
    /// carried an estimate.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        fingerprint: u64,
        text: &str,
        outcome: StmtOutcome,
        wall_ns: u64,
        rows: u64,
        meter: Option<&MeterSnapshot>,
        worst: Option<&VarFeedback>,
    ) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        // Evict the least-recently-touched entry before inserting a new
        // fingerprint at capacity.
        if !inner.map.contains_key(&fingerprint) && inner.map.len() >= self.capacity {
            if let Some(&victim) = inner.map.iter().min_by_key(|(_, s)| s.touched).map(|(fp, _)| fp) {
                inner.map.remove(&victim);
                inner.evicted += 1;
            }
        }
        let slot = inner.map.entry(fingerprint).or_insert_with(|| Slot {
            entry: StmtEntry { fingerprint, text: text.to_string(), ..StmtEntry::default() },
            touched: tick,
        });
        slot.touched = tick;
        let e = &mut slot.entry;
        if e.text.is_empty() && !text.is_empty() {
            e.text = text.to_string();
        }
        e.calls += 1;
        match outcome {
            StmtOutcome::Ok => {}
            StmtOutcome::Deadline => {
                e.errors += 1;
                e.deadline_exceeded += 1;
            }
            StmtOutcome::Cancelled => {
                e.errors += 1;
                e.cancelled += 1;
            }
            StmtOutcome::Error => e.errors += 1,
        }
        e.wall_ns_total += wall_ns;
        e.wall_ns_max = e.wall_ns_max.max(wall_ns);
        e.rows += rows;
        if let Some(m) = meter {
            e.cpu_ns_total += m.cpu_ns;
            e.cpu_ns_max = e.cpu_ns_max.max(m.cpu_ns);
            e.bytes_scanned += m.bytes_scanned;
            e.materializations += m.materializations;
            e.keyframe_hits += m.keyframe_hits;
            e.join_build_rows += m.join_build_rows;
        }
        if let Some(v) = worst {
            let q = v.qerror();
            e.estimated += 1;
            e.sum_qerror += q;
            e.max_qerror = e.max_qerror.max(q);
            e.last_est = v.est_rows;
            e.last_actual = v.actual_rows;
            e.anchor.clone_from(&v.anchor);
            e.hindsight_anchor = v.hindsight_anchor();
        }
    }

    /// Number of fingerprints currently tracked.
    pub fn tracked(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Fingerprints evicted by the LRU bound since creation.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().unwrap().evicted
    }

    /// Top `n` entries by `sort`, descending (ties broken by fingerprint
    /// for deterministic output).
    pub fn top(&self, n: usize, sort: StmtSort) -> Vec<StmtEntry> {
        let inner = self.inner.lock().unwrap();
        let mut rows: Vec<StmtEntry> = inner.map.values().map(|s| s.entry.clone()).collect();
        drop(inner);
        rows.sort_by(|a, b| b.sort_key(sort).cmp(&a.sort_key(sort)).then_with(|| a.fingerprint.cmp(&b.fingerprint)));
        rows.truncate(n);
        rows
    }

    /// Workload-wide aggregate, used by the `nepal_stmt_*` gauge export.
    pub fn totals(&self) -> StmtEntry {
        let inner = self.inner.lock().unwrap();
        let mut t = StmtEntry::default();
        for s in inner.map.values() {
            let e = &s.entry;
            t.calls += e.calls;
            t.errors += e.errors;
            t.deadline_exceeded += e.deadline_exceeded;
            t.cancelled += e.cancelled;
            t.wall_ns_total += e.wall_ns_total;
            t.wall_ns_max = t.wall_ns_max.max(e.wall_ns_max);
            t.cpu_ns_total += e.cpu_ns_total;
            t.cpu_ns_max = t.cpu_ns_max.max(e.cpu_ns_max);
            t.rows += e.rows;
            t.bytes_scanned += e.bytes_scanned;
            t.materializations += e.materializations;
            t.keyframe_hits += e.keyframe_hits;
            t.join_build_rows += e.join_build_rows;
        }
        t
    }

    /// Refresh the `nepal_stmt_*` gauge families from the current table.
    /// Gauges (not counters) because LRU eviction makes per-fingerprint
    /// sums non-monotone; the evicted count preserves the signal.
    pub fn export(&self, reg: &MetricsRegistry) {
        let t = self.totals();
        let tracked = self.tracked();
        let evicted = self.evicted();
        reg.gauge("nepal_stmt_tracked", "Statement fingerprints currently tracked").set(tracked as i64);
        reg.gauge("nepal_stmt_evicted", "Statement fingerprints evicted by the LRU bound").set(evicted as i64);
        reg.gauge("nepal_stmt_calls", "Calls aggregated across tracked statements").set(t.calls as i64);
        reg.gauge("nepal_stmt_errors", "Errors aggregated across tracked statements").set(t.errors as i64);
        reg.gauge("nepal_stmt_deadline_exceeded", "Deadline-exceeded calls across tracked statements")
            .set(t.deadline_exceeded as i64);
        reg.gauge("nepal_stmt_cancelled", "Cancelled calls across tracked statements").set(t.cancelled as i64);
        reg.gauge("nepal_stmt_cpu_ns", "Thread-CPU nanoseconds across tracked statements").set(t.cpu_ns_total as i64);
        reg.gauge("nepal_stmt_wall_ns", "Wall nanoseconds across tracked statements").set(t.wall_ns_total as i64);
        reg.gauge("nepal_stmt_rows", "Result rows across tracked statements").set(t.rows as i64);
        reg.gauge("nepal_stmt_bytes_scanned", "Bytes scanned across tracked statements").set(t.bytes_scanned as i64);
        reg.gauge("nepal_stmt_materializations", "Delta-chain materializations across tracked statements")
            .set(t.materializations as i64);
    }

    /// Plain-text top-N table for the REPL's `:top`.
    pub fn render_text(&self, n: usize, sort: StmtSort) -> String {
        let rows = self.top(n, sort);
        let mut out = String::new();
        out.push_str(&format!(
            "# top {} statements by {} ({} tracked, {} evicted)\n",
            rows.len(),
            sort.name(),
            self.tracked(),
            self.evicted()
        ));
        out.push_str("calls      cpu_ms     wall_ms    rows       bytes      mat        err  query\n");
        for e in &rows {
            out.push_str(&format!(
                "{:<10} {:<10.3} {:<10.3} {:<10} {:<10} {:<10} {:<4} {}\n",
                e.calls,
                e.cpu_ns_total as f64 / 1e6,
                e.wall_ns_total as f64 / 1e6,
                e.rows,
                e.bytes_scanned,
                e.materializations,
                e.errors,
                truncate_text(&e.text, 120),
            ));
            if sort == StmtSort::Qerror {
                out.push_str(&match e.mean_qerror() {
                    Some(mean) => format!(
                        "    qerror max {:.2} mean {:.2} over {} call(s), est {:.1} actual {}, anchor {}\n",
                        e.max_qerror,
                        mean,
                        e.estimated,
                        e.last_est,
                        e.last_actual,
                        if e.mischosen() {
                            format!("{} -> {}", e.anchor, e.hindsight_anchor)
                        } else {
                            format!("{} (robust)", e.anchor)
                        }
                    ),
                    None => "    qerror: no estimate\n".to_string(),
                });
            }
        }
        out
    }

    /// JSON top-N for `/top.json` and bundle inclusion.
    pub fn render_json(&self, n: usize, sort: StmtSort) -> Json {
        let statements = self
            .top(n, sort)
            .iter()
            .map(|e| {
                Json::obj([
                    ("fingerprint", Json::hex(e.fingerprint)),
                    ("query", e.text.as_str().into()),
                    ("calls", e.calls.into()),
                    ("errors", e.errors.into()),
                    ("deadline_exceeded", e.deadline_exceeded.into()),
                    ("cancelled", e.cancelled.into()),
                    ("wall_ns_total", e.wall_ns_total.into()),
                    ("wall_ns_max", e.wall_ns_max.into()),
                    ("cpu_ns_total", e.cpu_ns_total.into()),
                    ("cpu_ns_max", e.cpu_ns_max.into()),
                    ("rows", e.rows.into()),
                    ("bytes_scanned", e.bytes_scanned.into()),
                    ("materializations", e.materializations.into()),
                    ("keyframe_hits", e.keyframe_hits.into()),
                    ("join_build_rows", e.join_build_rows.into()),
                    ("estimated", e.estimated.into()),
                    ("max_qerror", (e.estimated > 0).then_some(e.max_qerror).into()),
                    ("mean_qerror", e.mean_qerror().into()),
                    ("last_est", (e.estimated > 0).then_some(e.last_est).into()),
                    ("last_actual", (e.estimated > 0).then_some(e.last_actual).into()),
                    ("anchor", e.anchor.as_str().into()),
                    ("hindsight_anchor", e.hindsight_anchor.as_str().into()),
                ])
            })
            .collect();
        Json::obj([
            ("sort", sort.name().into()),
            ("tracked", self.tracked().into()),
            ("evicted", self.evicted().into()),
            ("statements", Json::Arr(statements)),
        ])
    }
}

fn truncate_text(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn meter(cpu: u64, bytes: u64, mat: u64) -> MeterSnapshot {
        MeterSnapshot { cpu_ns: cpu, bytes_scanned: bytes, materializations: mat, ..MeterSnapshot::default() }
    }

    #[test]
    fn aggregates_per_fingerprint() {
        let s = StmtStats::new(8);
        s.record(1, "VM()", StmtOutcome::Ok, 100, 3, Some(&meter(50, 1024, 2)), None);
        s.record(1, "VM()", StmtOutcome::Ok, 300, 5, Some(&meter(70, 512, 1)), None);
        s.record(2, "Host()", StmtOutcome::Deadline, 900, 0, None, None);
        let top = s.top(10, StmtSort::Cpu);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].fingerprint, 1);
        assert_eq!(top[0].calls, 2);
        assert_eq!(top[0].cpu_ns_total, 120);
        assert_eq!(top[0].cpu_ns_max, 70);
        assert_eq!(top[0].wall_ns_max, 300);
        assert_eq!(top[0].rows, 8);
        assert_eq!(top[0].bytes_scanned, 1536);
        assert_eq!(top[0].materializations, 3);
        let host = &top[1];
        assert_eq!(host.deadline_exceeded, 1);
        assert_eq!(host.errors, 1);
        // Wall sort puts the slow failing statement first.
        assert_eq!(s.top(1, StmtSort::Wall)[0].fingerprint, 2);
    }

    #[test]
    fn lru_evicts_coldest_fingerprint() {
        let s = StmtStats::new(2);
        s.record(1, "a", StmtOutcome::Ok, 1, 0, None, None);
        s.record(2, "b", StmtOutcome::Ok, 1, 0, None, None);
        s.record(1, "a", StmtOutcome::Ok, 1, 0, None, None); // touch 1 -> 2 is coldest
        s.record(3, "c", StmtOutcome::Ok, 1, 0, None, None); // evicts 2
        assert_eq!(s.tracked(), 2);
        assert_eq!(s.evicted(), 1);
        let fps: Vec<u64> = s.top(10, StmtSort::Calls).iter().map(|e| e.fingerprint).collect();
        assert!(fps.contains(&1) && fps.contains(&3) && !fps.contains(&2), "{fps:?}");
    }

    #[test]
    fn renders_text_and_json() {
        let s = StmtStats::new(4);
        s.record(7, "VM(name=\"a\")", StmtOutcome::Ok, 1000, 2, Some(&meter(10, 64, 1)), None);
        let text = s.render_text(5, StmtSort::Calls);
        assert!(text.contains("top 1 statements by calls"), "{text}");
        let json = s.render_json(5, StmtSort::Cpu).to_string();
        assert!(json.contains("\"fingerprint\":\"0000000000000007\""), "{json}");
        assert!(json.contains("\\\"a\\\""), "escaped quote missing: {json}");
        assert!(json.contains("\"cpu_ns_total\":10"), "{json}");
    }

    #[test]
    fn sort_parse_round_trips() {
        for s in ["cpu", "rows", "bytes", "calls", "wall", "qerror"] {
            assert_eq!(StmtSort::parse(s).unwrap().name(), s);
        }
        assert!(StmtSort::parse("nope").is_none());
    }

    /// The chosen `VNF()` anchor estimated at `est`, observed at `actual`,
    /// next to a `Host(host_id=3)` candidate estimated at `other`.
    fn var(est: f64, actual: u64, other: f64) -> VarFeedback {
        VarFeedback {
            anchor: "VNF()".into(),
            est_rows: est,
            actual_rows: actual,
            candidates: vec![("VNF()".into(), est), ("Host(host_id=3)".into(), other)],
            ..VarFeedback::default()
        }
    }

    #[test]
    fn qerror_sort_ranks_worst_fingerprints_first() {
        let s = StmtStats::new(8);
        s.record(1, "VM()", StmtOutcome::Ok, 10, 66, None, Some(&var(66.0, 66, 200.0))); // perfect
        let bad = var(2.0, 66, 1.0); // 33x off
        s.record(2, "VNF()", StmtOutcome::Ok, 10, 5, None, Some(&bad));
        s.record(2, "VNF()", StmtOutcome::Ok, 10, 5, None, Some(&bad));
        s.record(3, "gremlin eval g.V()", StmtOutcome::Ok, 10_000, 9, None, None);
        let top = s.top(10, StmtSort::Qerror);
        let fps: Vec<u64> = top.iter().map(|e| e.fingerprint).collect();
        assert_eq!(fps, [2, 1, 3], "worst first, the unestimated row last");
        assert_eq!((top[0].calls, top[0].estimated), (2, 2));
        assert!(top[0].max_qerror > 30.0);
        assert_eq!(top[0].mean_qerror(), Some(33.0));
        assert_eq!(top[1].max_qerror, 1.0);
        assert!(top[0].mischosen(), "hindsight prefers the unique anchor");
        assert!(!top[1].mischosen(), "a robust choice keeps its anchor");
        assert_eq!(top[2].mean_qerror(), None);
        let text = s.render_text(1, StmtSort::Qerror);
        assert!(text.contains("anchor VNF() -> Host(host_id=3)"), "{text}");
        let json = s.render_json(10, StmtSort::Qerror).to_string();
        assert!(parse_json(&json).is_ok(), "{json}");
        assert!(json.contains("\"hindsight_anchor\":\"Host(host_id=3)\""), "{json}");
        assert!(json.contains("\"max_qerror\":null"), "the gremlin row's q-error stays empty: {json}");
    }

    #[test]
    fn errored_calls_carry_no_estimates() {
        let s = StmtStats::new(2);
        s.record(9, "Retrieve P From", StmtOutcome::Error, 9, 0, None, None);
        let row = &s.top(1, StmtSort::Qerror)[0];
        assert_eq!((row.calls, row.errors, row.estimated), (1, 1, 0));
        assert_eq!(row.mean_qerror(), None);
        // The LRU bound evicts a fingerprint's q-error with its cost.
        s.record(1, "VNF()", StmtOutcome::Ok, 1, 5, None, Some(&var(2.0, 66, 1.0)));
        s.record(2, "VM()", StmtOutcome::Ok, 1, 5, None, None);
        s.record(3, "Host()", StmtOutcome::Ok, 1, 5, None, None);
        assert!(s.top(10, StmtSort::Qerror).iter().all(|e| e.estimated == 0), "fingerprint 1 left whole");
    }
}
