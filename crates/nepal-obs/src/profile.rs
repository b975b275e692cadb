//! Query profiles: the trace a profiled execution leaves behind.
//!
//! A [`QueryProfile`] is assembled by the engine and filled in by the
//! backends through [`ExecTrace`] — a plain collector the evaluators push
//! [`OpStats`] into, one per §5 operator instance (`Select`, `Extend`
//! forward/backward, `Union`, plus backend-specific operators such as
//! relational scans or Gremlin `ExtendBlock` rounds). Profiling is
//! strictly opt-in: the untraced paths pass `None` and skip every clock
//! read.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// Stats for one operator instance in the §5 operator DAG.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Operator kind: `Select`, `Extend(fwd)`, `Extend(bwd)`, `Union`, …
    pub op: String,
    /// Human detail — the atom or label the operator works on.
    pub detail: String,
    pub rows_in: u64,
    pub rows_out: u64,
    pub elapsed_ns: u64,
    /// Indentation level when rendering the operator tree.
    pub depth: u8,
}

impl OpStats {
    pub fn new(op: impl Into<String>, detail: impl Into<String>) -> OpStats {
        OpStats { op: op.into(), detail: detail.into(), ..Default::default() }
    }
}

/// Collector the evaluators fill during a traced run.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    pub ops: Vec<OpStats>,
    /// Free-form counters: temporal prunes, rows scanned, wire bytes, …
    pub counters: Vec<(String, u64)>,
}

impl ExecTrace {
    /// Accumulate into a named counter (creates it at 0 first).
    pub fn bump(&mut self, name: &str, by: u64) {
        if let Some((_, v)) = self.counters.iter_mut().find(|(n, _)| n == name) {
            *v += by;
        } else {
            self.counters.push((name.to_string(), by));
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Sum of `rows_out` over operators of the given kind.
    pub fn rows_out_of(&self, op: &str) -> u64 {
        self.ops.iter().filter(|o| o.op == op).map(|o| o.rows_out).sum()
    }
}

/// One anchor set the planner considered for a variable.
#[derive(Debug, Clone)]
pub struct AnchorCandidate {
    /// Rendered atom list, e.g. `VNF()` or `VM(vm_id=55)|Docker(docker_id=66)`.
    pub desc: String,
    pub cost: f64,
    pub chosen: bool,
}

/// One hash-join step in the engine's cross-variable join.
#[derive(Debug, Clone, Default)]
pub struct JoinStep {
    pub var: String,
    /// Rows on the probe side (partial result rows so far).
    pub probe_rows: u64,
    /// Rows on the build side (the joining variable's pathways).
    pub build_rows: u64,
    pub emitted: u64,
    pub elapsed_ns: u64,
}

/// Per-range-variable profile.
#[derive(Debug, Clone, Default)]
pub struct VarProfile {
    pub var: String,
    pub backend: String,
    pub plan_ns: u64,
    pub eval_ns: u64,
    /// Every anchor set considered, with the winner flagged.
    pub anchors: Vec<AnchorCandidate>,
    /// Seed count when the anchor was imported from a join (§3.4).
    pub imported_seeds: Option<u64>,
    pub pathways: u64,
    pub trace: ExecTrace,
    /// Generated SQL / Gremlin, when the backend translates.
    pub generated: Vec<String>,
}

/// The full trace of one profiled query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    pub query: String,
    pub parse_ns: u64,
    pub plan_ns: u64,
    pub exec_ns: u64,
    pub total_ns: u64,
    pub vars: Vec<VarProfile>,
    pub joins: Vec<JoinStep>,
    /// Result rows dropped by the joint temporal coexistence check.
    pub coexistence_pruned: u64,
    /// Result rows dropped by EXISTS / NOT EXISTS conditions.
    pub exists_pruned: u64,
    pub result_rows: u64,
    /// Resource counters when metering was on for this query (cpu-ns,
    /// rows/bytes scanned, materializations, keyframe hits, ...).
    pub meter: Option<crate::meter::MeterSnapshot>,
}

/// Format nanoseconds with a sensible unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl QueryProfile {
    /// Render the profile as an indented operator tree, the form printed
    /// by `EXPLAIN ANALYZE` and the REPL's `:profile`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "phases: parse {}  plan {}  execute {}  total {}\n",
            fmt_ns(self.parse_ns),
            fmt_ns(self.plan_ns),
            fmt_ns(self.exec_ns),
            fmt_ns(self.total_ns)
        ));
        for v in &self.vars {
            out.push_str(&format!(
                "variable {} [backend {}]: {} pathway(s), plan {}, eval {}\n",
                v.var,
                v.backend,
                v.pathways,
                fmt_ns(v.plan_ns),
                fmt_ns(v.eval_ns)
            ));
            if let Some(n) = v.imported_seeds {
                out.push_str(&format!("  anchor imported from join: {n} seed node(s)\n"));
            }
            if !v.anchors.is_empty() {
                out.push_str("  anchor candidates considered:\n");
                for a in &v.anchors {
                    let marker = if a.chosen { "*" } else { " " };
                    out.push_str(&format!(
                        "   {marker} {:<40} est. cost {:.1}{}\n",
                        a.desc,
                        a.cost,
                        if a.chosen { "  <- chosen" } else { "" }
                    ));
                }
            }
            if !v.trace.ops.is_empty() {
                out.push_str("  operators:\n");
                for op in &v.trace.ops {
                    let indent = "  ".repeat(op.depth as usize);
                    out.push_str(&format!(
                        "    {indent}{:<14} {:<34} rows_in={:<8} rows_out={:<8} {}\n",
                        op.op,
                        op.detail,
                        op.rows_in,
                        op.rows_out,
                        fmt_ns(op.elapsed_ns)
                    ));
                }
            }
            if !v.trace.counters.is_empty() {
                let rendered: Vec<String> = v.trace.counters.iter().map(|(n, c)| format!("{n}={c}")).collect();
                out.push_str(&format!("  counters: {}\n", rendered.join("  ")));
            }
            if !v.generated.is_empty() {
                out.push_str("  generated:\n");
                for g in &v.generated {
                    out.push_str(&format!("    {g}\n"));
                }
            }
        }
        for j in &self.joins {
            out.push_str(&format!(
                "join {} probe={} build={} emitted={} {}\n",
                j.var,
                j.probe_rows,
                j.build_rows,
                j.emitted,
                fmt_ns(j.elapsed_ns)
            ));
        }
        if self.coexistence_pruned > 0 {
            out.push_str(&format!("coexistence pruned: {} row(s)\n", self.coexistence_pruned));
        }
        if self.exists_pruned > 0 {
            out.push_str(&format!("exists pruned: {} row(s)\n", self.exists_pruned));
        }
        if let Some(m) = &self.meter {
            out.push_str(&format!("resources: {}\n", m.render()));
        }
        out.push_str(&format!("result: {} row(s)\n", self.result_rows));
        out
    }
}

/// One slow query captured by the ring buffer.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    pub query: String,
    pub total_ns: u64,
    pub result_rows: u64,
    /// Trace id when the query also produced a trace — the key that keeps
    /// `/slow` and the trace ring deduplicated (one entry per trace, even
    /// when a query is both sampled and slow).
    pub trace_id: Option<u64>,
}

/// Bounded ring buffer of the most recent queries slower than a threshold.
///
/// All methods take `&self`: the threshold is an atomic and the ring sits
/// behind a mutex, so the log can be shared between the engine and the
/// telemetry endpoint without wrapping it in another lock.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_ns: AtomicU64,
    capacity: usize,
    entries: Mutex<VecDeque<SlowQuery>>,
}

impl Default for SlowQueryLog {
    fn default() -> Self {
        // 10ms threshold, last 32 offenders.
        SlowQueryLog::new(10_000_000, 32)
    }
}

impl SlowQueryLog {
    pub fn new(threshold_ns: u64, capacity: usize) -> Self {
        SlowQueryLog {
            threshold_ns: AtomicU64::new(threshold_ns),
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    pub fn set_threshold_ns(&self, ns: u64) {
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Record a query if it crossed the threshold; evicts the oldest entry
    /// once full. Returns whether it was recorded.
    pub fn record(&self, query: &str, total_ns: u64, result_rows: u64) -> bool {
        self.record_traced(query, total_ns, result_rows, None)
    }

    /// Like [`SlowQueryLog::record`], keyed by trace id: if an entry with
    /// the same trace id is already in the ring (e.g. the sampled and the
    /// slow path both reported the query), it is updated in place rather
    /// than duplicated.
    pub fn record_traced(&self, query: &str, total_ns: u64, result_rows: u64, trace_id: Option<u64>) -> bool {
        if total_ns < self.threshold_ns() {
            return false;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(id) = trace_id {
            if let Some(existing) = entries.iter_mut().find(|e| e.trace_id == Some(id)) {
                existing.query = query.to_string();
                existing.total_ns = total_ns;
                existing.result_rows = result_rows;
                return true;
            }
        }
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(SlowQuery { query: query.to_string(), total_ns, result_rows, trace_id });
        true
    }

    /// Snapshot of the ring, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `/slow` endpoint body: the threshold and the ring, oldest
    /// first.
    pub fn render_json(&self) -> Json {
        let entries = self
            .entries()
            .iter()
            .map(|e| {
                Json::obj([
                    ("query", e.query.as_str().into()),
                    ("total_ns", e.total_ns.into()),
                    ("result_rows", e.result_rows.into()),
                    ("trace_id", e.trace_id.into()),
                ])
            })
            .collect();
        Json::obj([("threshold_ns", self.threshold_ns().into()), ("entries", Json::Arr(entries))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_trace_accumulates_counters_and_rows() {
        let mut t = ExecTrace::default();
        t.bump("temporal_prunes", 3);
        t.bump("temporal_prunes", 2);
        assert_eq!(t.counter("temporal_prunes"), 5);
        assert_eq!(t.counter("missing"), 0);
        t.ops.push(OpStats { op: "Extend(fwd)".into(), rows_out: 7, ..Default::default() });
        t.ops.push(OpStats { op: "Extend(fwd)".into(), rows_out: 4, ..Default::default() });
        t.ops.push(OpStats { op: "Select".into(), rows_out: 100, ..Default::default() });
        assert_eq!(t.rows_out_of("Extend(fwd)"), 11);
    }

    #[test]
    fn slow_query_log_is_a_bounded_ring() {
        let log = SlowQueryLog::new(1000, 2);
        assert!(!log.record("fast", 999, 0));
        assert!(log.record("q1", 1000, 1));
        assert!(log.record("q2", 2000, 2));
        assert!(log.record("q3", 3000, 3));
        let entries = log.entries();
        let queries: Vec<&str> = entries.iter().map(|e| e.query.as_str()).collect();
        assert_eq!(queries, vec!["q2", "q3"], "oldest entry evicted");
        assert_eq!(log.len(), 2);
        let json = log.render_json();
        assert_eq!(json.get("threshold_ns").and_then(Json::as_u64), Some(1000));
        let last = json.get("entries").and_then(Json::as_arr).unwrap().last().unwrap();
        assert_eq!(last.get("query").and_then(Json::as_str), Some("q3"));
    }

    #[test]
    fn slow_query_log_dedupes_by_trace_id() {
        let log = SlowQueryLog::new(1000, 4);
        assert!(log.record_traced("q1", 2000, 1, Some(7)));
        // Same trace reported again (sampled AND slow): updated in place.
        assert!(log.record_traced("q1", 2500, 1, Some(7)));
        assert_eq!(log.len(), 1, "one entry per trace id");
        assert_eq!(log.entries()[0].total_ns, 2500);
        assert_eq!(log.entries()[0].trace_id, Some(7));
        // Untraced entries never dedupe against each other.
        assert!(log.record_traced("q2", 3000, 2, None));
        assert!(log.record_traced("q2", 3000, 2, None));
        assert_eq!(log.len(), 3);
        let json = log.render_json().to_string();
        assert!(json.contains("\"trace_id\":7"), "{json}");
        assert!(json.contains("\"trace_id\":null"), "{json}");
    }

    #[test]
    fn render_mentions_anchors_operators_and_phases() {
        let mut p = QueryProfile { query: "q".into(), ..Default::default() };
        p.parse_ns = 1_500;
        p.total_ns = 2_000_000;
        let mut v = VarProfile { var: "P".into(), backend: "native".into(), ..Default::default() };
        v.anchors.push(AnchorCandidate { desc: "VNF()".into(), cost: 33.0, chosen: true });
        v.anchors.push(AnchorCandidate { desc: "Host()".into(), cost: 1100.0, chosen: false });
        v.trace.ops.push(OpStats {
            op: "Select".into(),
            detail: "VNF()".into(),
            rows_in: 2194,
            rows_out: 33,
            elapsed_ns: 120_000,
            depth: 0,
        });
        p.vars.push(v);
        let text = p.render();
        assert!(text.contains("parse 1.5µs"));
        assert!(text.contains("* VNF()"));
        assert!(text.contains("<- chosen"));
        assert!(text.contains("Select"));
        assert!(text.contains("rows_out=33"));
    }
}
