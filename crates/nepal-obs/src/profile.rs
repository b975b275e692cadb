//! Query profiles: the trace a profiled execution leaves behind.
//!
//! A [`QueryProfile`] is assembled by the engine and filled in by the
//! backends through [`ExecTrace`] — a plain collector the evaluators push
//! [`OpStats`] into, one per §5 operator instance (`Select`, `Extend`
//! forward/backward, `Union`, plus backend-specific operators such as
//! relational scans or Gremlin `ExtendBlock` rounds). Profiling is
//! strictly opt-in: the untraced paths pass `None` and skip every clock
//! read.

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
