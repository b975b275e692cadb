//! Durable query log, workload capture, and planner estimate-vs-actual
//! feedback.
//!
//! Two pieces, all std-only:
//!
//! - [`QueryLog`] — an append-only JSONL log with bounded rotation. Every
//!   executed query becomes one [`QlogRecord`] line: text, normalized
//!   [`fingerprint`], plan summary (chosen anchor plus every candidate with
//!   its estimated cost), per-variable **estimated vs actual**
//!   cardinalities, phase timings, worker-thread count, a deterministic
//!   result digest, and the trace id. Records parse back losslessly
//!   ([`QlogRecord::parse`]) so a captured log can be replayed against a
//!   later build and digest-compared.
//! - [`PlanFeedback`] — the estimate-vs-actual surface distilled from a
//!   [`QueryProfile`]: for each range variable the planner's chosen anchor
//!   and its estimated cardinality next to the observed anchor-scan output,
//!   plus the join probe/build/emitted counts. [`VarFeedback::qerror`] and
//!   the *best-in-hindsight* anchor ([`VarFeedback::hindsight_anchor`])
//!   are what the statement table ([`crate::StmtStats`]) keeps per
//!   fingerprint.
//!
//! The overhead contract matches tracing: a disabled query log costs the
//! engine nothing — no clock reads, no hashing, no allocation.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::{parse_json, Json};
use crate::profile::QueryProfile;

// ---------------------------------------------------------------------
// Hashing: FNV-1a, shared by fingerprints and result digests
// ---------------------------------------------------------------------

/// FNV-1a 64-bit hasher (std's `DefaultHasher` is not stable across
/// releases; log digests must be comparable between builds).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------
// Query normalization and fingerprints
// ---------------------------------------------------------------------

/// Normalize a query text modulo literals and whitespace: predicate
/// literals (numbers and `'…'` strings) become `?`, whitespace collapses
/// to the minimum that keeps identifiers apart. Repetition bounds
/// (`{1,6}`) are structural — they change the plan — and are kept.
pub fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    let mut brace_depth = 0usize;
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                // String literal → `?` (terminating quote consumed).
                for n in chars.by_ref() {
                    if n == '\'' {
                        break;
                    }
                }
                out.push('?');
            }
            '{' => {
                brace_depth += 1;
                out.push(c);
            }
            '}' => {
                brace_depth = brace_depth.saturating_sub(1);
                out.push(c);
            }
            c if c.is_ascii_digit() => {
                // A digit continuing an identifier (`host1`) stays; a free
                // number is a literal unless it's a `{m,n}` bound.
                let prev_ident = out.chars().last().is_some_and(|p| p.is_ascii_alphanumeric() || p == '_');
                if prev_ident || brace_depth > 0 {
                    out.push(c);
                } else {
                    while chars.peek().is_some_and(|n| n.is_ascii_digit() || *n == '.') {
                        chars.next();
                    }
                    out.push('?');
                }
            }
            c if c.is_whitespace() => {
                while chars.peek().is_some_and(|n| n.is_whitespace()) {
                    chars.next();
                }
                // A single space survives only between word characters.
                let prev = out.chars().last();
                let next = chars.peek().copied();
                if prev.is_some_and(|p| p.is_ascii_alphanumeric() || p == '_' || p == '?')
                    && next.is_some_and(|n| n.is_ascii_alphanumeric() || n == '_')
                {
                    out.push(' ');
                }
            }
            c => out.push(c),
        }
    }
    out
}

/// Stable fingerprint of a query modulo literals and whitespace.
pub fn fingerprint(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&normalize(text));
    h.finish()
}

/// The q-error of a cardinality estimate: `max(est/actual, actual/est)`,
/// both sides clamped to ≥ 1 (the standard convention — a q-error of 1 is
/// a perfect estimate, 10 is an order of magnitude off either way).
pub fn qerror(est: f64, actual: u64) -> f64 {
    let est = if est.is_finite() { est.max(1.0) } else { 1.0 };
    let act = actual.max(1) as f64;
    (est / act).max(act / est)
}

// ---------------------------------------------------------------------
// Plan feedback: estimated vs actual, per operator
// ---------------------------------------------------------------------

/// Estimate-vs-actual feedback for one range variable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarFeedback {
    pub var: String,
    pub backend: String,
    /// Chosen anchor (empty for view-sourced variables, which have no plan).
    pub anchor: String,
    /// The planner's estimated anchor cardinality.
    pub est_rows: f64,
    /// Observed anchor-scan output (`Select` rows_out; backends without
    /// per-operator stats fall back to the pathway count).
    pub actual_rows: u64,
    pub pathways: u64,
    pub eval_ns: u64,
    /// Every anchor candidate the planner considered: `(desc, est cost)`.
    pub candidates: Vec<(String, f64)>,
}

impl VarFeedback {
    /// q-error of the chosen anchor's estimate.
    pub fn qerror(&self) -> f64 {
        qerror(self.est_rows, self.actual_rows)
    }

    /// The anchor the planner would pick knowing the chosen one's true
    /// cardinality: re-rank the candidates with the chosen estimate
    /// replaced by the observed count. Equal to [`VarFeedback::anchor`]
    /// when the choice was robust to the misestimate.
    pub fn hindsight_anchor(&self) -> String {
        let mut best: Option<(&str, f64)> = None;
        let mut chosen_seen = false;
        for (desc, cost) in &self.candidates {
            let cost = if !chosen_seen && *desc == self.anchor {
                chosen_seen = true;
                self.actual_rows.max(1) as f64
            } else {
                *cost
            };
            match best {
                Some((_, b)) if b <= cost => {}
                _ => best = Some((desc, cost)),
            }
        }
        best.map(|(d, _)| d.to_string()).unwrap_or_default()
    }
}

/// One engine join step's observed sizes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinFeedback {
    pub var: String,
    pub probe: u64,
    pub build: u64,
    pub emitted: u64,
}

/// The estimate-vs-actual surface of one executed query, distilled from
/// its [`QueryProfile`] (which the engine threads from `plan_rpe` through
/// the backend evaluators).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanFeedback {
    pub vars: Vec<VarFeedback>,
    pub joins: Vec<JoinFeedback>,
}

impl PlanFeedback {
    pub fn from_profile(p: &QueryProfile) -> PlanFeedback {
        let vars = p
            .vars
            .iter()
            .map(|v| {
                let chosen = v.anchors.iter().find(|a| a.chosen);
                let has_select = v.trace.ops.iter().any(|o| o.op == "Select");
                let select_rows: u64 = v.trace.ops.iter().filter(|o| o.op == "Select").map(|o| o.rows_out).sum();
                VarFeedback {
                    var: v.var.clone(),
                    backend: v.backend.clone(),
                    anchor: chosen.map(|a| a.desc.clone()).unwrap_or_default(),
                    est_rows: chosen.map(|a| a.cost).unwrap_or(0.0),
                    actual_rows: if has_select { select_rows } else { v.pathways },
                    pathways: v.pathways,
                    eval_ns: v.eval_ns,
                    candidates: v.anchors.iter().map(|a| (a.desc.clone(), a.cost)).collect(),
                }
            })
            .collect();
        let joins = p
            .joins
            .iter()
            .map(|j| JoinFeedback { var: j.var.clone(), probe: j.probe_rows, build: j.build_rows, emitted: j.emitted })
            .collect();
        PlanFeedback { vars, joins }
    }

    /// The worst (largest) per-variable q-error, if any variable carried
    /// an estimate.
    pub fn worst_var(&self) -> Option<&VarFeedback> {
        self.vars.iter().filter(|v| !v.candidates.is_empty()).max_by(|a, b| a.qerror().total_cmp(&b.qerror()))
    }
}

// ---------------------------------------------------------------------
// Qlog records: one JSONL line per executed query
// ---------------------------------------------------------------------

/// One durable query-log entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QlogRecord {
    /// Capture wall-clock time (Unix milliseconds; 0 when not stamped).
    pub ts_ms: u64,
    pub query: String,
    pub fingerprint: u64,
    pub trace_id: Option<u64>,
    /// Resolved evaluator worker threads at execution time.
    pub threads: u64,
    pub parse_ns: u64,
    pub plan_ns: u64,
    pub exec_ns: u64,
    pub total_ns: u64,
    pub rows: u64,
    /// Deterministic digest of the full result (0 for errors).
    pub digest: u64,
    pub error: Option<String>,
    pub feedback: PlanFeedback,
}

impl QlogRecord {
    /// Serialize as a single JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let vars = self
            .feedback
            .vars
            .iter()
            .map(|v| {
                let candidates =
                    v.candidates.iter().map(|(d, c)| Json::Arr(vec![d.as_str().into(), (*c).into()])).collect();
                Json::obj([
                    ("var", v.var.as_str().into()),
                    ("backend", v.backend.as_str().into()),
                    ("anchor", v.anchor.as_str().into()),
                    ("est", v.est_rows.into()),
                    ("actual", v.actual_rows.into()),
                    ("pathways", v.pathways.into()),
                    ("eval_ns", v.eval_ns.into()),
                    ("candidates", Json::Arr(candidates)),
                ])
            })
            .collect();
        let joins = self
            .feedback
            .joins
            .iter()
            .map(|j| {
                Json::obj([
                    ("var", j.var.as_str().into()),
                    ("probe", j.probe.into()),
                    ("build", j.build.into()),
                    ("emitted", j.emitted.into()),
                ])
            })
            .collect();
        Json::obj([
            ("ts_ms", self.ts_ms.into()),
            ("query", self.query.as_str().into()),
            ("fp", Json::hex(self.fingerprint)),
            ("trace", self.trace_id.into()),
            ("threads", self.threads.into()),
            ("parse_ns", self.parse_ns.into()),
            ("plan_ns", self.plan_ns.into()),
            ("exec_ns", self.exec_ns.into()),
            ("total_ns", self.total_ns.into()),
            ("rows", self.rows.into()),
            ("digest", Json::hex(self.digest)),
            ("error", self.error.as_deref().into()),
            ("vars", Json::Arr(vars)),
            ("joins", Json::Arr(joins)),
        ])
        .to_string()
    }

    /// Parse a JSONL line written by [`QlogRecord::to_json_line`] (or by
    /// any earlier layout carrying the same keys).
    pub fn parse(line: &str) -> Option<QlogRecord> {
        let obj = parse_json(line).ok()?;
        if !matches!(obj, Json::Obj(_)) {
            return None;
        }
        let num = |o: &Json, k: &str| o.get(k).and_then(Json::as_u64).unwrap_or(0);
        let text = |o: &Json, k: &str| o.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let hex =
            |k: &str| obj.get(k).and_then(Json::as_str).and_then(|s| u64::from_str_radix(s, 16).ok()).unwrap_or(0);
        let list = |k: &str| obj.get(k).and_then(Json::as_arr).unwrap_or(&[]);
        let vars = list("vars")
            .iter()
            .filter(|o| matches!(o, Json::Obj(_)))
            .map(|o| VarFeedback {
                var: text(o, "var"),
                backend: text(o, "backend"),
                anchor: text(o, "anchor"),
                est_rows: o.get("est").and_then(Json::as_f64).unwrap_or(0.0),
                actual_rows: num(o, "actual"),
                pathways: num(o, "pathways"),
                eval_ns: num(o, "eval_ns"),
                candidates: o
                    .get("candidates")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|c| {
                        let pair = c.as_arr()?;
                        Some((pair.first()?.as_str()?.to_string(), pair.get(1)?.as_f64()?))
                    })
                    .collect(),
            })
            .collect();
        let joins = list("joins")
            .iter()
            .filter(|o| matches!(o, Json::Obj(_)))
            .map(|o| JoinFeedback {
                var: text(o, "var"),
                probe: num(o, "probe"),
                build: num(o, "build"),
                emitted: num(o, "emitted"),
            })
            .collect();
        Some(QlogRecord {
            ts_ms: num(&obj, "ts_ms"),
            query: text(&obj, "query"),
            fingerprint: hex("fp"),
            trace_id: obj.get("trace").and_then(Json::as_u64),
            threads: num(&obj, "threads"),
            parse_ns: num(&obj, "parse_ns"),
            plan_ns: num(&obj, "plan_ns"),
            exec_ns: num(&obj, "exec_ns"),
            total_ns: num(&obj, "total_ns"),
            rows: num(&obj, "rows"),
            digest: hex("digest"),
            error: obj.get("error").and_then(Json::as_str).map(str::to_string),
            feedback: PlanFeedback { vars, joins },
        })
    }
}

// ---------------------------------------------------------------------
// The durable log: append-only JSONL with bounded rotation
// ---------------------------------------------------------------------

struct LogState {
    file: Option<File>,
    bytes: u64,
}

/// Append-only JSONL query log with size-bounded rotation: when the live
/// file exceeds `max_bytes` it is renamed to `<path>.1` (shifting older
/// generations up, dropping past `max_files`) and a fresh file is opened.
/// All methods take `&self`; the writer sits behind a mutex.
pub struct QueryLog {
    path: PathBuf,
    max_bytes: u64,
    max_files: usize,
    state: Mutex<LogState>,
    records: AtomicU64,
    rotations: AtomicU64,
}

impl QueryLog {
    /// Open (appending) or create the log file.
    pub fn open(path: impl AsRef<Path>, max_bytes: u64, max_files: usize) -> std::io::Result<QueryLog> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(QueryLog {
            path,
            max_bytes: max_bytes.max(1),
            max_files,
            state: Mutex::new(LogState { file: Some(file), bytes }),
            records: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle (not lines in the file — an
    /// opened log may carry earlier sessions).
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Bytes in the live (unrotated) file.
    pub fn bytes(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).bytes
    }

    fn rotated_path(&self, n: usize) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(format!(".{n}"));
        PathBuf::from(os)
    }

    /// Append one record. Write errors are swallowed (observability must
    /// never fail a query); rotation errors fall back to truncation.
    pub fn append(&self, rec: &QlogRecord) {
        let mut line = rec.to_json_line();
        line.push('\n');
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = state.file.as_mut() {
            if f.write_all(line.as_bytes()).is_ok() {
                state.bytes += line.len() as u64;
                self.records.fetch_add(1, Ordering::Relaxed);
            }
        }
        if state.bytes > self.max_bytes {
            self.rotate(&mut state);
        }
    }

    fn rotate(&self, state: &mut LogState) {
        state.file = None; // close before renaming
        if self.max_files == 0 {
            let _ = std::fs::remove_file(&self.path);
        } else {
            let _ = std::fs::remove_file(self.rotated_path(self.max_files));
            for i in (1..self.max_files).rev() {
                let _ = std::fs::rename(self.rotated_path(i), self.rotated_path(i + 1));
            }
            let _ = std::fs::rename(&self.path, self.rotated_path(1));
        }
        state.file = OpenOptions::new().create(true).append(true).truncate(false).open(&self.path).ok();
        state.bytes = 0;
        self.rotations.fetch_add(1, Ordering::Relaxed);
    }

    /// Read every record from a log file (live generation only). A torn
    /// trailing line — a crash mid-append — is skipped with a warning and
    /// counted; any other unparseable line is corruption and fails the
    /// read with [`std::io::ErrorKind::InvalidData`] naming the line, so
    /// replay never passes over a log it read only in part.
    pub fn read_records(path: impl AsRef<Path>) -> std::io::Result<Vec<QlogRecord>> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        let mut out = Vec::new();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match QlogRecord::parse(line) {
                Some(r) => out.push(r),
                None if i + 1 == lines.len() && !text.ends_with('\n') => {
                    // Unterminated final line: a partial append, not data
                    // corruption. Recover everything before it, and make
                    // the recovery observable (`nepal_qlog_torn_tail_total`
                    // plus a flight-recorder wide event) instead of
                    // warn-only.
                    crate::flight::note_qlog_torn_tail(i as u64 + 1);
                    eprintln!(
                        "warning: query log `{}` has a torn trailing line ({} bytes); skipping it",
                        path.display(),
                        line.len()
                    );
                }
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("query log `{}` line {}: unparseable record", path.display(), i + 1),
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Status fields for `/qlog.json`.
    pub fn status_json(&self) -> Json {
        Json::obj([
            ("path", self.path.display().to_string().into()),
            ("records", self.records().into()),
            ("bytes", self.bytes().into()),
            ("rotations", self.rotations().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_ignores_literals_and_whitespace() {
        let a = "Retrieve P From PATHS P Where P MATCHES VNF(vnf_id=17)->[Vertical()]{1,6}->Host()";
        let b = "Retrieve  P   From PATHS P Where P MATCHES VNF( vnf_id = 99 ) -> [Vertical()]{1,6} -> Host()";
        assert_eq!(normalize(a), normalize(b));
        assert_eq!(fingerprint(a), fingerprint(b));
        // String literals normalize too.
        assert_eq!(
            fingerprint("Select x From PATHS P Where source(P).name = 'a'"),
            fingerprint("Select x From PATHS P Where source(P).name = 'zz'")
        );
    }

    #[test]
    fn normalization_keeps_structure() {
        // Repetition bounds are structural, not literals.
        assert_ne!(
            fingerprint("VNF()->[V()]{1,6}->Host(host_id=1)"),
            fingerprint("VNF()->[V()]{1,4}->Host(host_id=1)")
        );
        // Different classes differ.
        assert_ne!(fingerprint("VNF(vnf_id=1)"), fingerprint("Host(host_id=1)"));
        // Identifier-embedded digits survive.
        assert_eq!(normalize("T3()->T1()"), "T3()->T1()");
    }

    #[test]
    fn qerror_is_symmetric_and_clamped() {
        assert_eq!(qerror(10.0, 10), 1.0);
        assert_eq!(qerror(100.0, 10), 10.0);
        assert_eq!(qerror(10.0, 100), 10.0);
        assert_eq!(qerror(0.0, 0), 1.0, "both sides clamp to 1");
        assert_eq!(qerror(f64::NAN, 5), 5.0);
    }

    fn sample_record() -> QlogRecord {
        QlogRecord {
            ts_ms: 1700000000123,
            query: "Retrieve P From PATHS P Where P MATCHES VNF()->Host(host_id=3)".into(),
            fingerprint: fingerprint("Retrieve P From PATHS P Where P MATCHES VNF()->Host(host_id=3)"),
            trace_id: Some(42),
            threads: 4,
            parse_ns: 10,
            plan_ns: 20,
            exec_ns: 30,
            total_ns: 70,
            rows: 5,
            digest: 0xdead_beef_0123_4567,
            error: None,
            feedback: PlanFeedback {
                vars: vec![VarFeedback {
                    var: "P".into(),
                    backend: "native".into(),
                    anchor: "VNF()".into(),
                    est_rows: 33.0,
                    actual_rows: 66,
                    pathways: 5,
                    eval_ns: 25,
                    candidates: vec![("VNF()".into(), 33.0), ("Host(host_id=3)".into(), 1.0)],
                }],
                joins: vec![JoinFeedback { var: "P".into(), probe: 1, build: 5, emitted: 5 }],
            },
        }
    }

    #[test]
    fn read_records_skips_torn_trailing_line() {
        let dir = std::env::temp_dir().join(format!("nepal-qlog-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("qlog.jsonl");
        let rec = sample_record();
        let full = format!("{}\n{}\n", rec.to_json_line(), rec.to_json_line());
        // Chop into the middle of the second record, no trailing newline —
        // exactly what a crash mid-append leaves behind.
        let torn = &full[..full.len() - 25];
        std::fs::write(&path, torn).unwrap();
        let recs = QueryLog::read_records(&path).unwrap();
        assert_eq!(recs.len(), 1, "the intact record before the tear survives");
        assert_eq!(recs[0], rec);
        // A fully terminated log still reads both.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(QueryLog::read_records(&path).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_records_rejects_a_corrupt_interior_line() {
        let dir = std::env::temp_dir().join(format!("nepal-qlog-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("qlog.jsonl");
        let line = sample_record().to_json_line();
        // A terminated garbage line between two intact records is not a
        // torn tail: the read fails rather than replaying two of three.
        std::fs::write(&path, format!("{line}\n{{\"ts_ms\":1,\"qu\n{line}\n")).unwrap();
        let err = QueryLog::read_records(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = sample_record();
        let line = rec.to_json_line();
        assert!(!line.contains('\n'));
        let back = QlogRecord::parse(&line).expect("parses");
        assert_eq!(back, rec);
        // Error records round-trip too.
        let err = QlogRecord {
            query: "Retrieve P From".into(),
            fingerprint: fingerprint("Retrieve P From"),
            threads: 1,
            total_ns: 99,
            error: Some("syntax error: \"oops\"".into()),
            ..QlogRecord::default()
        };
        let back = QlogRecord::parse(&err.to_json_line()).unwrap();
        assert_eq!(back, err);
        assert_eq!(back.error.as_deref(), Some("syntax error: \"oops\""));
    }

    #[test]
    fn hindsight_anchor_reranks_with_the_observed_cardinality() {
        let rec = sample_record();
        let v = &rec.feedback.vars[0];
        // Chosen VNF() estimated 33 but produced 66; Host(host_id=3) was
        // estimated at 1 — in hindsight the unique host wins.
        assert_eq!(v.qerror(), 2.0);
        assert_eq!(v.hindsight_anchor(), "Host(host_id=3)");
        // A robust choice keeps its anchor.
        let mut v2 = v.clone();
        v2.actual_rows = 33;
        v2.candidates = vec![("VNF()".into(), 33.0), ("Host()".into(), 200.0)];
        assert_eq!(v2.hindsight_anchor(), "VNF()");
    }

    #[test]
    fn query_log_rotates_at_the_size_bound() {
        let dir = std::env::temp_dir().join(format!("nepal-qlog-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = QueryLog::open(&path, 512, 2).unwrap();
        let rec = sample_record();
        let line_len = rec.to_json_line().len() as u64 + 1;
        let writes = (512 / line_len + 2) * 3;
        for _ in 0..writes {
            log.append(&rec);
        }
        assert_eq!(log.records(), writes);
        assert!(log.rotations() >= 2, "rotated at least twice: {}", log.rotations());
        assert!(log.bytes() <= 512 + line_len, "live file stays bounded");
        // Generations exist and stay within the retention bound.
        assert!(path.exists());
        assert!(dir.join("q.jsonl.1").exists());
        assert!(!dir.join("q.jsonl.3").exists(), "generation 3 never created (max_files = 2)");
        // Every retained line still parses.
        let records = QueryLog::read_records(&path).unwrap();
        assert!(records.iter().all(|r| r.fingerprint == rec.fingerprint));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":"x\"y\u0041","c":{"d":null,"e":true}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-3.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"yA"));
        assert_eq!(v.get("c").and_then(|c| c.get("e")), Some(&Json::Bool(true)));
        assert!(parse_json("{broken").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
        // A record line is an object: anything else is not a record.
        assert!(QlogRecord::parse("[1,2]").is_none());
    }
}
