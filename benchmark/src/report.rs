//! Result sets on disk (one JSON file per workload), the comparison of two
//! of them under the bounds `BENCHMARK.json` fixes, and the expected-output
//! file for seed 42.

use std::collections::BTreeMap;
use std::path::Path;

use crate::layers::{parse_json, Json, Res};
use crate::run::PassSummary;
use crate::stats::{self, Direction, Verdict};

pub fn read_json(path: &Path) -> Res<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write_json_file(path: &Path, j: &Json) -> Res<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{j}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub better: Direction,
    pub bound: f64,
}

/// The `end_to_end` metrics of `BENCHMARK.json` in the working directory.
pub fn declared_metrics() -> Res<Vec<Declared>> {
    let j = read_json(Path::new("BENCHMARK.json"))?;
    let list = j.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                better: Direction::parse(m.get("better")?.as_str()?)?,
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Values of one metric across the runs of a result set.
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
}

impl Series {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("unit", Json::Str(self.unit.clone())),
            ("values", Json::Arr(self.values.iter().map(|&v| Json::Num(v)).collect())),
            ("median", Json::Num(stats::median(&self.values))),
            ("iqr_share", Json::Num(stats::iqr_share(&self.values))),
        ])
    }
}

/// Everything measured for one workload: one value per run and metric.
#[derive(Default)]
pub struct WorkloadResult {
    pub seeds: Vec<u64>,
    pub attempted: Vec<u64>,
    pub failed: Vec<u64>,
    pub end_to_end: BTreeMap<String, Series>,
    pub per_layer: BTreeMap<String, Series>,
}

/// Host and build facts stamped on every result file.
pub struct Header {
    pub seconds: f64,
    pub nproc: usize,
    pub eval_threads: usize,
    pub commit: String,
}

impl WorkloadResult {
    pub fn to_json(&self, workload: &str, h: &Header) -> Json {
        let nums = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::Num(x as f64)).collect());
        let group = |g: &BTreeMap<String, Series>| Json::Obj(g.iter().map(|(k, s)| (k.clone(), s.to_json())).collect());
        Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("seeds", nums(&self.seeds)),
            ("seconds", Json::Num(h.seconds)),
            ("nproc", Json::Num(h.nproc as f64)),
            ("eval_threads", Json::Num(h.eval_threads as f64)),
            ("commit", Json::Str(h.commit.clone())),
            ("attempted", nums(&self.attempted)),
            ("failed", nums(&self.failed)),
            ("end_to_end", group(&self.end_to_end)),
            ("per_layer", group(&self.per_layer)),
        ])
    }
}

/// `(median, iqr_share, unit)` of one metric in a result file.
fn stat(file: &Json, group: &str, metric: &str) -> Option<(f64, f64, String)> {
    let m = file.get(group)?.get(metric)?;
    Some((m.get("median")?.as_f64()?, m.get("iqr_share")?.as_f64()?, m.get("unit")?.as_str()?.to_string()))
}

/// Compare result set `b` against base `a`: one row per (workload, metric).
/// Returns the printed table and how many end-to-end rows are not
/// within-bound.
pub fn compare(a: &Path, b: &Path, workloads: &[&str]) -> Res<(String, usize)> {
    let declared = declared_metrics()?;
    let mut out = format!(
        "{:<22} {:<30} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    let mut outside = 0;
    for w in workloads {
        let (fa, fb) = (read_json(&a.join(format!("{w}.json")))?, read_json(&b.join(format!("{w}.json")))?);
        for d in &declared {
            let (Some((va, sa, unit)), Some((vb, sb, _))) =
                (stat(&fa, "end_to_end", &d.name), stat(&fb, "end_to_end", &d.name))
            else {
                return Err(format!("{w}: {} missing from a result set", d.name));
            };
            let spread = sa.max(sb);
            let verdict = stats::judge(va, vb, d.better, d.bound, spread);
            if verdict != Verdict::Within {
                outside += 1;
            }
            out.push_str(&format!(
                "{w:<22} {:<30} {va:>14.4} {vb:>14.4} {:>8.3} {:>6.1}% {:>6.1}%  {}\n",
                format!("{} [{unit}]", d.name),
                vb / va,
                d.bound * 100.0,
                spread * 100.0,
                verdict.name()
            ));
        }
        // Per-layer metrics carry no bound: ratios only, for attribution.
        if let Some(Json::Obj(layers)) = fa.get("per_layer") {
            for name in layers.keys() {
                if let (Some((va, _, unit)), Some((vb, _, _))) =
                    (stat(&fa, "per_layer", name), stat(&fb, "per_layer", name))
                {
                    if va != 0.0 || vb != 0.0 {
                        out.push_str(&format!(
                            "{w:<22} {:<30} {va:>14.4} {vb:>14.4} {:>8.3}\n",
                            format!("{name} [{unit}]"),
                            vb / va
                        ));
                    }
                }
            }
        }
    }
    Ok((out, outside))
}

// ---- expected outputs -------------------------------------------------------------

pub const EXPECTED_SEED: u64 = 42;

fn expected_path() -> std::path::PathBuf {
    Path::new("benchmark").join("expected").join(format!("seed{EXPECTED_SEED}.json"))
}

impl PassSummary {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("family_ops", Json::Obj(self.family_ops.iter().map(|(f, n)| (f.clone(), Json::Num(*n as f64))).collect())),
            ("rows", Json::Num(self.rows as f64)),
            // 64-bit digests do not survive a JSON number.
            ("digest", Json::Str(format!("{:016x}", self.digest))),
        ])
    }
}

/// Does `pass` match the committed expectation for `workload`? `None` when
/// no expectation is on file for it.
pub fn matches_expected(workload: &str, pass: &PassSummary) -> Option<bool> {
    let file = read_json(&expected_path()).ok()?;
    Some(file.get(workload)? == &pass.to_json())
}

/// Forget the committed expectation (before a run that rewrites it).
pub fn clear_expected() {
    let _ = std::fs::remove_file(expected_path());
}

pub fn write_expected(passes: &BTreeMap<String, Json>) -> Res<()> {
    write_json_file(&expected_path(), &Json::Obj(passes.clone()))
}
