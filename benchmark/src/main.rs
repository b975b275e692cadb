//! The Nepal benchmark. Run from the repository root.
//!
//! ```text
//! nepal-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's form)
//! nepal-benchmark [--seed N] [--seconds S] [--runs R] [--out DIR]    every workload, untraced + traced
//! nepal-benchmark --smoke                                            toy tier, 1 s windows, checks only
//! nepal-benchmark repeat [--seed N] [--seconds S]                    two full sets, must agree within bounds
//! nepal-benchmark compare A B                                        verdict per (workload, metric)
//! ```
//!
//! See `benchmark/README.md` for metrics, workloads and the reasons for both.

mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use layers::{parse_json, Json, Res};
use report::{Header, Series, WorkloadResult};
use workloads::SPECS;

/// Default measurement window; equals `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
    bless: bool,
}

fn parse_args() -> Res<Args> {
    let mut a = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: report::EXPECTED_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = Some(value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => a.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => a.smoke = true,
            "--bless" => a.bless = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if a.command.is_none() => a.command = Some(arg),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 1.0 } else { DEFAULT_SECONDS })
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The driver's form: one workload in this process; the last line of
/// standard output is the result object, everything else goes to stderr.
fn single(a: &Args, name: &str) -> Res<bool> {
    let spec = workloads::spec(name).ok_or(format!("unknown workload {name}"))?;
    let cfg = run::Config { spec, seed: a.seed, seconds: a.seconds(), trace: a.trace, smoke: a.smoke };
    eprintln!(
        "{name}: seed={} window={}s trace={} tier={} nproc={} eval_threads={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if a.smoke { "toy" } else { spec.tier.name() },
        nproc(),
        layers::default_threads()
    );
    let mut out = run::run(&cfg)?;
    for note in &out.notes {
        eprintln!("{note}");
    }
    if !a.smoke && a.seed == report::EXPECTED_SEED && report::matches_expected(name, &out.pass) == Some(false) {
        eprintln!("  output differs from benchmark/expected/seed{}.json: {:?}", a.seed, out.pass);
        out.failed += 1;
    }
    for (metric, (value, unit)) in &out.metrics {
        eprintln!("  {metric:<32} {value:>16.4} {unit}");
    }
    eprintln!("  attempted={} failed={}", out.attempted, out.failed);
    let metrics = out
        .metrics
        .iter()
        .map(|(k, (v, unit))| {
            (k.to_string(), Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::Str(unit.to_string()))]))
        })
        .collect();
    println!("{}", Json::obj(vec![("pass", out.pass.to_json())]));
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(out.failed == 0)),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(out.failed == 0)
}

/// One child run: its `pass` object and its result object.
fn child(a: &Args, workload: &str, seed: u64, trace: bool) -> Res<(Json, Json)> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &a.seconds().to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    // Each workload gets a process of its own so peak RSS is per workload.
    let out = cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| parse_json(l).ok());
    let pass = lines.next().and_then(|l| parse_json(l).ok()).and_then(|j| j.get("pass").cloned());
    match (pass, result) {
        (Some(pass), Some(result)) => Ok((pass, result)),
        _ => Err(format!("{workload} (seed {seed}, trace {}): no result, exit {}", u8::from(trace), out.status)),
    }
}

fn fold_metrics(into: &mut BTreeMap<String, Series>, result: &Json) {
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            let series = into.entry(name.clone()).or_insert(Series { unit, values: Vec::new() });
            series.values.push(m.get("value").and_then(Json::as_f64).unwrap_or(0.0));
        }
    }
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Every workload, untraced then traced, `runs` times with seeds `seed`,
/// `seed + 1`, …; writes one result file per workload into `out` and prints
/// every metric by name with its unit. Returns whether all outputs checked.
fn all(a: &Args, out: &Path) -> Res<bool> {
    let header =
        Header { seconds: a.seconds(), nproc: nproc(), eval_threads: layers::default_threads(), commit: git_commit() };
    println!(
        "nepal-benchmark: nproc={} eval_threads={} window={}s seeds={}..{} commit={}",
        header.nproc,
        header.eval_threads,
        header.seconds,
        a.seed,
        a.seed + a.runs - 1,
        header.commit
    );
    if a.bless {
        report::clear_expected();
    }
    let mut ok = true;
    let mut passes = BTreeMap::new();
    for spec in &SPECS {
        let mut r = WorkloadResult::default();
        for seed in a.seed..a.seed + a.runs {
            r.seeds.push(seed);
            for trace in [false, true] {
                let (pass, result) = child(a, spec.name, seed, trace)?;
                let count = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
                ok &= count("failed") == 0;
                if trace {
                    fold_metrics(&mut r.per_layer, &result);
                } else {
                    r.attempted.push(count("attempted"));
                    r.failed.push(count("failed"));
                    fold_metrics(&mut r.end_to_end, &result);
                    if seed == report::EXPECTED_SEED {
                        passes.insert(spec.name.to_string(), pass);
                    }
                }
            }
        }
        println!("\n{}  ({})", spec.name, spec.why);
        println!("  attempted={:?} failed={:?}", r.attempted, r.failed);
        for (group, label) in [(&r.end_to_end, "end-to-end"), (&r.per_layer, "per-layer")] {
            for (name, s) in group {
                let spread = if s.values.len() > 1 {
                    format!("  iqr={:.1}%", 100.0 * stats::iqr_share(&s.values))
                } else {
                    String::new()
                };
                println!("  {label:<10} {name:<32} {:>16.4} {}{spread}", stats::median(&s.values), s.unit);
            }
        }
        report::write_json_file(&out.join(format!("{}.json", spec.name)), &r.to_json(spec.name, &header))?;
    }
    if a.bless && !a.smoke && passes.len() == SPECS.len() {
        report::write_expected(&passes)?;
        println!("\nwrote benchmark/expected/seed{}.json", report::EXPECTED_SEED);
    }
    println!(
        "\nresult files: {}/<workload>.json   outputs {}",
        out.display(),
        if ok { "all correct" } else { "FAILED a check" }
    );
    Ok(ok)
}

fn names() -> Vec<&'static str> {
    SPECS.iter().map(|s| s.name).collect()
}

fn dispatch() -> Res<bool> {
    let a = parse_args()?;
    let default_out = || run::out_dir().map(|d| d.join("result"));
    match (a.command.as_deref(), &a.workload) {
        (None, Some(name)) => single(&a, name),
        (None, None) => all(&a, &a.out.clone().map_or_else(default_out, Ok)?),
        (Some("repeat"), _) => {
            let dir = run::out_dir()?;
            let (first, second) = (dir.join("repeat.a"), dir.join("repeat.b"));
            let ok = all(&a, &first)? & all(&a, &second)?;
            let (table, outside) = report::compare(&first, &second, &names())?;
            println!("\n{table}\n{outside} end-to-end rows outside their bound");
            Ok(ok && outside == 0)
        }
        (Some("compare"), _) => {
            let [base, new] = a.positional.as_slice() else {
                return Err("compare needs two result directories".into());
            };
            let (table, _) = report::compare(Path::new(base), Path::new(new), &names())?;
            println!("{table}");
            Ok(true)
        }
        (Some(other), _) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nepal-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` repeats names the code also holds; they must agree.
    #[test]
    fn benchmark_json_matches_the_code() {
        let j = report::read_json(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))).unwrap();
        let list = |key: &str, field: &str| -> Vec<String> {
            let items = j.get(key).and_then(Json::as_arr).unwrap();
            items.iter().map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string()).collect()
        };
        assert_eq!(list("workloads", "name"), names());
        assert_eq!(list("workloads", "why"), SPECS.iter().map(|s| s.why).collect::<Vec<_>>());
        assert_eq!(list("per_layer", "name"), run::PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
        assert_eq!(list("per_layer", "unit"), run::PER_LAYER.iter().map(|m| m.1).collect::<Vec<_>>());
        assert_eq!(j.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    }

    /// The smoke run as a test: every workload, untraced and traced, at
    /// the toy tier must finish with every output check passing and every
    /// declared metric present.
    #[test]
    fn smoke_runs_every_workload_clean() {
        // Output paths are relative to the repository root; cargo runs tests
        // from the package directory.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("repository root");
        for spec in &SPECS {
            for trace in [false, true] {
                let cfg = run::Config { spec, seed: 7, seconds: 0.3, trace, smoke: true };
                let out = run::run(&cfg).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", spec.name));
                assert!(out.attempted > 0, "{}", spec.name);
                assert_eq!(out.failed, 0, "{} trace={trace}", spec.name);
                if trace {
                    assert_eq!(out.metrics.len(), run::PER_LAYER.len());
                } else {
                    let declared = report::declared_metrics().unwrap();
                    assert_eq!(out.metrics.len(), declared.len());
                    for m in &declared {
                        assert!(out.metrics[m.name.as_str()].0 > 0.0, "{} {}", spec.name, m.name);
                    }
                }
            }
        }
    }
}
