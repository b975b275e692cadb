//! Durable query log acceptance tests: records written through the full
//! engine round-trip from JSONL with stable result digests, the
//! `/qlog.json` telemetry route serves the log's status once attached
//! while `/top.json?sort=qerror` ranks planner misestimates, the
//! `planner-qerror` alert fires on a misestimate and resolves once a
//! window holds only good estimates, and the query fingerprint is
//! invariant under literal and whitespace changes (checked on a corpus
//! and property-tested over generated RPE shapes).

use std::sync::Arc;

use nepal::core::{digest_result, engine_over, Engine, StandardSlos};
use nepal::graph::TemporalGraph;
use nepal::obs::qlog::JoinFeedback;
use nepal::obs::{fingerprint, parse_json, Json, PlanFeedback, QlogRecord, QueryLog, Telemetry, VarFeedback};
use nepal::schema::dsl::parse_schema;
use nepal::schema::Value;
use proptest::prelude::*;

fn demo_graph() -> Arc<TemporalGraph> {
    let schema = Arc::new(
        parse_schema(
            r#"
            node VM { vm_id: int unique }
            node Host { host_id: int unique }
            node Ghost { ghost_id: int unique }
            edge HostedOn { }
            allow HostedOn (VM -> Host)
            hint Ghost 100000
            "#,
        )
        .unwrap(),
    );
    let vm_class = schema.class_by_name("VM").unwrap();
    let host_class = schema.class_by_name("Host").unwrap();
    let hosted = schema.class_by_name("HostedOn").unwrap();
    let mut g = TemporalGraph::new(schema);
    let host = g.insert_node(host_class, vec![Value::Int(7)], 0).unwrap();
    for i in 0..4 {
        let vm = g.insert_node(vm_class, vec![Value::Int(50 + i)], 0).unwrap();
        g.insert_edge(hosted, vm, host, vec![], 0).unwrap();
    }
    Arc::new(g)
}

fn demo_engine() -> Engine {
    engine_over(demo_graph())
}

const OK_QUERY: &str = "Retrieve P From PATHS P Where P MATCHES VM()->HostedOn()->Host(host_id=7)";
const AGG_QUERY: &str = "Select count(P) From PATHS P Where P MATCHES VM()->HostedOn()->Host()";
const BAD_QUERY: &str = "Retrieve P From PATHS P Where P MATCHES Phantom()->HostedOn()->Host()";
/// An empty class hinted at 100 000 rows: the planner estimates 100 000
/// anchor rows and observes none.
const GHOST_QUERY: &str = "Retrieve P From PATHS P Where P MATCHES Ghost()";

/// Queries run with the qlog enabled land in the JSONL file, round-trip
/// through the parser, and carry digests that a fresh engine over the
/// same graph reproduces exactly.
#[test]
fn qlog_records_roundtrip_with_reproducible_digests() {
    let dir = std::env::temp_dir().join(format!("nepal-qlog-facade-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("qlog.jsonl");
    let path = path.to_str().unwrap();
    let _ = std::fs::remove_file(path);

    let mut engine = demo_engine();
    engine.enable_qlog(path, 1 << 20, 2).unwrap();
    assert_eq!(engine.query(OK_QUERY).unwrap().rows.len(), 4);
    assert_eq!(engine.query(AGG_QUERY).unwrap().rows.len(), 1);
    assert!(engine.query(BAD_QUERY).is_err());
    engine.disable_qlog();

    let records = QueryLog::read_records(path).unwrap();
    assert_eq!(records.len(), 3, "one record per query, errors included");
    assert_eq!(records[0].query, OK_QUERY);
    assert_eq!(records[0].rows, 4);
    assert!(records[0].error.is_none());
    assert!(records[0].total_ns > 0);
    assert!(records[0].ts_ms > 0, "wall-clock stamped while qlog on");
    assert!(!records[0].feedback.vars.is_empty(), "plan feedback captured");
    assert!(records[2].error.is_some(), "failed query recorded with its error");

    // A fresh engine over the same graph must reproduce each digest.
    let mut fresh = demo_engine();
    for rec in records.iter().filter(|r| r.error.is_none()) {
        let (result, _) = fresh.query_profiled(&rec.query).unwrap();
        assert_eq!(digest_result(&result), rec.digest, "digest drift for {}", rec.query);
        assert_eq!(result.rows.len() as u64, rec.rows);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/qlog.json` 404s until the log is attached, then serves its status;
/// the planner feedback of the same queries is a column of the statement
/// table, failed queries included.
#[test]
fn telemetry_qlog_routes_serve_feedback_after_queries() {
    let dir = std::env::temp_dir().join(format!("nepal-qlog-http-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("qlog.jsonl");
    let path = path.to_str().unwrap();
    let _ = std::fs::remove_file(path);

    let mut engine = demo_engine();
    let telemetry = Telemetry::new(engine.metrics.clone(), engine.tracer.clone());
    let (status, _, _) = telemetry.handle("/qlog.json");
    assert_eq!(status, 404, "route 404s before attachment");

    engine.enable_qlog(path, 1 << 20, 2).unwrap();
    telemetry.set_stmt(engine.enable_stmt(8));
    engine.query(OK_QUERY).unwrap();
    telemetry.set_qlog(engine.qlog.clone());

    let (status, _, body) = telemetry.handle("/qlog.json");
    assert_eq!(status, 200);
    assert!(body.contains("\"enabled\":true"), "{body}");
    assert!(body.contains("\"records\":1"), "{body}");
    assert!(!body.contains(OK_QUERY), "the log's status only: {body}");
    let row = top_rows(&telemetry, "qerror").into_iter().next().unwrap();
    assert_eq!(row.get("query").and_then(Json::as_str), Some(OK_QUERY), "{row}");
    assert_eq!(row.get("estimated").and_then(Json::as_u64), Some(1), "{row}");

    // A failed query reaches the table and the q-error metrics whether or
    // not the log is on; its q-error fields stay empty.
    engine.disable_qlog();
    assert!(engine.query(BAD_QUERY).is_err());
    assert_eq!(engine.metrics.counter_total("nepal_qlog_records_total"), Some(2));
    let bad = top_rows(&telemetry, "qerror").into_iter().find(|r| r.get("errors").and_then(Json::as_u64) == Some(1));
    let bad = bad.expect("the failed query has a row");
    assert_eq!(bad.get("max_qerror"), Some(&Json::Null), "{bad}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rows of `/top.json?sort=<sort>`, in rank order.
fn top_rows(telemetry: &Telemetry, sort: &str) -> Vec<Json> {
    let (status, _, body) = telemetry.handle(&format!("/top.json?sort={sort}"));
    assert_eq!(status, 200, "{body}");
    let doc = parse_json(&body).unwrap();
    assert_eq!(doc.get("sort").and_then(Json::as_str), Some(sort), "{body}");
    doc.get("statements").and_then(Json::as_arr).unwrap().to_vec()
}

/// `/top.json?sort=qerror` ranks the misestimated fingerprint first and
/// carries its worst q-error with the chosen and hindsight anchors; the
/// well-estimated fingerprint follows.
#[test]
fn top_by_qerror_ranks_the_misestimated_fingerprint_first() {
    let mut engine = demo_engine();
    let telemetry = Telemetry::new(engine.metrics.clone(), engine.tracer.clone());
    telemetry.set_stmt(engine.enable_stmt(8));
    engine.query(OK_QUERY).unwrap();
    assert!(engine.query(GHOST_QUERY).unwrap().rows.is_empty());
    engine.query(OK_QUERY).unwrap();

    let rows = top_rows(&telemetry, "qerror");
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or_else(|| panic!("{k} in {r}"));
    let text = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).unwrap_or_else(|| panic!("{k} in {r}")).to_string();
    assert_eq!(text(&rows[0], "query"), GHOST_QUERY);
    assert_eq!(num(&rows[0], "max_qerror"), 100_000.0);
    assert_eq!((num(&rows[0], "last_est"), num(&rows[0], "last_actual")), (100_000.0, 0.0));
    assert_eq!(text(&rows[0], "anchor"), "Ghost()");
    assert_eq!(text(&rows[0], "hindsight_anchor"), "Ghost()", "the only candidate stays chosen");
    assert_eq!(text(&rows[1], "query"), OK_QUERY);
    assert_eq!(num(&rows[1], "calls"), 2.0);
    assert!(num(&rows[1], "max_qerror") < 2.0, "{}", rows[1]);
}

/// The `planner-qerror` SLO reads a window of the q-error histogram: one
/// misestimate fires it and turns `/healthz` to 503; once a window holds
/// only well-estimated queries it resolves and `/healthz` answers 200.
#[test]
fn planner_qerror_alert_fires_then_resolves() {
    let mut engine = demo_engine();
    let telemetry = Telemetry::new(engine.metrics.clone(), engine.tracer.clone());
    telemetry.set_slo(engine.install_standard_slos(&StandardSlos::default()));
    // `/healthz`'s status code and the `planner-qerror` state it reports.
    let health = || {
        let (status, _, body) = telemetry.handle("/healthz");
        let doc = parse_json(&body).unwrap();
        let rules = doc.get("alerts").and_then(|a| a.get("rules")).and_then(Json::as_arr).unwrap();
        let rule = rules.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("planner-qerror")).unwrap();
        (status, rule.get("state").and_then(Json::as_str).unwrap().to_string())
    };
    assert_eq!(health(), (200, "ok".to_string()));

    engine.query_profiled(GHOST_QUERY).unwrap();
    assert_eq!(health(), (503, "firing".to_string()), "a 100000x misestimate fires the alert");
    for _ in 0..20 {
        engine.query_profiled(OK_QUERY).unwrap();
    }
    assert_eq!(health(), (200, "resolved".to_string()), "a window of good estimates resolves it");
}

/// Rotation boundary: a record whose line lands exactly on the size
/// threshold is never split — rotation only ever moves whole files, so
/// every generation holds complete JSONL lines and a replay across all
/// generations sees every record exactly once, in order.
#[test]
fn rotation_never_splits_a_record_and_replay_sees_all_generations() {
    use nepal::obs::{PlanFeedback, QlogRecord};

    let dir = std::env::temp_dir().join(format!("nepal-qlog-rotate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("qlog.jsonl");
    let _ = std::fs::remove_file(&path);

    let rec = |i: usize| QlogRecord {
        ts_ms: 1000,
        query: format!("Retrieve P From PATHS P Where P MATCHES VM(vm_id={i})"),
        fingerprint: 7,
        trace_id: None,
        threads: 1,
        parse_ns: 10,
        plan_ns: 10,
        exec_ns: 10,
        total_ns: 30,
        rows: 1,
        digest: 9,
        error: None,
        feedback: PlanFeedback::default(),
    };
    // All single-digit ids → identical line lengths.
    let line_len = (rec(0).to_json_line().len() + 1) as u64;

    // Capacity of exactly three lines per generation.
    let log = QueryLog::open(&path, 3 * line_len, 2).unwrap();
    for i in 0..3 {
        log.append(&rec(i));
    }
    // The third record ends exactly at the threshold: no rotation, and the
    // live file holds three whole records.
    assert_eq!(log.rotations(), 0, "bytes == max must not rotate");
    assert_eq!(log.bytes(), 3 * line_len);
    assert_eq!(QueryLog::read_records(&path).unwrap().len(), 3);

    // Push through two rotations (rotation fires on the append that
    // crosses the bound, after the record is fully written).
    for i in 3..10 {
        log.append(&rec(i));
    }
    assert_eq!(log.rotations(), 2);
    assert_eq!(log.records(), 10);

    // Every generation holds only whole lines (every line parses), and
    // the oldest-to-newest concatenation replays all ten records in order.
    let mut replayed = Vec::new();
    for gen in [Some(2), Some(1), None] {
        let gen_path = match gen {
            Some(n) => dir.join(format!("qlog.jsonl.{n}")),
            None => path.clone(),
        };
        let text = std::fs::read_to_string(&gen_path).unwrap();
        let parsed = QueryLog::read_records(&gen_path).unwrap();
        assert_eq!(parsed.len(), text.lines().count(), "unparseable (split?) line in {}", gen_path.display());
        assert!(text.ends_with('\n'), "generation must end on a record boundary");
        replayed.extend(parsed);
    }
    assert_eq!(replayed.len(), 10, "replay across generations sees every record");
    for (i, r) in replayed.iter().enumerate() {
        assert_eq!(r.query, rec(i).query, "order preserved across rotation");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Query logs captured before records were written through the shared
/// JSON writer (keys in field order, estimates rounded to three decimals,
/// an explicit `"error":null`) still parse to the same records, so old
/// captures keep replaying.
#[test]
fn qlog_lines_in_the_earlier_layout_still_parse() {
    let ok = r#"{"ts_ms":1700000000123,"query":"Retrieve P From PATHS P Where P MATCHES VM()->HostedOn()->Host(host_id=7)","fp":"0123456789abcdef","trace":42,"threads":2,"parse_ns":1200,"plan_ns":3400,"exec_ns":56000,"total_ns":61000,"rows":4,"digest":"fedcba9876543210","error":null,"vars":[{"var":"P","backend":"native","anchor":"Host(host_id=7)","est":1,"actual":1,"pathways":4,"eval_ns":50000,"candidates":[["Host(host_id=7)",1],["VM()",4.333]]}],"joins":[{"var":"Q","probe":4,"build":2,"emitted":3}]}"#;
    let expected = QlogRecord {
        ts_ms: 1_700_000_000_123,
        query: OK_QUERY.into(),
        fingerprint: 0x0123_4567_89ab_cdef,
        trace_id: Some(42),
        threads: 2,
        parse_ns: 1200,
        plan_ns: 3400,
        exec_ns: 56_000,
        total_ns: 61_000,
        rows: 4,
        digest: 0xfedc_ba98_7654_3210,
        error: None,
        feedback: PlanFeedback {
            vars: vec![VarFeedback {
                var: "P".into(),
                backend: "native".into(),
                anchor: "Host(host_id=7)".into(),
                est_rows: 1.0,
                actual_rows: 1,
                pathways: 4,
                eval_ns: 50_000,
                candidates: vec![("Host(host_id=7)".into(), 1.0), ("VM()".into(), 4.333)],
            }],
            joins: vec![JoinFeedback { var: "Q".into(), probe: 4, build: 2, emitted: 3 }],
        },
    };
    assert_eq!(QlogRecord::parse(ok), Some(expected.clone()));
    let err = r#"{"ts_ms":0,"query":"Retrieve P From","fp":"00000000000000ff","trace":null,"threads":1,"parse_ns":0,"plan_ns":0,"exec_ns":0,"total_ns":99,"rows":0,"digest":"0000000000000000","error":"syntax error: \"oops\"","vars":[],"joins":[]}"#;
    let back = QlogRecord::parse(err).unwrap();
    assert_eq!(back.error.as_deref(), Some("syntax error: \"oops\""));
    assert_eq!((back.fingerprint, back.trace_id, back.total_ns), (0xff, None, 99));
    // Written again, the record reads back the same.
    assert_eq!(QlogRecord::parse(&expected.to_json_line()), Some(expected));
}

/// The fingerprint folds literals and whitespace but preserves structure:
/// the same query shape with different constants collides, a different
/// repetition bound does not.
#[test]
fn fingerprint_ignores_literals_and_whitespace() {
    let a = fingerprint("Retrieve P From PATHS P Where P MATCHES VM()->[Vertical()]{1,4}->Host(host_id=1015)");
    let b = fingerprint("Retrieve  P  From PATHS P Where P MATCHES VM() -> [Vertical()]{1,4} -> Host(host_id=7)");
    let c = fingerprint("Retrieve P From PATHS P Where P MATCHES VM()->[Vertical()]{1,6}->Host(host_id=1015)");
    let d = fingerprint("Retrieve P From PATHS P Where P MATCHES VM()->[Vertical()]{1,4}->Host(name='x-7')");
    assert_eq!(a, b, "literals and spacing must not change the fingerprint");
    assert_ne!(a, c, "repetition bounds are structural");
    assert_ne!(a, d, "predicate field names are structural");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated two-atom RPE keeps its fingerprint when the predicate
    /// literal and the padding around arrows change, and changes it when
    /// the repetition bounds change.
    #[test]
    fn fingerprint_stable_over_generated_rpes(
        // src (3) x dst (2) x pad_a (3) x pad_b (3) shapes, mixed-radix.
        shape in 0usize..54,
        lo in 1u32..3,
        extra in 0u32..4,
        lits in (0i64..1_000_000, 0i64..1_000_000),
    ) {
        let src = ["VM", "Host", "VNF"][shape % 3];
        let dst = ["Host", "Server"][(shape / 3) % 2];
        let pad_a = ["", " ", "  "][(shape / 6) % 3];
        let pad_b = ["", " ", "\t"][(shape / 18) % 3];
        let (lit_a, lit_b) = lits;
        let hi = lo + extra;
        let q = |lit: i64, pad: &str| {
            format!(
                "Retrieve P From PATHS P Where P MATCHES {src}(){pad}->{pad}[Vertical()]{{{lo},{hi}}}{pad}->{pad}{dst}(x={lit})"
            )
        };
        prop_assert_eq!(
            fingerprint(&q(lit_a, pad_a)),
            fingerprint(&q(lit_b, pad_b)),
            "literal/pad variants must share a fingerprint"
        );
        let bumped = format!(
            "Retrieve P From PATHS P Where P MATCHES {src}()->[Vertical()]{{{lo},{}}}->{dst}(x={lit_a})",
            hi + 1
        );
        prop_assert!(
            fingerprint(&q(lit_a, pad_a)) != fingerprint(&bumped),
            "changing a repetition bound must change the fingerprint"
        );
    }
}
