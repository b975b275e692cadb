//! The observability layer: EXPLAIN ANALYZE parsing, query profiles,
//! engine metrics, and the trace ring's keep-slow.

use std::sync::Arc;

use nepal_core::{engine_over, parse_query, parse_statement, Engine, Statement};
use nepal_graph::TemporalGraph;
use nepal_schema::dsl::parse_schema;
use nepal_schema::{parse_ts, Schema, Value};

fn fixture() -> (Engine, Arc<TemporalGraph>) {
    let s: Arc<Schema> = Arc::new(
        parse_schema(
            r#"
            node VNF { vnf_id: int unique, name: str }
            node VM { vm_id: int unique }
            node Host { host_id: int unique }
            edge HostedOn { }
            "#,
        )
        .unwrap(),
    );
    let c = |n: &str| s.class_by_name(n).unwrap();
    let mut g = TemporalGraph::new(s.clone());
    let t0 = parse_ts("2017-02-01 00:00").unwrap();
    let h0 = g.insert_node(c("Host"), vec![Value::Int(0)], t0).unwrap();
    let h1 = g.insert_node(c("Host"), vec![Value::Int(1)], t0).unwrap();
    for i in 0..4i64 {
        let vnf = g.insert_node(c("VNF"), vec![Value::Int(i), Value::Str(format!("vnf-{i}"))], t0).unwrap();
        let vm = g.insert_node(c("VM"), vec![Value::Int(i)], t0).unwrap();
        g.insert_edge(c("HostedOn"), vnf, vm, vec![], t0).unwrap();
        g.insert_edge(c("HostedOn"), vm, if i == 0 { h0 } else { h1 }, vec![], t0).unwrap();
    }
    let graph = Arc::new(g);
    (engine_over(graph.clone()), graph)
}

const Q: &str = "Retrieve P From PATHS P Where P MATCHES VNF()->[HostedOn()]{1,4}->Host()";

#[test]
fn explain_analyze_parser_round_trip() {
    let plain = parse_statement(Q).unwrap();
    assert_eq!(plain, Statement::Query(parse_query(Q).unwrap()));

    let ea = parse_statement(&format!("EXPLAIN ANALYZE {Q}")).unwrap();
    assert_eq!(ea, Statement::ExplainAnalyze(parse_query(Q).unwrap()));

    // Keywords are case-insensitive like the rest of the language.
    assert_eq!(
        parse_statement(&format!("explain analyze {Q}")).unwrap(),
        Statement::ExplainAnalyze(parse_query(Q).unwrap())
    );

    // EXPLAIN without ANALYZE is rejected (we always execute).
    let err = parse_statement(&format!("EXPLAIN {Q}")).unwrap_err();
    assert!(err.to_string().contains("ANALYZE"), "{err}");
}

#[test]
fn extend_rows_out_matches_pathway_count() {
    let (mut eng, _g) = fixture();
    // vnf_id is unique, so the anchor is the single VNF at the pathway
    // source: the backward half is trivial and every accepted forward half
    // is one pathway — Extend(fwd) rows_out == pathway count.
    let q = "Retrieve P From PATHS P \
             Where P MATCHES VNF(vnf_id=1)->[HostedOn()]{1,4}->Host()";
    let (result, profile) = eng.query_profiled(q).unwrap();
    assert_eq!(result.rows.len(), 1);
    let vp = &profile.vars[0];
    assert_eq!(vp.pathways, 1);
    assert_eq!(vp.trace.rows_out_of("Extend(fwd)"), result.rows.len() as u64);
    // The Select probed the unique index: one candidate in, one out.
    let select = vp.trace.ops.iter().find(|o| o.op == "Select").expect("Select op recorded");
    assert_eq!(select.rows_in, 1);
    assert_eq!(select.rows_out, 1);
}

#[test]
fn at_anchor_on_a_unique_field_seeks_the_index() {
    let (mut eng, _g) = fixture();
    let now = "Retrieve P From PATHS P Where P MATCHES VM(vm_id=2)->[HostedOn()]->Host()";
    let at = format!("AT '2017-02-02 00:00' {now}");
    let mut logical = Vec::new();
    for threads in [1, 4] {
        eng.eval_options.threads = threads;
        for q in [now, at.as_str()] {
            let (result, profile) = eng.query_profiled(q).unwrap();
            assert_eq!(result.rows.len(), 1, "{q}");
            // One index candidate in, not the four-VM extent, under AT as
            // at the current snapshot.
            let select = profile.vars[0].trace.ops.iter().find(|o| o.op == "Select").expect("Select op recorded");
            assert_eq!((select.rows_in, select.rows_out), (1, 1), "{q}");
            let mut meter = profile.meter.expect("profiled queries are metered");
            assert_eq!((meter.seeks, meter.rows_scanned), (1, 1), "{q}");
            meter.cpu_ns = 0;
            logical.push(meter);
        }
    }
    assert_eq!(logical[..2], logical[2..], "logical counters differ between 1 and 4 threads");
}

#[test]
fn profiled_and_plain_execution_agree() {
    let (mut eng, _g) = fixture();
    let plain = eng.query(Q).unwrap();
    let (profiled, profile) = eng.query_profiled(Q).unwrap();
    assert_eq!(plain.rows.len(), profiled.rows.len());
    assert_eq!(profile.result_rows, profiled.rows.len() as u64);
    assert!(profile.total_ns > 0);
    assert_eq!(profile.vars.len(), 1);
    assert_eq!(profile.vars[0].backend, "native");
}

#[test]
fn profile_reports_anchor_candidates_with_costs_and_winner() {
    let (mut eng, _g) = fixture();
    let (_, profile) = eng.query_profiled(Q).unwrap();
    let anchors = &profile.vars[0].anchors;
    assert!(anchors.len() >= 2, "both VNF() and Host() are candidate anchors");
    assert_eq!(anchors.iter().filter(|a| a.chosen).count(), 1);
    // Candidates come cheapest-first and the winner is the cheapest.
    let chosen = anchors.iter().find(|a| a.chosen).unwrap();
    assert!(anchors.iter().all(|a| chosen.cost <= a.cost));
    // The rendered profile names the winner and the alternatives.
    let text = profile.render();
    assert!(text.contains("<- chosen"), "{text}");
    assert!(text.contains("anchor candidates considered"), "{text}");
    assert!(text.contains("rows_out="), "{text}");
}

#[test]
fn join_steps_and_imported_seeds_are_recorded() {
    let (mut eng, _g) = fixture();
    let q = "Retrieve P, Q From PATHS P, PATHS Q \
             Where P MATCHES VNF(vnf_id=1)->HostedOn()->VM() \
             And Q MATCHES VM()->HostedOn()->Host() \
             And target(P) = source(Q)";
    let (result, profile) = eng.query_profiled(q).unwrap();
    assert_eq!(result.rows.len(), 1);
    assert_eq!(profile.joins.len(), 2, "one join step per variable");
    let last = profile.joins.last().unwrap();
    assert_eq!(last.emitted, 1);
    // Q's anchor (VM()) costs more than the single seed imported from P,
    // so Q is evaluated from imported seeds (§3.4 anchor import).
    let q_var = profile.vars.iter().find(|v| v.var == "Q").unwrap();
    assert_eq!(q_var.imported_seeds, Some(1));
}

#[test]
fn metrics_and_keep_slow_traces_record_queries() {
    let (mut eng, _g) = fixture();
    // Head sampling keeps only the first of every million traces; a slow
    // threshold of 0 makes every query slow, so keep-slow alone stores Q.
    eng.tracer.set_enabled(true);
    eng.tracer.set_sample_every(1_000_000);
    eng.tracer.set_slow_threshold_ns(0);
    drop(eng.tracer.start_trace("head-sampled"));
    eng.tracer.clear();
    eng.query(Q).unwrap();
    assert!(eng.query("Retrieve P From").is_err());
    let text = eng.metrics.render_prometheus();
    assert!(text.contains("nepal_queries_total 2"), "{text}");
    assert!(text.contains("nepal_query_errors_total 1"), "{text}");
    assert!(text.contains("nepal_query_duration_ns_count 1"), "{text}");
    let kept = eng.tracer.summaries();
    let q = kept.iter().find(|t| t.name == Q).expect("slow query kept in the trace ring under its text");
    assert!(!q.sampled, "kept by the slow threshold, not the head sampler");
}
