//! `Engine::default_deadline` bounds the whole query, nested runs included:
//! a decorrelated `EXISTS` subquery and every view a query ranges over run
//! under the query's own token, not under a fresh deadline of their own.
//! An explicit cancel of the session parent token reaches them as well.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nepal_core::{engine_over, Engine, NepalError};
use nepal_graph::TemporalGraph;
use nepal_rpe::CancelToken;
use nepal_schema::dsl::parse_schema;
use nepal_schema::Value;

/// Every pathway of up to five hops through a layered mesh: each host
/// links to the next four, so one evaluation enumerates tens of thousands
/// of pathways — long enough that a deadline trips inside it.
const HALF: &str = "Host()->[ConnectsTo()]{1,5}->Host()";

fn engine() -> Engine {
    let s = Arc::new(
        parse_schema(
            r#"
            node Host { host_id: int unique }
            edge ConnectsTo { }
            "#,
        )
        .unwrap(),
    );
    let host = s.class_by_name("Host").unwrap();
    let link = s.class_by_name("ConnectsTo").unwrap();
    let mut g = TemporalGraph::new(s.clone());
    let hosts: Vec<_> = (0..48).map(|i| g.insert_node(host, vec![Value::Int(i)], 0).unwrap()).collect();
    for (i, &from) in hosts.iter().enumerate() {
        for &to in hosts.iter().skip(i + 1).take(4) {
            g.insert_edge(link, from, to, vec![], 0).unwrap();
        }
    }
    engine_over(Arc::new(g))
}

/// Wall time of the fastest of three unbounded runs of `HALF` on its own.
fn half_cost(engine: &mut Engine) -> Duration {
    let q = format!("Select count(P) From PATHS P Where P MATCHES {HALF}");
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            engine.query(&q).unwrap();
            t0.elapsed()
        })
        .min()
        .unwrap()
}

/// Run `query` — two halves that each cost about `HALF` — under a deadline
/// of 1.2 halves. The query must either finish within its deadline (plus
/// a little unpolled tail work) or fail with `DeadlineExceeded`; finishing
/// after both halves would mean the second half ran under a deadline of
/// its own.
fn assert_bounded(engine: &mut Engine, query: &str) {
    let half = half_cost(engine);
    let deadline = half.mul_f64(1.2);
    engine.default_deadline = Some(deadline);
    let t0 = Instant::now();
    let result = engine.query(query);
    let elapsed = t0.elapsed();
    engine.default_deadline = None;
    match result {
        Err(NepalError::DeadlineExceeded) => {}
        Ok(_) => assert!(
            elapsed <= deadline + half.mul_f64(0.4),
            "finished Ok after {elapsed:?} under a {deadline:?} deadline (one half: {half:?})"
        ),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn exists_subquery_shares_the_query_deadline() {
    let mut engine = engine();
    let query = format!(
        "Select count(P) From PATHS P Where P MATCHES {HALF} \
         And Exists (Retrieve Q From PATHS Q Where Q MATCHES {HALF} And length(Q) = 99)"
    );
    assert_bounded(&mut engine, &query);
}

#[test]
fn view_sources_share_the_query_deadline() {
    let mut engine = engine();
    // Each view materialises a full `HALF` evaluation and keeps none of it,
    // so the two-source join itself is free.
    engine.define_view("mesh", &format!("Retrieve P From PATHS P Where P MATCHES {HALF} And length(P) = 99")).unwrap();
    assert_bounded(&mut engine, "Select count(A) From mesh A, mesh B");
}

#[test]
fn parent_cancel_trips_a_nested_run() {
    let mut engine = engine();
    engine.define_view("mesh", &format!("Retrieve P From PATHS P Where P MATCHES {HALF}")).unwrap();
    // The view materialises while its ranging variable is planned, before
    // any outer evaluation: the first poll of the whole query is the
    // nested run's.
    engine.eval_options.cancel = Some(CancelToken::cancel_after_polls(1));
    assert!(matches!(engine.query("Select count(A) From mesh A"), Err(NepalError::Cancelled)));
}
