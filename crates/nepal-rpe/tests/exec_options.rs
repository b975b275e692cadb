//! Evaluator options and anchor-scan behaviour: length caps, limits, the
//! unique-index fast path vs full scans, and edge-field predicates.

use std::sync::Arc;

use nepal_graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal_rpe::{anchor_scan, bind, evaluate, parse_rpe, plan_rpe, EvalOptions, GraphEstimator, Seeds};
use nepal_schema::dsl::parse_schema;
use nepal_schema::{Schema, Value};

fn chain(n: usize) -> (TemporalGraph, Vec<Uid>) {
    // A linear chain: N0 -L-> N1 -L-> … -L-> N(n-1), L has a weight field.
    let s: Arc<Schema> = Arc::new(
        parse_schema(
            r#"
            node N { nid: int unique }
            edge L { weight: int }
            "#,
        )
        .unwrap(),
    );
    let c = |x: &str| s.class_by_name(x).unwrap();
    let mut g = TemporalGraph::new(s.clone());
    let nodes: Vec<Uid> = (0..n).map(|i| g.insert_node(c("N"), vec![Value::Int(i as i64)], 0).unwrap()).collect();
    for w in nodes.windows(2) {
        g.insert_edge(c("L"), w[0], w[1], vec![Value::Int((w[0].0 % 10) as i64)], 0).unwrap();
    }
    (g, nodes)
}

#[test]
fn max_elements_option_caps_expansion() {
    let (g, _) = chain(10);
    let plan =
        plan_rpe(g.schema(), &parse_rpe("N(nid=0)->[L()]{1,8}->N()").unwrap(), &GraphEstimator { graph: &g }).unwrap();
    let view = GraphView::new(&g, TimeFilter::Current);
    let all = evaluate(&view, &plan, Seeds::Anchor, &EvalOptions::default());
    assert_eq!(all.len(), 8); // 1..8 hops down the chain
    let capped = evaluate(
        &view,
        &plan,
        Seeds::Anchor,
        &EvalOptions { max_elements: Some(5), ..Default::default() }, // ≤ 2 hops (5 elems)
    );
    assert_eq!(capped.len(), 2);
    assert!(capped.iter().all(|p| p.elems.len() <= 5));
}

#[test]
fn limit_option_truncates_deterministically() {
    let (g, _) = chain(10);
    let view = GraphView::new(&g, TimeFilter::Current);
    // A unique anchor, then nine edge candidates with several NFA seed
    // transitions each, both at one seat and at four.
    for (rpe, limit) in [("N(nid=0)->[L()]{1,8}->N()", 3), ("N()->[L()]{1,3}->N()", 5)] {
        let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: &g }).unwrap();
        for threads in [0, 1, 4] {
            let limited = evaluate(
                &view,
                &plan,
                Seeds::Anchor,
                &EvalOptions { limit: Some(limit), threads, ..Default::default() },
            );
            assert_eq!(limited.len(), limit);
            // Results are sorted, so the limited set is a prefix of the full set.
            let all = evaluate(&view, &plan, Seeds::Anchor, &EvalOptions { threads, ..Default::default() });
            assert_eq!(&all[..limit], &limited[..], "`{rpe}` limit {limit} at threads {threads}");
        }
    }
}

#[test]
fn unique_index_fast_path_matches_full_scan() {
    let (g, nodes) = chain(50);
    let schema = g.schema().clone();
    let bound = bind(&schema, &parse_rpe("N(nid=17)").unwrap()).unwrap();
    // Current: uses the unique index.
    let view = GraphView::new(&g, TimeFilter::Current);
    let fast = anchor_scan(&view, &schema, &bound.atoms[0]);
    assert_eq!(fast.len(), 1);
    assert_eq!(fast[0].0, nodes[17]);
    // AsOf: full scan path; same answer.
    let view2 = GraphView::new(&g, TimeFilter::AsOf(100));
    let slow = anchor_scan(&view2, &schema, &bound.atoms[0]);
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].0, nodes[17]);
}

#[test]
fn unique_index_respects_deletions() {
    let (mut g, nodes) = chain(5);
    g.delete(nodes[2], 100).unwrap();
    let schema = g.schema().clone();
    let bound = bind(&schema, &parse_rpe("N(nid=2)").unwrap()).unwrap();
    let view = GraphView::new(&g, TimeFilter::Current);
    assert!(anchor_scan(&view, &schema, &bound.atoms[0]).is_empty());
    // But the historical scan still finds it.
    let view2 = GraphView::new(&g, TimeFilter::AsOf(50));
    assert_eq!(anchor_scan(&view2, &schema, &bound.atoms[0]).len(), 1);
}

#[test]
fn edge_field_predicates_filter_traversal() {
    let (g, _) = chain(12);
    // Only edges with weight >= 5 qualify: those leaving N5..N9 (uid%10).
    let plan =
        plan_rpe(g.schema(), &parse_rpe("N(nid=5)->[L(weight>=5)]{1,3}->N()").unwrap(), &GraphEstimator { graph: &g })
            .unwrap();
    let view = GraphView::new(&g, TimeFilter::Current);
    let paths = evaluate(&view, &plan, Seeds::Anchor, &EvalOptions::default());
    assert!(!paths.is_empty());
    for p in &paths {
        for e in p.edges() {
            match &g.current_version(e).unwrap().fields()[0] {
                Value::Int(w) => assert!(*w >= 5),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn seeds_with_unknown_or_edge_uids_are_ignored() {
    let (g, nodes) = chain(5);
    let plan = plan_rpe(g.schema(), &parse_rpe("L(){1,2}").unwrap(), &GraphEstimator { graph: &g }).unwrap();
    let view = GraphView::new(&g, TimeFilter::Current);
    // An edge uid and an out-of-range uid as "source nodes": no panic,
    // no results from them.
    let edge_uid = g.out_adj(nodes[0])[0].edge;
    let seeds = [edge_uid, Uid(9_999), nodes[1]];
    let paths = evaluate(&view, &plan, Seeds::Sources(&seeds), &EvalOptions::default());
    assert!(paths.iter().all(|p| p.source() == nodes[1]));
    assert!(!paths.is_empty());
}
