//! Backend equivalence: the relational evaluation of an RPE plan must
//! return exactly the same pathway set (and the same maximal assertion
//! intervals) as the native evaluator — on hand-built fixtures and on
//! randomized temporal graphs.

use std::sync::Arc;

use nepal_graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal_obs::SpanHandle;
use nepal_relational::{db_from_graph, evaluate_relational};
use nepal_rpe::{evaluate, parse_rpe, plan_rpe, EvalOptions, GraphEstimator, Pathway, Seeds};
use nepal_schema::dsl::parse_schema;
use nepal_schema::{Schema, Value};

const SCHEMA: &str = r#"
    node VNF { vnf_id: int unique }
    node VFC { vfc_id: int unique }
    node VM { vm_id: int unique, status: str }
    node Host { host_id: int unique }
    edge Vertical { }
    edge ComposedOf : Vertical { }
    edge HostedOn : Vertical { }
    edge Connects { }
"#;

fn schema() -> Arc<Schema> {
    Arc::new(parse_schema(SCHEMA).unwrap())
}

/// Deterministic pseudo-random graph with temporal churn.
fn random_graph(seed: u64, n_per_class: usize) -> TemporalGraph {
    let s = schema();
    let mut g = TemporalGraph::new(s.clone());
    let c = |n: &str| s.class_by_name(n).unwrap();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut vnfs = Vec::new();
    let mut vfcs = Vec::new();
    let mut vms = Vec::new();
    let mut hosts = Vec::new();
    for i in 0..n_per_class {
        vnfs.push(g.insert_node(c("VNF"), vec![Value::Int(i as i64)], 0).unwrap());
        vfcs.push(g.insert_node(c("VFC"), vec![Value::Int(i as i64)], 0).unwrap());
        let status = if rng() % 2 == 0 { "Green" } else { "Red" };
        vms.push(g.insert_node(c("VM"), vec![Value::Int(i as i64), Value::Str(status.into())], 0).unwrap());
        hosts.push(g.insert_node(c("Host"), vec![Value::Int(i as i64)], 0).unwrap());
    }
    let mut edges = Vec::new();
    for i in 0..n_per_class {
        let pick = |v: &Vec<Uid>, r: u64| v[(r as usize) % v.len()];
        edges.push(g.insert_edge(c("ComposedOf"), vnfs[i], pick(&vfcs, rng()), vec![], 1).unwrap());
        edges.push(g.insert_edge(c("HostedOn"), vfcs[i], pick(&vms, rng()), vec![], 1).unwrap());
        edges.push(g.insert_edge(c("HostedOn"), vms[i], pick(&hosts, rng()), vec![], 1).unwrap());
        let a = pick(&hosts, rng());
        let b = pick(&hosts, rng());
        if a != b {
            edges.push(g.insert_edge(c("Connects"), a, b, vec![], 1).unwrap());
        }
    }
    // Temporal churn: delete some edges, update some VM statuses.
    for (k, e) in edges.iter().enumerate() {
        if k % 5 == 0 {
            let ts = 100 + (rng() % 100) as i64;
            let _ = g.delete(*e, ts);
        }
    }
    for (k, vm) in vms.iter().enumerate() {
        if k % 3 == 0 {
            let ts = 150 + (rng() % 50) as i64;
            let _ = g.update(*vm, &[(1, Value::Str("Amber".into()))], ts);
        }
    }
    g
}

fn key(paths: &[Pathway]) -> Vec<(Vec<u64>, Option<String>)> {
    let mut v: Vec<(Vec<u64>, Option<String>)> = paths
        .iter()
        .map(|p| (p.elems.iter().map(|u| u.0).collect(), p.times.as_ref().map(|t| t.to_string())))
        .collect();
    v.sort();
    v
}

fn check_equivalence(g: &TemporalGraph, rpe: &str, filter: TimeFilter) {
    let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: g }).unwrap();
    let view = GraphView::new(g, filter);
    let native = evaluate(&view, &plan, Seeds::Anchor, &EvalOptions::default());
    let mut db = db_from_graph(g).unwrap();
    let rel = evaluate_relational(
        &mut db,
        g.schema(),
        &plan,
        filter,
        Seeds::Anchor,
        &EvalOptions::default(),
        &SpanHandle::none(),
    )
    .unwrap();
    assert_eq!(
        key(&native),
        key(&rel.pathways),
        "backend mismatch for `{rpe}` under {filter:?}: native {} vs relational {}",
        native.len(),
        rel.pathways.len()
    );
}

const QUERIES: &[&str] = &[
    "VNF(vnf_id=3)->[Vertical()]{1,6}->Host()",
    "VNF()->VFC()->VM()->Host(host_id=2)",
    "VM(status='Green')->HostedOn()->Host()",
    "Host(host_id=1)->[Connects()]{1,3}->Host()",
    "ComposedOf()->HostedOn()",
    "VFC(vfc_id=4)->VM()",
    "(VNF(vnf_id=1)|VFC(vfc_id=1))",
    "VM(vm_id=0)",
];

#[test]
fn current_snapshot_equivalence() {
    for seed in 0..4u64 {
        let g = random_graph(seed, 8);
        for q in QUERIES {
            check_equivalence(&g, q, TimeFilter::Current);
        }
    }
}

#[test]
fn as_of_equivalence() {
    for seed in 0..4u64 {
        let g = random_graph(seed, 8);
        for q in QUERIES {
            for ts in [50, 120, 180, 500] {
                check_equivalence(&g, q, TimeFilter::AsOf(ts));
            }
        }
    }
}

#[test]
fn range_equivalence_with_maximal_intervals() {
    for seed in 0..4u64 {
        let g = random_graph(seed, 6);
        for q in QUERIES {
            for (a, b) in [(0, 1000), (120, 160), (90, 110)] {
                check_equivalence(&g, q, TimeFilter::Range(a, b));
            }
        }
    }
}

#[test]
fn seeded_evaluation_equivalence() {
    let g = random_graph(7, 8);
    let plan = plan_rpe(g.schema(), &parse_rpe("Connects(){1,4}").unwrap(), &GraphEstimator { graph: &g }).unwrap();
    let hosts: Vec<Uid> = {
        let view = GraphView::new(&g, TimeFilter::Current);
        view.scan_class(g.schema().class_by_name("Host").unwrap())
    };
    let view = GraphView::new(&g, TimeFilter::Current);
    let mut db = db_from_graph(&g).unwrap();
    for h in hosts.iter().take(4) {
        let seeds = [*h];
        let native = evaluate(&view, &plan, Seeds::Sources(&seeds), &EvalOptions::default());
        let rel = evaluate_relational(
            &mut db,
            g.schema(),
            &plan,
            TimeFilter::Current,
            Seeds::Sources(&seeds),
            &EvalOptions::default(),
            &SpanHandle::none(),
        )
        .unwrap();
        assert_eq!(key(&native), key(&rel.pathways), "sources seeded mismatch");
        let native_t = evaluate(&view, &plan, Seeds::Targets(&seeds), &EvalOptions::default());
        let rel_t = evaluate_relational(
            &mut db,
            g.schema(),
            &plan,
            TimeFilter::Current,
            Seeds::Targets(&seeds),
            &EvalOptions::default(),
            &SpanHandle::none(),
        )
        .unwrap();
        assert_eq!(key(&native_t), key(&rel_t.pathways), "targets seeded mismatch");
    }
}

#[test]
fn eq_anchor_probes_the_index_instead_of_scanning() {
    let g = random_graph(3, 8);
    let mut db = db_from_graph(&g).unwrap();
    let mut scanned = |rpe: &str, filter: TimeFilter| {
        let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: &g }).unwrap();
        let opts = EvalOptions::default();
        evaluate_relational(&mut db, g.schema(), &plan, filter, Seeds::Anchor, &opts, &SpanHandle::none())
            .unwrap()
            .rows_scanned
    };
    // Each anchor `Select` reads all 8 current VM rows without an `Eq`
    // predicate, and only the one row the probe returns with it:
    // `rows_scanned` counts probed rows.
    let probed = scanned("VM(vm_id=0)", TimeFilter::Current);
    assert!(probed > 0);
    assert_eq!(scanned("VM(vm_id>=0)", TimeFilter::Current), 8 * probed);
}

#[test]
fn emitted_sql_has_paper_shape() {
    let g = random_graph(1, 6);
    let plan = plan_rpe(
        g.schema(),
        &parse_rpe("VNF(vnf_id=3)->[Vertical()]{1,6}->Host()").unwrap(),
        &GraphEstimator { graph: &g },
    )
    .unwrap();
    let mut db = db_from_graph(&g).unwrap();
    let rel = evaluate_relational(
        &mut db,
        g.schema(),
        &plan,
        TimeFilter::Current,
        Seeds::Anchor,
        &EvalOptions::default(),
        &SpanHandle::none(),
    )
    .unwrap();
    let sql = rel.sql.join("\n");
    assert!(sql.contains("create TEMP table tmp_select_node_1"), "{sql}");
    assert!(sql.contains("ARRAY[N.id_] as uid_list"), "{sql}");
    assert!(sql.contains("= ANY(T.uid_list)"), "{sql}");
    // AsOf adds the temporal_tables-style predicate.
    let rel2 = evaluate_relational(
        &mut db,
        g.schema(),
        &plan,
        TimeFilter::AsOf(nepal_schema::parse_ts("2017-02-15 10:00:00").unwrap()),
        Seeds::Anchor,
        &EvalOptions::default(),
        &SpanHandle::none(),
    )
    .unwrap();
    let sql2 = rel2.sql.join("\n");
    assert!(sql2.contains("sys_period @> '2017-02-15 10:00:00'::timestamptz"), "{sql2}");
}

#[test]
fn emitted_sql_parses_with_the_sql_engine() {
    // Every statement the translator emits must be valid SQL in the
    // dialect the bundled SQL engine implements (comments included).
    let g = random_graph(2, 6);
    let plan = plan_rpe(
        g.schema(),
        &parse_rpe("VNF(vnf_id=3)->[Vertical()]{1,6}->Host()").unwrap(),
        &GraphEstimator { graph: &g },
    )
    .unwrap();
    let mut db = db_from_graph(&g).unwrap();
    for filter in [TimeFilter::Current, TimeFilter::AsOf(500)] {
        let rel = evaluate_relational(
            &mut db,
            g.schema(),
            &plan,
            filter,
            Seeds::Anchor,
            &EvalOptions::default(),
            &SpanHandle::none(),
        )
        .unwrap();
        for stmt in &rel.sql {
            nepal_relational::parse_sql(stmt).unwrap_or_else(|e| panic!("emitted SQL does not parse: {e}\n{stmt}"));
        }
    }
}

#[test]
fn structured_data_predicates_cross_backend() {
    // Dotted composite predicates evaluate identically in the relational
    // backend (composite values travel as opaque jsonb-style cells).
    let s = Arc::new(
        parse_schema(
            r#"
            data geo { region: str }
            node Port { port_id: int unique, loc: geo }
            "#,
        )
        .unwrap(),
    );
    let mut g = TemporalGraph::new(s.clone());
    let port = s.class_by_name("Port").unwrap();
    for (i, region) in ["east", "west", "east"].iter().enumerate() {
        g.insert_node(port, vec![Value::Int(i as i64), Value::Composite(vec![Value::Str(region.to_string())])], 0)
            .unwrap();
    }
    check_equivalence(&g, "Port(loc.region='east')", TimeFilter::Current);
    check_equivalence(&g, "Port(loc.region='west')", TimeFilter::Current);
}

#[test]
fn emitted_sql_executes_in_order_on_a_fresh_store() {
    // Run in order on a store that has only the class tables, the
    // statements must create every temp table before a later statement
    // reads it and project every column a later statement joins on.
    let g = random_graph(2, 6);
    let hosts: Vec<Uid> = GraphView::new(&g, TimeFilter::Current).scan_class(g.schema().class_by_name("Host").unwrap());
    let cases: &[(&str, Seeds)] = &[
        ("VM(vm_id=2)->HostedOn()->Host()", Seeds::Anchor),
        ("VNF()->[Vertical()]{1,6}->Host()", Seeds::Anchor),
        // An edge anchor: the backward pass reads the seed's source.
        ("ComposedOf()->HostedOn()", Seeds::Anchor),
        // Two transitions reach the VM state: its second feed appends.
        ("VNF()->ComposedOf()->VFC()->(HostedOn()|Vertical())->VM()->HostedOn()->Host()", Seeds::Anchor),
        ("Host()->[Connects()]{1,3}->Host()", Seeds::Sources(&hosts)),
        ("Host()->[Connects()]{1,3}->Host()", Seeds::Targets(&hosts)),
    ];
    let mut appends = 0;
    for (rpe, seeds) in cases {
        let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: &g }).unwrap();
        for filter in [TimeFilter::Current, TimeFilter::AsOf(150)] {
            let mut db = db_from_graph(&g).unwrap();
            let opts = EvalOptions::default();
            let rel =
                evaluate_relational(&mut db, g.schema(), &plan, filter, *seeds, &opts, &SpanHandle::none()).unwrap();
            assert!(!rel.pathways.is_empty(), "`{rpe}` under {filter:?} matches nothing");
            let mut fresh = db_from_graph(&g).unwrap();
            for stmt in &rel.sql {
                if let Err(e) = nepal_relational::execute_sql(&mut fresh, stmt) {
                    panic!("`{rpe}` under {filter:?}: {e}\n{stmt}\n--- script ---\n{}", rel.sql.join("\n"));
                }
                appends += stmt.starts_with("insert into ") as usize;
            }
        }
    }
    assert!(appends > 0, "no case fed one frontier table twice");
}
