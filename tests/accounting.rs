//! Acceptance tests for the incremental resource accounting: under
//! arbitrary interleavings of inserts, updates, deletes (including
//! same-instant rewrites and cascades), the incrementally maintained
//! [`memory_report`] must agree with the brute-force [`memory_recount`]
//! walk within 1% — in practice, exactly — and the element column (class,
//! kind, open-head and one-version bits per uid) and the `since` column
//! must equal the ones rebuilt from the extents, entries and chains.
//!
//! [`memory_report`]: nepal::graph::TemporalGraph::memory_report
//! [`memory_recount`]: nepal::graph::TemporalGraph::memory_recount

use std::sync::Arc;

use nepal::graph::{GraphView, MemoryReport, TemporalGraph, TimeFilter, Uid};
use nepal::schema::dsl::parse_schema;
use nepal::schema::{Schema, Value};
use nepal::workload::{alive_edges, apply_churn, generate_virtualized, updatable_entities, ChurnParams, VirtParams};
use proptest::prelude::*;

fn schema() -> Arc<Schema> {
    Arc::new(
        parse_schema(
            r#"
            node VM { vm_id: int unique, status: str }
            node Host { host_id: int }
            edge HostedOn { weight: int }
            allow HostedOn (VM -> Host)
            "#,
        )
        .unwrap(),
    )
}

fn rel_err(a: u64, b: u64) -> f64 {
    if b == 0 {
        if a == 0 {
            0.0
        } else {
            1.0
        }
    } else {
        (a as f64 - b as f64).abs() / b as f64
    }
}

/// Assert every figure of `report` is within 1% of `recount` (the
/// acceptance bound; the implementation actually agrees exactly).
fn assert_within_one_percent(report: &MemoryReport, recount: &MemoryReport) {
    for (what, a, b) in [
        ("entity_bytes", report.entity_bytes, recount.entity_bytes),
        ("adjacency_bytes", report.adjacency_bytes, recount.adjacency_bytes),
        ("unique_index_bytes", report.unique_index_bytes, recount.unique_index_bytes),
        ("total_bytes", report.total_bytes, recount.total_bytes),
    ] {
        assert!(rel_err(a, b) <= 0.01, "{what}: report {a} vs recount {b}");
    }
    assert_eq!(report.chain_histogram, recount.chain_histogram, "chain histogram drifted");
    for (a, b) in report.classes.iter().zip(recount.classes.iter()) {
        assert_eq!(a.class, b.class);
        assert_eq!((a.entities, a.alive, a.versions), (b.entities, b.alive, b.versions), "class {}", a.name);
        assert!(rel_err(a.bytes, b.bytes) <= 0.01, "class {} bytes: {} vs {}", a.name, a.bytes, b.bytes);
    }
}

#[derive(Debug, Clone)]
enum Op {
    InsertVm {
        id: i64,
        status: String,
    },
    InsertHost {
        id: i64,
    },
    InsertEdge {
        vm: usize,
        host: usize,
        weight: i64,
    },
    Update {
        target: usize,
        status: String,
    },
    Delete {
        target: usize,
    },
    /// Update at the same timestamp as the previous op (in-place rewrite).
    SameInstantUpdate {
        target: usize,
        status: String,
    },
    /// Update, then delete at that instant: the delete pops the new head.
    SameInstantDelete {
        target: usize,
    },
}

/// The live element and `since` columns equal their definitions, and a
/// `Current` view (which reads the element column) agrees with the chain
/// heads on every uid.
fn assert_column_matches_chains(g: &TemporalGraph) {
    let (words, since) = g.elem_column_recount();
    assert_eq!(g.elem_column(), words, "element column drifted from the chains");
    assert_eq!(g.since_column(), since, "since column drifted from the chains");
    let now = GraphView::new(g, TimeFilter::Current);
    for raw in 0..g.num_entities() as u64 {
        let u = Uid(raw);
        assert_eq!(now.alive(u), g.current_version(u).is_some(), "uid {raw}");
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..10_000, "[a-z]{0,12}").prop_map(|(id, status)| Op::InsertVm { id, status }),
        (0i64..10_000).prop_map(|id| Op::InsertHost { id }),
        ((0usize..16), (0usize..16), 0i64..100).prop_map(|(vm, host, weight)| Op::InsertEdge { vm, host, weight }),
        ((0usize..32), "[a-z]{0,20}").prop_map(|(target, status)| Op::Update { target, status }),
        (0usize..32).prop_map(|target| Op::Delete { target }),
        ((0usize..32), "[a-z]{0,8}").prop_map(|(target, status)| Op::SameInstantUpdate { target, status }),
        (0usize..32).prop_map(|target| Op::SameInstantDelete { target }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn report_matches_recount_under_churn(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let s = schema();
        let vm_c = s.class_by_name("VM").unwrap();
        let host_c = s.class_by_name("Host").unwrap();
        let edge_c = s.class_by_name("HostedOn").unwrap();
        let mut g = TemporalGraph::new(s);
        let mut vms: Vec<Uid> = Vec::new();
        let mut hosts: Vec<Uid> = Vec::new();
        let mut all: Vec<Uid> = Vec::new();
        let mut ts = 0i64;
        for op in &ops {
            ts += 10;
            match op {
                Op::InsertVm { id, status } => {
                    if let Ok(u) = g.insert_node(vm_c, vec![Value::Int(*id), Value::Str(status.clone())], ts) {
                        vms.push(u);
                        all.push(u);
                    }
                }
                Op::InsertHost { id } => {
                    let u = g.insert_node(host_c, vec![Value::Int(*id)], ts).unwrap();
                    hosts.push(u);
                    all.push(u);
                }
                Op::InsertEdge { vm, host, weight } => {
                    if vms.is_empty() || hosts.is_empty() { continue; }
                    let (a, b) = (vms[vm % vms.len()], hosts[host % hosts.len()]);
                    if let Ok(u) = g.insert_edge(edge_c, a, b, vec![Value::Int(*weight)], ts) {
                        all.push(u);
                    }
                }
                Op::Update { target, status } => {
                    if vms.is_empty() { continue; }
                    let u = vms[target % vms.len()];
                    let _ = g.update(u, &[(1, Value::Str(status.clone()))], ts);
                }
                Op::Delete { target } => {
                    if all.is_empty() { continue; }
                    let u = all[target % all.len()];
                    let _ = g.delete(u, ts);
                }
                Op::SameInstantUpdate { target, status } => {
                    if vms.is_empty() { continue; }
                    let u = vms[target % vms.len()];
                    // Two updates at one timestamp: the second rewrites the
                    // first's version in place.
                    let _ = g.update(u, &[(1, Value::Str(status.clone()))], ts);
                    let _ = g.update(u, &[(1, Value::Str(format!("{status}!")))], ts);
                }
                Op::SameInstantDelete { target } => {
                    if vms.is_empty() { continue; }
                    let u = vms[target % vms.len()];
                    if g.update(u, &[(1, Value::Str("popped".into()))], ts).is_ok() {
                        g.delete(u, ts).unwrap();
                    }
                }
            }
            assert_column_matches_chains(&g);
        }
        let report = g.memory_report();
        let recount = g.memory_recount();
        assert_within_one_percent(&report, &recount);
        // Spot-check the invariant total.
        prop_assert_eq!(
            report.total_bytes,
            report.entity_bytes + report.adjacency_bytes + report.unique_index_bytes
        );
    }
}

#[test]
fn report_matches_recount_after_workload_churn() {
    // The real generator + churn workload (field updates and edge
    // rewires), as used by `reproduce obs-report`.
    let mut topo = generate_virtualized(VirtParams { seed: 7, ..Default::default() });
    let baseline = topo.graph.memory_report();
    assert_within_one_percent(&baseline, &topo.graph.memory_recount());

    let updatable = updatable_entities(&topo.graph, "status");
    let rewirable = alive_edges(&topo.graph);
    let params = ChurnParams { days: 30, daily_update_fraction: 0.004, daily_rewire_fraction: 0.002, seed: 7 };
    apply_churn(&mut topo.graph, &updatable, &rewirable, topo.params.start_ts, &params);

    let churned = topo.graph.memory_report();
    assert_within_one_percent(&churned, &topo.graph.memory_recount());
    assert_column_matches_chains(&topo.graph);
    assert!(churned.total_bytes > baseline.total_bytes, "churn must grow the footprint");
    assert!(churned.journal_bytes > baseline.journal_bytes);
}

#[test]
fn container_payloads_are_counted() {
    let s = Arc::new(parse_schema("node Svc { name: str, tags: list<str> }").unwrap());
    let svc = s.class_by_name("Svc").unwrap();
    let mut g = TemporalGraph::new(s);
    let u = g
        .insert_node(
            svc,
            vec![
                Value::Str("edge-cache".into()),
                Value::List(vec![Value::Str("prod".into()), Value::Str("cdn".into())]),
            ],
            10,
        )
        .unwrap();
    let before = g.memory_report();
    assert_within_one_percent(&before, &g.memory_recount());

    // Growing the list payload must grow the class bytes.
    g.update(u, &[(1, Value::List((0..8).map(|i| Value::Str(format!("tag-number-{i}"))).collect()))], 20).unwrap();
    let after = g.memory_report();
    assert_within_one_percent(&after, &g.memory_recount());
    assert!(after.entity_bytes > before.entity_bytes);
}
