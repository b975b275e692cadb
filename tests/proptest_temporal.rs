//! Property tests for the temporal machinery: interval-set algebra laws,
//! time-slice consistency against an operation replay, snapshot-diff
//! idempotence, and unique-anchor seeks under `AT` and ranges.

use std::collections::HashMap;
use std::sync::Arc;

use nepal::graph::{
    load_binary, load_journal, save_binary, save_journal, GraphView, HeatTally, Interval, IntervalSet, MatchTime,
    SnapshotLoader, SnapshotNode, TemporalGraph, TimeFilter, Uid,
};
use nepal::rpe::{anchor_scan, bind, parse_rpe, BoundAtom};
use nepal::schema::dsl::parse_schema;
use nepal::schema::{Schema, Value};
use proptest::prelude::*;

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0i64..200, 1i64..60).prop_map(|(a, len)| Interval::new(a, a + len))
}

fn set_strategy() -> impl Strategy<Value = IntervalSet> {
    proptest::collection::vec(interval_strategy(), 0..8).prop_map(IntervalSet::from_intervals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interval_set_invariants(ivs in proptest::collection::vec(interval_strategy(), 0..10)) {
        let s = IntervalSet::from_intervals(ivs.clone());
        // Sorted, disjoint, non-adjacent.
        for w in s.intervals().windows(2) {
            prop_assert!(w[0].to < w[1].from, "not disjoint/sorted: {:?}", s);
        }
        // Membership agrees with the raw inputs.
        for t in 0..270 {
            let raw = ivs.iter().any(|iv| iv.contains(t));
            prop_assert_eq!(s.contains(t), raw, "contains({}) mismatch", t);
        }
    }

    #[test]
    fn union_and_intersection_laws(a in set_strategy(), b in set_strategy()) {
        let u = a.union(&b);
        let i = a.intersect(&b);
        prop_assert_eq!(&u, &b.union(&a), "union commutes");
        prop_assert_eq!(&i, &b.intersect(&a), "intersection commutes");
        prop_assert_eq!(&a.union(&a), &a, "union idempotent");
        prop_assert_eq!(&a.intersect(&a), &a, "intersection idempotent");
        for t in 0..270 {
            prop_assert_eq!(u.contains(t), a.contains(t) || b.contains(t));
            prop_assert_eq!(i.contains(t), a.contains(t) && b.contains(t));
        }
    }

    #[test]
    fn distributivity(a in set_strategy(), b in set_strategy(), c in set_strategy()) {
        let left = a.intersect(&b.union(&c));
        let right = a.intersect(&b).union(&a.intersect(&c));
        prop_assert_eq!(left, right);
    }
}

// ---------------------------------------------------------------------
// Time-slice consistency: as_of(t) == replay of operations ≤ t.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert { status: String },
    Update { target: usize, status: String },
    Delete { target: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        "[a-d]{1,3}".prop_map(|status| Op::Insert { status }),
        ((0usize..12), "[a-d]{1,3}").prop_map(|(target, status)| Op::Update { target, status }),
        (0usize..12).prop_map(|target| Op::Delete { target }),
    ]
}

fn schema() -> Arc<Schema> {
    Arc::new(parse_schema("node VM { status: str }").unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn as_of_matches_operation_replay(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        let s = schema();
        let vm = s.class_by_name("VM").unwrap();
        let mut g = TemporalGraph::new(s);
        let mut uids: Vec<Uid> = Vec::new();
        // Apply ops at ts = 10, 20, 30, …
        let mut applied: Vec<(i64, Op, Option<Uid>)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let ts = (i as i64 + 1) * 10;
            match op {
                Op::Insert { status } => {
                    let u = g.insert_node(vm, vec![Value::Str(status.clone())], ts).unwrap();
                    uids.push(u);
                    applied.push((ts, op.clone(), Some(u)));
                }
                Op::Update { target, status } => {
                    if uids.is_empty() { continue; }
                    let u = uids[target % uids.len()];
                    if g.update(u, &[(0, Value::Str(status.clone()))], ts).is_ok() {
                        applied.push((ts, op.clone(), Some(u)));
                    }
                }
                Op::Delete { target } => {
                    if uids.is_empty() { continue; }
                    let u = uids[target % uids.len()];
                    if g.delete(u, ts).is_ok() {
                        applied.push((ts, op.clone(), Some(u)));
                    }
                }
            }
        }
        // Replay to every probe time and compare with version_at.
        for probe in [5i64, 15, 25, 55, 105, 1000] {
            let mut expect: HashMap<Uid, Option<String>> = HashMap::new();
            for (ts, op, uid) in &applied {
                if *ts > probe { break; }
                let u = uid.unwrap();
                match op {
                    Op::Insert { status } | Op::Update { status, .. } => {
                        expect.insert(u, Some(status.clone()));
                    }
                    Op::Delete { .. } => {
                        expect.insert(u, None);
                    }
                }
            }
            for &u in &uids {
                let got = g.fields_at(u, probe).map(|f| match &f[0] {
                    Value::Str(s) => s.clone(),
                    _ => unreachable!(),
                });
                let want = expect.get(&u).cloned().flatten();
                prop_assert_eq!(got, want, "uid {:?} at t={}", u, probe);
            }
        }
    }

    #[test]
    fn snapshot_application_is_idempotent(
        statuses in proptest::collection::vec("[a-c]{1,2}", 1..10)
    ) {
        let s = schema();
        let vm = s.class_by_name("VM").unwrap();
        let mut g = TemporalGraph::new(s);
        let mut loader = SnapshotLoader::new();
        let nodes: Vec<SnapshotNode> = statuses
            .iter()
            .enumerate()
            .map(|(i, st)| SnapshotNode {
                ext_id: format!("n{i}"),
                class: vm,
                fields: vec![Value::Str(st.clone())],
            })
            .collect();
        let first = loader.apply(&mut g, 10, &nodes, &[]).unwrap();
        prop_assert_eq!(first.inserted, nodes.len());
        let versions_after_first = g.num_versions();
        // Re-applying the identical snapshot is a no-op.
        let second = loader.apply(&mut g, 20, &nodes, &[]).unwrap();
        prop_assert_eq!(second.inserted + second.updated + second.deleted, 0);
        prop_assert_eq!(g.num_versions(), versions_after_first);
    }
}

// ---------------------------------------------------------------------
// Unique-anchor seeks: under `AT` and ranges the current and former-holder
// indexes answer a unique anchor exactly as an extent walk does, and a
// store rebuilt from its chains holds the same indexes.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum KeyOp {
    Insert { id: i64 },
    Status { target: usize },
    Rekey { target: usize, id: i64 },
    Delete { target: usize },
}

/// Values 0..6 collide often, so inserts and re-keys hit held, freed and
/// formerly held values.
fn key_op_strategy() -> impl Strategy<Value = KeyOp> {
    prop_oneof![
        (0i64..6).prop_map(|id| KeyOp::Insert { id }),
        (0usize..8).prop_map(|target| KeyOp::Status { target }),
        ((0usize..8), (0i64..6)).prop_map(|(target, id)| KeyOp::Rekey { target, id }),
        (0usize..8).prop_map(|target| KeyOp::Delete { target }),
    ]
}

/// The extent-walk answer: every alive-in-view VM, tested with `matching`.
fn walk(view: &GraphView, atom: &BoundAtom) -> Vec<(Uid, Option<IntervalSet>)> {
    let mut heat = HeatTally::new(view.graph);
    view.scan_class(atom.class)
        .into_iter()
        .filter_map(|u| {
            view.matching(u, |f| atom.matches_fields(f), &mut heat).map(|mt| match mt {
                MatchTime::Point => (u, None),
                MatchTime::Intervals(set) => (u, Some(set)),
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn unique_anchor_seeks_match_the_extent_walk(
        ops in proptest::collection::vec((key_op_strategy(), 0u8..10), 1..30)
    ) {
        let s = Arc::new(parse_schema("node VM { vm_id: int unique, status: str }").unwrap());
        let vm = s.class_by_name("VM").unwrap();
        let mut g = TemporalGraph::new(s.clone());
        let mut uids: Vec<Uid> = Vec::new();
        let mut ts = 0i64;
        for (i, (op, step)) in ops.iter().enumerate() {
            // Three ops in ten share the previous op's timestamp. Ops the
            // store rejects (held value, dead target) are skipped.
            if i == 0 || *step >= 3 {
                ts += 10;
            }
            let status = Value::Str(format!("s{i}"));
            match *op {
                KeyOp::Insert { id } => {
                    if let Ok(u) = g.insert_node(vm, vec![Value::Int(id), status], ts) {
                        uids.push(u);
                    }
                }
                _ if uids.is_empty() => {}
                KeyOp::Status { target } => {
                    let _ = g.update(uids[target % uids.len()], &[(1, status)], ts);
                }
                KeyOp::Rekey { target, id } => {
                    let _ = g.update(uids[target % uids.len()], &[(0, Value::Int(id))], ts);
                }
                KeyOp::Delete { target } => {
                    let _ = g.delete(uids[target % uids.len()], ts);
                }
            }
        }

        let points: Vec<i64> = (0..=ts / 5 + 1).map(|k| k * 5).collect();
        let mut filters = vec![TimeFilter::Current];
        filters.extend(points.iter().map(|&t| TimeFilter::AsOf(t)));
        for (i, &a) in points.iter().enumerate().step_by(3) {
            filters.extend(points[i..].iter().step_by(4).map(|&b| TimeFilter::Range(a, b)));
        }
        for id in 0..7 {
            let bound = bind(&s, &parse_rpe(&format!("VM(vm_id={id})")).unwrap()).unwrap();
            let atom = &bound.atoms[0];
            for &filter in &filters {
                let view = GraphView::new(&g, filter);
                prop_assert_eq!(anchor_scan(&view, &s, atom), walk(&view, atom), "vm_id={} under {:?}", id, filter);
            }
        }

        let mut journal = Vec::new();
        save_journal(&g, &mut journal).unwrap();
        let from_journal = load_journal(s.clone(), &mut journal.as_slice()).unwrap();
        let mut snap = Vec::new();
        save_binary(&g, &mut snap).unwrap();
        let from_snap = load_binary(s.clone(), &snap, 1).unwrap();
        let live = g.memory_report().unique_index_bytes;
        for restored in [&from_journal, &from_snap] {
            prop_assert_eq!(restored.unique_index_rows(), g.unique_index_rows());
            prop_assert_eq!(restored.memory_report().unique_index_bytes, live);
        }
        prop_assert_eq!(g.memory_recount().unique_index_bytes, live);
    }
}
