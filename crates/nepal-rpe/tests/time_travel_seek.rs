//! `AT` and range anchors on a unique field seek the current and
//! former-holder indexes instead of walking the class extent. Every
//! answer here must equal an extent walk: `GraphView::scan_class` plus
//! `GraphView::matching`, times included — through moves, deletes,
//! re-inserts, same-instant rewrites and a sibling subclass that once held
//! a parent-declared value.

use std::sync::Arc;

use nepal_graph::{
    load_binary, load_journal, save_binary, save_journal, GraphView, HeatTally, IntervalSet, MatchTime, TemporalGraph,
    TimeFilter, Uid,
};
use nepal_rpe::{anchor_scan, bind, parse_rpe};
use nepal_schema::dsl::parse_schema;
use nepal_schema::{Schema, Ts, Value};

fn schema() -> Arc<Schema> {
    Arc::new(
        parse_schema(
            r#"
            node VM { vm_id: int unique, status: str }
            node Server { sid: int unique }
            node Virtual : Server { status: str }
            node Metal : Server { }
            "#,
        )
        .unwrap(),
    )
}

/// The extent-walk answer for `rpe`'s single atom under `filter`.
fn reference(g: &TemporalGraph, rpe: &str, filter: TimeFilter) -> Vec<(Uid, Option<IntervalSet>)> {
    let bound = bind(g.schema(), &parse_rpe(rpe).unwrap()).unwrap();
    let atom = &bound.atoms[0];
    let view = GraphView::new(g, filter);
    let mut heat = HeatTally::new(g);
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

fn seek(g: &TemporalGraph, rpe: &str, filter: TimeFilter) -> Vec<(Uid, Option<IntervalSet>)> {
    let bound = bind(g.schema(), &parse_rpe(rpe).unwrap()).unwrap();
    assert!(bound.atoms[0].unique_eq_pred(g.schema()).is_some(), "{rpe} must take the seek path");
    anchor_scan(&GraphView::new(g, filter), g.schema(), &bound.atoms[0])
}

/// Every probe filter over `times`: `Current`, `AT t` and `t - 1` for each
/// time, and every range between two of them.
fn filters(times: &[Ts]) -> Vec<TimeFilter> {
    let mut points: Vec<Ts> = times.iter().flat_map(|&t| [t - 1, t, t + 1]).collect();
    points.sort_unstable();
    points.dedup();
    let mut out = vec![TimeFilter::Current];
    out.extend(points.iter().map(|&t| TimeFilter::AsOf(t)));
    for (i, &a) in points.iter().enumerate() {
        out.extend(points[i..].iter().step_by(3).map(|&b| TimeFilter::Range(a, b)));
    }
    out
}

fn assert_seek_matches_walk(g: &TemporalGraph, rpes: &[String], times: &[Ts]) -> usize {
    let mut hits = 0;
    for filter in filters(times) {
        for rpe in rpes {
            let want = reference(g, rpe, filter);
            hits += want.len();
            assert_eq!(seek(g, rpe, filter), want, "{rpe} under {filter:?}");
        }
    }
    hits
}

fn assert_rebuild_agrees(g: &TemporalGraph) {
    let mut journal = Vec::new();
    save_journal(g, &mut journal).unwrap();
    let from_journal = load_journal(g.schema().clone(), &mut journal.as_slice()).unwrap();
    let mut snap = Vec::new();
    save_binary(g, &mut snap).unwrap();
    let from_snap = load_binary(g.schema().clone(), &snap, 1).unwrap();
    for restored in [&from_journal, &from_snap] {
        assert_eq!(restored.unique_index_rows(), g.unique_index_rows());
        assert_eq!(restored.memory_report().unique_index_bytes, g.memory_report().unique_index_bytes);
    }
    assert_eq!(g.memory_report().unique_index_bytes, g.memory_recount().unique_index_bytes);
}

#[test]
fn moved_freed_and_reinserted_vm_ids_seek_like_the_extent_walk() {
    let s = schema();
    let vm = s.class_by_name("VM").unwrap();
    let mut g = TemporalGraph::new(s.clone());
    let rec = |id: i64, status: &str| vec![Value::Int(id), Value::Str(status.into())];
    let id = |v: i64| (0, Value::Int(v));

    // vm_id 1 moves from A to B, B is deleted, and C asserts it again.
    let a = g.insert_node(vm, rec(1, "a"), 10).unwrap();
    g.update(a, &[(1, Value::Str("b".into()))], 20).unwrap();
    g.update(a, &[id(2)], 30).unwrap();
    let b = g.insert_node(vm, rec(1, "a"), 40).unwrap();
    g.delete(b, 50).unwrap();
    let c = g.insert_node(vm, rec(1, "a"), 60).unwrap();
    // Same-instant insert then re-key: 5 was never stored.
    let d = g.insert_node(vm, rec(5, "a"), 70).unwrap();
    g.update(d, &[id(6)], 70).unwrap();
    // A status change, then a same-instant re-key: 6 stays in history.
    g.update(d, &[(1, Value::Str("b".into()))], 80).unwrap();
    g.update(d, &[id(7)], 80).unwrap();
    // Re-key away and back: 8 is the head's value again.
    let e = g.insert_node(vm, rec(8, "a"), 100).unwrap();
    g.update(e, &[id(9)], 110).unwrap();
    g.update(e, &[id(8)], 120).unwrap();
    // Re-key and delete at one instant: the popped head's 21 was never
    // stored, the closed version's 20 was.
    let f = g.insert_node(vm, rec(20, "a"), 130).unwrap();
    g.update(f, &[(1, Value::Str("b".into()))], 140).unwrap();
    g.update(f, &[id(21)], 150).unwrap();
    g.delete(f, 150).unwrap();

    let asof = |v: i64, t: Ts| g.unique_holders(vm, 0, &Value::Int(v), TimeFilter::AsOf(t));
    assert_eq!(asof(1, 0), vec![a, b, c], "every holder of 1 is a candidate, in uid order");
    assert_eq!(g.unique_holders(vm, 0, &Value::Int(1), TimeFilter::Current), vec![c]);
    assert!(asof(5, 0).is_empty(), "a same-instant rewrite leaves no stored version");
    assert_eq!(asof(6, 0), vec![d]);
    assert_eq!(asof(8, 0), vec![e], "the head's value is not a former value");
    assert_eq!(asof(9, 0), vec![e]);
    assert_eq!(asof(20, 0), vec![f]);
    assert!(asof(21, 0).is_empty());

    let rpes: Vec<String> = [1, 2, 5, 6, 7, 8, 9, 20, 21, 99].iter().map(|v| format!("VM(vm_id={v})")).collect();
    let mut all = rpes.clone();
    all.push("VM(vm_id=1, status='b')".into());
    let times = [10, 20, 30, 40, 50, 60, 70, 80, 100, 110, 120, 130, 140, 150];
    let hits = assert_seek_matches_walk(&g, &all, &times);
    assert!(hits > 100, "the probes must find holders, found {hits}");
    // Before the move A answers for 1, after it B, after the delete nobody,
    // after the re-insert C.
    let at = |t: Ts| seek(&g, "VM(vm_id=1)", TimeFilter::AsOf(t)).into_iter().map(|r| r.0).collect::<Vec<_>>();
    assert_eq!((at(25), at(35), at(45), at(55), at(65)), (vec![a], vec![], vec![b], vec![], vec![c]));
    assert_rebuild_agrees(&g);
}

#[test]
fn parent_declared_value_once_held_by_a_sibling_subclass() {
    let s = schema();
    let (server, virt, metal) =
        (s.class_by_name("Server").unwrap(), s.class_by_name("Virtual").unwrap(), s.class_by_name("Metal").unwrap());
    let mut g = TemporalGraph::new(s.clone());
    // v0 (a Virtual) holds 7 before the Metal m does: the extent walk
    // yields Metal's extent before Virtual's, so its order is not uid order.
    let up = || Value::Str("up".into());
    let v0 = g.insert_node(virt, vec![Value::Int(7), up()], 5).unwrap();
    g.update(v0, &[(0, Value::Int(100))], 8).unwrap();
    let m = g.insert_node(metal, vec![Value::Int(7)], 10).unwrap();
    g.update(m, &[(0, Value::Int(8))], 20).unwrap();
    let v = g.insert_node(virt, vec![Value::Int(7), up()], 30).unwrap();
    g.delete(v, 40).unwrap();
    g.update(m, &[(0, Value::Int(7))], 50).unwrap();
    g.update(v0, &[(0, Value::Int(8))], 60).unwrap();

    // The Virtual anchor never sees the Metal holder; the Server anchor
    // sees all three, in extent-walk order.
    assert_eq!(g.unique_holders(virt, 0, &Value::Int(7), TimeFilter::AsOf(0)), vec![v0, v]);
    let walk: Vec<Uid> = s.descendants(server).iter().flat_map(|&c| g.extent_exact(c).iter().copied()).collect();
    assert_eq!(walk, vec![m, v0, v]);
    assert_eq!(g.unique_holders(server, 0, &Value::Int(7), TimeFilter::Range(0, 100)), walk);

    let rpes: Vec<String> =
        ["Server", "Virtual", "Metal"].iter().flat_map(|c| [7, 8, 100].map(|id| format!("{c}(sid={id})"))).collect();
    let hits = assert_seek_matches_walk(&g, &rpes, &[5, 8, 10, 20, 30, 40, 50, 60]);
    assert!(hits > 50, "the probes must find holders, found {hits}");
    assert_rebuild_agrees(&g);
}
