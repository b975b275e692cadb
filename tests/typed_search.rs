//! The schema-typed product table skips only search that cannot match, and
//! `count(P)` counted at `Union` is the number of pathways `Retrieve`
//! returns.
//!
//! - Pathways: the fanout and Table-1 shapes, random RPEs over the ONAP
//!   classes and ill-typed mutants, on the churned small tier, at
//!   `Current`, `AsOf` and `Range`: the native evaluator at one and four
//!   seats returns what the relational route (which has no typed prune)
//!   returns. At `Current` on the churned toy tier it returns what the
//!   §3.3 reference does, under the ONAP schema and under the same graph
//!   loaded with no `allow` rules (an open topology).
//! - Ill-typed mutants return no rows on any backend.
//! - Counts: the engine's `count(P)` equals the `Retrieve` row count for
//!   every RPE, counted at `Union` where the plan allows it and enumerated
//!   otherwise, natively at one and four seats and on the relational route;
//!   a tripped token fails a count with a typed error, never a short count.
//! - End folds: `count(distinct source(P))` and `count(distinct target(P))`
//!   equal the distinct ends of the `Retrieve` rows, and the by-end maps
//!   the rows' per-end tallies, folded at `Union` where the plan allows it
//!   (distinct ends always, at `Current`) and enumerated otherwise,
//!   natively at one and four seats and on the relational route.
//! - Restore: an edge the ONAP schema forbids, written under an open
//!   topology, does not load under the ONAP schema from a journal or a
//!   binary snapshot.

mod common;

use std::collections::BTreeSet;
use std::io::Cursor;
use std::sync::Arc;

use common::{all_pathways, live_ids, mutation_span, ref_matches};
use nepal::core::{engine_over, Backend, BackendRegistry, Engine, GremlinBackend, NepalError, RelationalBackend};
use nepal::graph::{
    load_binary, load_journal, save_binary, save_journal, FxHashMap, FxHashSet, GraphError, GraphView, TemporalGraph,
    TimeFilter, Uid,
};
use nepal::gremlin::{property_graph_from, serve_in_process, GremlinClient};
use nepal::obs::ExecTrace;
use nepal::rpe::{
    evaluate, parse_rpe, plan_rpe, try_evaluate, try_fold, CancelToken, EvalOptions, ExecCtx, FoldMode, Folded,
    GraphEstimator, PathFn, Pathway, RpeError, RpePlan, Seeds, Sink,
};
use nepal::schema::dsl::parse_schema;
use nepal::schema::{Schema, Value};
use nepal::workload::{generate_tier_churned, onap_schema, SizeTier, ONAP_SCHEMA};

/// The RPEs of the five `fanout.aggregate` queries (the join has two).
const FANOUT: [&str; 6] = [
    "VNF()->[Vertical()]{1,6}->Host()",
    "Host()->[ConnectedTo()]{1,2}->Host()",
    "Container()->[VmNetwork()]->VirtualNetwork()",
    "Service()->[Vertical()]{1,8}->Host()",
    "VFC()->OnVM()->Container()->OnServer()->Host()",
    "Host()->ServerSwitch()->Switch()",
];

/// Expressions the ONAP whitelist rules out: no pathway can match them.
const ILL_TYPED: [&str; 4] = [
    "Host()->[PartOf()]{1,2}->VNF()",
    "VNF()->OnServer()->Host()",
    "Switch()->[Vertical()]{1,3}->VNF()",
    "VirtualNetwork()->[PartOf()]{1,2}->Rack()",
];

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A small random RPE over ONAP node and edge classes: concatenation,
/// alternation and `{m,n}` repetition with `n ≤ 3`.
fn random_rpe(rng: &mut impl FnMut() -> u64, depth: u32) -> String {
    const ATOMS: [&str; 14] = [
        "VNF()",
        "VFC()",
        "Container()",
        "VM()",
        "Host()",
        "Switch()",
        "VirtualNetwork()",
        "Rack()",
        "Vertical()",
        "ComposedOf()",
        "OnServer()",
        "PartOf()",
        "ConnectedTo()",
        "VmNetwork()",
    ];
    match if depth == 0 { 0 } else { rng() % 4 } {
        0 => ATOMS[rng() as usize % ATOMS.len()].to_string(),
        1 => (0..2 + rng() % 2).map(|_| random_rpe(rng, depth - 1)).collect::<Vec<_>>().join("->"),
        2 => format!("({}|{})", random_rpe(rng, depth - 1), random_rpe(rng, depth - 1)),
        _ => {
            let hi = 1 + rng() % 3;
            format!("[{}]{{{},{hi}}}", random_rpe(rng, depth - 1), rng() % (hi + 1))
        }
    }
}

fn plan(g: &TemporalGraph, rpe: &str) -> Option<RpePlan> {
    plan_rpe(g.schema(), &parse_rpe(rpe).ok()?, &GraphEstimator { graph: g }).ok()
}

fn native(g: &TemporalGraph, plan: &RpePlan, filter: TimeFilter, threads: usize) -> Vec<Pathway> {
    evaluate(&GraphView::new(g, filter), plan, Seeds::Anchor, &EvalOptions { threads, ..Default::default() })
}

/// Random RPEs that plan, each fixed to a live unique anchor on its left or
/// right, so every backend answers them from a seek.
fn anchored_random(g: &TemporalGraph, n: usize, seed: u64) -> Vec<String> {
    let anchors: Vec<String> = [("VFC", "vfc_id"), ("VM", "vm_id"), ("Host", "host_id"), ("VNF", "vnf_id")]
        .iter()
        .flat_map(|&(class, field)| {
            live_ids(g, class, field, &[3, 11]).into_iter().map(move |id| format!("{class}({field}={id})"))
        })
        .collect();
    let mut rng = xorshift(seed);
    let mut out = Vec::new();
    while out.len() < n {
        let (anchor, body) = (&anchors[rng() as usize % anchors.len()], random_rpe(&mut rng, 2));
        let rpe = if rng().is_multiple_of(2) { format!("{anchor}->{body}") } else { format!("{body}->{anchor}") };
        if plan(g, &rpe).is_some() {
            out.push(rpe);
        }
    }
    out
}

/// The fanout RPEs, the anchored Table-1 shapes, anchored random RPEs and
/// the ill-typed mutants.
fn corpus(g: &TemporalGraph) -> Vec<String> {
    let mut rpes: Vec<String> = FANOUT.iter().chain(&ILL_TYPED).map(|r| r.to_string()).collect();
    for (template, class, field) in [
        ("VNF(vnf_id={})->[Vertical()]{1,6}->Host()", "VNF", "vnf_id"),
        ("VNF()->[Vertical()]{1,6}->Host(host_id={})", "Host", "host_id"),
        ("VM(vm_id={})->[ConnectedTo()]{1,4}->Container()", "VM", "vm_id"),
        ("VFC(vfc_id={})->[Vertical()]{1,3}->Host()", "VFC", "vfc_id"),
    ] {
        for id in live_ids(g, class, field, &[1, 7]) {
            rpes.push(template.replacen("{}", &id.to_string(), 1));
        }
    }
    rpes.extend(anchored_random(g, 24, 7));
    rpes
}

fn check_against_relational(tier: SizeTier) {
    let (topo, _) = generate_tier_churned(tier, 42);
    let g = topo.graph;
    let (t0, t1) = mutation_span(&g);
    let quarter = (t1 - t0) / 4;
    let filters =
        [TimeFilter::Current, TimeFilter::AsOf(t0 + 2 * quarter), TimeFilter::Range(t0 + quarter, t1 - quarter)];
    let mut rel = RelationalBackend::from_graph(&g).unwrap();
    let pg = Arc::new(property_graph_from(&g));
    let mut gremlin = GremlinBackend::new(GremlinClient::new(serve_in_process(pg)), g.schema().clone());
    let opts = EvalOptions::default();
    let mut non_empty = 0;
    let rpes = corpus(&g);
    for rpe in &rpes {
        let plan = plan(&g, rpe).unwrap_or_else(|| panic!("{rpe} plans"));
        for filter in filters {
            let want = rel.eval(&plan, filter, Seeds::Anchor, &opts).unwrap();
            for threads in [1, 4] {
                assert_eq!(native(&g, &plan, filter, threads), want, "{rpe} under {filter:?} at {threads} seat(s)");
            }
            non_empty += !want.is_empty() as usize;
        }
        if ILL_TYPED.contains(&rpe.as_str()) {
            assert!(native(&g, &plan, TimeFilter::Current, 1).is_empty(), "{rpe} is ill-typed");
            let by_gremlin = gremlin.eval(&plan, TimeFilter::Current, Seeds::Anchor, &opts).unwrap();
            assert!(by_gremlin.is_empty(), "{rpe} is ill-typed: {} pathway(s) over Gremlin", by_gremlin.len());
        }
    }
    assert!(2 * non_empty >= 3 * rpes.len(), "only {non_empty} of {} answers are non-empty", 3 * rpes.len());
    // Half the Vertical fanouts' search and some of the ConnectedTo one's
    // is dead by class: the prune must fire there.
    for rpe in [FANOUT[0], FANOUT[1], FANOUT[3]] {
        let plan = plan(&g, rpe).unwrap();
        let mut trace = ExecTrace::default();
        let view = GraphView::new(&g, TimeFilter::Current);
        let mut ctx = ExecCtx { trace: Some(&mut trace), ..Default::default() };
        try_evaluate(&view, &plan, Seeds::Anchor, &opts, &mut ctx).unwrap();
        assert!(trace.counter("typed_prunes") > 0, "{rpe}: no bucket was pruned");
    }
}

#[test]
fn typed_search_matches_the_relational_route() {
    check_against_relational(SizeTier::Small);
}

/// The same check at the medium tier (~115k entities), where the benchmark
/// runs; release builds only (see CI).
#[test]
#[ignore]
fn typed_search_matches_the_relational_route_medium_tier() {
    check_against_relational(SizeTier::Medium);
}

/// The ONAP schema without its `allow` rules: the same classes, ids and
/// fields, an open topology.
fn open_onap() -> Schema {
    let text: Vec<&str> = ONAP_SCHEMA.lines().filter(|l| !l.trim_start().starts_with("allow")).collect();
    let schema = parse_schema(&text.join("\n")).unwrap();
    assert!(schema.edge_rules().is_empty());
    schema
}

#[test]
fn typed_search_matches_the_reference_under_both_schemas() {
    let (topo, _) = generate_tier_churned(SizeTier::Toy, 42);
    let typed = topo.graph;
    let mut journal = Vec::new();
    save_journal(&typed, &mut journal).unwrap();
    let open = load_journal(Arc::new(open_onap()), &mut Cursor::new(journal)).unwrap();
    let mut rng = xorshift(11);
    let mut rpes: Vec<String> = FANOUT.iter().chain(&ILL_TYPED).map(|r| r.to_string()).collect();
    while rpes.len() < FANOUT.len() + ILL_TYPED.len() + 10 {
        let rpe = random_rpe(&mut rng, 3);
        if plan(&typed, &rpe).is_some() {
            rpes.push(rpe);
        }
    }
    // The reference enumerates every simple pathway up to this many
    // elements; longer answers are compared with the relational route
    // above. Both graphs hold the same elements, so they share it.
    const MAX: usize = 7;
    let paths = all_pathways(&typed, MAX);
    let mut non_empty = 0;
    for rpe in &rpes {
        let p = plan(&typed, rpe).unwrap();
        let want: BTreeSet<&[Uid]> =
            paths.iter().filter(|path| ref_matches(&typed, &p.atoms, &p.norm, path)).map(Vec::as_slice).collect();
        for g in [&typed, &open] {
            let plan = plan(g, rpe).unwrap();
            for threads in [1, 4] {
                let got = native(g, &plan, TimeFilter::Current, threads);
                let got: BTreeSet<&[Uid]> = got.iter().map(|p| p.elems.as_slice()).filter(|p| p.len() <= MAX).collect();
                assert_eq!(got, want, "{rpe} at {threads} seat(s), {} allow rules", g.schema().edge_rules().len());
            }
        }
        non_empty += !want.is_empty() as usize;
    }
    assert!(non_empty >= rpes.len() / 2, "only {non_empty} of {} answers are non-empty", rpes.len());
}

/// `count(P)` through the engine, with how the backend counted it.
fn count(engine: &mut Engine, rpe: &str, using: &str) -> (i64, Option<&'static str>) {
    count_head(engine, "count(P)", rpe, using)
}

/// A one-variable count head through the engine, with how the backend
/// folded it.
fn count_head(engine: &mut Engine, head: &str, rpe: &str, using: &str) -> (i64, Option<&'static str>) {
    let (r, profile) =
        engine.query_profiled(&format!("Select {head} From PATHS P{using} Where P MATCHES {rpe}")).unwrap();
    assert_eq!(r.columns, vec![head]);
    let var = &profile.vars[0];
    let dedup = var.trace.ops.iter().any(|o| o.op == "Dedup");
    assert_eq!(dedup, var.count == Some("enumerate") && using.is_empty(), "{rpe}: the Dedup row");
    match r.rows[0].values[..] {
        [Value::Int(n)] => (n, var.count),
        ref other => panic!("{rpe}: count is {other:?}"),
    }
}

#[test]
fn count_at_union_equals_the_retrieved_rows() {
    let (topo, _) = generate_tier_churned(SizeTier::Small, 42);
    let g = Arc::new(topo.graph);
    let mut engine = engine_over(g.clone());
    engine.registry.add("pg", Box::new(RelationalBackend::from_graph(&g).unwrap()));
    let enumerated = unprovable(&g);
    let mut rpes = corpus(&g);
    rpes.extend(enumerated.iter().cloned());
    let mut unions = 0;
    for threads in [1, 4] {
        engine.eval_options.threads = threads;
        for rpe in &rpes {
            let rows = engine.query(&format!("Retrieve P From PATHS P Where P MATCHES {rpe}")).unwrap().rows.len();
            let plan = plan(&g, rpe).unwrap();
            let (n, mode) = count(&mut engine, rpe, "");
            assert_eq!(n, rows as i64, "{rpe} at {threads} seat(s), counted by {mode:?}");
            let want = if plan.count_at_union { FoldMode::Union } else { FoldMode::Enumerate };
            assert_eq!(mode, Some(want.as_str()), "{rpe}");
            unions += plan.count_at_union as usize;
            if enumerated.contains(rpe) {
                assert_eq!(mode, Some("enumerate"), "{rpe}");
            }
            if rpe.contains('=') {
                assert_eq!(
                    count(&mut engine, rpe, " USING pg"),
                    (n, Some("enumerate")),
                    "{rpe} on the relational route"
                );
            }
        }
    }
    assert!(unions >= rpes.len(), "only {unions} of {} counts were counted at Union", 2 * rpes.len());
    // The three count(P) families of fanout.aggregate count at Union.
    for rpe in [FANOUT[0], FANOUT[2], FANOUT[3]] {
        assert!(plan(&g, rpe).unwrap().count_at_union, "{rpe}");
    }
}

/// Plans without the `count_at_union` proof: two anchor atoms (an
/// alternation), an anchor on six seed transitions, and an edge anchor on
/// two.
fn unprovable(g: &TemporalGraph) -> [String; 3] {
    let vms = live_ids(g, "VM", "vm_id", &[2, 9]);
    let rpes = [
        format!("(VM(vm_id={})|VM(vm_id={}))->[ConnectedTo()]{{1,2}}->Container()", vms[0], vms[1]),
        format!("VNF()->[Vertical()]{{1,6}}->Host(host_id={})", live_ids(g, "Host", "host_id", &[4])[0]),
        "[ServerSwitch()]{1,2}".to_string(),
    ];
    for rpe in &rpes {
        assert!(!plan(g, rpe).unwrap().count_at_union, "{rpe}");
    }
    rpes
}

/// The distinct `f` ends of `pathways` and their tallies.
fn ends_of(pathways: &[Pathway], f: PathFn) -> (FxHashSet<Uid>, FxHashMap<Uid, u64>) {
    let mut tally: FxHashMap<Uid, u64> = FxHashMap::default();
    for p in pathways {
        *tally.entry(p.end(f)).or_default() += 1;
    }
    (tally.keys().copied().collect(), tally)
}

#[test]
fn end_folds_equal_the_retrieved_rows() {
    let (topo, _) = generate_tier_churned(SizeTier::Small, 42);
    let g = Arc::new(topo.graph);
    let mut engine = engine_over(g.clone());
    engine.registry.add("pg", Box::new(RelationalBackend::from_graph(&g).unwrap()));
    let mut rel = RelationalBackend::from_graph(&g).unwrap();
    let enumerated = unprovable(&g);
    let mut rpes = corpus(&g);
    rpes.extend(enumerated.iter().cloned());
    let view = GraphView::new(&g, TimeFilter::Current);
    let mut non_empty = 0;
    for threads in [1, 4] {
        engine.eval_options.threads = threads;
        let opts = EvalOptions { threads, ..Default::default() };
        for rpe in &rpes {
            let rows = engine.query(&format!("Retrieve P From PATHS P Where P MATCHES {rpe}")).unwrap().rows;
            let pathways: Vec<Pathway> = rows.into_iter().map(|mut r| r.pathways.remove(0).1).collect();
            non_empty += !pathways.is_empty() as usize;
            let plan = plan(&g, rpe).unwrap();
            let at = format!("{rpe} at {threads} seat(s)");
            for (f, name) in [(PathFn::Source, "source"), (PathFn::Target, "target")] {
                let (ends, tally) = ends_of(&pathways, f);
                let head = format!("count(distinct {name}(P))");
                let got = count_head(&mut engine, &head, rpe, "");
                assert_eq!(got, (ends.len() as i64, Some("distinct-ends")), "{head}: {at}");

                let sink = Sink::DistinctEnds(f);
                let (folded, mode) = try_fold(&view, &plan, sink, &opts, &mut ExecCtx::default()).unwrap();
                assert_eq!(mode, FoldMode::DistinctEnds, "{sink:?}: {at}");
                match folded {
                    Folded::Ends(got, n) => {
                        assert_eq!(got, ends, "{sink:?}: {at}");
                        if plan.count_at_union {
                            assert_eq!(n, pathways.len(), "{sink:?}: {at}, pathways folded");
                        }
                    }
                    other => panic!("{sink:?}: {at} folded to {other:?}"),
                }

                let sink = Sink::CountByEnd(f);
                let want = if plan.count_at_union { FoldMode::ByEnd } else { FoldMode::Enumerate };
                let got = try_fold(&view, &plan, sink, &opts, &mut ExecCtx::default()).unwrap();
                assert_eq!(got, (Folded::ByEnd(tally.clone()), want), "{sink:?}: {at}");
                if enumerated.contains(rpe) {
                    assert_eq!(got.1, FoldMode::Enumerate, "{sink:?}: {at}");
                }

                // The relational route enumerates; it answers the anchored
                // RPEs quickly.
                if threads == 1 && rpe.contains('=') {
                    let got = count_head(&mut engine, &head, rpe, " USING pg");
                    assert_eq!(got, (ends.len() as i64, Some("enumerate")), "{head}: {rpe} on the relational route");
                    let got = rel.fold_in(&plan, TimeFilter::Current, sink, &opts, &mut ExecCtx::default()).unwrap();
                    assert_eq!(
                        got,
                        (Folded::ByEnd(tally), FoldMode::Enumerate),
                        "{sink:?}: {rpe} on the relational route"
                    );
                }
            }
        }
    }
    assert!(2 * non_empty >= rpes.len(), "only {non_empty} of {} answers are non-empty", 2 * rpes.len());
}

#[test]
fn a_tripped_token_fails_a_count_typed() {
    let (topo, _) = generate_tier_churned(SizeTier::Toy, 42);
    let g = Arc::new(topo.graph);
    let view = GraphView::new(&g, TimeFilter::Current);
    let host = live_ids(&g, "Host", "host_id", &[1])[0];
    let anchored = format!("VNF()->[Vertical()]{{1,6}}->Host(host_id={host})");
    let (end, fanout) = (PathFn::Target, FANOUT[0].to_string());
    for (rpe, sink, mode) in [
        (&fanout, Sink::Count, FoldMode::Union),
        (&fanout, Sink::DistinctEnds(end), FoldMode::DistinctEnds),
        (&fanout, Sink::CountByEnd(end), FoldMode::ByEnd),
        (&anchored, Sink::Count, FoldMode::Enumerate),
        (&anchored, Sink::DistinctEnds(end), FoldMode::DistinctEnds),
        (&anchored, Sink::CountByEnd(end), FoldMode::Enumerate),
    ] {
        let plan = plan(&g, rpe).unwrap();
        let full = try_fold(&view, &plan, sink, &EvalOptions::default(), &mut ExecCtx::default()).unwrap();
        assert_eq!(full.1, mode, "{rpe}: {sink:?}");
        assert!(full.0.pathways() > 0, "{rpe}: {sink:?}");
        let mut tripped = 0;
        for budget in [1, 2, 3, 5, 8, 30, 200, 5000] {
            for threads in [1, 4] {
                let cancel = Some(CancelToken::cancel_after_polls(budget));
                let opts = EvalOptions { threads, cancel, ..Default::default() };
                match try_fold(&view, &plan, sink, &opts, &mut ExecCtx::default()) {
                    Ok(done) => assert_eq!(done, full, "{rpe}: a short {sink:?} under budget {budget}"),
                    Err(RpeError::Cancelled) => tripped += 1,
                    Err(e) => panic!("{rpe}: {e}"),
                }
            }
        }
        assert!(tripped > 0, "{rpe}: {sink:?}: no budget tripped");
    }
    // Through the engine: a cancelled session token fails the query typed.
    let mut engine = Engine::new(BackendRegistry::new("native", Box::new(nepal::core::NativeBackend::new(g))));
    let token = CancelToken::new();
    token.cancel();
    engine.eval_options.cancel = Some(token);
    let err = engine.query(&format!("Select count(P) From PATHS P Where P MATCHES {}", FANOUT[0])).unwrap_err();
    assert!(matches!(err, NepalError::Cancelled), "{err}");
}

#[test]
fn restore_refuses_edges_the_schema_forbids() {
    let open = Arc::new(open_onap());
    let c = |n: &str| open.class_by_name(n).unwrap();
    let mut g = TemporalGraph::new(open.clone());
    let vnf = g.insert_node(c("VNF"), vec![Value::Int(1), Value::Null, Value::Null], 0).unwrap();
    let host = g.insert_node(c("Host"), vec![Value::Int(2), Value::Null, Value::Null], 0).unwrap();
    // "One cannot directly link a VNF to a physical server" — except under
    // an open topology.
    g.insert_edge(c("OnServer"), vnf, host, vec![], 0).unwrap();
    let (mut journal, mut snapshot) = (Vec::new(), Vec::new());
    save_journal(&g, &mut journal).unwrap();
    save_binary(&g, &mut snapshot).unwrap();
    let onap = Arc::new(onap_schema());
    let by_journal = load_journal(onap.clone(), &mut Cursor::new(&journal)).err();
    assert!(matches!(by_journal, Some(GraphError::EdgeNotAllowed { .. })), "journal: {by_journal:?}");
    let by_snapshot = load_binary(onap, &snapshot, 1).err();
    assert!(matches!(by_snapshot, Some(GraphError::EdgeNotAllowed { .. })), "snapshot: {by_snapshot:?}");
    // Both load under the schema they were written under.
    assert_eq!(load_journal(open.clone(), &mut Cursor::new(&journal)).unwrap().num_entities(), 3);
    assert_eq!(load_binary(open, &snapshot, 1).unwrap().num_entities(), 3);
}
