//! The plan cache shares what depends only on the schema and the RPE's
//! shape, and nothing else.
//!
//! - A cached plan and one whose automaton and typed table were freshly
//!   built give the same pathways, operator rows and prune counts for the
//!   benchmark's Table-1, fanout and retarget shapes on the churned small
//!   tier, at `Current`, `AsOf` and `Range`, at one and two seats.
//! - Literals and the anchor choice are per query: two texts of one shape
//!   share the automaton but keep their own literals and anchors.
//! - A schema rebuilt with one extra `allow` rule misses the cache, and its
//!   typed table prunes less.
//! - The cache holds at most `PLAN_CACHE_SHAPES` shapes.

mod common;

use std::sync::Arc;

use common::{live_ids, mutation_span};
use nepal::graph::{GraphView, TemporalGraph, TimeFilter};
use nepal::obs::ExecTrace;
use nepal::rpe::{
    compile, parse_rpe, plan_cache_len, plan_rpe, try_evaluate, Automaton, EvalOptions, ExecCtx, GraphEstimator,
    Pathway, RpePlan, Seeds, PLAN_CACHE_SHAPES,
};
use nepal::schema::dsl::parse_schema;
use nepal::schema::{Schema, Value};
use nepal::workload::{generate_tier_churned, SizeTier};

/// What one evaluation shows: pathways, operator rows (op, rows in, rows
/// out) and the typed and temporal prune counts.
type Observed = (Vec<Pathway>, Vec<(String, u64, u64)>, u64, u64);

fn observe(view: &GraphView, plan: &RpePlan, threads: usize) -> Observed {
    let mut trace = ExecTrace::default();
    let opts = EvalOptions { threads, ..Default::default() };
    let mut ctx = ExecCtx { trace: Some(&mut trace), ..Default::default() };
    let pathways = try_evaluate(view, plan, Seeds::Anchor, &opts, &mut ctx).unwrap();
    let rows = trace.ops.iter().map(|o| (o.op.clone(), o.rows_in, o.rows_out)).collect();
    (pathways, rows, trace.counter("typed_prunes"), trace.counter("temporal_prunes"))
}

/// `plan` with its automaton and typed table built afresh, bypassing the
/// cache.
fn rebuilt(schema: &Schema, plan: &RpePlan) -> RpePlan {
    let kinds: Vec<bool> = plan.atoms.iter().map(|a| a.is_node).collect();
    let mut fresh = plan.clone();
    fresh.set_nfa(schema, compile(&plan.norm, &kinds));
    fresh
}

#[test]
fn cached_and_built_plans_agree_on_the_benchmark_shapes() {
    let (topo, _) = generate_tier_churned(SizeTier::Small, 977);
    let g = &topo.graph;
    let pick = |class: &str, field: &str| live_ids(g, class, field, &[3, 17]);
    let mut texts: Vec<String> = Vec::new();
    for (vnf, host) in pick("VNF", "vnf_id").into_iter().zip(pick("Host", "host_id")) {
        texts.push(format!("VNF(vnf_id={vnf})->[Vertical()]{{1,6}}->Host()"));
        texts.push(format!("VNF()->[Vertical()]{{1,6}}->Host(host_id={host})"));
    }
    for (vm, vfc) in pick("VM", "vm_id").into_iter().zip(pick("VFC", "vfc_id")) {
        texts.push(format!("VM(vm_id={vm})->[ConnectedTo()]{{1,4}}->Container()"));
        texts.push(format!("VM(vm_id={vm})->[ConnectedTo()]{{1,2}}->Container()"));
        texts.push(format!("VFC(vfc_id={vfc})->[Vertical()]{{1,3}}->Host()"));
    }
    texts.extend(
        [
            "Host()->[ConnectedTo()]{1,2}->Host()",
            "Container()->[VmNetwork()]->VirtualNetwork()",
            "VFC()->OnVM()->Container()->OnServer()->Host()",
            "Host()->ServerSwitch()->Switch()",
        ]
        .map(String::from),
    );
    let (lo, hi) = mutation_span(g);
    let mid = lo + (hi - lo) / 2;
    let est = GraphEstimator { graph: g };
    for filter in [TimeFilter::Current, TimeFilter::AsOf(mid), TimeFilter::Range(lo, mid)] {
        let view = GraphView::new(g, filter);
        for text in &texts {
            let rpe = parse_rpe(text).unwrap();
            plan_rpe(g.schema(), &rpe, &est).unwrap();
            let cached = plan_rpe(g.schema(), &rpe, &est).unwrap();
            assert_eq!(cached.automaton, Automaton::Cached, "{text}: planned twice, built twice");
            let fresh = rebuilt(g.schema(), &cached);
            assert_eq!(fresh.automaton, Automaton::Built);
            for threads in [1, 2] {
                let (a, b) = (observe(&view, &cached, threads), observe(&view, &fresh, threads));
                assert_eq!(a, b, "{text} at {filter:?}, {threads} seat(s)");
            }
        }
    }
}

#[test]
fn literals_and_anchors_stay_per_query() {
    let (topo, _) = generate_tier_churned(SizeTier::Small, 977);
    let g = &topo.graph;
    let est = GraphEstimator { graph: g };
    let [a, b] = live_ids(g, "VNF", "vnf_id", &[1, 9])[..] else { unreachable!("two picks") };
    let plan = |text: &str| plan_rpe(g.schema(), &parse_rpe(text).unwrap(), &est).unwrap();
    let pa = plan(&format!("VNF(vnf_id={a})->[Vertical()]{{1,6}}->Host()"));
    let pb = plan(&format!("VNF(vnf_id={b})->[Vertical()]{{1,6}}->Host()"));
    // One shape: the second shares the first's automaton and table.
    assert_eq!(pb.automaton, Automaton::Cached);
    assert!(Arc::ptr_eq(&pa.nfa, &pb.nfa) && Arc::ptr_eq(&pa.typed, &pb.typed));
    assert_eq!(pa.atoms[0].preds[0].value, Value::Int(a));
    assert_eq!(pb.atoms[0].preds[0].value, Value::Int(b));
    let view = GraphView::new(g, TimeFilter::Current);
    assert_ne!(observe(&view, &pa, 1).0, observe(&view, &pb, 1).0, "two VNFs, two answers");
    // The same shape without the literal anchors elsewhere: the anchor is
    // costed per query, not taken from the cached shape.
    let unanchored = plan("VNF()->[Vertical()]{1,6}->Host()");
    assert_ne!(unanchored.anchor.cost, pa.anchor.cost);
    assert_eq!(pa.anchor.cost, 1.0);
}

const SCHEMA: &str = r#"
    node N { n_id: int unique }
    node M { m_id: int unique }
    edge E { }
    edge F { }
    allow E (N -> N)
    allow E (N -> M)
    allow F (M -> M)
"#;

/// A ring of `N`s, each also reaching an `M` by `E`, each `M` reaching the
/// next `M` by `F`.
fn ring(schema: Schema) -> TemporalGraph {
    let schema = Arc::new(schema);
    let c = |n: &str| schema.class_by_name(n).unwrap();
    let mut g = TemporalGraph::new(schema.clone());
    let ns: Vec<_> = (0..8).map(|i| g.insert_node(c("N"), vec![Value::Int(i)], 1).unwrap()).collect();
    let ms: Vec<_> = (0..8).map(|i| g.insert_node(c("M"), vec![Value::Int(i)], 1).unwrap()).collect();
    for i in 0..8 {
        g.insert_edge(c("E"), ns[i], ns[(i + 1) % 8], vec![], 2).unwrap();
        g.insert_edge(c("E"), ns[i], ms[i], vec![], 2).unwrap();
        g.insert_edge(c("F"), ms[i], ms[(i + 1) % 8], vec![], 2).unwrap();
    }
    g
}

#[test]
fn a_schema_with_one_more_rule_misses_the_cache() {
    // `F` after an `M` must end at an `N`: under `SCHEMA` no `F` does, so
    // every `F` bucket is dead; with `F (M -> N)` allowed it is live, and
    // walked, though this graph has no such edge.
    let text = "N(n_id=0)->[E()]{1,3}->M()->F()->N()";
    let narrow = ring(parse_schema(SCHEMA).unwrap());
    let wide = ring(parse_schema(&format!("{SCHEMA}\n    allow F (M -> N)\n")).unwrap());
    let plan = |g: &TemporalGraph| plan_rpe(g.schema(), &parse_rpe(text).unwrap(), &GraphEstimator { graph: g });
    plan(&narrow).unwrap();
    let p_narrow = plan(&narrow).unwrap();
    assert_eq!(p_narrow.automaton, Automaton::Cached);
    let p_wide = plan(&wide).unwrap();
    assert_eq!(p_wide.automaton, Automaton::Built, "a rebuilt schema must not share the old table");
    let on = |g: &TemporalGraph, p: &RpePlan| observe(&GraphView::new(g, TimeFilter::Current), p, 1);
    let (a, b) = (on(&narrow, &p_narrow), on(&wide, &p_wide));
    assert_eq!(a.0, b.0, "one graph, one answer");
    assert!(a.0.is_empty());
    assert!(a.2 > b.2, "the extra rule admits the F buckets: {} prunes, then {}", a.2, b.2);
    // Each plan's table is its own schema's: the wide one, rebuilt fresh,
    // prunes as its cached twin does.
    assert_eq!(on(&wide, &rebuilt(wide.schema(), &p_wide)).2, b.2);
}

#[test]
fn the_cache_stays_within_its_bound() {
    let g = ring(parse_schema(SCHEMA).unwrap());
    let est = GraphEstimator { graph: &g };
    let mut last = None;
    // More distinct shapes than the cache holds: `[E()]{lo,hi}` for
    // 1 ≤ lo ≤ hi ≤ 24 is 300 of them.
    for hi in 1..=24 {
        for lo in 1..=hi {
            let text = format!("N()->[E()]{{{lo},{hi}}}->M()");
            let p = plan_rpe(g.schema(), &parse_rpe(&text).unwrap(), &est).unwrap();
            assert_eq!(p.automaton, Automaton::Built, "{text} is a new shape");
            assert!(plan_cache_len() <= PLAN_CACHE_SHAPES);
            last = Some(text);
        }
    }
    assert!(plan_cache_len() <= PLAN_CACHE_SHAPES);
    // The most recent shape survived the evictions.
    let again = plan_rpe(g.schema(), &parse_rpe(&last.unwrap()).unwrap(), &est).unwrap();
    assert_eq!(again.automaton, Automaton::Cached);
}
