//! Parallel/sequential equivalence: the work-stealing evaluator must be
//! bit-identical to the sequential path — same pathways, same order, same
//! interval sets — and merge its per-worker statistics to the same
//! operator rows and temporal-prune counts.

use std::sync::Arc;

use nepal_graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal_obs::ExecTrace;
use nepal_rpe::{
    compile, evaluate, parse_rpe, plan_rpe, try_evaluate, Automaton, EvalOptions, ExecCtx, GraphEstimator, Pathway,
    Seeds,
};
use nepal_schema::dsl::parse_schema;
use nepal_schema::{Schema, Value};
use proptest::prelude::*;

const SCHEMA: &str = r#"
    node App { app_id: int unique }
    node Svc { svc_id: int unique }
    node Box { box_id: int unique }
    edge RunsOn { }
    edge Linked { }
    allow RunsOn (App -> Svc)
    allow RunsOn (Svc -> Box)
    allow Linked (Box -> Box)
    allow Linked (Svc -> Svc)
"#;

/// Deterministic xorshift so each proptest case maps to one graph.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A layered random graph with temporal churn: inserts spread over time,
/// a fraction of edges deleted later, so Range queries produce non-trivial
/// interval sets.
fn random_graph(seed: u64) -> TemporalGraph {
    let schema: Arc<Schema> = Arc::new(parse_schema(SCHEMA).unwrap());
    let c = |n: &str| schema.class_by_name(n).unwrap();
    let mut g = TemporalGraph::new(schema.clone());
    let mut rng = Rng(seed);
    let n_apps = 3 + rng.below(4) as usize;
    let n_svcs = 5 + rng.below(5) as usize;
    let n_boxes = 4 + rng.below(4) as usize;
    let apps: Vec<Uid> = (0..n_apps)
        .map(|i| g.insert_node(c("App"), vec![Value::Int(i as i64)], rng.below(10) as i64).unwrap())
        .collect();
    let svcs: Vec<Uid> = (0..n_svcs)
        .map(|i| g.insert_node(c("Svc"), vec![Value::Int(i as i64)], rng.below(10) as i64).unwrap())
        .collect();
    let boxes: Vec<Uid> = (0..n_boxes)
        .map(|i| g.insert_node(c("Box"), vec![Value::Int(i as i64)], rng.below(10) as i64).unwrap())
        .collect();
    let mut edges = Vec::new();
    for &a in &apps {
        for _ in 0..(1 + rng.below(2)) {
            let s = svcs[rng.below(n_svcs as u64) as usize];
            if let Ok(e) = g.insert_edge(c("RunsOn"), a, s, vec![], 10 + rng.below(10) as i64) {
                edges.push(e);
            }
        }
    }
    for &s in &svcs {
        for _ in 0..(1 + rng.below(2)) {
            let b = boxes[rng.below(n_boxes as u64) as usize];
            if let Ok(e) = g.insert_edge(c("RunsOn"), s, b, vec![], 10 + rng.below(10) as i64) {
                edges.push(e);
            }
        }
        let s2 = svcs[rng.below(n_svcs as u64) as usize];
        if s != s2 {
            if let Ok(e) = g.insert_edge(c("Linked"), s, s2, vec![], 12 + rng.below(8) as i64) {
                edges.push(e);
            }
        }
    }
    for i in 0..n_boxes {
        let (a, b) = (boxes[i], boxes[rng.below(n_boxes as u64) as usize]);
        if a != b {
            if let Ok(e) = g.insert_edge(c("Linked"), a, b, vec![], 12 + rng.below(8) as i64) {
                edges.push(e);
            }
        }
    }
    // Delete ~a third of the edges at later timestamps.
    for (i, &e) in edges.iter().enumerate() {
        if i % 3 == 0 {
            let _ = g.delete(e, 40 + rng.below(20) as i64);
        }
    }
    g
}

const RPES: &[&str] = &[
    "App()->[RunsOn()]{1,4}->Box()",
    "[RunsOn()]{1,4}->Box(box_id=0)",
    "App(app_id=0)->[RunsOn()]{1,4}",
    "Svc()->[Linked()]{1,3}->Svc()",
    "(App()|Svc())->RunsOn()->(Svc()|Box())",
    "Box()->[Linked()]{1,3}->Box(box_id=1)",
];

fn eval_all(g: &TemporalGraph, filter: TimeFilter, threads: usize) -> Vec<Vec<Pathway>> {
    let view = GraphView::new(g, filter);
    let opts = EvalOptions { threads, ..Default::default() };
    RPES.iter()
        .map(|text| {
            let rpe = parse_rpe(text).unwrap();
            let plan = plan_rpe(g.schema(), &rpe, &GraphEstimator { graph: g }).unwrap();
            evaluate(&view, &plan, Seeds::Anchor, &opts)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn parallel_matches_sequential(seed in any::<u64>()) {
        let g = random_graph(seed);
        for filter in [TimeFilter::Current, TimeFilter::AsOf(30), TimeFilter::Range(5, 60)] {
            let seq = eval_all(&g, filter, 1);
            let par = eval_all(&g, filter, 4);
            // Full structural equality: elements, order, and interval sets.
            prop_assert_eq!(&seq, &par, "filter {:?} seed {}", filter, seed);
        }
    }
}

/// Per-worker `OpStats` and temporal-prune counters must merge to exactly
/// the sequential numbers (worker memo entries are the one documented
/// exception — workers re-derive matches the sequential pass would have
/// memoized, so only that counter may grow).
#[test]
fn merged_counters_equal_sequential() {
    let g = random_graph(7);
    let view = GraphView::new(&g, TimeFilter::Range(5, 60));
    for text in RPES {
        let rpe = parse_rpe(text).unwrap();
        let plan = plan_rpe(g.schema(), &rpe, &GraphEstimator { graph: &g }).unwrap();
        let mut seq_trace = ExecTrace::default();
        let mut par_trace = ExecTrace::default();
        let seq = try_evaluate(
            &view,
            &plan,
            Seeds::Anchor,
            &EvalOptions { threads: 1, ..Default::default() },
            &mut ExecCtx { trace: Some(&mut seq_trace), ..Default::default() },
        )
        .unwrap();
        let par = try_evaluate(
            &view,
            &plan,
            Seeds::Anchor,
            &EvalOptions { threads: 4, ..Default::default() },
            &mut ExecCtx { trace: Some(&mut par_trace), ..Default::default() },
        )
        .unwrap();
        assert_eq!(seq, par, "pathways differ for {text}");
        // Operator rows: same operators, same cardinalities, in order.
        let shape = |t: &ExecTrace| t.ops.iter().map(|o| (o.op.clone(), o.rows_in, o.rows_out)).collect::<Vec<_>>();
        assert_eq!(shape(&seq_trace), shape(&par_trace), "operator rows differ for {text}");
        let counter =
            |t: &ExecTrace, name: &str| t.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0);
        assert_eq!(
            counter(&seq_trace, "temporal_prunes"),
            counter(&par_trace, "temporal_prunes"),
            "temporal prune counts differ for {text}"
        );
        // The parallel run reports the jobs it ran, the inline search
        // included.
        if !seq.is_empty() {
            assert!(counter(&par_trace, "rpe_parallel_chunks") > 0, "no parallel chunks recorded for {text}");
        }
    }
}

/// A plan whose automaton and typed table come from the plan cache and one
/// that built them afresh give the same pathways, operator rows and prune
/// counts on the corpus, at every time filter and at one and four seats.
#[test]
fn cached_and_built_plans_agree_on_the_corpus() {
    for seed in 0..6 {
        let g = random_graph(seed);
        for filter in [TimeFilter::Current, TimeFilter::AsOf(30), TimeFilter::Range(5, 60)] {
            let view = GraphView::new(&g, filter);
            for text in RPES {
                let rpe = parse_rpe(text).unwrap();
                let est = GraphEstimator { graph: &g };
                plan_rpe(g.schema(), &rpe, &est).unwrap();
                let cached = plan_rpe(g.schema(), &rpe, &est).unwrap();
                assert_eq!(cached.automaton, Automaton::Cached, "{text}");
                let mut fresh = cached.clone();
                let kinds: Vec<bool> = cached.atoms.iter().map(|a| a.is_node).collect();
                fresh.set_nfa(g.schema(), compile(&cached.norm, &kinds));
                assert_eq!(fresh.automaton, Automaton::Built);
                for threads in [1, 4] {
                    let run = |plan| {
                        let mut trace = ExecTrace::default();
                        let opts = EvalOptions { threads, ..Default::default() };
                        let mut ctx = ExecCtx { trace: Some(&mut trace), ..Default::default() };
                        let p = try_evaluate(&view, plan, Seeds::Anchor, &opts, &mut ctx).unwrap();
                        let rows: Vec<_> = trace.ops.iter().map(|o| (o.op.clone(), o.rows_in, o.rows_out)).collect();
                        (p, rows, trace.counter("typed_prunes"), trace.counter("temporal_prunes"))
                    };
                    assert_eq!(run(&cached), run(&fresh), "{text} at {filter:?}, seed {seed}, {threads} seat(s)");
                }
            }
        }
    }
}
