//! Cancellation safety: tripping a [`CancelToken`] at an arbitrary
//! checkpoint must never panic, never hang, and never return a silently
//! truncated result — evaluation either completes with exactly the
//! uncancelled answer or surfaces a typed [`RpeError`].
//!
//! The poll-budget constructor (`cancel_after_polls`) makes this
//! deterministic: proptest picks the checkpoint index, no clocks involved.

use std::sync::Arc;

use nepal_graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal_rpe::{
    parse_rpe, plan_rpe, try_evaluate, CancelToken, EvalOptions, ExecCtx, GraphEstimator, RpeError, Seeds,
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
    for &a in &apps {
        for _ in 0..(1 + rng.below(2)) {
            let s = svcs[rng.below(n_svcs as u64) as usize];
            let _ = g.insert_edge(c("RunsOn"), a, s, vec![], 10 + rng.below(10) as i64);
        }
    }
    for &s in &svcs {
        for _ in 0..(1 + rng.below(2)) {
            let b = boxes[rng.below(n_boxes as u64) as usize];
            let _ = g.insert_edge(c("RunsOn"), s, b, vec![], 10 + rng.below(10) as i64);
        }
        let s2 = svcs[rng.below(n_svcs as u64) as usize];
        if s != s2 {
            let _ = g.insert_edge(c("Linked"), s, s2, vec![], 12 + rng.below(8) as i64);
        }
    }
    for i in 0..n_boxes {
        let (a, b) = (boxes[i], boxes[rng.below(n_boxes as u64) as usize]);
        if a != b {
            let _ = g.insert_edge(c("Linked"), a, b, vec![], 12 + rng.below(8) as i64);
        }
    }
    g
}

const RPES: &[&str] = &[
    "App()->[RunsOn()]{1,4}->Box()",
    "Svc()->[Linked()]{1,3}->Svc()",
    "(App()|Svc())->RunsOn()->(Svc()|Box())",
    "Box()->[Linked()]{1,3}->Box(box_id=1)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn cancel_at_any_checkpoint_is_typed_or_complete(
        seed in any::<u64>(),
        budget in 0u64..4096,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let g = random_graph(seed);
        let view = GraphView::new(&g, TimeFilter::Range(5, 60));
        for text in RPES {
            let rpe = parse_rpe(text).unwrap();
            let plan = plan_rpe(g.schema(), &rpe, &GraphEstimator { graph: &g }).unwrap();
            let baseline = try_evaluate(
                &view,
                &plan,
                Seeds::Anchor,
                &EvalOptions { threads, ..Default::default() },
                &mut ExecCtx::default(),
            )
            .expect("token-free evaluation cannot be cancelled");

            let opts = EvalOptions {
                threads,
                cancel: Some(CancelToken::cancel_after_polls(budget)),
                ..Default::default()
            };
            match try_evaluate(&view, &plan, Seeds::Anchor, &opts, &mut ExecCtx::default()) {
                // Finished under budget: the answer must be the full one,
                // bit-identical — cancellation must never truncate.
                Ok(paths) => prop_assert_eq!(
                    &paths, &baseline,
                    "truncated Ok under budget {} for {} (seed {})", budget, text, seed
                ),
                // Tripped: the poll budget reports as an explicit cancel.
                Err(RpeError::Cancelled) => {}
                Err(other) => prop_assert!(
                    false,
                    "unexpected error {:?} under budget {} for {}", other, budget, text
                ),
            }
        }
    }
}

/// An already-tripped explicit token cancels before any work is seeded,
/// and a zero deadline surfaces as `DeadlineExceeded` — the two causes
/// must stay distinguishable at the API boundary.
#[test]
fn causes_map_to_distinct_errors() {
    let g = random_graph(11);
    let view = GraphView::new(&g, TimeFilter::Current);
    let rpe = parse_rpe(RPES[0]).unwrap();
    let plan = plan_rpe(g.schema(), &rpe, &GraphEstimator { graph: &g }).unwrap();

    let tok = CancelToken::new();
    tok.cancel();
    let opts = EvalOptions { cancel: Some(tok), ..Default::default() };
    assert_eq!(
        try_evaluate(&view, &plan, Seeds::Anchor, &opts, &mut ExecCtx::default()).unwrap_err(),
        RpeError::Cancelled
    );

    let opts =
        EvalOptions { cancel: Some(CancelToken::with_deadline(std::time::Duration::ZERO)), ..Default::default() };
    assert_eq!(
        try_evaluate(&view, &plan, Seeds::Anchor, &opts, &mut ExecCtx::default()).unwrap_err(),
        RpeError::DeadlineExceeded
    );
}

/// Cancelling from another thread mid-evaluation (the REPL `:cancel` /
/// server-drain shape) terminates with the typed error; repeated runs with
/// the same token stay cancelled.
#[test]
fn external_cancel_mid_flight_terminates() {
    let g = random_graph(23);
    let view = GraphView::new(&g, TimeFilter::Range(5, 60));
    let rpe = parse_rpe("App()->[RunsOn()]{1,4}->Box()").unwrap();
    let plan = plan_rpe(g.schema(), &rpe, &GraphEstimator { graph: &g }).unwrap();

    let tok = CancelToken::new();
    let canceller = {
        let tok = tok.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            tok.cancel();
        })
    };
    // Keep evaluating until the trip lands (the query may finish first on
    // a fast machine, so loop — the token is sticky once cancelled).
    let opts = EvalOptions { threads: 4, cancel: Some(tok.clone()), ..Default::default() };
    let err = loop {
        match try_evaluate(&view, &plan, Seeds::Anchor, &opts, &mut ExecCtx::default()) {
            Ok(_) if !tok.is_cancelled() => continue,
            Ok(_) => continue, // raced the flag between last poll and return
            Err(e) => break e,
        }
    };
    assert_eq!(err, RpeError::Cancelled);
    canceller.join().unwrap();
    // Sticky: the next evaluation with the same token fails immediately.
    assert_eq!(
        try_evaluate(&view, &plan, Seeds::Anchor, &opts, &mut ExecCtx::default()).unwrap_err(),
        RpeError::Cancelled
    );
}
