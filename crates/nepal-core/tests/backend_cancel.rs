//! `Backend::eval` under a cancel token, for every backend: a token that
//! is already tripped on entry must come back as the typed error, and one
//! that trips at some later poll as either the typed error or the full
//! result — never a panic, never a truncated `Ok`.

use std::sync::Arc;

use nepal_core::{Backend, GremlinBackend, NativeBackend, NepalError, RelationalBackend};
use nepal_graph::{TemporalGraph, TimeFilter};
use nepal_gremlin::{property_graph_from, serve_in_process, GremlinClient};
use nepal_rpe::{parse_rpe, plan_rpe, CancelToken, EvalOptions, GraphEstimator, Seeds};
use nepal_schema::dsl::parse_schema;
use nepal_schema::Value;

/// 40 VMs spread over 8 hosts, each host linked to the next.
fn graph() -> Arc<TemporalGraph> {
    let s = Arc::new(
        parse_schema(
            r#"
            node VM { vm_id: int unique }
            node Host { host_id: int unique }
            edge HostedOn { }
            edge ConnectsTo { }
            "#,
        )
        .unwrap(),
    );
    let c = |n: &str| s.class_by_name(n).unwrap();
    let mut g = TemporalGraph::new(s.clone());
    let hosts: Vec<_> = (0..8).map(|i| g.insert_node(c("Host"), vec![Value::Int(i)], 0).unwrap()).collect();
    for w in hosts.windows(2) {
        g.insert_edge(c("ConnectsTo"), w[0], w[1], vec![], 0).unwrap();
    }
    for i in 0..40 {
        let vm = g.insert_node(c("VM"), vec![Value::Int(i)], 0).unwrap();
        g.insert_edge(c("HostedOn"), vm, hosts[i as usize % 8], vec![], 0).unwrap();
    }
    Arc::new(g)
}

#[test]
fn tripped_token_is_a_typed_error_on_every_backend() {
    let g = graph();
    let plan = plan_rpe(
        g.schema(),
        &parse_rpe("VM()->HostedOn()->Host()->[ConnectsTo()]{0,3}").unwrap(),
        &GraphEstimator { graph: &g },
    )
    .unwrap();
    let client = GremlinClient::new(serve_in_process(Arc::new(property_graph_from(&g))));
    let mut backends: Vec<Box<dyn Backend>> = vec![
        Box::new(NativeBackend::new(g.clone())),
        Box::new(RelationalBackend::from_graph(&g).unwrap()),
        Box::new(GremlinBackend::new(client, g.schema().clone())),
    ];
    // (name, a fresh token, whether it is certain to have tripped by the first poll)
    type Case = (&'static str, fn() -> CancelToken, bool);
    let cancelled = || {
        let t = CancelToken::new();
        t.cancel();
        t
    };
    let tokens: [Case; 5] = [
        ("explicit cancel", cancelled, true),
        ("expired deadline", || CancelToken::with_deadline(std::time::Duration::ZERO), true),
        ("poll budget 0", || CancelToken::cancel_after_polls(0), true),
        ("poll budget 1", || CancelToken::cancel_after_polls(1), false),
        ("poll budget 3", || CancelToken::cancel_after_polls(3), false),
    ];
    for backend in backends.iter_mut() {
        let kind = backend.kind();
        let baseline = backend.eval(&plan, TimeFilter::Current, Seeds::Anchor, &EvalOptions::default()).unwrap();
        assert!(!baseline.is_empty());
        for (name, token, tripped_on_entry) in &tokens {
            for threads in [1, 4] {
                let opts = EvalOptions { threads, cancel: Some(token()), ..Default::default() };
                match backend.eval(&plan, TimeFilter::Current, Seeds::Anchor, &opts) {
                    Err(NepalError::Cancelled | NepalError::DeadlineExceeded) => {}
                    Ok(paths) if !tripped_on_entry => {
                        assert_eq!(paths, baseline, "{kind}: truncated Ok under {name} at threads {threads}")
                    }
                    other => panic!("{kind}: {name} at threads {threads} gave {other:?}"),
                }
            }
        }
    }
}

/// The Gremlin walk has no checkpoint of its own: the token is polled
/// before every round trip, so one that trips after the first round trip
/// must stop the traversal there instead of letting it run to completion.
#[test]
fn gremlin_polls_the_token_between_round_trips() {
    let g = graph();
    // `{0,3}` over a non-node-anchored tail: the generic batched walk, one
    // adjacency fetch per depth level.
    let plan = plan_rpe(
        g.schema(),
        &parse_rpe("VM()->HostedOn()->Host()->[ConnectsTo()]{0,3}").unwrap(),
        &GraphEstimator { graph: &g },
    )
    .unwrap();
    let client = GremlinClient::new(serve_in_process(Arc::new(property_graph_from(&g))));
    let mut backend = GremlinBackend::new(client, g.schema().clone());
    let full = backend.eval(&plan, TimeFilter::Current, Seeds::Anchor, &EvalOptions::default()).unwrap();
    let full_trips = backend.last_round_trips();
    assert!(!full.is_empty() && full_trips >= 3, "the walk must take several round trips, took {full_trips}");

    // Budget 1: the poll before the first round trip passes, the next trips.
    let before = backend.client.round_trips;
    let opts = EvalOptions { cancel: Some(CancelToken::cancel_after_polls(1)), ..Default::default() };
    let got = backend.eval(&plan, TimeFilter::Current, Seeds::Anchor, &opts);
    assert!(
        matches!(got, Err(NepalError::Cancelled)),
        "expected Cancelled after one round trip, got {:?}",
        got.map(|paths| paths.len())
    );
    assert_eq!(backend.client.round_trips - before, 1, "exactly one round trip before the trip");

    // A deadline that is already over reports as such, before any round trip.
    let before = backend.client.round_trips;
    let opts = EvalOptions::with_deadline(std::time::Duration::ZERO);
    let got = backend.eval(&plan, TimeFilter::Current, Seeds::Anchor, &opts);
    assert!(matches!(got, Err(NepalError::DeadlineExceeded)), "{:?}", got.map(|paths| paths.len()));
    assert_eq!(backend.client.round_trips, before);
}
