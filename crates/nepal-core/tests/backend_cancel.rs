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
use parking_lot::RwLock;

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
    let client = GremlinClient::new(serve_in_process(Arc::new(RwLock::new(property_graph_from(&g)))));
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
