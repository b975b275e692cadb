//! Gremlin backend equivalence: evaluating an RPE plan through the wire
//! protocol against the mock Gremlin server must return the same pathway
//! sets as the native evaluator (current snapshot, and as-of for liveness
//! churn), and the ExtendBlock fast path must match the generic path while
//! using fewer round trips.

use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

use nepal_graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal_gremlin::server::PipeEnd;
use nepal_gremlin::{
    evaluate_gremlin, property_graph_from, serve_in_process, GremlinClient, GremlinServer, GremlinTime,
};
use nepal_obs::SpanHandle;
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

fn random_graph(seed: u64, n: usize) -> TemporalGraph {
    let s: Arc<Schema> = Arc::new(parse_schema(SCHEMA).unwrap());
    let mut g = TemporalGraph::new(s.clone());
    let c = |x: &str| s.class_by_name(x).unwrap();
    let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut vnfs = vec![];
    let mut vfcs = vec![];
    let mut vms = vec![];
    let mut hosts = vec![];
    for i in 0..n {
        vnfs.push(g.insert_node(c("VNF"), vec![Value::Int(i as i64)], 0).unwrap());
        vfcs.push(g.insert_node(c("VFC"), vec![Value::Int(i as i64)], 0).unwrap());
        let st = if rng() % 2 == 0 { "Green" } else { "Red" };
        vms.push(g.insert_node(c("VM"), vec![Value::Int(i as i64), Value::Str(st.into())], 0).unwrap());
        hosts.push(g.insert_node(c("Host"), vec![Value::Int(i as i64)], 0).unwrap());
    }
    let mut edges = vec![];
    let pick = |v: &Vec<Uid>, r: u64| v[(r as usize) % v.len()];
    for i in 0..n {
        edges.push(g.insert_edge(c("ComposedOf"), vnfs[i], pick(&vfcs, rng()), vec![], 1).unwrap());
        edges.push(g.insert_edge(c("HostedOn"), vfcs[i], pick(&vms, rng()), vec![], 1).unwrap());
        edges.push(g.insert_edge(c("HostedOn"), vms[i], pick(&hosts, rng()), vec![], 1).unwrap());
        let (a, b) = (pick(&hosts, rng()), pick(&hosts, rng()));
        if a != b {
            edges.push(g.insert_edge(c("Connects"), a, b, vec![], 1).unwrap());
        }
    }
    // Liveness churn only (the Gremlin backend stores latest field values).
    for (k, e) in edges.iter().enumerate() {
        if k % 4 == 0 {
            let _ = g.delete(*e, 100 + (rng() % 50) as i64);
        }
    }
    g
}

fn key(paths: &[Pathway]) -> Vec<Vec<u64>> {
    let mut v: Vec<Vec<u64>> = paths.iter().map(|p| p.elems.iter().map(|u| u.0).collect()).collect();
    v.sort();
    v
}

const QUERIES: &[&str] = &[
    "VNF(vnf_id=2)->[Vertical()]{1,6}->Host()",
    "VNF()->VFC()->VM()->Host(host_id=3)",
    "VM(status='Green')->HostedOn()->Host()",
    "Host(host_id=0)->[Connects()]{1,3}->Host()",
    "ComposedOf()->HostedOn()",
    "(VNF(vnf_id=1)|VFC(vfc_id=1))",
];

/// Evaluate `q` natively and over the wire and assert the same pathways;
/// returns the response bytes of each Gremlin round trip.
fn check(g: &TemporalGraph, q: &str, native_filter: TimeFilter, gtime: GremlinTime, block: bool) -> Vec<String> {
    let plan = plan_rpe(g.schema(), &parse_rpe(q).unwrap(), &GraphEstimator { graph: g }).unwrap();
    let view = GraphView::new(g, native_filter);
    let native = evaluate(&view, &plan, Seeds::Anchor, &EvalOptions::default());
    let pg = Arc::new(property_graph_from(g));
    let responses = Arc::new(Mutex::new(Vec::new()));
    let mut client = GremlinClient::new(Recorder { inner: serve_in_process(pg), responses: responses.clone() });
    let res = evaluate_gremlin(
        &mut client,
        g.schema(),
        &plan,
        gtime,
        Seeds::Anchor,
        &EvalOptions::default(),
        block,
        &SpanHandle::none(),
    )
    .unwrap();
    assert_eq!(
        key(&native),
        key(&res.pathways),
        "gremlin mismatch for `{q}` (block={block}): native {} vs gremlin {}",
        native.len(),
        res.pathways.len()
    );
    drop(client);
    let responses = std::mem::take(&mut *responses.lock().unwrap());
    responses.into_iter().map(|r| String::from_utf8_lossy(&r).into_owned()).collect()
}

/// A transport that keeps the bytes of every response: a write after a
/// read starts the next round trip's buffer.
struct Recorder {
    inner: PipeEnd,
    responses: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Read for Recorder {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if let Some(last) = self.responses.lock().unwrap().last_mut() {
            last.extend_from_slice(&buf[..n]);
        }
        Ok(n)
    }
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut responses = self.responses.lock().unwrap();
        if responses.last().is_none_or(|r| !r.is_empty()) {
            responses.push(Vec::new());
        }
        drop(responses);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn current_snapshot_equivalence() {
    for seed in 0..3u64 {
        let g = random_graph(seed, 8);
        for q in QUERIES {
            check(&g, q, TimeFilter::Current, GremlinTime::Current, false);
        }
    }
}

#[test]
fn as_of_liveness_equivalence() {
    for seed in 0..3u64 {
        let g = random_graph(seed, 8);
        for q in QUERIES {
            for t in [50, 120, 200] {
                check(&g, q, TimeFilter::AsOf(t), GremlinTime::AsOf(t), false);
            }
        }
    }
}

#[test]
fn extend_block_matches_generic_path() {
    let times = [
        (TimeFilter::Current, GremlinTime::Current),
        (TimeFilter::AsOf(50), GremlinTime::AsOf(50)),
        (TimeFilter::AsOf(120), GremlinTime::AsOf(120)),
        (TimeFilter::AsOf(200), GremlinTime::AsOf(200)),
    ];
    for seed in 0..3u64 {
        let g = random_graph(seed, 10);
        for (native_filter, gtime) in times {
            // The ExtendBlock round trip (the second) ships ids only, its
            // end atom filtered on the server.
            for q in [
                "VNF(vnf_id=2)->[Vertical()]{1,6}->Host()",
                "VNF()->[Vertical()]{1,6}->Host(host_id=3)",
                "Host(host_id=0)->[Connects()]{1,3}->Host()",
                "VFC(vfc_id=1)->[Vertical()]{1,3}->VM(status='Green')",
            ] {
                let responses = check(&g, q, native_filter, gtime, true);
                assert_eq!(responses.len(), 2, "`{q}`: select + one repeat traversal");
                assert!(!responses[1].contains("\"properties\""), "`{q}`: ExtendBlock shipped element detail");
            }
            // A non-`Eq` end predicate cannot be pushed down: the generic
            // walk answers, with more round trips.
            let q = "VFC(vfc_id=1)->[Vertical()]{1,3}->Host(host_id>=2)";
            assert!(check(&g, q, native_filter, gtime, true).len() > 2, "`{q}` took the fast path");
        }
    }
}

#[test]
fn large_int_predicates_match_over_gremlin() {
    // Ints beyond ±2^53 are stored as `@i` tags; a `has` literal must be
    // encoded the same way for anchor selection and the end filter.
    let big = (1i64 << 53) + 1;
    let s: Arc<Schema> = Arc::new(parse_schema(SCHEMA).unwrap());
    let mut g = TemporalGraph::new(s.clone());
    let c = |x: &str| s.class_by_name(x).unwrap();
    let vnf = g.insert_node(c("VNF"), vec![Value::Int(big)], 0).unwrap();
    let vfc = g.insert_node(c("VFC"), vec![Value::Int(big)], 0).unwrap();
    let host = g.insert_node(c("Host"), vec![Value::Int(big)], 0).unwrap();
    g.insert_node(c("VNF"), vec![Value::Int(big - 1)], 0).unwrap();
    g.insert_edge(c("ComposedOf"), vnf, vfc, vec![], 0).unwrap();
    g.insert_edge(c("HostedOn"), vfc, host, vec![], 0).unwrap();
    for q in [
        format!("VNF(vnf_id={big})->[Vertical()]{{1,2}}->Host()"),
        format!("VNF()->[Vertical()]{{1,2}}->Host(host_id={big})"),
        format!("VNF(vnf_id={big})->[Vertical()]{{1,2}}->Host(host_id={big})"),
        format!("VFC(vfc_id={big})"),
    ] {
        for block in [false, true] {
            check(&g, &q, TimeFilter::Current, GremlinTime::Current, block);
        }
        let plan = plan_rpe(g.schema(), &parse_rpe(&q).unwrap(), &GraphEstimator { graph: &g }).unwrap();
        let view = GraphView::new(&g, TimeFilter::Current);
        assert_eq!(evaluate(&view, &plan, Seeds::Anchor, &EvalOptions::default()).len(), 1, "`{q}`");
    }
}

#[test]
fn extend_block_reduces_round_trips() {
    let g = random_graph(5, 12);
    let q = "VNF(vnf_id=2)->[Vertical()]{1,6}->Host()";
    let plan = plan_rpe(g.schema(), &parse_rpe(q).unwrap(), &GraphEstimator { graph: &g }).unwrap();
    let pg = Arc::new(property_graph_from(&g));
    let mut c1 = GremlinClient::new(serve_in_process(pg.clone()));
    let with_block = evaluate_gremlin(
        &mut c1,
        g.schema(),
        &plan,
        GremlinTime::Current,
        Seeds::Anchor,
        &EvalOptions::default(),
        true,
        &SpanHandle::none(),
    )
    .unwrap();
    let mut c2 = GremlinClient::new(serve_in_process(pg));
    let without = evaluate_gremlin(
        &mut c2,
        g.schema(),
        &plan,
        GremlinTime::Current,
        Seeds::Anchor,
        &EvalOptions::default(),
        false,
        &SpanHandle::none(),
    )
    .unwrap();
    assert_eq!(key(&with_block.pathways), key(&without.pathways));
    assert_eq!(with_block.round_trips, 2, "ExtendBlock = select + one repeat traversal");
    assert!(
        without.round_trips > with_block.round_trips,
        "generic path should need more round trips ({} vs {})",
        without.round_trips,
        with_block.round_trips
    );
}

#[test]
fn seeded_evaluation_over_tcp() {
    let g = random_graph(3, 8);
    let plan = plan_rpe(g.schema(), &parse_rpe("Connects(){1,3}").unwrap(), &GraphEstimator { graph: &g }).unwrap();
    let hosts: Vec<Uid> = GraphView::new(&g, TimeFilter::Current).scan_class(g.schema().class_by_name("Host").unwrap());
    let seeds = [hosts[0]];
    let view = GraphView::new(&g, TimeFilter::Current);
    let native = evaluate(&view, &plan, Seeds::Sources(&seeds), &EvalOptions::default());

    let pg = Arc::new(property_graph_from(&g));
    let server = GremlinServer::start(pg).unwrap();
    let mut client = GremlinClient::new(server.connect().unwrap());
    let res = evaluate_gremlin(
        &mut client,
        g.schema(),
        &plan,
        GremlinTime::Current,
        Seeds::Sources(&seeds),
        &EvalOptions::default(),
        false,
        &SpanHandle::none(),
    )
    .unwrap();
    assert_eq!(key(&native), key(&res.pathways));

    let native_t = evaluate(&view, &plan, Seeds::Targets(&seeds), &EvalOptions::default());
    let res_t = evaluate_gremlin(
        &mut client,
        g.schema(),
        &plan,
        GremlinTime::Current,
        Seeds::Targets(&seeds),
        &EvalOptions::default(),
        false,
        &SpanHandle::none(),
    )
    .unwrap();
    assert_eq!(key(&native_t), key(&res_t.pathways));
}

#[test]
fn textual_eval_op_over_the_wire() {
    // The server accepts the console-style `eval` op with a textual
    // traversal and returns the same answer as the bytecode path.
    let g = random_graph(1, 6);
    let pg = Arc::new(property_graph_from(&g));
    let server = GremlinServer::start(pg).unwrap();
    let mut client = GremlinClient::new(server.connect().unwrap());
    let via_text = client.submit_text("g.V().hasLabel('Node:VM').id()").unwrap();
    let via_bytecode = client
        .submit(&[
            nepal_gremlin::GStep::V(vec![]),
            nepal_gremlin::GStep::HasLabelPrefix("Node:VM".into()),
            nepal_gremlin::GStep::Id,
        ])
        .unwrap();
    assert_eq!(via_text, via_bytecode);
    assert!(!via_text.is_empty());
    // Parse errors come back as server errors without killing the session.
    assert!(client.submit_text("g.V().nope()").is_err());
    assert!(!client.submit_text("g.V().count()").unwrap().is_empty());
}
