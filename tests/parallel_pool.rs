//! Tier-1 gate for the evaluator's worker pool (`nepal::rpe::par`): on a
//! small-tier churned inventory, the benchmark's query shapes must come
//! out the same at 1, 2 and 4 participants under every kind of time
//! filter — same pathways, same operator rows, same logical meter counts,
//! and the same result digest through `Engine::query` (which adds
//! planning, anchor import, joins and heads around each evaluation).

use std::sync::Arc;

use nepal::core::{digest_result, engine_over};
use nepal::graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal::obs::{ExecTrace, MeterSnapshot, ResourceMeter};
use nepal::rpe::{parse_rpe, plan_rpe, try_evaluate, EvalOptions, ExecCtx, GraphEstimator, Pathway, Seeds};
use nepal::schema::{format_ts, Ts, Value};
use nepal::workload::{generate_tier_churned, SizeTier};

const DAY: Ts = 86_400_000_000;
const THREADS: [usize; 3] = [1, 2, 4];

/// The unanchored `fanout.aggregate` shapes, the join's two variables last.
const FANOUT: [&str; 6] = [
    "VNF()->[Vertical()]{1,6}->Host()",
    "Host()->[ConnectedTo()]{1,2}->Host()",
    "Container()->[VmNetwork()]->VirtualNetwork()",
    "Service()->[Vertical()]{1,8}->Host()",
    "VFC()->OnVM()->Container()->OnServer()->Host()",
    "Host()->ServerSwitch()->Switch()",
];

struct World {
    graph: Arc<TemporalGraph>,
    /// Anchored Table-1 shapes, two instances of each family.
    table1: Vec<String>,
    /// A time in the broad churn phase and one in the hot phase, whole seconds.
    t1: Ts,
    t2: Ts,
}

fn unique_ids(g: &TemporalGraph, uids: &[Uid], class: &str, field: &str) -> Vec<i64> {
    let schema = g.schema();
    let want = schema.class_by_name(class).expect("class in the ONAP schema");
    uids.iter()
        .filter_map(|&uid| {
            let cls = g.class_of(uid)?;
            if !schema.is_subclass(cls, want) {
                return None;
            }
            let idx = schema.all_fields(cls).iter().position(|f| f.name == field)?;
            match g.current_fields(uid)?.get(idx)? {
                Value::Int(id) => Some(*id),
                _ => None,
            }
        })
        .collect()
}

fn world() -> World {
    let tier = SizeTier::Small;
    let (topo, _) = generate_tier_churned(tier, 7);
    let g = &topo.graph;
    let two = |ids: Vec<i64>| [ids[0], ids[ids.len() / 2]];
    let mut table1 = Vec::new();
    for id in two(unique_ids(g, &topo.vnfs, "VNF", "vnf_id")) {
        table1.push(format!("VNF(vnf_id={id})->[Vertical()]{{1,6}}->Host()"));
    }
    for id in two(unique_ids(g, &topo.hosts, "Host", "host_id")) {
        table1.push(format!("VNF()->[Vertical()]{{1,6}}->Host(host_id={id})"));
    }
    for id in two(unique_ids(g, &topo.containers, "VM", "vm_id")) {
        table1.push(format!("VM(vm_id={id})->[ConnectedTo()]{{1,4}}->Container()"));
    }
    let start = topo.params.start_ts;
    let broad_days = tier.broad_churn(7).days as Ts;
    World {
        t1: start + (broad_days / 2) * DAY,
        t2: start + (broad_days + 3) * DAY,
        table1,
        graph: Arc::new(topo.graph),
    }
}

/// What one evaluation must reproduce at every thread count.
#[derive(Debug, PartialEq)]
struct Observed {
    pathways: Vec<Pathway>,
    /// `(op, detail, rows_in, rows_out)` per operator instance.
    ops: Vec<(String, String, u64, u64)>,
    temporal_prunes: Option<u64>,
    /// Logical counters only: CPU time is physical.
    meter: MeterSnapshot,
}

fn observe(g: &TemporalGraph, rpe: &str, filter: TimeFilter, threads: usize) -> Observed {
    let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: g }).unwrap();
    let meter = Arc::new(ResourceMeter::default());
    let opts = EvalOptions { threads, meter: Some(meter.clone()), ..Default::default() };
    let mut trace = ExecTrace::default();
    let mut ctx = ExecCtx { trace: Some(&mut trace), ..Default::default() };
    let pathways = try_evaluate(&GraphView::new(g, filter), &plan, Seeds::Anchor, &opts, &mut ctx).unwrap();
    Observed {
        pathways,
        ops: trace.ops.iter().map(|o| (o.op.clone(), o.detail.clone(), o.rows_in, o.rows_out)).collect(),
        temporal_prunes: trace.counters.iter().find(|(n, _)| n == "temporal_prunes").map(|(_, v)| *v),
        meter: MeterSnapshot { cpu_ns: 0, ..meter.snapshot() },
    }
}

#[test]
fn evaluator_is_identical_at_every_thread_count() {
    let w = world();
    let filters = [TimeFilter::Current, TimeFilter::AsOf(w.t1), TimeFilter::Range(w.t1, w.t2)];
    let mut nonempty = 0;
    for rpe in w.table1.iter().map(String::as_str).chain(FANOUT) {
        for filter in filters {
            let want = observe(&w.graph, rpe, filter, THREADS[0]);
            nonempty += usize::from(!want.pathways.is_empty());
            for threads in &THREADS[1..] {
                let got = observe(&w.graph, rpe, filter, *threads);
                assert!(got == want, "{rpe} under {filter:?} differs at threads = {threads}");
            }
        }
    }
    assert!(nonempty >= 24, "only {nonempty} of 36 evaluations matched anything: the gate would be vacuous");
}

#[test]
fn engine_digests_are_identical_at_every_thread_count() {
    let w = world();
    let at = |t: Ts| format!("'{}'", format_ts(t - t % 1_000_000));
    let mut queries: Vec<String> = Vec::new();
    for rpe in &w.table1 {
        queries.push(format!("Retrieve P From PATHS P Where P MATCHES {rpe}"));
        queries.push(format!("AT {} Retrieve P From PATHS P Where P MATCHES {rpe}", at(w.t1)));
        queries.push(format!("AT {} : {} Retrieve P From PATHS P Where P MATCHES {rpe}", at(w.t1), at(w.t2)));
    }
    for rpe in &FANOUT[..4] {
        queries.push(format!("Select count(P) From PATHS P Where P MATCHES {rpe}"));
    }
    // The benchmark's placement join: linked ends, hash-joined.
    let (a, b) = (FANOUT[4], FANOUT[5]);
    let join = format!("From PATHS A, PATHS B Where A MATCHES {a} And B MATCHES {b} And target(A) = source(B)");
    queries.push(format!("Select count(A) {join}"));
    queries.push(format!("AT {} Select count(A) {join}", at(w.t2)));
    queries.push(format!("AT {} : {} Select count(A) {join}", at(w.t1), at(w.t2)));
    queries.push(format!("Retrieve A, B {join}"));
    // No link between the variables' ends: each runs from its own anchor,
    // and the cross product of the two sets must come out in the same
    // order whatever the seat count.
    queries.push(format!("Retrieve A, B From PATHS A, PATHS B Where A MATCHES {} And B MATCHES {b}", w.table1[0]));
    // A hash join whose build side holds thousands of pathways: the count
    // must not depend on how the pool split either evaluation.
    queries.push(
        "Select count(B) From PATHS A, PATHS B Where A MATCHES VFC()->OnVM()->Container() \
         And B MATCHES VM()->[ConnectedTo()]{1,2}->Container() And target(A) = source(B)"
            .to_string(),
    );

    let mut engine = engine_over(w.graph.clone());
    for q in &queries {
        let mut want = None;
        for threads in THREADS {
            engine.eval_options.threads = threads;
            let r = engine.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            let got = (r.rows.len(), digest_result(&r));
            assert_eq!(*want.get_or_insert(got), got, "{q} differs at threads = {threads}");
        }
    }
}
