//! Allocation budget of the pathway pipeline, gated in tier-1.
//!
//! A counting `#[global_allocator]` (thread-local tally, so the harness's
//! other threads cannot pollute it) measures one `Engine::query` per shape on
//! a small-tier churned inventory at `threads = 1`, where every evaluator job
//! runs inline on the calling thread. Each shape's allocations must stay
//! under `per_pathway × n + fixed`, where `n` is the number of pathways the
//! evaluator produced for the query's range variables: the pipeline's
//! constant per pathway is what PR 14 cut (EXPERIMENTS.md "PR 14" has the
//! parent's counts beside these).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use nepal::core::engine_over;
use nepal::graph::{TemporalGraph, Uid};
use nepal::schema::{format_ts, Ts, Value};
use nepal::workload::{generate_tier_churned, SizeTier};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn tally(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the tally touches
// only `Cell`s in const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DAY: Ts = 86_400_000_000;
const SEED: u64 = 14;
const TOP_DOWN: &str = "VNF(vnf_id={vnf})->[Vertical()]{1,6}->Host()";

/// (name, query, allocations allowed per evaluated pathway, fixed allowance).
/// The fixed allowances are what a query allocates beyond its per-pathway
/// share when its plan's automaton comes from the plan cache, plus a
/// margin; a query that compiles its automaton, or that publishes its
/// search to the pool, does not fit (EXPERIMENTS.md "PR 43" has the counts).
const SHAPES: [(&str, &str, u64, u64); 6] = [
    ("top_down_retrieve", "Retrieve P From PATHS P Where P MATCHES {top_down}", 4, 260),
    ("count", "Select count(P) From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()", 2, 0),
    (
        "count_distinct_target",
        "Select count(distinct target(P)) From PATHS P Where P MATCHES Host()->[ConnectedTo()]{1,2}->Host()",
        1,
        0,
    ),
    (
        "join_count",
        "Select count(A) From PATHS A, PATHS B Where A MATCHES VFC()->OnVM()->Container()->OnServer()->Host() \
         And B MATCHES Host()->ServerSwitch()->Switch() And target(A) = source(B)",
        1,
        150,
    ),
    ("at_retrieve", "AT '{t1}' Retrieve P From PATHS P Where P MATCHES {top_down}", 4, 260),
    // Under a range every partial match carries an interval set, which is heap-allocated per step.
    ("range_retrieve", "AT '{t1}' : '{t2}' Retrieve P From PATHS P Where P MATCHES {top_down}", 110, 0),
];

fn vnf_id(g: &TemporalGraph, uid: Uid) -> i64 {
    let cls = g.class_of(uid).expect("generated uid");
    let idx = g.schema().all_fields(cls).iter().position(|f| f.name == "vnf_id").expect("VNFs have vnf_id");
    match g.current_fields(uid).expect("alive")[idx] {
        Value::Int(id) => id,
        ref other => panic!("vnf_id is {other:?}"),
    }
}

#[test]
fn allocations_per_op_stay_under_the_per_pathway_ceiling() {
    let tier = SizeTier::Small;
    let (topo, _) = generate_tier_churned(tier, SEED);
    let vnf = vnf_id(&topo.graph, topo.vnfs[topo.vnfs.len() / 2]);
    let start = topo.params.start_ts;
    let broad_days = tier.broad_churn(SEED).days as Ts;
    let sec = |t: Ts| t - t % 1_000_000;
    let t1 = sec(start + (broad_days / 2) * DAY + DAY / 2);
    let t2 = sec(start + (broad_days + 3) * DAY + DAY / 2);
    let mut engine = engine_over(Arc::new(topo.graph));
    engine.eval_options.threads = 1;

    let mut report = String::new();
    let mut over = Vec::new();
    for (name, shape, per_pathway, fixed) in SHAPES {
        let text = shape
            .replace("{top_down}", TOP_DOWN)
            .replace("{vnf}", &vnf.to_string())
            .replace("{t1}", &format_ts(t1))
            .replace("{t2}", &format_ts(t2));
        // Warm-up, and the pathway count the ceiling scales with.
        let (_, profile) = engine.query_profiled(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let n: u64 = profile.vars.iter().map(|v| v.pathways).sum();
        assert!(n > 0, "{name} evaluated no pathway");
        let (a0, b0) = (ALLOCS.get(), BYTES.get());
        let result = engine.query(&text).expect("warm-up succeeded");
        let (allocs, bytes) = (ALLOCS.get() - a0, BYTES.get() - b0);
        drop(result);
        let ceiling = per_pathway * n + fixed;
        report.push_str(&format!(
            "{name}: {allocs} allocations ({bytes} B) for {n} pathways = {:.2}/pathway, ceiling {ceiling}\n",
            allocs as f64 / n as f64
        ));
        if allocs > ceiling {
            over.push(name);
        }
    }
    println!("{report}");
    assert!(over.is_empty(), "over the allocation ceiling: {over:?}\n{report}");
}
