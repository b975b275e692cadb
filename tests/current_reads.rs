//! `Current` element checks read the store's element column (one word per
//! uid: class, kind, open head); `AsOf` checks read the version chains. At
//! the latest mutation instant `t_max` the two scopes see the same snapshot,
//! so every query must return the same pathways under `Current` and under
//! `AsOf(t_max)`: the five fanout aggregates' RPEs and the three anchored
//! Table-1 shapes, on a churned graph, at one and four seats, before and
//! after a NEPALB1 round trip. A delete mid-path must then drop the pathway
//! at `Current` and leave it at `AsOf` before the delete.

use nepal::graph::{load_binary, save_binary, GraphView, TemporalGraph, TimeFilter, Uid, FOREVER};
use nepal::rpe::{evaluate, parse_rpe, plan_rpe, EvalOptions, GraphEstimator, Pathway, Seeds};
use nepal::schema::{Ts, Value};
use nepal::workload::{generate_tier_churned, SizeTier};

/// The RPEs of the five `fanout.aggregate` queries (the join has two).
const FANOUT: [&str; 6] = [
    "VNF()->[Vertical()]{1,6}->Host()",
    "Host()->[ConnectedTo()]{1,2}->Host()",
    "Container()->[VmNetwork()]->VirtualNetwork()",
    "Service()->[Vertical()]{1,8}->Host()",
    "VFC()->OnVM()->Container()->OnServer()->Host()",
    "Host()->ServerSwitch()->Switch()",
];

/// The latest instant any version opened or closed at.
fn latest_mutation(g: &TemporalGraph) -> Ts {
    (0..g.num_entities() as u64)
        .flat_map(|raw| g.versions(Uid(raw)))
        .flat_map(|v| [v.span.from, v.span.to])
        .filter(|&t| t != FOREVER)
        .max()
        .expect("a non-empty graph")
}

/// The unique id (`field`) of the first currently asserted entity of
/// `class` in extent order, skipping `skip` of them.
fn live_id(g: &TemporalGraph, class: &str, field: &str, skip: usize) -> i64 {
    let c = g.schema().class_by_name(class).expect("class in the schema");
    let idx = g.schema().all_fields(c).iter().position(|f| f.name == field).expect("id field");
    let uid = GraphView::new(g, TimeFilter::Current).scan_class(c).into_iter().nth(skip).expect("a live entity");
    match g.current_fields(uid).expect("alive")[idx] {
        Value::Int(id) => id,
        ref other => panic!("{field} is {other:?}"),
    }
}

/// The fanout RPEs plus top-down, bottom-up and VM-connectivity anchored
/// on live ids of `g`.
fn shapes(g: &TemporalGraph) -> Vec<String> {
    let mut rpes: Vec<String> = FANOUT.iter().map(|r| r.to_string()).collect();
    rpes.push(format!("VNF(vnf_id={})->[Vertical()]{{1,6}}->Host()", live_id(g, "VNF", "vnf_id", 1)));
    rpes.push(format!("VNF()->[Vertical()]{{1,6}}->Host(host_id={})", live_id(g, "Host", "host_id", 2)));
    rpes.push(format!("VM(vm_id={})->[ConnectedTo()]{{1,4}}->Container()", live_id(g, "VM", "vm_id", 3)));
    rpes
}

fn pathways(g: &TemporalGraph, rpe: &str, filter: TimeFilter, threads: usize) -> Vec<Pathway> {
    let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: g }).unwrap();
    let opts = EvalOptions { threads, ..Default::default() };
    evaluate(&GraphView::new(g, filter), &plan, Seeds::Anchor, &opts)
}

/// Every shape returns the same pathways at `Current` and at `AsOf(t_max)`,
/// at one and four seats; returns the one-seat `Current` results.
fn assert_current_is_as_of_latest(g: &TemporalGraph, rpes: &[String]) -> Vec<Vec<Pathway>> {
    let t_max = latest_mutation(g);
    let mut out = Vec::new();
    for rpe in rpes {
        let now = pathways(g, rpe, TimeFilter::Current, 1);
        for threads in [1, 4] {
            assert_eq!(pathways(g, rpe, TimeFilter::Current, threads), now, "{rpe}: Current at {threads} seats");
            assert_eq!(pathways(g, rpe, TimeFilter::AsOf(t_max), threads), now, "{rpe}: AsOf({t_max}) at {threads}");
        }
        out.push(now);
    }
    let non_empty = out.iter().filter(|p| !p.is_empty()).count();
    assert!(non_empty >= rpes.len() - 1, "only {non_empty} of {} shapes match anything", rpes.len());
    out
}

fn check_tier(tier: SizeTier, seed: u64) {
    let (topo, _) = generate_tier_churned(tier, seed);
    let g = topo.graph;
    let rpes = shapes(&g);
    let before = assert_current_is_as_of_latest(&g, &rpes);

    let mut buf = Vec::new();
    save_binary(&g, &mut buf).unwrap();
    let mut g2 = load_binary(g.schema().clone(), &buf, 4).unwrap();
    assert_eq!(g2.elem_column(), g.elem_column());
    assert_eq!(assert_current_is_as_of_latest(&g2, &rpes), before, "the NEPALB1 round trip changed an answer");

    // Delete an interior edge of a three-hop top-down pathway, after every
    // earlier mutation.
    let top_down = &before[6];
    let victim = top_down.iter().find(|p| p.len_edges() >= 3).expect("a three-hop top-down pathway").clone();
    let edge = victim.edges().nth(1).unwrap();
    let t_del = latest_mutation(&g2) + 10;
    g2.delete(edge, t_del).unwrap();
    assert!(!pathways(&g2, &rpes[6], TimeFilter::Current, 1).contains(&victim), "deleted edge still at Current");
    for threads in [1, 4] {
        let past = pathways(&g2, &rpes[6], TimeFilter::AsOf(t_del - 1), threads);
        assert!(past.contains(&victim), "AsOf before the delete lost the pathway at {threads} seats");
    }
    assert_current_is_as_of_latest(&g2, &rpes);
    assert_eq!(g2.elem_column(), g2.elem_column_recount());
}

#[test]
fn current_reads_match_as_of_the_latest_instant() {
    check_tier(SizeTier::Small, 42);
}

/// The same check at the medium tier (~115k entities), where the benchmark
/// runs; release builds only (see CI).
#[test]
#[ignore]
fn current_reads_match_as_of_the_latest_instant_medium_tier() {
    check_tier(SizeTier::Medium, 42);
}
