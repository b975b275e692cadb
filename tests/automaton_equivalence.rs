//! Every plan carries the determinised, kind-typed automaton; the ε-free
//! automaton it is built from accepts the same pathways. Swapping one for
//! the other in a plan must therefore change no answer: the six
//! `fanout.aggregate` RPEs, the three anchored Table-1 templates (several
//! anchors each) and the `retarget.backends` VFC shape, on a churned graph,
//! at `Current`, `AsOf` and `Range`, on the native evaluator (one and four
//! seats) and on the relational route.

mod common;

use common::{live_ids, mutation_span};
use nepal::core::{Backend, RelationalBackend};
use nepal::graph::{GraphView, TemporalGraph, TimeFilter};
use nepal::rpe::nfa::compile_eps_free;
use nepal::rpe::{evaluate, parse_rpe, plan_rpe, EvalOptions, GraphEstimator, Pathway, RpePlan, Seeds};
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

/// The fanout RPEs, then top-down, bottom-up, VM connectivity and the
/// retarget VFC shape, each anchored on three live ids.
fn shapes(g: &TemporalGraph) -> Vec<String> {
    let mut rpes: Vec<String> = FANOUT.iter().map(|r| r.to_string()).collect();
    let picks = [1, 7, 23];
    for (template, class, field) in [
        ("VNF(vnf_id={})->[Vertical()]{1,6}->Host()", "VNF", "vnf_id"),
        ("VNF()->[Vertical()]{1,6}->Host(host_id={})", "Host", "host_id"),
        ("VM(vm_id={})->[ConnectedTo()]{1,4}->Container()", "VM", "vm_id"),
        ("VFC(vfc_id={})->[Vertical()]{1,3}->Host()", "VFC", "vfc_id"),
    ] {
        for id in live_ids(g, class, field, &picks) {
            rpes.push(template.replacen("{}", &id.to_string(), 1));
        }
    }
    rpes
}

/// The plan as built, and the same plan walking the ε-free automaton.
fn plans(g: &TemporalGraph, rpe: &str) -> (RpePlan, RpePlan) {
    let plan = plan_rpe(g.schema(), &parse_rpe(rpe).unwrap(), &GraphEstimator { graph: g }).unwrap();
    let kinds: Vec<bool> = plan.atoms.iter().map(|a| a.is_node).collect();
    let mut eps = plan.clone();
    eps.set_nfa(g.schema(), compile_eps_free(&plan.norm, &kinds));
    assert!(plan.nfa.n_states <= eps.nfa.n_states, "{rpe}: the determinised automaton is larger");
    (plan, eps)
}

fn native(g: &TemporalGraph, plan: &RpePlan, filter: TimeFilter, threads: usize) -> Vec<Pathway> {
    evaluate(&GraphView::new(g, filter), plan, Seeds::Anchor, &EvalOptions { threads, ..Default::default() })
}

fn check_tier(tier: SizeTier, seed: u64) {
    let (topo, _) = generate_tier_churned(tier, seed);
    let g = topo.graph;
    let (t0, t1) = mutation_span(&g);
    let quarter = (t1 - t0) / 4;
    let filters =
        [TimeFilter::Current, TimeFilter::AsOf(t0 + 2 * quarter), TimeFilter::Range(t0 + quarter, t1 - quarter)];
    let mut rel = RelationalBackend::from_graph(&g).unwrap();
    let rpes = shapes(&g);
    let mut non_empty = 0;
    for rpe in &rpes {
        let (dfa, eps) = plans(&g, rpe);
        for filter in filters {
            let want = native(&g, &eps, filter, 1);
            for threads in [1, 4] {
                assert_eq!(native(&g, &dfa, filter, threads), want, "{rpe} under {filter:?}: native at {threads}");
                assert_eq!(native(&g, &eps, filter, threads), want, "{rpe} under {filter:?}: ε-free at {threads}");
            }
            let opts = EvalOptions::default();
            assert_eq!(
                rel.eval(&dfa, filter, Seeds::Anchor, &opts).unwrap(),
                want,
                "{rpe} under {filter:?}: relational"
            );
            // The ε-free automaton's extra seeds and transitions cost the
            // unanchored fanouts seconds per relational pass: anchored
            // shapes only.
            if rpe.contains('=') {
                let by_eps = rel.eval(&eps, filter, Seeds::Anchor, &opts).unwrap();
                assert_eq!(by_eps, want, "{rpe} under {filter:?}: relational, ε-free");
            }
            non_empty += !want.is_empty() as usize;
        }
    }
    assert!(non_empty >= 3 * rpes.len() - 3, "only {non_empty} of {} answers are non-empty", 3 * rpes.len());
}

#[test]
fn determinised_plans_match_eps_free_plans() {
    check_tier(SizeTier::Small, 42);
}

/// The same check at the medium tier (~115k entities), where the benchmark
/// runs; release builds only (see CI).
#[test]
#[ignore]
fn determinised_plans_match_eps_free_plans_medium_tier() {
    check_tier(SizeTier::Medium, 42);
}
