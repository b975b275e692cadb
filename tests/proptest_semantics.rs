//! Property tests: the NFA-based anchored evaluator agrees with an
//! independent *reference implementation* of the paper's §3.3 pathway
//! satisfaction semantics (recursive, directly following the four
//! concatenation conditions), on randomized graphs and a corpus of RPEs.

use std::sync::Arc;

use nepal::graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal::rpe::{evaluate, parse_rpe, plan_rpe, BoundAtom, EvalOptions, GraphEstimator, Norm, Rpe, Seeds};
use nepal::schema::dsl::parse_schema;
use nepal::schema::{Schema, Value};
use proptest::prelude::*;

const SCHEMA: &str = r#"
    node A { aid: int unique, color: str }
    node B : A { }
    node C { cid: int unique }
    edge X { weight: int }
    edge Y : X { }
    edge Z { weight2: int }
"#;

/// A direct recursive implementation of §3.3 satisfaction over the
/// normalized (repetition-free) form, using the same bound atoms.
fn ref_matches_norm(g: &TemporalGraph, atoms: &[BoundAtom], norm: &Norm, path: &[Uid]) -> bool {
    match norm {
        Norm::Atom(a) => {
            if path.len() != 1 {
                return false;
            }
            let atom = &atoms[*a as usize];
            let uid = path[0];
            if g.is_node(uid) != atom.is_node {
                return false;
            }
            let class = g.class_of(uid).unwrap();
            if !g.schema().is_subclass(class, atom.class) {
                return false;
            }
            match g.current_version(uid) {
                Some(v) => atom.matches_fields(v.fields()),
                None => false,
            }
        }
        Norm::Alt(parts) => parts.iter().any(|p| ref_matches_norm(g, atoms, p, path)),
        Norm::Seq(parts) => {
            // Left-fold binary concatenation with the 4-way split rule.
            fn concat(g: &TemporalGraph, atoms: &[BoundAtom], left: &[Norm], right: &Norm, path: &[Uid]) -> bool {
                for k in 0..=path.len() {
                    // Adjacent split (conditions 1/2).
                    if seq_matches(g, atoms, left, &path[..k]) && ref_matches_norm(g, atoms, right, &path[k..]) {
                        return true;
                    }
                    // Skip exactly one element at the boundary (3/4).
                    if k < path.len()
                        && seq_matches(g, atoms, left, &path[..k])
                        && ref_matches_norm(g, atoms, right, &path[k + 1..])
                    {
                        return true;
                    }
                }
                false
            }
            fn seq_matches(g: &TemporalGraph, atoms: &[BoundAtom], parts: &[Norm], path: &[Uid]) -> bool {
                match parts.len() {
                    0 => false,
                    1 => ref_matches_norm(g, atoms, &parts[0], path),
                    n => concat(g, atoms, &parts[..n - 1], &parts[n - 1], path),
                }
            }
            seq_matches(g, atoms, parts, path)
        }
    }
}

/// Whole-pathway satisfaction: the core form, possibly with implicit
/// endpoint nodes stripped ("a single edge has implicit nodes at its
/// endpoints"). Stripping a node from a node-initial RPE can never help,
/// so trying all combinations is equivalent to the NFA wrapper.
fn ref_matches(g: &TemporalGraph, atoms: &[BoundAtom], norm: &Norm, path: &[Uid]) -> bool {
    if path.is_empty() || !g.is_node(path[0]) || !g.is_node(*path.last().unwrap()) {
        return false;
    }
    let n = path.len();
    if ref_matches_norm(g, atoms, norm, path) {
        return true;
    }
    if n > 1 && ref_matches_norm(g, atoms, norm, &path[1..]) {
        return true;
    }
    if n > 1 && ref_matches_norm(g, atoms, norm, &path[..n - 1]) {
        return true;
    }
    n > 2 && ref_matches_norm(g, atoms, norm, &path[1..n - 1])
}

/// Enumerate every simple alternating pathway up to `max_elems` elements.
fn all_pathways(g: &TemporalGraph, max_elems: usize) -> Vec<Vec<Uid>> {
    let mut out = Vec::new();
    let nodes: Vec<Uid> =
        (0..g.num_entities() as u64).map(Uid).filter(|&u| g.is_node(u) && g.current_version(u).is_some()).collect();
    fn dfs(g: &TemporalGraph, path: &mut Vec<Uid>, max: usize, out: &mut Vec<Vec<Uid>>) {
        out.push(path.clone());
        if path.len() + 2 > max {
            return;
        }
        let last = *path.last().unwrap();
        for adj in g.out_adj(last) {
            if g.current_version(adj.edge).is_none() || g.current_version(adj.other).is_none() {
                continue;
            }
            if path.contains(&adj.edge) || path.contains(&adj.other) {
                continue;
            }
            path.push(adj.edge);
            path.push(adj.other);
            dfs(g, path, max, out);
            path.pop();
            path.pop();
        }
    }
    for n in nodes {
        let mut path = vec![n];
        dfs(g, &mut path, max_elems, &mut out);
    }
    out
}

fn build_graph(seed: u64, n_nodes: usize, n_edges: usize) -> TemporalGraph {
    let schema: Arc<Schema> = Arc::new(parse_schema(SCHEMA).unwrap());
    let mut g = TemporalGraph::new(schema.clone());
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let classes = ["A", "B", "C"];
    let colors = ["red", "green"];
    let mut nodes = Vec::new();
    for i in 0..n_nodes {
        let cls = classes[(rng() % 3) as usize];
        let c = schema.class_by_name(cls).unwrap();
        let fields = if cls == "C" {
            vec![Value::Int(i as i64)]
        } else {
            vec![Value::Int(i as i64), Value::Str(colors[(rng() % 2) as usize].into())]
        };
        nodes.push(g.insert_node(c, fields, 0).unwrap());
    }
    let edge_classes = ["X", "Y", "Z"];
    for _ in 0..n_edges {
        let cls = edge_classes[(rng() % 3) as usize];
        let c = schema.class_by_name(cls).unwrap();
        let a = nodes[(rng() as usize) % nodes.len()];
        let b = nodes[(rng() as usize) % nodes.len()];
        if a == b {
            continue;
        }
        let _ = g.insert_edge(c, a, b, vec![Value::Int((rng() % 10) as i64)], 0);
    }
    g
}

const RPES: &[&str] = &[
    "A(aid=0)",
    "B()",
    "A(color='red')->A(color='green')",
    "A(aid=1)->[X()]{1,3}->C()",
    "X()->Y()",
    "(A(aid=0)|C(cid=1))",
    "A(aid=2)->X()->C()",
    "[Y()]{1,2}->A(aid=0)",
    "C(cid=0)->(X()|Z()){1,2}->A()",
    "A(aid=3)->[X(weight>=5)]{1,2}->A()",
    // Alternation of sequences, repetition of a sequence, exact bounds.
    "(A(aid=0)->X()|C(cid=0)->Z())->A()",
    "[X()->Y()]{1,2}->C(cid=2)",
    "A(aid=1)->[X()]{2,3}->B()",
    "B(color='red')->Y()->B(color='red')",
];

fn check_rpe_on_graph(g: &TemporalGraph, rpe_text: &str, threads: usize) {
    let rpe: Rpe = parse_rpe(rpe_text).unwrap();
    let plan = plan_rpe(g.schema(), &rpe, &GraphEstimator { graph: g }).unwrap();
    let view = GraphView::new(g, TimeFilter::Current);
    let opts = EvalOptions { threads, ..Default::default() };
    let engine_paths: std::collections::HashSet<Vec<Uid>> =
        evaluate(&view, &plan, Seeds::Anchor, &opts).into_iter().map(|p| p.elems).collect();
    // Reference: brute-force over every simple pathway up to the plan's
    // length limit.
    let mut ref_paths = std::collections::HashSet::new();
    for path in all_pathways(g, plan.max_elements.min(7)) {
        if ref_matches(g, &plan.atoms, &plan.norm, &path) {
            ref_paths.insert(path);
        }
    }
    // The engine may legitimately find longer matches than the brute-force
    // bound; compare only up to the enumeration limit.
    let engine_limited: std::collections::HashSet<Vec<Uid>> =
        engine_paths.iter().filter(|p| p.len() <= plan.max_elements.min(7)).cloned().collect();
    assert_eq!(
        ref_paths,
        engine_limited,
        "semantics mismatch for `{rpe_text}` at threads {threads}:\n  reference-only: {:?}\n  engine-only: {:?}",
        ref_paths.difference(&engine_limited).collect::<Vec<_>>(),
        engine_limited.difference(&ref_paths).collect::<Vec<_>>(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nfa_engine_agrees_with_reference_semantics(seed in 0u64..5000) {
        let g = build_graph(seed, 7, 10);
        for rpe in RPES {
            for threads in [1, 4] {
                check_rpe_on_graph(&g, rpe, threads);
            }
        }
    }

    #[test]
    fn rpe_parser_round_trips(seed in 0u64..10_000) {
        // Pick a corpus entry and mutate predicate constants — the printed
        // form must re-parse to an identical AST.
        let idx = (seed as usize) % RPES.len();
        let ast = parse_rpe(RPES[idx]).unwrap();
        let printed = ast.to_string();
        let reparsed = parse_rpe(&printed).unwrap();
        prop_assert_eq!(ast, reparsed);
    }
}

#[test]
fn dense_graph_regression() {
    // A denser deterministic case that historically exercises the
    // combination of alternation anchors and boundary skips.
    let g = build_graph(424242, 9, 20);
    for rpe in RPES {
        for threads in [1, 4] {
            check_rpe_on_graph(&g, rpe, threads);
        }
    }
}
