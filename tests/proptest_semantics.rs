//! Property tests: the automaton-based anchored evaluator agrees with an
//! independent *reference implementation* of the paper's §3.3 pathway
//! satisfaction semantics (recursive, directly following the four
//! concatenation conditions), on randomized graphs and a corpus of RPEs,
//! with and without an edge whitelist in the schema — and so does the
//! relational route; and the determinised automaton every plan carries agrees with the
//! ε-free automaton it is built from, on that corpus and on random RPEs.

mod common;

use std::sync::Arc;

use common::{all_pathways, ref_matches};
use nepal::core::{Backend, RelationalBackend};
use nepal::graph::{GraphView, TemporalGraph, TimeFilter, Uid};
use nepal::rpe::nfa::compile_eps_free;
use nepal::rpe::{
    evaluate, parse_rpe, plan_rpe, BoundAtom, EvalOptions, GraphEstimator, HintEstimator, Label, Nfa, Rpe, Seeds,
};
use nepal::schema::dsl::parse_schema;
use nepal::schema::{ClassId, Schema, Value, NODE};
use proptest::prelude::*;

const SCHEMA: &str = r#"
    node A { aid: int unique, color: str }
    node B : A { }
    node C { cid: int unique }
    edge X { weight: int }
    edge Y : X { }
    edge Z { weight2: int }
"#;

/// Rules that make `SCHEMA` a whitelist: the generated graphs then lack the
/// edges they forbid, and plans prune by them.
const WHITELIST: &str = r#"
    allow X (A -> C)
    allow X (A -> A)
    allow Y (B -> A)
    allow Z (C -> A)
"#;

/// A random graph over `SCHEMA`, plus `WHITELIST` when `whitelist` is set
/// (edges it forbids are not inserted).
fn build_graph(seed: u64, n_nodes: usize, n_edges: usize, whitelist: bool) -> TemporalGraph {
    let text = if whitelist { format!("{SCHEMA}{WHITELIST}") } else { SCHEMA.to_string() };
    let schema: Arc<Schema> = Arc::new(parse_schema(&text).unwrap());
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

/// The native evaluator at one and four seats against the reference, and
/// the relational route against the native evaluator.
fn check_rpe_on_graph(g: &TemporalGraph, rel: &mut RelationalBackend, rpe_text: &str) {
    let rpe: Rpe = parse_rpe(rpe_text).unwrap();
    let plan = plan_rpe(g.schema(), &rpe, &GraphEstimator { graph: g }).unwrap();
    let view = GraphView::new(g, TimeFilter::Current);
    // Reference: brute-force over every simple pathway up to the plan's
    // length limit.
    let mut ref_paths = std::collections::HashSet::new();
    for path in all_pathways(g, plan.max_elements.min(7)) {
        if ref_matches(g, &plan.atoms, &plan.norm, &path) {
            ref_paths.insert(path);
        }
    }
    for threads in [1, 4] {
        let opts = EvalOptions { threads, ..Default::default() };
        let native = evaluate(&view, &plan, Seeds::Anchor, &opts);
        if threads == 1 {
            let by_rel = rel.eval(&plan, TimeFilter::Current, Seeds::Anchor, &opts).unwrap();
            assert_eq!(by_rel, native, "relational route for `{rpe_text}`");
        }
        // The engine may legitimately find longer matches than the
        // brute-force bound; compare only up to the enumeration limit.
        let engine_limited: std::collections::HashSet<Vec<Uid>> =
            native.into_iter().map(|p| p.elems).filter(|p| p.len() <= plan.max_elements.min(7)).collect();
        assert_eq!(
            ref_paths,
            engine_limited,
            "semantics mismatch for `{rpe_text}` at threads {threads}:\n  reference-only: {:?}\n  engine-only: {:?}",
            ref_paths.difference(&engine_limited).collect::<Vec<_>>(),
            engine_limited.difference(&ref_paths).collect::<Vec<_>>(),
        );
    }
}

/// Every corpus RPE on the graph `build_graph` makes, without and with the
/// whitelist.
fn check_corpus(seed: u64, n_nodes: usize, n_edges: usize) {
    for whitelist in [false, true] {
        let g = build_graph(seed, n_nodes, n_edges, whitelist);
        let mut rel = RelationalBackend::from_graph(&g).unwrap();
        for rpe in RPES {
            check_rpe_on_graph(&g, &mut rel, rpe);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nfa_engine_agrees_with_reference_semantics(seed in 0u64..5000) {
        check_corpus(seed, 7, 10);
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
    check_corpus(424242, 9, 20);
}

/// One pathway element for the automaton checks: its kind and the atoms it
/// satisfies (of its own kind). Real elements satisfy atoms by class and
/// predicate; an arbitrary set covers every combination of those.
type Elem = (bool, Vec<u32>);

/// Does the automaton accept the element sequence? Steps the state set
/// over every label each element satisfies.
fn automaton_accepts(nfa: &Nfa, seq: &[Elem]) -> bool {
    let mut states = vec![nfa.start];
    for (is_node, sat) in seq {
        let mut next = Vec::new();
        for &s in &states {
            for &(l, t) in &nfa.trans[s as usize] {
                let ok = match l {
                    Label::AnyNode => *is_node,
                    Label::AnyEdge => !is_node,
                    Label::Atom(a) => sat.contains(&a),
                };
                if ok && !next.contains(&t) {
                    next.push(t);
                }
            }
        }
        states = next;
    }
    states.iter().any(|&s| nfa.accepts[s as usize])
}

/// A random alternating element sequence: usually the labels of a random
/// node-first, kind-alternating walk through `walk` (so a good share is
/// accepted), each element also satisfying random extra atoms of its kind;
/// sometimes with one element's atoms replaced; sometimes fully random.
fn random_sequence(walk: &Nfa, kinds: &[bool], max_len: usize, rng: &mut impl FnMut() -> u64) -> Vec<Elem> {
    let of_kind =
        |is_node: bool| -> Vec<u32> { (0..kinds.len() as u32).filter(|&a| kinds[a as usize] == is_node).collect() };
    let label_kind = |l: Label| match l {
        Label::Atom(a) => kinds[a as usize],
        Label::AnyNode => true,
        Label::AnyEdge => false,
    };
    let extra = |is_node: bool, sat: &mut Vec<u32>, rng: &mut dyn FnMut() -> u64| {
        for a in of_kind(is_node) {
            if rng().is_multiple_of(4) && !sat.contains(&a) {
                sat.push(a);
            }
        }
    };
    let mut seq: Vec<Elem> = Vec::new();
    if rng().is_multiple_of(4) {
        let len = 2 * (rng() as usize % max_len.div_ceil(2).max(1)) + 1;
        for i in 0..len {
            let mut sat = Vec::new();
            extra(i % 2 == 0, &mut sat, rng);
            seq.push((i % 2 == 0, sat));
        }
        return seq;
    }
    let mut s = walk.start;
    loop {
        let is_node = seq.len().is_multiple_of(2);
        if !is_node && walk.accepts[s as usize] && rng().is_multiple_of(3) {
            break;
        }
        let moves: Vec<(Label, u32)> =
            walk.trans[s as usize].iter().copied().filter(|&(l, _)| label_kind(l) == is_node).collect();
        if moves.is_empty() || seq.len() >= max_len {
            break;
        }
        let (l, t) = moves[rng() as usize % moves.len()];
        let mut sat = match l {
            Label::Atom(a) => vec![a],
            _ => Vec::new(),
        };
        extra(is_node, &mut sat, rng);
        seq.push((is_node, sat));
        s = t;
    }
    if seq.len().is_multiple_of(2) {
        seq.pop();
    }
    if seq.is_empty() {
        seq.push((true, Vec::new()));
    }
    if rng().is_multiple_of(3) {
        let i = rng() as usize % seq.len();
        let is_node = seq[i].0;
        seq[i].1.clear();
        extra(is_node, &mut seq[i].1, rng);
    }
    seq
}

/// The most elements an accepted *pathway* — node first, alternating, node
/// last — has in `nfa`. The ε-free automaton's own longest walk can be
/// longer: with a node/edge alternation it also counts walks no pathway
/// has, such as two adjacent nodes.
fn longest_pathway(nfa: &Nfa, kinds: &[bool]) -> usize {
    fn longest(
        nfa: &Nfa,
        kinds: &[bool],
        s: u32,
        node_next: bool,
        memo: &mut Vec<Option<Option<usize>>>,
    ) -> Option<usize> {
        let key = 2 * s as usize + node_next as usize;
        if let Some(v) = memo[key] {
            return v;
        }
        let mut best = (!node_next && nfa.accepts[s as usize]).then_some(0);
        for &(l, t) in &nfa.trans[s as usize] {
            let is_node = match l {
                Label::Atom(a) => kinds[a as usize],
                Label::AnyNode => true,
                Label::AnyEdge => false,
            };
            if is_node == node_next {
                if let Some(rest) = longest(nfa, kinds, t, !node_next, memo) {
                    best = best.max(Some(rest + 1));
                }
            }
        }
        memo[key] = Some(best);
        best
    }
    longest(nfa, kinds, nfa.start, true, &mut vec![None; 2 * nfa.n_states]).unwrap_or(0)
}

/// How an ε-free plan typed `source(P)` / `target(P)`: a node atom gives
/// its class, an edge atom the root NODE (its endpoint is implicit), and
/// the any-element labels nothing.
fn eps_free_endpoint_class(schema: &Schema, atoms: &[BoundAtom], labels: &[Label]) -> ClassId {
    let mut acc: Option<ClassId> = None;
    for l in labels {
        let Label::Atom(a) = l else { continue };
        let atom = &atoms[*a as usize];
        let c = if atom.is_node { atom.class } else { NODE };
        acc = Some(acc.map_or(c, |prev| schema.lca(prev, c)));
    }
    acc.unwrap_or(NODE)
}

/// The plan's determinised automaton against the ε-free one for `rpe`:
/// the same language over alternating sequences, one transition per
/// (state, label), every state on an accepting run, no more states, and
/// the same length limit and endpoint types. `None` when the text does not
/// plan (the random generator can produce an empty-only repetition).
fn check_determinised(schema: &Schema, rpe_text: &str, seed: u64) -> Option<(usize, usize)> {
    let plan = plan_rpe(schema, &parse_rpe(rpe_text).ok()?, &HintEstimator).ok()?;
    let kinds: Vec<bool> = plan.atoms.iter().map(|a| a.is_node).collect();
    let (dfa, eps) = (&plan.nfa, compile_eps_free(&plan.norm, &kinds));

    for (s, row) in dfa.trans.iter().enumerate() {
        for (i, &(l, _)) in row.iter().enumerate() {
            assert!(row[..i].iter().all(|&(l2, _)| l2 != l), "`{rpe_text}`: state {s} has two {l:?} transitions");
        }
    }
    let mut reached = vec![false; dfa.n_states];
    let mut stack = vec![dfa.start];
    while let Some(s) = stack.pop() {
        if !std::mem::replace(&mut reached[s as usize], true) {
            stack.extend(dfa.trans[s as usize].iter().map(|&(_, t)| t));
        }
    }
    let mut live = dfa.accepts.clone();
    stack = (0..dfa.n_states as u32).filter(|&s| live[s as usize]).collect();
    while let Some(t) = stack.pop() {
        for &(_, s) in &dfa.rev[t as usize] {
            if !std::mem::replace(&mut live[s as usize], true) {
                stack.push(s);
            }
        }
    }
    assert!(reached.iter().all(|&r| r), "`{rpe_text}`: a state is unreachable from the start");
    assert!(live.iter().all(|&l| l), "`{rpe_text}`: a state cannot reach acceptance");
    assert!(dfa.n_states <= eps.n_states, "`{rpe_text}`: {} states > ε-free {}", dfa.n_states, eps.n_states);
    assert!(plan.max_elements <= eps.max_elements(), "`{rpe_text}`: max_elements grew");
    assert_eq!(plan.max_elements, longest_pathway(&eps, &kinds), "`{rpe_text}`: max_elements");
    assert_eq!(plan.source_class, eps_free_endpoint_class(schema, &plan.atoms, &eps.first_labels()), "`{rpe_text}`");
    assert_eq!(plan.target_class, eps_free_endpoint_class(schema, &plan.atoms, &eps.last_labels()), "`{rpe_text}`");

    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let max_len = plan.max_elements + 2;
    for i in 0..200 {
        let walk = if i % 2 == 0 { &eps } else { dfa };
        let seq = random_sequence(walk, &kinds, max_len, &mut rng);
        assert_eq!(
            automaton_accepts(dfa, &seq),
            automaton_accepts(&eps, &seq),
            "`{rpe_text}`: the automata disagree on {seq:?}"
        );
    }
    Some((dfa.n_states, eps.n_states))
}

/// A small random RPE over node atoms `A`, `B` (a subclass of `A`), `C`
/// and edge atoms `X`, `Y` (a subclass of `X`), `Z`: concatenation,
/// alternation and `{m,n}` repetition with `n ≤ 4`.
fn random_rpe(rng: &mut impl FnMut() -> u64, depth: u32) -> String {
    const ATOMS: [&str; 6] = ["A()", "B()", "C()", "X()", "Y()", "Z()"];
    match if depth == 0 { 0 } else { rng() % 4 } {
        0 => ATOMS[rng() as usize % ATOMS.len()].to_string(),
        1 => {
            let n = 2 + rng() as usize % 2;
            (0..n).map(|_| random_rpe(rng, depth - 1)).collect::<Vec<_>>().join("->")
        }
        2 => format!("({}|{})", random_rpe(rng, depth - 1), random_rpe(rng, depth - 1)),
        _ => {
            let hi = 1 + rng() % 4;
            let lo = rng() % (hi + 1);
            format!("[{}]{{{lo},{hi}}}", random_rpe(rng, depth - 1))
        }
    }
}

/// The mixed-alternation repetition whose ε-free automaton is the largest
/// in this file: the subsets share the unrolled chains' prefixes.
const WIDE_REPETITION: &str = "[(A()|C())]{0,5}->A()->[(A()|C())]{6,6}";

#[test]
fn determinised_automaton_matches_the_eps_free_one_on_the_corpus() {
    let schema = parse_schema(SCHEMA).unwrap();
    for (i, rpe) in RPES.iter().chain([&WIDE_REPETITION]).enumerate() {
        check_determinised(&schema, rpe, i as u64).unwrap_or_else(|| panic!("`{rpe}` does not plan"));
    }
    let (dfa, eps) = check_determinised(&schema, WIDE_REPETITION, 7).unwrap();
    assert_eq!((dfa, eps), (54, 172), "{WIDE_REPETITION}: states of the determinised and ε-free automata");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn determinised_automaton_matches_the_eps_free_one_on_random_rpes(seed in 0u64..1_000_000) {
        let schema = parse_schema(SCHEMA).unwrap();
        let mut state = seed.wrapping_mul(0xD1B54A32D192ED03) | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rpe = random_rpe(&mut rng, 3);
        check_determinised(&schema, &rpe, seed);
    }
}
