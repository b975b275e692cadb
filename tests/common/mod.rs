//! Shared by the integration tests: an independent reference for the
//! paper's §3.3 pathway satisfaction at `Current`, and helpers that pick
//! inputs from generated graphs. Each test binary uses a part of it.

#![allow(dead_code)]

use nepal::graph::{GraphView, TemporalGraph, TimeFilter, Uid, FOREVER};
use nepal::rpe::{BoundAtom, Norm};
use nepal::schema::{Ts, Value};

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
pub fn ref_matches(g: &TemporalGraph, atoms: &[BoundAtom], norm: &Norm, path: &[Uid]) -> bool {
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
pub fn all_pathways(g: &TemporalGraph, max_elems: usize) -> Vec<Vec<Uid>> {
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

/// The first and last instants any version opened or closed at.
pub fn mutation_span(g: &TemporalGraph) -> (Ts, Ts) {
    let times: Vec<Ts> = (0..g.num_entities() as u64)
        .flat_map(|raw| g.versions(Uid(raw)))
        .flat_map(|v| [v.span.from, v.span.to])
        .filter(|&t| t != FOREVER)
        .collect();
    (*times.iter().min().expect("a non-empty graph"), *times.iter().max().unwrap())
}

/// The unique ids (`field`) of the currently asserted entities of `class`
/// at extent positions `picks`.
pub fn live_ids(g: &TemporalGraph, class: &str, field: &str, picks: &[usize]) -> Vec<i64> {
    let c = g.schema().class_by_name(class).expect("class in the schema");
    let idx = g.schema().all_fields(c).iter().position(|f| f.name == field).expect("id field");
    let live = GraphView::new(g, TimeFilter::Current).scan_class(c);
    picks
        .iter()
        .map(|&i| match g.current_fields(live[i % live.len()]).expect("alive")[idx] {
            Value::Int(id) => id,
            ref other => panic!("{field} is {other:?}"),
        })
        .collect()
}
