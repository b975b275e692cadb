//! RPE query plans: bound atoms + compiled automaton + selected anchor.
//!
//! A plan corresponds to the paper's DAG of `Select` / `Extend` / `Union`
//! operators (§5.1): the anchor scan is the `Select`, each NFA transition
//! taken during evaluation is an `Extend` (forwards or backwards), and the
//! per-seed result merge is the `Union`.
//!
//! The automaton, its typed table, the length limit and the end classes
//! depend only on the schema and the RPE's *shape* — the normalized
//! expression plus each atom's class and kind — never on a literal or on
//! the data. [`plan_rpe_with`] takes them from a bounded, process-wide
//! cache keyed by (schema identity, shape) and shares them by `Arc`; the
//! literals (binding) and the anchor choice (costed against live
//! estimates) are worked out afresh for every query.

use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, LazyLock, Mutex};

use nepal_graph::{FxBuildHasher, FxHashMap};
use nepal_obs::SpanHandle;
use nepal_schema::{ClassId, Schema, NODE};

use crate::anchor::{select_anchor, AnchorSet, CardinalityEstimator};
use crate::ast::Rpe;
use crate::bind::{bind, BoundAtom, Norm};
use crate::error::Result;
use crate::nfa::{compile, Label, Nfa};
use crate::typing::TypedTable;

/// A fully planned RPE, ready for evaluation or translation.
#[derive(Debug, Clone)]
pub struct RpePlan {
    /// Source text (best-effort reconstruction).
    pub text: String,
    pub atoms: Vec<BoundAtom>,
    pub norm: Norm,
    pub nfa: Arc<Nfa>,
    /// The selected (cheapest) anchor.
    pub anchor: AnchorSet,
    /// All candidate anchors, cheapest first (introspection/tests).
    pub candidates: Vec<AnchorSet>,
    /// Length limit in elements implied by the expression.
    pub max_elements: usize,
    /// Static type of `source(P)`: the least common ancestor of every class
    /// that can begin a matching pathway.
    pub source_class: ClassId,
    /// Static type of `target(P)`.
    pub target_class: ClassId,
    /// The schema-typed product of `nfa`: which adjacency buckets can still
    /// lead to a result (see [`crate::typing`]). Built for `nfa`; replace
    /// the automaton through [`RpePlan::set_nfa`], which rebuilds it.
    pub typed: Arc<TypedTable>,
    /// `count(P)` can be counted at `Union` without building pathways: no
    /// pathway can come from two (candidate, seed transition) origins (one
    /// anchor atom on one seed transition whose `from` state sits at a
    /// fixed depth).
    pub count_at_union: bool,
    /// Whether `nfa` and `typed` came from the plan cache.
    pub automaton: Automaton,
}

/// Where a plan's automaton and typed table came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Automaton {
    /// Shared from an earlier plan of the same shape on the same schema.
    Cached,
    /// Compiled for this plan.
    Built,
}

impl Automaton {
    /// `cached` / `built`, as `EXPLAIN ANALYZE` and the spans show it.
    pub fn as_str(self) -> &'static str {
        match self {
            Automaton::Cached => "cached",
            Automaton::Built => "built",
        }
    }
}

/// The plan parts that depend only on the schema and the shape, as the
/// cache holds them. `schema`, `norm` and `labels` are the key, kept to
/// tell two shapes whose hashes collide.
#[derive(Debug)]
struct Shape {
    schema: u64,
    norm: Norm,
    /// Each atom's (class, is_node), in atom order.
    labels: Vec<(ClassId, bool)>,
    nfa: Arc<Nfa>,
    typed: Arc<TypedTable>,
    max_elements: usize,
    source_class: ClassId,
    target_class: ClassId,
}

impl Shape {
    fn build(schema: &Schema, atoms: &[BoundAtom], norm: &Norm) -> Shape {
        let kinds: Vec<bool> = atoms.iter().map(|a| a.is_node).collect();
        let nfa = compile(norm, &kinds);
        Shape {
            schema: schema.id(),
            norm: norm.clone(),
            labels: atoms.iter().map(|a| (a.class, a.is_node)).collect(),
            typed: Arc::new(TypedTable::build(schema, atoms, &nfa)),
            max_elements: nfa.max_elements(),
            source_class: lca_of_labels(schema, atoms, &nfa.first_labels()),
            target_class: lca_of_labels(schema, atoms, &nfa.last_labels()),
            nfa: Arc::new(nfa),
        }
    }

    fn is(&self, schema: &Schema, atoms: &[BoundAtom], norm: &Norm) -> bool {
        self.schema == schema.id()
            && self.labels.len() == atoms.len()
            && self.labels.iter().zip(atoms).all(|(&(c, n), a)| c == a.class && n == a.is_node)
            && self.norm == *norm
    }
}

/// The most shapes the plan cache keeps; past it, the least recently used
/// shape makes room.
pub const PLAN_CACHE_SHAPES: usize = 256;

/// Shapes by the hash of their key, each with the tick of its last use.
#[derive(Default)]
struct ShapeCache {
    shapes: FxHashMap<u64, (Arc<Shape>, u64)>,
    tick: u64,
}

static SHAPES: LazyLock<Mutex<ShapeCache>> = LazyLock::new(Mutex::default);

fn shape_key(schema: &Schema, atoms: &[BoundAtom], norm: &Norm) -> u64 {
    let mut h = FxBuildHasher::default().build_hasher();
    schema.id().hash(&mut h);
    norm.hash(&mut h);
    for a in atoms {
        (a.class, a.is_node).hash(&mut h);
    }
    h.finish()
}

/// The shape of `(atoms, norm)` on `schema`: from the cache when an earlier
/// plan built it, otherwise built here and cached.
fn shape_of(schema: &Schema, atoms: &[BoundAtom], norm: &Norm) -> (Arc<Shape>, Automaton) {
    let key = shape_key(schema, atoms, norm);
    let lock = || SHAPES.lock().unwrap_or_else(|e| e.into_inner());
    {
        let mut cache = lock();
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((shape, used)) = cache.shapes.get_mut(&key) {
            if shape.is(schema, atoms, norm) {
                *used = tick;
                return (shape.clone(), Automaton::Cached);
            }
        }
    }
    // Built outside the lock: a concurrent planner of the same shape may
    // build it too, and the later insert wins.
    let shape = Arc::new(Shape::build(schema, atoms, norm));
    let mut cache = lock();
    if cache.shapes.len() >= PLAN_CACHE_SHAPES && !cache.shapes.contains_key(&key) {
        let oldest = cache.shapes.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| *k);
        if let Some(k) = oldest {
            cache.shapes.remove(&k);
        }
    }
    let tick = cache.tick;
    cache.shapes.insert(key, (shape.clone(), tick));
    (shape, Automaton::Built)
}

/// The number of shapes the plan cache holds now.
pub fn plan_cache_len() -> usize {
    SHAPES.lock().unwrap_or_else(|e| e.into_inner()).shapes.len()
}

/// Is every pathway the anchor produces produced once? True when there is
/// one anchor atom with one seed transition, and every run reaches that
/// transition's `from` state after the same number of elements: the anchor
/// element then sits at one fixed position of every matching pathway, so a
/// pathway has exactly one candidate, one seed transition and one split
/// into a backward and a forward half.
fn count_at_union(nfa: &Nfa, anchor: &AnchorSet) -> bool {
    let [atom] = anchor.atoms[..] else { return false };
    let seeds = nfa.seeds_for(atom);
    seeds.len() == 1 && nfa.fixed_depth(seeds[0].from).is_some()
}

fn lca_of_labels(schema: &Schema, atoms: &[BoundAtom], labels: &[Label]) -> ClassId {
    // The automaton is kind-typed, so the labels that begin or end a match
    // all consume nodes: a node atom contributes its class, `AnyNode` (the
    // implicit endpoint of an edge-initial / edge-final RPE) the root NODE.
    let mut acc: Option<ClassId> = None;
    for l in labels {
        let c = match l {
            Label::Atom(a) if atoms[*a as usize].is_node => atoms[*a as usize].class,
            _ => NODE,
        };
        acc = Some(match acc {
            None => c,
            Some(prev) => schema.lca(prev, c),
        });
    }
    acc.unwrap_or(NODE)
}

/// Bind, normalize, compile, and anchor an RPE.
pub fn plan_rpe(schema: &Schema, rpe: &Rpe, est: &dyn CardinalityEstimator) -> Result<RpePlan> {
    plan_rpe_with(schema, rpe, est, &SpanHandle::none())
}

/// [`plan_rpe`] under a live span: binding, the automaton (cached or
/// built) and the cost-based anchor selection become child spans carrying
/// candidate counts and the chosen anchor's cost; an inactive span adds no
/// work. Planning runs on the calling thread — the per-atom cost probes are
/// a handful of estimator calls, cheaper than a pool hand-off. The anchor
/// is costed afresh on every call, against the estimator's live numbers.
pub fn plan_rpe_with(schema: &Schema, rpe: &Rpe, est: &dyn CardinalityEstimator, span: &SpanHandle) -> Result<RpePlan> {
    let bind_span = span.child("bind+compile");
    let bound = bind(schema, rpe)?;
    let (shape, automaton) = shape_of(schema, &bound.atoms, &bound.norm);
    bind_span.attr("atoms", bound.atoms.len());
    bind_span.attr("nfa_states", shape.nfa.n_states);
    bind_span.attr("automaton", automaton.as_str());
    drop(bind_span);
    let anchor_span = span.child("anchor-select");
    let (anchor, candidates) = select_anchor(&bound.norm, &bound.atoms, schema, est)?;
    anchor_span.attr("candidates", candidates.len());
    anchor_span.attr("cost", format_args!("{:.1}", anchor.cost));
    drop(anchor_span);
    let count_at_union = count_at_union(&shape.nfa, &anchor);
    Ok(RpePlan {
        text: rpe.to_string(),
        atoms: bound.atoms,
        norm: bound.norm,
        nfa: shape.nfa.clone(),
        anchor,
        candidates,
        max_elements: shape.max_elements,
        source_class: shape.source_class,
        target_class: shape.target_class,
        typed: shape.typed.clone(),
        count_at_union,
        automaton,
    })
}

impl RpePlan {
    /// Walk `nfa` instead of the compiled automaton (it must accept the
    /// same pathways): the typed table and the count rule are rebuilt for
    /// it, here and without the plan cache.
    pub fn set_nfa(&mut self, schema: &Schema, nfa: Nfa) {
        self.typed = Arc::new(TypedTable::build(schema, &self.atoms, &nfa));
        self.count_at_union = count_at_union(&nfa, &self.anchor);
        self.nfa = Arc::new(nfa);
        self.automaton = Automaton::Built;
    }

    /// Render an anchor set's atoms, e.g. `VM(vm_id=55) | Docker(docker_id=66)`.
    pub fn anchor_desc(&self, set: &AnchorSet) -> String {
        let parts: Vec<&str> = set.atoms.iter().map(|&a| self.atoms[a as usize].display.as_str()).collect();
        parts.join(" | ")
    }

    /// Human-readable operator listing in the paper's style.
    pub fn operators(&self) -> Vec<String> {
        let mut ops = Vec::new();
        let anchor_desc: Vec<&str> =
            self.anchor.atoms.iter().map(|&a| self.atoms[a as usize].display.as_str()).collect();
        ops.push(format!("Select: {} [est. cardinality {:.1}]", anchor_desc.join(" | "), self.anchor.cost));
        let n_seeds: usize = self.anchor.atoms.iter().map(|&a| self.nfa.seeds_for(a).len()).sum();
        ops.push(format!("Extend: forwards and backwards from the anchor, ≤{} elements", self.max_elements));
        if n_seeds > 1 || self.anchor.atoms.len() > 1 {
            ops.push(format!("Union: merge results of {n_seeds} seed transitions"));
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::HintEstimator;
    use crate::parser::parse_rpe;
    use nepal_schema::dsl::parse_schema;

    fn schema() -> Schema {
        parse_schema(
            r#"
            node Container { }
            node VM : Container { vm_id: int unique }
            node Docker : Container { docker_id: int unique }
            node VNF { vnf_id: int unique }
            node Host { host_id: int unique }
            edge HostedOn { }
            hint VNF 33
            hint VM 2000
            hint Host 200
            hint HostedOn 11000
            "#,
        )
        .unwrap()
    }

    #[test]
    fn source_and_target_typing_via_lca() {
        let s = schema();
        let p = plan_rpe(&s, &parse_rpe("VNF()->[HostedOn()]{1,6}->Host(host_id=5)").unwrap(), &HintEstimator).unwrap();
        assert_eq!(p.source_class, s.class_by_name("VNF").unwrap());
        assert_eq!(p.target_class, s.class_by_name("Host").unwrap());
        // Alternation of sibling classes → LCA.
        let p2 = plan_rpe(&s, &parse_rpe("(VM(vm_id=1)|Docker(docker_id=2))").unwrap(), &HintEstimator).unwrap();
        assert_eq!(p2.source_class, s.class_by_name("Container").unwrap());
    }

    #[test]
    fn edge_initial_rpe_types_source_as_node_root() {
        let s = schema();
        let p = plan_rpe(&s, &parse_rpe("HostedOn(){1,8}").unwrap(), &HintEstimator).unwrap();
        assert_eq!(p.source_class, nepal_schema::NODE);
        assert_eq!(p.target_class, nepal_schema::NODE);
    }

    #[test]
    fn operator_listing_mentions_select() {
        let s = schema();
        let p =
            plan_rpe(&s, &parse_rpe("VNF()->[HostedOn()]{1,6}->Host(host_id=23245)").unwrap(), &HintEstimator).unwrap();
        let ops = p.operators();
        assert!(ops[0].starts_with("Select: Host(host_id=23245)"));
    }
}
