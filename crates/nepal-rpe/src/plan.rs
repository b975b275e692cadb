//! RPE query plans: bound atoms + compiled automaton + selected anchor.
//!
//! A plan corresponds to the paper's DAG of `Select` / `Extend` / `Union`
//! operators (§5.1): the anchor scan is the `Select`, each NFA transition
//! taken during evaluation is an `Extend` (forwards or backwards), and the
//! per-seed result merge is the `Union`.

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
    pub nfa: Nfa,
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
    pub typed: TypedTable,
    /// `count(P)` can be counted at `Union` without building pathways: no
    /// pathway can come from two (candidate, seed transition) origins (one
    /// anchor atom on one seed transition whose `from` state sits at a
    /// fixed depth).
    pub count_at_union: bool,
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

/// [`plan_rpe`] under a live span: binding/compilation and the cost-based
/// anchor selection become child spans carrying candidate counts and the
/// chosen anchor's cost; an inactive span adds no work. Planning runs on
/// the calling thread — the per-atom cost probes are a handful of
/// estimator calls, cheaper than a pool hand-off.
pub fn plan_rpe_with(schema: &Schema, rpe: &Rpe, est: &dyn CardinalityEstimator, span: &SpanHandle) -> Result<RpePlan> {
    let bind_span = span.child("bind+compile");
    let bound = bind(schema, rpe)?;
    let kinds: Vec<bool> = bound.atoms.iter().map(|a| a.is_node).collect();
    let nfa = compile(&bound.norm, &kinds);
    bind_span.attr("atoms", bound.atoms.len());
    bind_span.attr("nfa_states", nfa.n_states);
    drop(bind_span);
    let anchor_span = span.child("anchor-select");
    let (anchor, candidates) = select_anchor(&bound.norm, &bound.atoms, schema, est)?;
    anchor_span.attr("candidates", candidates.len());
    anchor_span.attr("cost", format_args!("{:.1}", anchor.cost));
    drop(anchor_span);
    let max_elements = nfa.max_elements();
    let source_class = lca_of_labels(schema, &bound.atoms, &nfa.first_labels());
    let target_class = lca_of_labels(schema, &bound.atoms, &nfa.last_labels());
    let typed = TypedTable::build(schema, &bound.atoms, &nfa);
    let count_at_union = count_at_union(&nfa, &anchor);
    Ok(RpePlan {
        text: rpe.to_string(),
        atoms: bound.atoms,
        norm: bound.norm,
        nfa,
        anchor,
        candidates,
        max_elements,
        source_class,
        target_class,
        typed,
        count_at_union,
    })
}

impl RpePlan {
    /// Walk `nfa` instead of the compiled automaton (it must accept the
    /// same pathways): the typed table and the count rule are rebuilt for
    /// it.
    pub fn set_nfa(&mut self, schema: &Schema, nfa: Nfa) {
        self.typed = TypedTable::build(schema, &self.atoms, &nfa);
        self.count_at_union = count_at_union(&nfa, &self.anchor);
        self.nfa = nfa;
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
