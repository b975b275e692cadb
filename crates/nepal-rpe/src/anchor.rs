//! Anchor enumeration and cost-based selection (§5.1).
//!
//! Anchored evaluation starts at the atoms with the fewest matching
//! elements and extends outward. An anchor is a set of atoms that *splits*
//! the RPE: every accepting pathway must contain an element matched by one
//! of the anchor atoms. The paper's rules:
//!
//! - **Atom** — the atom itself is a candidate anchor.
//! - **Sequence** — every member's candidates are candidates (every match
//!   passes through every member).
//! - **Alternation** — the cross-product of member anchors splits the RPE;
//!   to avoid exponential blowup, cost each member's candidates eagerly and
//!   take the union of the per-member best ("the current implementation
//!   avoids this problem by costing the anchor sets when an Alternation
//!   block is encountered, and returning the union of the best anchor from
//!   each alternate Ri").
//! - **Repetition** — handled upstream: normalization expands repetitions
//!   while *sharing atom occurrences* across copies, so the anchors of a
//!   repetition are the anchors of its body.
//!
//! Costing uses database statistics when available, otherwise schema hints
//! (`hint` declarations), exactly as §5.1 describes.

use nepal_schema::Schema;

use crate::bind::{BoundAtom, Norm};
use crate::error::{Result, RpeError};

/// Estimates the number of elements matching an atom. Implemented by the
/// native graph store (live statistics), by each backend of the engine, and
/// by a schema-hint fallback.
pub trait CardinalityEstimator {
    fn estimate(&self, schema: &Schema, atom: &BoundAtom) -> f64;
}

/// Fallback estimator using schema `hint` cardinalities only.
pub struct HintEstimator;

impl CardinalityEstimator for HintEstimator {
    fn estimate(&self, schema: &Schema, atom: &BoundAtom) -> f64 {
        if atom.unique_eq_pred(schema).is_some() {
            return 1.0;
        }
        let base: u64 =
            schema.descendants(atom.class).into_iter().filter_map(|c| schema.class(c).hint_cardinality).sum();
        let base = if base == 0 { 10_000.0 } else { base as f64 };
        apply_selectivity(base, atom)
    }
}

/// Heuristic predicate selectivity: 10% per equality predicate, 30% per
/// range predicate, floored at one row.
pub fn apply_selectivity(base: f64, atom: &BoundAtom) -> f64 {
    let mut est = base;
    for p in &atom.preds {
        est *= match p.op {
            crate::ast::CmpOp::Eq => 0.1,
            crate::ast::CmpOp::Ne => 0.9,
            _ => 0.3,
        };
    }
    est.max(1.0)
}

/// A candidate anchor: the set of atom occurrences (sorted, deduplicated)
/// plus its estimated total cardinality.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorSet {
    pub atoms: Vec<u32>,
    pub cost: f64,
}

impl AnchorSet {
    fn of(mut atoms: Vec<u32>, costs: &[f64]) -> AnchorSet {
        atoms.sort_unstable();
        atoms.dedup();
        let cost = atoms.iter().map(|&a| costs[a as usize]).sum();
        AnchorSet { atoms, cost }
    }
}

fn candidates(norm: &Norm, costs: &[f64]) -> Vec<AnchorSet> {
    match norm {
        Norm::Atom(a) => vec![AnchorSet::of(vec![*a], costs)],
        Norm::Seq(parts) => {
            let mut out = Vec::new();
            for p in parts {
                out.extend(candidates(p, costs));
            }
            out
        }
        Norm::Alt(parts) => {
            // Union of the best candidate of each alternative.
            let mut union: Vec<u32> = Vec::new();
            for p in parts {
                let cands = candidates(p, costs);
                let best = cands.into_iter().min_by(|a, b| a.cost.total_cmp(&b.cost)).expect("non-empty alternative");
                union.extend(best.atoms);
            }
            vec![AnchorSet::of(union, costs)]
        }
    }
}

/// Enumerate candidate anchors and pick the cheapest. Each atom
/// occurrence is estimated once, up front, however many candidate sets it
/// appears in.
pub fn select_anchor(
    norm: &Norm,
    atoms: &[BoundAtom],
    schema: &Schema,
    est: &dyn CardinalityEstimator,
) -> Result<(AnchorSet, Vec<AnchorSet>)> {
    let costs: Vec<f64> = atoms.iter().map(|a| est.estimate(schema, a)).collect();
    let mut cands = candidates(norm, &costs);
    // Deduplicate identical candidate sets, keeping the cheapest ordering
    // stable for deterministic plans.
    cands.sort_by(|a, b| a.cost.total_cmp(&b.cost).then_with(|| a.atoms.cmp(&b.atoms)));
    cands.dedup_by(|a, b| a.atoms == b.atoms);
    let best = cands.first().cloned().ok_or(RpeError::NoAnchor)?;
    Ok((best, cands))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind;
    use crate::parser::parse_rpe;
    use nepal_schema::dsl::parse_schema;

    fn schema() -> Schema {
        parse_schema(
            r#"
            node VNF { vnf_id: int unique }
            node VM { vm_id: int unique }
            node Docker { docker_id: int unique }
            node Host { host_id: int unique }
            edge HostedOn { }
            hint VNF 33
            hint VM 2000
            hint Docker 500
            hint Host 200
            hint HostedOn 11000
            "#,
        )
        .unwrap()
    }

    fn anchor_for(src: &str) -> (AnchorSet, Vec<AnchorSet>, Vec<BoundAtom>) {
        let s = schema();
        let b = bind(&s, &parse_rpe(src).unwrap()).unwrap();
        let (best, cands) = select_anchor(&b.norm, &b.atoms, &s, &HintEstimator).unwrap();
        (best, cands, b.atoms)
    }

    #[test]
    fn unique_eq_atom_wins() {
        // Paper: "VM() is (probably) not an anchor, but VM(id=55) is."
        let (best, _, atoms) = anchor_for("VNF()->[HostedOn()]{1,6}->Host(host_id=23245)");
        assert_eq!(best.atoms.len(), 1);
        assert_eq!(atoms[best.atoms[0] as usize].class_name, "Host");
        assert_eq!(best.cost, 1.0);
    }

    #[test]
    fn alternation_anchor_is_pairwise_union() {
        // Paper's example: the anchor of
        //   VNF()->[HostedOn()]{1,3}->(VM(id=55)|Docker(id=66))->HostedOn(){1,2}->Host()
        // is the pair {VM(id=55), Docker(id=66)}.
        let (best, _, atoms) =
            anchor_for("VNF()->[HostedOn()]{1,3}->(VM(vm_id=55)|Docker(docker_id=66))->HostedOn(){1,2}->Host()");
        assert_eq!(best.atoms.len(), 2);
        let names: Vec<&str> = best.atoms.iter().map(|&a| atoms[a as usize].class_name.as_str()).collect();
        assert!(names.contains(&"VM"));
        assert!(names.contains(&"Docker"));
        assert_eq!(best.cost, 2.0);
    }

    #[test]
    fn smallest_extent_chosen_without_predicates() {
        // No selective predicate anywhere: the 33-VNF extent is cheapest.
        let (best, cands, atoms) = anchor_for("VNF()->[HostedOn()]{1,6}->Host()");
        assert_eq!(atoms[best.atoms[0] as usize].class_name, "VNF");
        // Candidates include Host() and HostedOn() too.
        assert!(cands.len() >= 3);
    }

    #[test]
    fn repetition_shares_anchor_occurrence() {
        let (best, _, atoms) = anchor_for("[HostedOn()]{1,4}");
        assert_eq!(best.atoms.len(), 1);
        assert_eq!(atoms[best.atoms[0] as usize].class_name, "HostedOn");
    }

    #[test]
    fn selectivity_discounts_predicates() {
        let s = schema();
        let b = bind(&s, &parse_rpe("VM(vm_id>100)").unwrap()).unwrap();
        let est = HintEstimator.estimate(&s, &b.atoms[0]);
        assert!((est - 600.0).abs() < 1.0); // 2000 * 0.3
    }
}
