//! The schema-typed product of a plan's automaton: which adjacency buckets
//! can still lead a partial pathway to a completed half-match.
//!
//! The schema's `allow` rules whitelist which edge classes may connect
//! which node classes, and the store refuses every other edge. Pair each
//! automaton state with the exact class of the node just consumed (the
//! typing product of "Typing Regular Path Query Languages for Data
//! Graphs"). Going forwards, a pair `(s, c)` is *live* iff `s` accepts, or
//! some edge class `e` and node class `d` with `edge_allowed(e, c, d)` step
//! it — an edge label then a node label — to a live `(s″, d)`. Backwards,
//! over the reverse adjacency, the edge runs `d → c` and a pair is live iff
//! `s` is the start state. The automaton is a DAG, so one pass in
//! post-order settles every pair.
//!
//! The evaluator reads the product as one table per direction: for each
//! (state, exact edge class) the set of node classes from which a bucket of
//! that class leads to a live pair. A bucket whose class no state of the
//! walk's state set admits from the exact class of the node it hangs off is
//! skipped whole — none of its edges could end in a result.
//!
//! The table is conservative where the schema says nothing: field
//! predicates are taken as satisfiable, `AnyNode` / `AnyEdge` match every
//! class of their kind, and a schema without `allow` rules (an open
//! topology) allows every connection, so the table reduces to the kind and
//! class test of the labels alone.
//!
//! Class sets are bitsets over the node classes in DFS pre-order, where a
//! class and its subclasses are one contiguous run of bits: a rule's or an
//! atom's class set is a range, and the build works on masks, never on
//! class pairs.

use std::ops::Range;

use nepal_schema::{ClassId, EdgeRule, Schema, EDGE, NODE};

use crate::bind::BoundAtom;
use crate::nfa::{Label, Nfa};

/// Per-direction product tables of one automaton; see the module docs.
#[derive(Debug, Clone)]
pub struct TypedTable {
    /// The automaton's state and transition counts, to tell a table built
    /// for another automaton.
    n_states: usize,
    n_transitions: usize,
    /// Edge classes (the table's second index) and words per node-class
    /// set.
    n_edge: usize,
    words: usize,
    /// Class id → its bit among the node classes, or its index among the
    /// edge classes.
    slot: Vec<u32>,
    /// `fwd[(s * n_edge + e) * words..][..words]`: the node classes `c` from
    /// which a bucket of edge class `e` leads, in state `s`, to a live pair.
    fwd: Vec<u64>,
    bwd: Vec<u64>,
}

/// Word `w` of the bitset that holds exactly the bits of `r`.
fn range_word(r: &Range<usize>, w: usize) -> u64 {
    let (a, b) = (r.start.max(w * 64), r.end.min(w * 64 + 64));
    if a < b {
        (!0u64 >> (64 - (b - a))) << (a - w * 64)
    } else {
        0
    }
}

/// One rule as the build uses it: the edge classes it covers, and the node
/// classes at its source and target ends.
struct Rule {
    edges: Range<usize>,
    from: Range<usize>,
    to: Range<usize>,
}

/// The schema and atoms seen as ranges over the kind-relative pre-order.
struct Ranges<'a> {
    schema: &'a Schema,
    atoms: &'a [BoundAtom],
    node0: usize,
    edge0: usize,
    n_node: usize,
    n_edge: usize,
}

impl Ranges<'_> {
    fn nodes(&self, c: ClassId) -> Range<usize> {
        let r = self.schema.subtree(c);
        r.start - self.node0..r.end - self.node0
    }

    fn edges(&self, c: ClassId) -> Range<usize> {
        let r = self.schema.subtree(c);
        r.start - self.edge0..r.end - self.edge0
    }

    /// The node classes a node label matches; `None` for an edge label.
    fn node_label(&self, l: Label) -> Option<Range<usize>> {
        match l {
            Label::AnyNode => Some(0..self.n_node),
            Label::Atom(a) if self.atoms[a as usize].is_node => Some(self.nodes(self.atoms[a as usize].class)),
            _ => None,
        }
    }

    /// The edge classes an edge label matches; `None` for a node label.
    fn edge_label(&self, l: Label) -> Option<Range<usize>> {
        match l {
            Label::AnyEdge => Some(0..self.n_edge),
            Label::Atom(a) if !self.atoms[a as usize].is_node => Some(self.edges(self.atoms[a as usize].class)),
            _ => None,
        }
    }
}

impl TypedTable {
    /// The product tables of `nfa` over `atoms` under `schema`.
    pub fn build(schema: &Schema, atoms: &[BoundAtom], nfa: &Nfa) -> TypedTable {
        let (nodes, edges) = (schema.subtree(NODE), schema.subtree(EDGE));
        let r =
            Ranges { schema, atoms, node0: nodes.start, edge0: edges.start, n_node: nodes.len(), n_edge: edges.len() };
        let words = r.n_node.div_ceil(64);
        let slot = (0..schema.num_classes() as u32)
            .map(|raw| {
                let p = schema.preorder(ClassId(raw));
                (if nodes.contains(&p) { p - r.node0 } else { p.saturating_sub(r.edge0) }) as u32
            })
            .collect();
        // An open topology allows every edge between any two nodes. Of the
        // rules, only those whose edge classes some edge label of the
        // automaton matches can contribute.
        let rules: Vec<Rule> = if schema.edge_rules().is_empty() {
            vec![Rule { edges: 0..r.n_edge, from: 0..r.n_node, to: 0..r.n_node }]
        } else {
            let any_edge = nfa.transitions.iter().any(|t| t.label == Label::AnyEdge);
            let rule = |e: &EdgeRule| Rule { edges: r.edges(e.edge), from: r.nodes(e.from), to: r.nodes(e.to) };
            let matched = |rule: &Rule| {
                any_edge
                    || atoms.iter().filter(|a| !a.is_node).any(|a| {
                        let l = r.edges(a.class);
                        l.start < rule.edges.end && rule.edges.start < l.end
                    })
            };
            schema.edge_rules().iter().map(rule).filter(matched).collect()
        };
        // Forwards a state needs the states after it, backwards the states
        // before it: post-order and its reverse, a topological order.
        let order = nfa.postorder();
        TypedTable {
            n_states: nfa.n_states,
            n_transitions: nfa.transitions.len(),
            n_edge: r.n_edge,
            words,
            slot,
            fwd: direction(&r, words, &rules, nfa, &order, true),
            bwd: direction(&r, words, &rules, nfa, &order, false),
        }
    }

    /// Was this table built for `nfa`?
    pub fn built_for(&self, nfa: &Nfa) -> bool {
        self.n_states == nfa.n_states && self.n_transitions == nfa.transitions.len()
    }

    /// Can a bucket of exact edge class `edge`, hanging off a node of exact
    /// class `node`, lead from automaton state `s` to a completed
    /// half-match, forwards (`fwd`: out-edges, `s` after the node) or
    /// backwards (in-edges, `s` before it)?
    #[inline]
    pub fn admits(&self, s: u32, edge: ClassId, node: ClassId, fwd: bool) -> bool {
        let table = if fwd { &self.fwd } else { &self.bwd };
        let (e, bit) = (self.slot[edge.0 as usize] as usize, self.slot[node.0 as usize] as usize);
        table[(s as usize * self.n_edge + e) * self.words + bit / 64] >> (bit % 64) & 1 != 0
    }
}

/// One direction's table. A state's entries need the liveness of the
/// states two steps on in the direction, so states are filled in `order`
/// (the forward post-order) forwards and in reverse backwards; a state's
/// liveness (every node class when the state completes a half-match, else
/// the union of its entries) follows from its entries.
fn direction(r: &Ranges, words: usize, rules: &[Rule], nfa: &Nfa, order: &[u32], fwd: bool) -> Vec<u64> {
    let adj = if fwd { &nfa.trans } else { &nfa.rev };
    let stride = r.n_edge * words;
    let mut table = vec![0u64; nfa.n_states * stride];
    let mut live = vec![0u64; nfa.n_states * words];
    let mut after = vec![0u64; words];
    for i in 0..order.len() {
        let s = order[if fwd { i } else { order.len() - 1 - i }] as usize;
        let row = &mut table[s * stride..(s + 1) * stride];
        for &(l1, s1) in &adj[s] {
            let Some(e_range) = r.edge_label(l1) else { continue };
            // The node classes that, consumed after the edge, leave a live
            // pair.
            after.fill(0);
            for &(l2, s2) in &adj[s1 as usize] {
                let Some(n_range) = r.node_label(l2) else { continue };
                for (w, a) in after.iter_mut().enumerate() {
                    *a |= live[s2 as usize * words + w] & range_word(&n_range, w);
                }
            }
            if after.iter().all(|&a| a == 0) {
                continue;
            }
            for rule in rules {
                let es = e_range.start.max(rule.edges.start)..e_range.end.min(rule.edges.end);
                // Forwards the bucket's node is the edge's source, backwards
                // its target.
                let (near, far) = if fwd { (&rule.from, &rule.to) } else { (&rule.to, &rule.from) };
                if es.is_empty() || after.iter().enumerate().all(|(w, a)| a & range_word(far, w) == 0) {
                    continue;
                }
                for e in es {
                    for w in 0..words {
                        row[e * words + w] |= range_word(near, w);
                    }
                }
            }
        }
        let complete = if fwd { nfa.accepts[s] } else { s as u32 == nfa.start };
        for w in 0..words {
            live[s * words + w] = if complete {
                range_word(&(0..r.n_node), w)
            } else {
                (0..r.n_edge).fold(0, |acc, e| acc | row[e * words + w])
            };
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind;
    use crate::nfa::compile;
    use crate::parser::parse_rpe;
    use nepal_schema::dsl::parse_schema;

    fn schema(rules: bool) -> Schema {
        let mut src = String::from(
            r#"
            node Service { }
            node VNF { }
            node VFC { }
            node Container { }
            node VM : Container { }
            node Host { }
            node Rack { }
            edge Vertical { }
            edge ComposedOf : Vertical { }
            edge OnVM : Vertical { }
            edge OnServer : Vertical { }
            edge PartOf : Vertical { }
            edge Connects { }
            "#,
        );
        if rules {
            src.push_str(
                r#"
                allow ComposedOf (Service -> VNF)
                allow ComposedOf (VNF -> VFC)
                allow OnVM (VFC -> Container)
                allow OnServer (Container -> Host)
                allow PartOf (Host -> Rack)
                allow Connects (Host -> Host)
                "#,
            );
        }
        parse_schema(&src).unwrap()
    }

    fn table(s: &Schema, rpe: &str) -> (TypedTable, Nfa) {
        let b = bind(s, &parse_rpe(rpe).unwrap()).unwrap();
        let kinds: Vec<bool> = b.atoms.iter().map(|a| a.is_node).collect();
        let nfa = compile(&b.norm, &kinds);
        (TypedTable::build(s, &b.atoms, &nfa), nfa)
    }

    /// The state the automaton is in after consuming the first node.
    fn after_first(nfa: &Nfa) -> u32 {
        nfa.trans[nfa.start as usize][0].1
    }

    #[test]
    fn dead_continuations_are_cut_by_class() {
        let s = schema(true);
        let c = |n: &str| s.class_by_name(n).unwrap();
        let (t, nfa) = table(&s, "VNF()->[Vertical()]{1,6}->Host()");
        let s0 = after_first(&nfa);
        // From the VNF, ComposedOf leads on towards a Host; PartOf never
        // leaves a VNF, and Connects is not a Vertical edge.
        assert!(t.admits(s0, c("ComposedOf"), c("VNF"), true));
        assert!(!t.admits(s0, c("PartOf"), c("VNF"), true));
        assert!(!t.admits(s0, c("Connects"), c("VNF"), true));
        // Past the Host nothing Vertical can come back to a Host: a Host
        // reached at depth 1 (in whatever state) admits no PartOf bucket.
        for st in 0..nfa.n_states as u32 {
            assert!(!t.admits(st, c("PartOf"), c("Host"), true), "state {st}");
        }
        // Backwards from a Host, OnServer in-edges lead back to the VNF.
        let host_before: Vec<u32> =
            nfa.transitions.iter().filter(|tr| tr.label == Label::Atom(2)).map(|tr| tr.from).collect();
        assert!(host_before.iter().any(|&st| t.admits(st, c("OnServer"), c("Host"), false)));
        assert!(host_before.iter().all(|&st| !t.admits(st, c("PartOf"), c("Host"), false)));
    }

    #[test]
    fn open_topology_reduces_to_the_label_test() {
        let s = schema(false);
        let c = |n: &str| s.class_by_name(n).unwrap();
        let (t, nfa) = table(&s, "VNF()->[Vertical()]{1,6}->Host()");
        let s0 = after_first(&nfa);
        for node in ["VNF", "Host", "Rack", "VM"] {
            assert!(t.admits(s0, c("PartOf"), c(node), true), "{node}");
            assert!(!t.admits(s0, c("Connects"), c(node), true), "{node}");
        }
    }

    #[test]
    fn ill_typed_expressions_admit_nothing_from_their_anchor() {
        let s = schema(true);
        let c = |n: &str| s.class_by_name(n).unwrap();
        // PartOf never leaves a Host towards a VNF.
        let (t, nfa) = table(&s, "Host()->[PartOf()]{1,2}->VNF()");
        let s0 = after_first(&nfa);
        for e in ["PartOf", "ComposedOf", "OnServer", "Connects", "Vertical"] {
            assert!(!t.admits(s0, c(e), c("Host"), true), "{e}");
        }
    }

    #[test]
    fn the_table_is_built_for_one_automaton() {
        let s = schema(true);
        let (t, nfa) = table(&s, "VNF()->[Vertical()]{1,6}->Host()");
        assert!(t.built_for(&nfa));
        let (_, other) = table(&s, "VNF()->[Vertical()]{1,2}->Host()");
        assert!(!t.built_for(&other));
    }
}
