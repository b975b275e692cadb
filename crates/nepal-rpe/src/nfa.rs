//! Compilation of normalized RPEs to the automaton every backend walks.
//!
//! A pathway is matched as its *element sequence* `n1, e1, n2, …, nk`
//! (nodes and edges interleaved). Every atom consumes exactly one element.
//! The paper's concatenation semantics (§3.3) list four ways `p` can match
//! `r1->r2`; two of them skip exactly one unconstrained element at the
//! boundary (an edge between two node atoms, or a node between two edge
//! atoms). We compile this directly: each concatenation joint gets an
//! ε-transition *and* a pair of any-element transitions.
//!
//! Likewise, "a single edge has implicit nodes at its endpoints": the whole
//! expression is wrapped in optional any-node transitions so that
//! edge-initial / edge-final RPEs pick up their endpoint nodes.
//!
//! [`compile`] runs two stages:
//!
//! 1. **Thompson construction** over the normalized (repetition-unrolled)
//!    expression, with the joints and wrapper above.
//! 2. **Kind-typed subset construction** over ε-closed state sets, from
//!    the closure of the start. A state is a (sorted member set, kind of
//!    the next element) pair: a pathway starts with a node and alternates
//!    node, edge, …, node, so a transition whose label has the other kind
//!    can never fire and is dropped. A subset accepts iff it holds the
//!    accept state and the last element consumed was a node. Only states
//!    that can still reach acceptance are kept (all are reachable from
//!    the start by construction).
//!
//! [`compile_eps_free`] instead eliminates the ε-transitions state by
//! state. That automaton accepts the same pathways, plus sequences no
//! pathway has; it is kept for the tests that check the two against each
//! other.
//!
//! The result has at most one transition per (state, label) and no state
//! that only ε could reach, so the `Extend` work of every backend — and
//! the seed transitions of an anchor — shrink with it. An element can
//! still satisfy several labels at once (an atom and `AnyNode`, two
//! overlapping atoms), which is why the evaluators keep stepping state
//! *sets*.
//!
//! Normalized RPEs are repetition-free, so every stage is a **DAG**: every
//! RPE is length-limited by construction, as §3.3 requires.

use crate::bind::Norm;

/// A consuming transition label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Consume one element matching bound atom `atoms[i]`.
    Atom(u32),
    /// Consume one node element, unconstrained (implicit boundary node).
    AnyNode,
    /// Consume one edge element, unconstrained (implicit boundary edge).
    AnyEdge,
}

/// A consuming transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    pub from: u32,
    pub label: Label,
    pub to: u32,
}

/// An automaton over pathway elements. [`compile`] yields the trimmed,
/// kind-typed subset automaton (one transition per state and label);
/// [`compile_eps_free`] the ε-free automaton the tests compare it with.
#[derive(Debug, Clone)]
pub struct Nfa {
    pub n_states: usize,
    /// Forward adjacency: `trans[s]` lists `(label, to)`.
    pub trans: Vec<Vec<(Label, u32)>>,
    /// Reverse adjacency: `rev[t]` lists `(label, from)`.
    pub rev: Vec<Vec<(Label, u32)>>,
    /// The unique start state.
    pub start: u32,
    /// `accepts[s]`: can the match end in state `s`?
    pub accepts: Vec<bool>,
    /// All transitions, for seed lookup.
    pub transitions: Vec<Transition>,
}

/// Which element kinds a fragment can consume first / last. Drives the
/// placement of the implicit skip transitions: per §3.3, an edge may be
/// skipped only between two node-consuming fragments (condition 3) and a
/// node only between two edge-consuming fragments (condition 4).
#[derive(Debug, Clone, Copy, Default)]
struct KindProfile {
    start_node: bool,
    start_edge: bool,
    end_node: bool,
    end_edge: bool,
}

fn profile(norm: &Norm, atom_is_node: &dyn Fn(u32) -> bool) -> KindProfile {
    match norm {
        Norm::Atom(a) => {
            let n = atom_is_node(*a);
            KindProfile { start_node: n, start_edge: !n, end_node: n, end_edge: !n }
        }
        Norm::Seq(parts) => {
            let first = profile(parts.first().unwrap(), atom_is_node);
            let last = profile(parts.last().unwrap(), atom_is_node);
            KindProfile {
                start_node: first.start_node,
                start_edge: first.start_edge,
                end_node: last.end_node,
                end_edge: last.end_edge,
            }
        }
        Norm::Alt(parts) => {
            let mut p = KindProfile::default();
            for part in parts {
                let q = profile(part, atom_is_node);
                p.start_node |= q.start_node;
                p.start_edge |= q.start_edge;
                p.end_node |= q.end_node;
                p.end_edge |= q.end_edge;
            }
            p
        }
    }
}

/// The Thompson automaton under construction: ε-edges and consuming
/// transitions per state. State 0 is the start, state 1 the accept.
struct Builder {
    eps: Vec<Vec<u32>>,
    cons: Vec<Vec<(Label, u32)>>,
}

const START: u32 = 0;
const ACCEPT: u32 = 1;

impl Builder {
    /// Thompson construction of `norm`, wrapped in the optional endpoint
    /// nodes.
    fn new(norm: &Norm, atom_is_node: &[bool]) -> Builder {
        let is_node = |a: u32| atom_is_node[a as usize];
        let mut b = Builder { eps: Vec::new(), cons: Vec::new() };
        let (start, accept) = (b.state(), b.state());
        debug_assert_eq!((start, accept), (START, ACCEPT));
        let (i, o) = b.fragment(norm, &is_node);
        // Endpoint wrapper: an edge-initial RPE implicitly includes its
        // source node; an edge-final RPE its target node ("a single edge
        // has implicit nodes at its endpoints").
        let p = profile(norm, &is_node);
        b.add_eps(start, i);
        if p.start_edge {
            b.add(start, Label::AnyNode, i);
        }
        b.add_eps(o, accept);
        if p.end_edge {
            b.add(o, Label::AnyNode, accept);
        }
        b
    }

    fn state(&mut self) -> u32 {
        self.eps.push(Vec::new());
        self.cons.push(Vec::new());
        (self.eps.len() - 1) as u32
    }

    fn add_eps(&mut self, a: u32, b: u32) {
        self.eps[a as usize].push(b);
    }

    fn add(&mut self, a: u32, l: Label, b: u32) {
        self.cons[a as usize].push((l, b));
    }

    /// Build the fragment for `n`; returns (entry, exit) states.
    fn fragment(&mut self, n: &Norm, is_node: &dyn Fn(u32) -> bool) -> (u32, u32) {
        match n {
            Norm::Atom(a) => {
                let s = self.state();
                let t = self.state();
                self.add(s, Label::Atom(*a), t);
                (s, t)
            }
            Norm::Seq(parts) => {
                let frags: Vec<(u32, u32)> = parts.iter().map(|p| self.fragment(p, is_node)).collect();
                for (w, pair) in frags.windows(2).zip(parts.windows(2)) {
                    let (prev_out, next_in) = (w[0].1, w[1].0);
                    let a = profile(&pair[0], is_node);
                    let b = profile(&pair[1], is_node);
                    // Direct adjacency (conditions 1/2 of §3.3)…
                    self.add_eps(prev_out, next_in);
                    // …or skip exactly one unconstrained element:
                    // condition 3 (an edge between two node atoms) /
                    // condition 4 (a node between two edge atoms).
                    if a.end_node && b.start_node {
                        self.add(prev_out, Label::AnyEdge, next_in);
                    }
                    if a.end_edge && b.start_edge {
                        self.add(prev_out, Label::AnyNode, next_in);
                    }
                }
                (frags.first().unwrap().0, frags.last().unwrap().1)
            }
            Norm::Alt(parts) => {
                let s = self.state();
                let t = self.state();
                for p in parts {
                    let (i, o) = self.fragment(p, is_node);
                    self.add_eps(s, i);
                    self.add_eps(o, t);
                }
                (s, t)
            }
        }
    }

    /// Append the ε-closure of `seeds` to `out`, sorted. `mark[s] == stamp`
    /// flags a state already taken; a fresh `stamp` per call saves
    /// clearing the marks.
    fn close(&self, seeds: &[u32], mark: &mut [u32], stamp: u32, out: &mut Vec<u32>) {
        let lo = out.len();
        let mut stack: Vec<u32> = seeds.to_vec();
        while let Some(x) = stack.pop() {
            if std::mem::replace(&mut mark[x as usize], stamp) == stamp {
                continue;
            }
            out.push(x);
            stack.extend_from_slice(&self.eps[x as usize]);
        }
        out[lo..].sort_unstable();
    }

    /// Kind-typed subset construction over ε-closed state sets, trimmed to
    /// the states that lie on an accepting run. States are numbered in
    /// discovery order (breadth-first from the start, labels in
    /// first-appearance order), so the result is a pure function of the
    /// expression.
    fn determinise(&self, atom_is_node: &[bool]) -> Nfa {
        let is_node = |l: Label| match l {
            Label::Atom(a) => atom_is_node[a as usize],
            Label::AnyNode => true,
            Label::AnyEdge => false,
        };
        // Subset `i` is `members[keys[i].0..keys[i].1]` (sorted), expecting
        // a node next iff `keys[i].2`.
        let (mut mark, mut stamp) = (vec![u32::MAX; self.eps.len()], 0);
        let mut members: Vec<u32> = Vec::new();
        self.close(&[START], &mut mark, stamp, &mut members);
        let mut keys: Vec<(usize, usize, bool)> = vec![(0, members.len(), true)];
        let mut trans: Vec<Vec<(Label, u32)>> = Vec::new();
        let mut accepts: Vec<bool> = Vec::new();
        let (mut moves, mut targets): (Vec<(Label, u32)>, Vec<u32>) = (Vec::new(), Vec::new());
        while trans.len() < keys.len() {
            let (lo, hi, node_next) = keys[trans.len()];
            moves.clear();
            for &s in &members[lo..hi] {
                moves.extend(self.cons[s as usize].iter().filter(|&&(l, _)| is_node(l) == node_next));
            }
            accepts.push(!node_next && members[lo..hi].contains(&ACCEPT));
            let mut row: Vec<(Label, u32)> = Vec::new();
            for i in 0..moves.len() {
                let l = moves[i].0;
                if moves[..i].iter().any(|&(l2, _)| l2 == l) {
                    continue;
                }
                targets.clear();
                targets.extend(moves[i..].iter().filter(|&&(l2, _)| l2 == l).map(|&(_, t)| t));
                let at = members.len();
                stamp += 1;
                self.close(&targets, &mut mark, stamp, &mut members);
                let found = keys.iter().position(|&(a, b, k)| k != node_next && members[a..b] == members[at..]);
                let id = match found {
                    Some(id) => {
                        members.truncate(at);
                        id
                    }
                    None => {
                        keys.push((at, members.len(), !node_next));
                        keys.len() - 1
                    }
                };
                row.push((l, id as u32));
            }
            trans.push(row);
        }
        trim(trans, accepts)
    }
}

/// Keep the states of a subset automaton (start 0, every state reachable)
/// that can still reach acceptance. The start state stays even when
/// nothing is accepted, so the automaton is never empty.
fn trim(trans: Vec<Vec<(Label, u32)>>, accepts: Vec<bool>) -> Nfa {
    let n = trans.len();
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (s, row) in trans.iter().enumerate() {
        for &(_, t) in row {
            rev[t as usize].push(s as u32);
        }
    }
    let mut live = accepts.clone();
    let mut stack: Vec<u32> = (0..n as u32).filter(|&s| live[s as usize]).collect();
    while let Some(t) = stack.pop() {
        for &s in &rev[t as usize] {
            if !std::mem::replace(&mut live[s as usize], true) {
                stack.push(s);
            }
        }
    }
    live[0] = true;
    let mut renum = vec![u32::MAX; n];
    for (kept, s) in (0..n).filter(|&s| live[s]).enumerate() {
        renum[s] = kept as u32;
    }
    let trimmed = (0..n)
        .filter(|&s| live[s])
        .map(|s| trans[s].iter().filter(|&&(_, t)| live[t as usize]).map(|&(l, t)| (l, renum[t as usize])).collect())
        .collect();
    let accepts = (0..n).filter(|&s| live[s]).map(|s| accepts[s]).collect();
    Nfa::from_trans(trimmed, 0, accepts)
}

/// Compile a normalized RPE into the automaton every plan carries: the
/// Thompson automaton, determinised over labels, kind-typed and trimmed
/// (see the module docs).
///
/// `atom_is_node[i]` gives the kind of bound atom `i` (drives the §3.3
/// implicit-skip placement and the kind typing).
pub fn compile(norm: &Norm, atom_is_node: &[bool]) -> Nfa {
    Builder::new(norm, atom_is_node).determinise(atom_is_node)
}

/// The ε-free automaton: every state of the Thompson automaton takes the
/// consuming transitions and acceptance of its ε-closure. It accepts
/// sequences no pathway has (a bare edge, two adjacent nodes) and keeps
/// states only ε could reach; no plan carries it. Public for the tests
/// that check [`compile`]'s automaton against it.
#[doc(hidden)]
pub fn compile_eps_free(norm: &Norm, atom_is_node: &[bool]) -> Nfa {
    let b = Builder::new(norm, atom_is_node);
    let n = b.eps.len();
    let mut trans: Vec<Vec<(Label, u32)>> = vec![Vec::new(); n];
    let mut accepts = vec![false; n];
    let mut mark = vec![u32::MAX; n];
    let mut closure = Vec::new();
    for s in 0..n as u32 {
        closure.clear();
        b.close(&[s], &mut mark, s, &mut closure);
        accepts[s as usize] = closure.contains(&ACCEPT);
        for &c in &closure {
            for &(l, t) in &b.cons[c as usize] {
                if !trans[s as usize].contains(&(l, t)) {
                    trans[s as usize].push((l, t));
                }
            }
        }
    }
    Nfa::from_trans(trans, START, accepts)
}

impl Nfa {
    /// Assemble an automaton from its forward adjacency: the reverse
    /// adjacency and the flat transition list follow from it.
    fn from_trans(trans: Vec<Vec<(Label, u32)>>, start: u32, accepts: Vec<bool>) -> Nfa {
        let n = trans.len();
        let mut rev: Vec<Vec<(Label, u32)>> = vec![Vec::new(); n];
        let mut transitions = Vec::new();
        for (s, list) in trans.iter().enumerate() {
            for &(l, t) in list {
                rev[t as usize].push((l, s as u32));
                transitions.push(Transition { from: s as u32, label: l, to: t });
            }
        }
        Nfa { n_states: n, trans, rev, start, accepts, transitions }
    }

    /// Longest consuming path from the start state — the RPE's inherent
    /// length limit in *elements* (nodes + edges). The NFA is a DAG, so
    /// this is finite; computed by memoized DFS.
    pub fn max_elements(&self) -> usize {
        fn longest(nfa: &Nfa, s: u32, memo: &mut [Option<usize>]) -> usize {
            if let Some(v) = memo[s as usize] {
                return v;
            }
            // Temporarily mark to guard against (impossible) cycles.
            memo[s as usize] = Some(0);
            let mut best = 0;
            for &(_, t) in &nfa.trans[s as usize] {
                best = best.max(1 + longest(nfa, t, memo));
            }
            memo[s as usize] = Some(best);
            best
        }
        let mut memo = vec![None; self.n_states];
        longest(self, self.start, &mut memo)
    }

    /// Every state once, in depth-first post-order over the transitions: a
    /// state comes after every state it steps to. The automaton is a DAG, so
    /// the reverse is a topological order.
    pub fn postorder(&self) -> Vec<u32> {
        let adj = &self.trans;
        let mut seen = vec![false; self.n_states];
        let mut out = Vec::with_capacity(self.n_states);
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for root in 0..self.n_states as u32 {
            if std::mem::replace(&mut seen[root as usize], true) {
                continue;
            }
            stack.push((root, 0));
            while let Some(top) = stack.last_mut() {
                let (s, i) = *top;
                match adj[s as usize].get(i) {
                    Some(&(_, t)) => {
                        top.1 += 1;
                        if !std::mem::replace(&mut seen[t as usize], true) {
                            stack.push((t, 0));
                        }
                    }
                    None => {
                        out.push(s);
                        stack.pop();
                    }
                }
            }
        }
        out
    }

    /// The number of elements consumed on the way from the start to `s`,
    /// when every run reaching `s` consumes the same number; `None` when
    /// runs of different lengths reach it, or none does.
    pub fn fixed_depth(&self, s: u32) -> Option<usize> {
        if s == self.start && self.rev[s as usize].is_empty() {
            return Some(0);
        }
        // (shortest, longest) run into each state, in topological order.
        let mut depth: Vec<Option<(usize, usize)>> = vec![None; self.n_states];
        depth[self.start as usize] = Some((0, 0));
        for &u in self.postorder().iter().rev() {
            let Some((lo, hi)) = depth[u as usize] else { continue };
            for &(_, t) in &self.trans[u as usize] {
                let d = &mut depth[t as usize];
                *d = Some(d.map_or((lo + 1, hi + 1), |(a, b)| (a.min(lo + 1), b.max(hi + 1))));
            }
        }
        depth[s as usize].filter(|(lo, hi)| lo == hi).map(|(lo, _)| lo)
    }

    /// All transitions carrying the given atom occurrence — the seed points
    /// of an anchored evaluation.
    pub fn seeds_for(&self, atom: u32) -> Vec<Transition> {
        self.transitions.iter().filter(|t| t.label == Label::Atom(atom)).copied().collect()
    }

    /// Classes of elements that can be consumed first (for `source(P)`
    /// typing): the labels of transitions out of the start state.
    pub fn first_labels(&self) -> Vec<Label> {
        self.trans[self.start as usize].iter().map(|&(l, _)| l).collect()
    }

    /// Labels of transitions that can end the match (for `target(P)`
    /// typing): transitions into an accepting state.
    pub fn last_labels(&self) -> Vec<Label> {
        let mut out = Vec::new();
        for t in &self.transitions {
            if self.accepts[t.to as usize] {
                out.push(t.label);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind;
    use crate::parser::parse_rpe;
    use nepal_schema::dsl::parse_schema;
    use nepal_schema::Schema;

    fn schema() -> Schema {
        parse_schema(
            r#"
            node VM { vm_id: int unique }
            node Host { host_id: int unique }
            edge HostedOn { }
            "#,
        )
        .unwrap()
    }

    fn nfa_of(src: &str) -> Nfa {
        let s = schema();
        let b = bind(&s, &parse_rpe(src).unwrap()).unwrap();
        let kinds: Vec<bool> = b.atoms.iter().map(|a| a.is_node).collect();
        compile(&b.norm, &kinds)
    }

    /// Reference matcher: does the element sequence reach an accept state?
    /// Only pathway-shaped sequences are meaningful — a node first, then
    /// alternating edge, node, … and a node last — so that is all it takes.
    fn accepts(nfa: &Nfa, kinds: &[&str]) -> bool {
        // kinds: "n:<atom>"/"e:<atom>" where atom is the atom idx the
        // element satisfies, or "n"/"e" for elements satisfying no atom.
        assert!(kinds.len() % 2 == 1, "a pathway has an odd number of elements: {kinds:?}");
        let mut states = vec![nfa.start];
        for (i, k) in kinds.iter().enumerate() {
            let (is_node, sat): (bool, Option<u32>) = match k.split_once(':') {
                Some((kk, a)) => (kk == "n", Some(a.parse().unwrap())),
                None => (*k == "n", None),
            };
            assert_eq!(is_node, i % 2 == 0, "elements must alternate node, edge, …: {kinds:?}");
            let mut next = Vec::new();
            for &s in &states {
                for &(l, t) in &nfa.trans[s as usize] {
                    let ok = match l {
                        Label::AnyNode => is_node,
                        Label::AnyEdge => !is_node,
                        Label::Atom(a) => sat == Some(a),
                    };
                    if ok && !next.contains(&t) {
                        next.push(t);
                    }
                }
            }
            states = next;
            if states.is_empty() {
                return false;
            }
        }
        states.iter().any(|&s| nfa.accepts[s as usize])
    }

    /// Every transition out of `s` consumes the kind `s` expects next,
    /// starting with a node and alternating; no state carries a label
    /// twice; no state is dead.
    fn assert_trimmed_and_kind_typed(nfa: &Nfa, atom_is_node: &[bool]) {
        let is_node = |l: Label| match l {
            Label::Atom(a) => atom_is_node[a as usize],
            Label::AnyNode => true,
            Label::AnyEdge => false,
        };
        let mut node_next: Vec<Option<bool>> = vec![None; nfa.n_states];
        node_next[nfa.start as usize] = Some(true);
        let mut stack = vec![nfa.start];
        while let Some(s) = stack.pop() {
            let kind = node_next[s as usize].unwrap();
            for (i, &(l, t)) in nfa.trans[s as usize].iter().enumerate() {
                assert_eq!(is_node(l), kind, "state {s} consumes the wrong kind");
                assert!(nfa.trans[s as usize][..i].iter().all(|&(l2, _)| l2 != l), "state {s} repeats {l:?}");
                match node_next[t as usize] {
                    None => {
                        node_next[t as usize] = Some(!kind);
                        stack.push(t);
                    }
                    Some(k) => assert_eq!(k, !kind, "state {t} is entered by both kinds"),
                }
            }
            // Acceptance only right after a node.
            assert!(!nfa.accepts[s as usize] || !kind);
        }
        assert!(node_next.iter().all(Option::is_some), "unreachable state");
        for s in 0..nfa.n_states as u32 {
            assert!(nfa.accepts[s as usize] || !nfa.trans[s as usize].is_empty(), "state {s} cannot reach acceptance");
        }
    }

    fn kinds_of(src: &str) -> Vec<bool> {
        let b = bind(&schema(), &parse_rpe(src).unwrap()).unwrap();
        b.atoms.iter().map(|a| a.is_node).collect()
    }

    #[test]
    fn single_node_atom() {
        let nfa = nfa_of("VM()");
        assert!(accepts(&nfa, &["n:0"]));
        assert!(!accepts(&nfa, &["n"])); // node not satisfying the atom
        assert!(!accepts(&nfa, &["n:0", "e", "n:0"])); // longer pathway ≠ match
        assert_eq!(nfa.n_states, 2);
    }

    #[test]
    fn single_edge_atom_has_implicit_endpoints() {
        // HostedOn() ≡ n -HostedOn-> n'
        let nfa = nfa_of("HostedOn()");
        assert!(accepts(&nfa, &["n", "e:0", "n"]));
        assert!(!accepts(&nfa, &["n", "e", "n"])); // edge must satisfy atom
        assert!(!accepts(&nfa, &["n"])); // the endpoints are not optional
        assert!(!accepts(&nfa, &["n", "e:0", "n", "e:0", "n"]));
        // The implicit source node is the only way in: no bare-edge start.
        assert_eq!(nfa.first_labels(), vec![Label::AnyNode]);
        assert_eq!(nfa.last_labels(), vec![Label::AnyNode]);
        assert_trimmed_and_kind_typed(&nfa, &kinds_of("HostedOn()"));
    }

    #[test]
    fn node_node_concat_skips_the_edge() {
        // VM()->Host() matches n(VM), e(any), n(Host) — condition 3 of §3.3.
        let nfa = nfa_of("VM()->Host()");
        assert!(accepts(&nfa, &["n:0", "e", "n:1"]));
        assert!(!accepts(&nfa, &["n:0", "e", "n", "e", "n:1"])); // only ONE skip
        assert!(!accepts(&nfa, &["n:0"]));
        assert!(!accepts(&nfa, &["n:1"]));
        // The direct node-node joint of the ε-free automaton is gone: the
        // only way from VM to Host is the skipped edge.
        assert_eq!(nfa.n_states, 4);
        assert_eq!(nfa.transitions.len(), 3);
        assert_trimmed_and_kind_typed(&nfa, &kinds_of("VM()->Host()"));
    }

    #[test]
    fn edge_edge_concat_skips_the_node() {
        // HostedOn()->HostedOn() matches n,e,n,e,n with the middle node
        // unconstrained — condition 4.
        let nfa = nfa_of("HostedOn()->HostedOn()");
        assert!(accepts(&nfa, &["n", "e:0", "n", "e:1", "n"]));
        assert!(!accepts(&nfa, &["n", "e:0", "n", "e", "n", "e:1", "n"]));
    }

    #[test]
    fn mixed_node_edge_concat_direct_adjacency() {
        // VM()->HostedOn()->Host(): no skips needed.
        let nfa = nfa_of("VM()->HostedOn()->Host()");
        assert!(accepts(&nfa, &["n:0", "e:1", "n:2"]));
    }

    #[test]
    fn repetition_bounds_respected() {
        let nfa = nfa_of("VM()->[HostedOn()]{1,2}->Host()");
        // 1 hop: VM -e-> Host.
        assert!(accepts(&nfa, &["n:0", "e:1", "n:2"]));
        // 2 hops: VM -e-> (skip node) -e-> Host.
        assert!(accepts(&nfa, &["n:0", "e:1", "n", "e:1", "n:2"]));
        // 3 hops: rejected.
        assert!(!accepts(&nfa, &["n:0", "e:1", "n", "e:1", "n", "e:1", "n:2"]));
    }

    #[test]
    fn alternation() {
        let nfa = nfa_of("(VM(vm_id=55)|Host(host_id=66))");
        assert!(accepts(&nfa, &["n:0"]));
        assert!(accepts(&nfa, &["n:1"]));
        assert!(!accepts(&nfa, &["n"]));
    }

    #[test]
    fn max_elements_is_finite_and_tight() {
        let nfa = nfa_of("VM()->[HostedOn()]{1,3}->Host()");
        // Longest consuming walk: VM + e + skip-n + e + skip-n + e + Host
        // = 7 elements (skips are placed only where §3.3 permits them).
        assert_eq!(nfa.max_elements(), 7);
        // Single node atom: exactly one element.
        assert_eq!(nfa_of("VM()").max_elements(), 1);
        // Edge atom: implicit endpoint nodes → n, e, n.
        assert_eq!(nfa_of("HostedOn()").max_elements(), 3);
    }

    #[test]
    fn seeds_cover_expanded_copies() {
        let nfa = nfa_of("[HostedOn()]{1,3}");
        // Occurrence 0 sits on one transition per repetition depth: the
        // three unrolled chains share their prefixes, so the subsets merge
        // them (the ε-free automaton carries 6 copies plus ε duplicates).
        let seeds = nfa.seeds_for(0);
        assert_eq!(seeds.len(), 3);
        assert!(nfa.seeds_for(1).is_empty());
        assert!(accepts(&nfa, &["n", "e:0", "n", "e:0", "n", "e:0", "n"]));
        assert!(!accepts(&nfa, &["n", "e:0", "n", "e:0", "n", "e:0", "n", "e:0", "n"]));
        assert_trimmed_and_kind_typed(&nfa, &kinds_of("[HostedOn()]{1,3}"));
        // An anchored bottom-up shape: one Host seed per depth, all from
        // reachable states, and one (shared) target state.
        let nfa = nfa_of("VM()->[HostedOn()]{1,6}->Host()");
        let host = nfa.seeds_for(2);
        assert_eq!(host.len(), 6);
        assert!(host.iter().all(|t| t.to == host[0].to));
        assert_eq!(nfa.seeds_for(0).len(), 1);
        assert_eq!(nfa.n_states, 14);
        assert_trimmed_and_kind_typed(&nfa, &kinds_of("VM()->[HostedOn()]{1,6}->Host()"));
    }
}
