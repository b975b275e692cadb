//! The native anchored evaluator.
//!
//! Implements the paper's evaluation strategy (§5.1/§5.2) directly against
//! the temporal graph store: a `Select` over the anchor atoms, then chained
//! `Extend` operators forwards and backwards with per-row NFA state and
//! uid-list cycle checks, and a `Union` merging the per-seed results.
//!
//! There is one evaluator ([`try_evaluate`]). It always runs the same
//! passes — seed, search, union, finalize. The calling thread searches an
//! anchor's roots depth-first itself; at more than one seat it hands the
//! untried rest to [`crate::par`] only once the search has outlived a
//! heartbeat derived from the pool's hand-off latency. The union work is
//! dealt to the pool as jobs, which at one seat (`threads = 1`) run inline.
//! The result does not depend on the seat count.
//!
//! Temporal scope is threaded through every operator: under a
//! [`TimeFilter::Range`] each partial pathway carries the intersection of
//! its elements' maximal assertion intervals and is pruned the moment that
//! intersection becomes empty.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use nepal_graph::FOREVER;
use nepal_graph::{
    FxHashMap, FxHashSet, GraphView, HeatTally, Interval, IntervalSet, MatchTime, TemporalGraph, TimeFilter, Uid,
};
use nepal_obs::{thread_cpu_ns, ExecTrace, MetricsRegistry, OpStats, ResourceMeter, SearchSplit, SpanHandle};
use nepal_schema::{ClassId, Schema};

use crate::anchor::{apply_selectivity, CardinalityEstimator};
use crate::bind::BoundAtom;
use crate::cancel::{CancelCause, CancelToken};
use crate::error::RpeError;
use crate::nfa::Label;
use crate::par;
use crate::path::{PathFn, Pathway};
use crate::plan::RpePlan;

/// Where evaluation starts.
#[derive(Debug, Clone, Copy)]
pub enum Seeds<'a> {
    /// Use the plan's anchor (the normal case).
    Anchor,
    /// Anchor "imported" from a join: pathways must *start* at these nodes
    /// (e.g. `source(Phys) = target(D1)` in the paper's join example).
    Sources(&'a [Uid]),
    /// Pathways must *end* at these nodes.
    Targets(&'a [Uid]),
}

/// Evaluation options.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Return only the first `limit` pathways of the full result in its
    /// sorted order — the same pathways at every thread count.
    pub limit: Option<usize>,
    /// Additional element-count cap on top of the RPE's own length limit.
    pub max_elements: Option<usize>,
    /// Cap on the threads that take part in one evaluation: the calling
    /// thread, which always works, plus helpers from the process-wide
    /// pool ([`crate::par`]) that wake in time to share its jobs. `0`
    /// (the default) resolves via [`resolved_threads`]: the
    /// `NEPAL_THREADS` environment variable if set, otherwise the host's
    /// available parallelism. `1` runs every job inline on the calling
    /// thread and never touches the pool.
    pub threads: usize,
    /// Cooperative cancellation: polled at bounded intervals (anchor
    /// scans, every few node expansions, pool job boundaries). A tripped
    /// token surfaces as [`RpeError::DeadlineExceeded`] /
    /// [`RpeError::Cancelled`] from [`try_evaluate`] — never as a
    /// silently truncated result.
    pub cancel: Option<CancelToken>,
    /// Per-query resource meter. When set, the evaluator charges the
    /// meter with deterministic work counters (rows / bytes scanned,
    /// materializations, keyframe hits, classes visited, seeks) at the
    /// anchor-scan boundary — always on the calling thread, so the logical
    /// counts are identical across thread counts — plus thread-CPU time
    /// sampled at entry/exit and at pool job boundaries (physical,
    /// thread-count-dependent). `None` (the default) keeps the
    /// no-clock-reads contract.
    pub meter: Option<Arc<ResourceMeter>>,
}

impl EvalOptions {
    /// Options carrying a fresh deadline token.
    pub fn with_deadline(deadline: std::time::Duration) -> EvalOptions {
        EvalOptions { cancel: Some(CancelToken::with_deadline(deadline)), ..Default::default() }
    }
}

/// The observability sinks of one evaluation, borrowed from the caller.
/// None of them changes what is computed, and each is a no-op when absent:
/// with all three `None` (the default) the evaluator never reads a clock,
/// and the only residual cost of instrumentation is plain integer
/// increments.
#[derive(Default)]
pub struct ExecCtx<'a> {
    /// Collects one [`OpStats`] per §5 operator instance plus free-form
    /// counters (temporal prunes, memo size, pool chunks and steals).
    pub trace: Option<&'a mut ExecTrace>,
    /// Operator instances become child spans of this span: the `Select`
    /// as a real child, the accumulated `Extend`/`Union` work and each
    /// pool seat's busy time as duration spans.
    pub span: Option<&'a SpanHandle>,
    /// Receives the pool counters (`nepal_rpe_parallel_chunks_total`,
    /// `nepal_rpe_steals_total`) and the per-seat busy-time histogram
    /// (`nepal_rpe_worker_busy_ns`).
    pub metrics: Option<&'a MetricsRegistry>,
}

/// Resolve an [`EvalOptions::threads`] value to a concrete worker count:
/// any explicit `n >= 1` wins; `0` falls back to `NEPAL_THREADS` (cached
/// after the first read) or, failing that, `available_parallelism()`.
pub fn resolved_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("NEPAL_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    })
}

/// Times attached to a partial match: `None` in point mode (Current/AsOf),
/// `Some` in range mode.
type Times = Option<IntervalSet>;

fn universal() -> IntervalSet {
    IntervalSet::from_interval(Interval::new(i64::MIN, FOREVER))
}

fn times_intersect(a: &Times, b: &Times) -> (Times, bool) {
    match (a, b) {
        (None, None) => (None, true),
        (Some(x), Some(y)) => {
            let r = x.intersect(y);
            let ok = !r.is_empty();
            (Some(r), ok)
        }
        (Some(x), None) | (None, Some(x)) => (Some(x.clone()), true),
    }
}

fn times_union(a: Times, b: &Times) -> Times {
    match (a, b) {
        (None, _) => None,
        (Some(x), None) => Some(x),
        (Some(x), Some(y)) => Some(x.union(y)),
    }
}

/// The automaton states a partial path is in, each with the times during
/// which it is. An element can satisfy several labels out of one state, so
/// a path can be in several states at once. The automaton is deterministic
/// per label, so the runs over the same elements that share a label
/// sequence end in one state, and they carry the same times: merging at a
/// state (union) before the next step (intersection) gives the times that
/// tracking every run apart would.
type StateSet = Vec<(u32, Times)>;

fn push_state(set: &mut StateSet, s: u32, t: Times) {
    for (s2, t2) in set.iter_mut() {
        if *s2 == s {
            *t2 = times_union(std::mem::take(t2), &t);
            return;
        }
    }
    set.push((s, t));
}

/// The buffers one seat's depth-first searches reuse: the path walked so
/// far, the state set after the edge of the hop being tried, and one state
/// set per depth for the node after it (a level's set must outlive the
/// recursion below it, the edge set need not). They grow to the deepest
/// search and are cleared, never freed, between steps — so a step costs no
/// allocation once the buffers are warm.
#[derive(Default)]
struct Scratch {
    path: Vec<Uid>,
    edge: StateSet,
    levels: Vec<StateSet>,
}

/// Label matching for one pool seat, with the seat's memo, counters and
/// reusable search buffers.
struct ElemMatcher<'a> {
    view: &'a GraphView<'a>,
    schema: &'a Schema,
    atoms: &'a [BoundAtom],
    range_mode: bool,
    /// `(element, label) → match` for the labels whose match costs more
    /// than a lookup: any label in range mode (interval sets are built from
    /// the version chain) and atoms with field predicates (the predicate
    /// runs over a possibly delta-encoded version). A predicate-less label
    /// in point mode is an element-column read plus (under `AsOf`) a
    /// `since`-column read, and a span search only when those two cannot
    /// settle it: cheaper than hashing its key, and never cached.
    memo: FxHashMap<(Uid, Label), Option<Times>>,
    /// Version reads made by this seat, flushed to the store's per-class
    /// heatmap once per stage ([`run_stage`]) rather than per element.
    heat: HeatTally<'a>,
    scratch: Scratch,
    /// Partial matches dropped because their interval intersection became
    /// empty (§5 temporal pruning). A plain increment — counted even
    /// untraced, and only reported when a trace is attached.
    temporal_prunes: u64,
    /// Adjacency buckets skipped whole because the plan's typed table
    /// admits their edge class from no state of the walk (see
    /// [`crate::typing`]). Counted like `temporal_prunes`.
    typed_prunes: u64,
    /// Cooperative cancellation: the token (if any), a checkpoint counter
    /// bounding poll frequency, and the sticky cause once tripped.
    cancel: Option<CancelToken>,
    cancel_ctr: u32,
    cancel_cause: Option<CancelCause>,
    /// Seat 0's inline search, while one runs at more than one seat: when
    /// it must hand its untried work to the pool, and what it handed.
    split: Option<Split>,
}

/// Poll the cancel token — and, during an inline search at more than one
/// seat, read the clock against the heartbeat — once per this many search
/// checkpoints (node expansions / union rows), bounding both the poll
/// overhead and the cancellation latency.
const CANCEL_CHECK_MASK: u32 = 0x3F; // every 64 checkpoints

/// The inline-first schedule of one anchored search ([`search_stage`]).
/// Once the search has run past `heartbeat_ns`, `donated` is set, and from
/// then on every child the depth-first search would have descended into is
/// stepped and pushed there instead, as a root for the pool.
struct Split {
    start: Instant,
    heartbeat_ns: u64,
    /// The unit whose roots are being searched.
    unit: usize,
    /// When the heartbeat was found past, in ns after `start`.
    after_ns: u64,
    donated: Option<Roots>,
}

/// How `uid` satisfies an atom's field predicates under the view; `None`
/// for `atom` is a wildcard label. Without predicates only the version
/// spans are consulted — nothing is materialized.
fn match_fields<'g>(
    view: &GraphView<'g>,
    atom: Option<&BoundAtom>,
    uid: Uid,
    heat: &mut HeatTally<'g>,
) -> Option<MatchTime> {
    match atom {
        Some(a) if !a.preds.is_empty() => view.matching(uid, |f| a.matches_fields(f), heat),
        _ => view.asserted(uid, heat),
    }
}

impl<'a> ElemMatcher<'a> {
    fn new(env: &Env<'a>) -> Self {
        ElemMatcher {
            view: env.view,
            schema: env.schema,
            atoms: &env.plan.atoms,
            range_mode: env.view.filter.is_range(),
            memo: FxHashMap::default(),
            heat: HeatTally::new(env.view.graph),
            scratch: Scratch::default(),
            temporal_prunes: 0,
            typed_prunes: 0,
            cancel: env.opts.cancel.clone(),
            cancel_ctr: 0,
            cancel_cause: None,
            split: None,
        }
    }

    /// One search checkpoint: `true` → the token tripped, abandon work and
    /// unwind. Sticky, and rate-limited to one token poll per
    /// [`CANCEL_CHECK_MASK`]+1 calls; at the same rate an inline search
    /// that is not yet splitting reads the clock against its heartbeat.
    #[inline]
    fn checkpoint(&mut self) -> bool {
        if self.cancel_cause.is_some() {
            return true;
        }
        if self.cancel.is_none() && self.split.is_none() {
            return false;
        }
        self.cancel_ctr = self.cancel_ctr.wrapping_add(1);
        if self.cancel_ctr & CANCEL_CHECK_MASK != 0 {
            return false;
        }
        if let Some(cause) = self.cancel.as_ref().and_then(|t| t.poll()) {
            self.cancel_cause = Some(cause);
            return true;
        }
        if let Some(sp) = self.split.as_mut().filter(|sp| sp.donated.is_none()) {
            let ns = sp.start.elapsed().as_nanos() as u64;
            if ns >= sp.heartbeat_ns {
                sp.after_ns = ns;
                sp.donated = Some(Roots::default());
            }
        }
        false
    }

    /// Where the search pushes a child instead of descending into it, once
    /// its inline search is splitting: the child's unit and the roots
    /// donated so far.
    #[inline]
    fn donating(&mut self) -> Option<(usize, &mut Roots)> {
        let sp = self.split.as_mut()?;
        Some((sp.unit, sp.donated.as_mut()?))
    }

    /// `None` → element does not satisfy the label; `Some(times)` → it
    /// does, with assertion times in range mode.
    fn matches(&mut self, uid: Uid, is_node: bool, label: Label) -> Option<Times> {
        // Kind and class mismatches are decided from the element column's
        // 4-byte word, without touching versions or the memo. This is what
        // makes class-partitioned storage pay off (§6: "the automatic
        // elimination of many useless edges from the navigation joins").
        // At `Current` the same word also answers a predicate-less label.
        let elem = self.view.graph.elem(uid)?;
        let atom = match label {
            Label::Atom(a) => {
                let atom = &self.atoms[a as usize];
                if atom.is_node != is_node || !self.schema.is_subclass(elem.class(), atom.class) {
                    return None;
                }
                Some(atom)
            }
            Label::AnyNode | Label::AnyEdge => {
                if matches!(label, Label::AnyNode) != is_node {
                    return None;
                }
                None
            }
        };
        if !self.range_mode && atom.is_none_or(|a| a.preds.is_empty()) {
            return self.view.asserted_elem(uid, elem, &mut self.heat).map(|_| None);
        }
        if let Some(hit) = self.memo.get(&(uid, label)) {
            return hit.clone();
        }
        let result = match_fields(self.view, atom, uid, &mut self.heat).map(|mt| match mt {
            MatchTime::Point => self.range_mode.then(universal),
            MatchTime::Intervals(set) => Some(set),
        });
        self.memo.insert((uid, label), result.clone());
        result
    }
}

/// Step a state set over one element into `next` (cleared first): forwards
/// (`fwd`) along the NFA's transitions, or backwards along its reverse
/// adjacency, where the states are *before*-states.
fn step(
    plan: &RpePlan,
    m: &mut ElemMatcher,
    states: &[(u32, Times)],
    uid: Uid,
    is_node: bool,
    fwd: bool,
    next: &mut StateSet,
) {
    let table = if fwd { &plan.nfa.trans } else { &plan.nfa.rev };
    next.clear();
    for (s, t) in states {
        for &(label, to) in &table[*s as usize] {
            if let Some(lt) = m.matches(uid, is_node, label) {
                let (nt, ok) = times_intersect(t, &lt);
                if ok {
                    push_state(next, to, nt);
                } else {
                    m.temporal_prunes += 1;
                }
            }
        }
    }
}

/// The times under which `states` complete a half-match — an accepting
/// state going forwards, the start state going backwards — or `None` when
/// no state does.
fn complete_times(plan: &RpePlan, states: &[(u32, Times)], fwd: bool) -> Option<Times> {
    let mut acc: Option<Times> = None;
    for (s, t) in states {
        let complete = if fwd { plan.nfa.accepts[*s as usize] } else { *s == plan.nfa.start };
        if complete {
            acc = Some(match acc {
                None => t.clone(),
                Some(a) => times_union(a, t),
            });
        }
    }
    acc
}

/// Completed half-matches, flat: half `i` is the elements on one side of
/// the seed (seed included on the forward side only)
/// `elems[ends[i-1].0..ends[i].0]` plus its times `ends[i].1`. One arena per
/// search unit, so a half costs no allocation of its own.
#[derive(Default)]
struct Halves {
    elems: Vec<Uid>,
    ends: Vec<(usize, Times)>,
}

impl Halves {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn push(&mut self, elems: &[Uid], times: Times) {
        self.elems.extend_from_slice(elems);
        self.ends.push((self.elems.len(), times));
    }

    fn get(&self, i: usize) -> (&[Uid], &Times) {
        let lo = if i == 0 { 0 } else { self.ends[i - 1].0 };
        let (hi, times) = &self.ends[i];
        (&self.elems[lo..*hi], times)
    }

    /// Append `other`'s halves after this arena's; an empty arena just
    /// takes `other`'s buffers.
    fn append(&mut self, mut other: Halves) {
        if self.ends.is_empty() {
            *self = other;
        } else {
            let base = self.elems.len();
            self.elems.append(&mut other.elems);
            self.ends.extend(other.ends.into_iter().map(|(end, t)| (base + end, t)));
        }
    }
}

/// Search roots of one anchor atom, flat and grouped by unit in unit
/// order: root `i` starts unit `meta[i].0`'s extension tree at path
/// `elems[meta[i-1].1..meta[i].1]` in states `states[meta[i-1].2..meta[i].2]`.
#[derive(Default)]
struct Roots {
    meta: Vec<(usize, usize, usize)>,
    elems: Vec<Uid>,
    states: StateSet,
}

impl Roots {
    fn len(&self) -> usize {
        self.meta.len()
    }

    /// Add a root, draining `states` (the caller's step buffer).
    fn push(&mut self, unit: usize, elems: &[Uid], states: &mut StateSet) {
        self.elems.extend_from_slice(elems);
        self.states.append(states);
        self.meta.push((unit, self.elems.len(), self.states.len()));
    }

    fn get(&self, i: usize) -> (usize, &[Uid], &[(u32, Times)]) {
        let (e0, s0) = if i == 0 { (0, 0) } else { (self.meta[i - 1].1, self.meta[i - 1].2) };
        let (unit, e1, s1) = self.meta[i];
        (unit, &self.elems[e0..e1], &self.states[s0..s1])
    }
}

/// What every pass of one evaluation shares, read-only: the inputs, the
/// effective element cap and seat count, and the observability sinks that
/// pool jobs may use.
struct Env<'a> {
    view: &'a GraphView<'a>,
    plan: &'a RpePlan,
    schema: &'a Schema,
    opts: &'a EvalOptions,
    cap: usize,
    threads: usize,
    /// Pool seat timings are wanted: a trace, live span, registry or meter
    /// is attached.
    timed: bool,
    span: &'a SpanHandle,
    metrics: Option<&'a MetricsRegistry>,
}

/// Does the plan's typed table admit a bucket of edge class `edge`, hanging
/// off a node of class `node`, from any state of `states`? A bucket it does
/// not admit cannot lead to a completed half-match, so it is skipped whole
/// (and counted in `typed_prunes`).
#[inline]
fn admitted(plan: &RpePlan, states: &[(u32, Times)], edge: ClassId, node: ClassId, fwd: bool) -> bool {
    states.iter().any(|(s, _)| plan.typed.admits(*s, edge, node, fwd))
}

/// Depth-first extension in one direction from `sc.path` in `states`.
/// Forwards, the path holds the elements consumed so far and `states` the
/// NFA states after them. Backwards, it holds the elements to the LEFT of
/// the seed in right-to-left order (so its last element is the leftmost)
/// and `states` are before-states. Either way the path ends with a node.
/// `depth` counts hops below the root and picks the level buffer. Once the
/// seat's inline search is splitting ([`ElemMatcher::donating`]), a child
/// is pushed to the donated roots instead of searched.
fn search(
    env: &Env,
    m: &mut ElemMatcher,
    sc: &mut Scratch,
    states: &[(u32, Times)],
    depth: usize,
    fwd: bool,
    out: &mut Halves,
) {
    if m.checkpoint() {
        return; // cancelled: unwind quickly, the caller surfaces the cause
    }
    if let Some(times) = complete_times(env.plan, states, fwd) {
        out.push(&sc.path, times);
    }
    if sc.path.len() + 2 > env.cap {
        return;
    }
    if sc.levels.len() == depth {
        sc.levels.push(StateSet::new());
    }
    let last = *sc.path.last().expect("search roots are non-empty");
    let Some(node) = env.view.graph.class_of(last) else { return };
    let adj = if fwd { env.view.graph.out_adj_list(last) } else { env.view.graph.in_adj_list(last) };
    for (class, entries) in adj.buckets() {
        if !admitted(env.plan, states, class, node, fwd) {
            m.typed_prunes += 1;
            continue;
        }
        for a in entries {
            if sc.path.contains(&a.edge) || sc.path.contains(&a.other) {
                continue;
            }
            step(env.plan, m, states, a.edge, false, fwd, &mut sc.edge);
            if sc.edge.is_empty() {
                continue;
            }
            // The level's buffer is lent to the recursion as its `states`.
            let mut next = std::mem::take(&mut sc.levels[depth]);
            step(env.plan, m, &sc.edge, a.other, true, fwd, &mut next);
            if !next.is_empty() {
                sc.path.push(a.edge);
                sc.path.push(a.other);
                match m.donating() {
                    Some((unit, donated)) => donated.push(unit, &sc.path, &mut next),
                    None => search(env, m, sc, &next, depth + 1, fwd, out),
                }
                sc.path.truncate(sc.path.len() - 2);
            }
            sc.levels[depth] = next;
        }
    }
}

/// [`search`] from one root, on the seat's own buffers.
fn search_root(env: &Env, m: &mut ElemMatcher, root: &[Uid], states: &[(u32, Times)], fwd: bool, out: &mut Halves) {
    let mut sc = std::mem::take(&mut m.scratch);
    sc.path.clear();
    sc.path.extend_from_slice(root);
    search(env, m, &mut sc, states, 0, fwd, out);
    m.scratch = sc;
}

/// Scan the store for elements satisfying an anchor atom (`Select`).
/// Seeks the unique index when the atom has a unique-equality predicate,
/// under every time filter.
pub fn anchor_scan(view: &GraphView, schema: &Schema, atom: &BoundAtom) -> Vec<(Uid, Times)> {
    anchor_scan_cancel(view, schema, atom, None, None, &mut HeatTally::new(view.graph))
        .expect("no cancel token supplied")
        .0
}

/// [`anchor_scan`] plus the number of stored elements examined (the
/// `Select` operator's input cardinality: the index candidates on the seek
/// path, the extent size on the scan path), polling `cancel` every 1024
/// scanned elements; returns the trip cause instead of a truncated
/// candidate set. This is the deterministic metering boundary: it always
/// runs on the calling thread, and the per-uid access costs it charges are
/// pure functions of store state, so a metered query reports the same
/// logical rows / bytes / materializations at any thread count. Version
/// reads are tallied on `heat`.
fn anchor_scan_cancel<'g>(
    view: &GraphView<'g>,
    schema: &Schema,
    atom: &BoundAtom,
    cancel: Option<&CancelToken>,
    meter: Option<&ResourceMeter>,
    heat: &mut HeatTally<'g>,
) -> std::result::Result<(Vec<(Uid, Times)>, u64), CancelCause> {
    let range_mode = view.filter.is_range();
    let to_times = |mt: MatchTime| -> Times {
        match mt {
            MatchTime::Point => range_mode.then(universal),
            MatchTime::Intervals(set) => Some(set),
        }
    };
    // Unique-index seek. Under `AsOf` / `Range` the index yields the
    // current and every former holder of the value; each candidate is
    // re-checked at the view's filter, so the answer never depends on the
    // index being exact.
    if let Some((idx, value)) = atom.unique_eq_pred(schema) {
        let candidates = view.graph.unique_holders(atom.class, idx, value, view.filter);
        if let Some(mm) = meter {
            mm.add_seeks(1);
            mm.add_classes(1);
            mm.add_rows(candidates.len() as u64);
            for &uid in &candidates {
                let cost = view.access_cost(uid);
                mm.add_bytes(cost.bytes);
                mm.add_materializations(cost.materializations);
                mm.add_keyframe_hits(cost.keyframe_hits);
            }
        }
        let hits = candidates
            .iter()
            .filter_map(|&uid| match_fields(view, Some(atom), uid, heat).map(|mt| (uid, to_times(mt))))
            .collect();
        return Ok((hits, candidates.len() as u64));
    }
    let mut out = Vec::new();
    let mut scanned = 0u64;
    // Local tallies so the scan issues one atomic add per meter counter and
    // per class heat counter, not one per row.
    let (mut m_bytes, mut m_mat, mut m_kf, mut m_classes) = (0u64, 0u64, 0u64, 0u64);
    for c in schema.descendants(atom.class) {
        let ext = view.graph.extent_exact(c);
        if meter.is_some() && !ext.is_empty() {
            m_classes += 1;
        }
        for &uid in ext {
            scanned += 1;
            if scanned & 0x3FF == 0 {
                if let Some(cause) = cancel.and_then(|t| t.poll()) {
                    return Err(cause);
                }
            }
            if meter.is_some() {
                let cost = view.access_cost(uid);
                m_bytes += cost.bytes;
                m_mat += cost.materializations;
                m_kf += cost.keyframe_hits;
            }
            if let Some(mt) = match_fields(view, Some(atom), uid, heat) {
                out.push((uid, to_times(mt)));
            }
        }
    }
    if let Some(mm) = meter {
        mm.add_rows(scanned);
        mm.add_bytes(m_bytes);
        mm.add_materializations(m_mat);
        mm.add_keyframe_hits(m_kf);
        mm.add_classes(m_classes);
    }
    Ok((out, scanned))
}

fn finalize(view: &GraphView, times: Times) -> Option<Times> {
    match (view.filter, times) {
        (TimeFilter::Range(a, b), Some(set)) => {
            let probe = Interval::new(a, b.saturating_add(1));
            let comps = set.components_overlapping(&probe);
            if comps.is_empty() {
                None
            } else {
                Some(Some(IntervalSet::from_intervals(comps)))
            }
        }
        (TimeFilter::Range(_, _), None) => None, // range mode must carry times
        (_, _) => Some(None),
    }
}

/// Sort accumulated pathways by `elems` and merge adjacent
/// duplicates with [`times_union`]. An interval set is kept in canonical
/// form (sorted, disjoint, non-adjacent) and its union is commutative and
/// associative, so the merged times are the same set whichever order equal
/// pathways arrived or sorted in — which is what makes the merge of pool
/// job outputs deterministic, and the outcome the one a map keyed on
/// `elems` followed by a sort would give.
fn merge_sorted(results: &mut Vec<Pathway>) {
    results.sort_unstable_by(|a, b| a.elems.cmp(&b.elems));
    results.dedup_by(|later, kept| {
        let same = later.elems == kept.elems;
        if same {
            kept.times = times_union(std::mem::take(&mut kept.times), &later.times);
        }
        same
    });
}

/// Evaluate a planned RPE under a time-filtered view.
///
/// Infallible convenience wrapper for token-free options: panics if
/// `opts.cancel` trips mid-evaluation. Callers that set a cancel token
/// must use [`try_evaluate`].
pub fn evaluate(view: &GraphView, plan: &RpePlan, seeds: Seeds, opts: &EvalOptions) -> Vec<Pathway> {
    try_evaluate(view, plan, seeds, opts, &mut ExecCtx::default())
        .expect("evaluation with a cancel token must go through try_evaluate")
}

/// The evaluator: [`evaluate`] that reports a tripped [`EvalOptions::cancel`]
/// token as a typed error and feeds the sinks in `ctx`. Pathways, `OpStats`
/// rows and prune counts are identical at every [`EvalOptions::threads`]
/// value (see DESIGN.md §5b).
pub fn try_evaluate(
    view: &GraphView,
    plan: &RpePlan,
    seeds: Seeds,
    opts: &EvalOptions,
    ctx: &mut ExecCtx,
) -> Result<Vec<Pathway>, RpeError> {
    match evaluate_as(view, plan, seeds, opts, ctx, Sink::Pathways)? {
        Folded::Pathways(p) => Ok(p),
        _ => unreachable!("pathways were asked for"),
    }
}

/// What `Union` does with each admissible (backward, forward) half pair:
/// write the pathway it stands for, or fold the pair into one value
/// without building the pathway. A pair's `target` is the forward half's
/// last element; its `source` is the backward half's last (leftmost)
/// element, or the forward half's first when the backward half is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Write the pathway ([`try_evaluate`]).
    Pathways,
    /// Count it: `count(P)`.
    Count,
    /// Add its end to a set: `count(distinct source(P))` and
    /// `count(distinct target(P))`.
    DistinctEnds(PathFn),
    /// Count it under its end: one side of an end-keyed join count.
    CountByEnd(PathFn),
}

impl Sink {
    /// Fold enumerated pathways into what this sink collects.
    pub fn fold(self, pathways: Vec<Pathway>) -> Folded {
        if self == Sink::Pathways {
            return Folded::Pathways(pathways);
        }
        let mut folded = self.start();
        for p in &pathways {
            self.feed(&mut folded, &[], &p.elems, None);
        }
        folded
    }

    /// The empty value this sink feeds.
    fn start(self) -> Folded {
        match self {
            Sink::Pathways => Folded::Pathways(Vec::new()),
            Sink::Count => Folded::Count(0),
            Sink::DistinctEnds(_) => Folded::Ends(FxHashSet::default(), 0),
            Sink::CountByEnd(_) => Folded::ByEnd(FxHashMap::default()),
        }
    }

    /// Feed `into` (this sink's value) one admissible pair: the backward
    /// half `b` (right to left, so its last element is the leftmost) and the
    /// forward half `fh`, which is never empty, under times `t`.
    #[inline]
    fn feed(self, into: &mut Folded, b: &[Uid], fh: &[Uid], t: Times) {
        let end = |f: PathFn| match f {
            PathFn::Source => *b.last().unwrap_or(&fh[0]),
            PathFn::Target => fh[fh.len() - 1],
        };
        match (self, into) {
            (Sink::Pathways, Folded::Pathways(out)) => {
                // The pathway is written once, here, and moves from this
                // buffer into the result; its times are finalized last.
                let mut elems = Vec::with_capacity(b.len() + fh.len());
                elems.extend(b.iter().rev());
                elems.extend_from_slice(fh);
                out.push(Pathway { elems, times: t });
            }
            (Sink::Count, Folded::Count(n)) => *n += 1,
            (Sink::DistinctEnds(f), Folded::Ends(ends, n)) => {
                ends.insert(end(f));
                *n += 1;
            }
            (Sink::CountByEnd(f), Folded::ByEnd(by_end)) => *by_end.entry(end(f)).or_default() += 1,
            _ => unreachable!("a sink feeds the value it starts"),
        }
    }
}

/// What a [`Sink`] collected.
#[derive(Debug, Clone, PartialEq)]
pub enum Folded {
    Pathways(Vec<Pathway>),
    Count(usize),
    /// The distinct ends, and the number of pathways they were read from.
    /// Folded at `Union` that is the number of admissible half pairs, one
    /// per pathway when the plan has the [`RpePlan::count_at_union`] proof.
    Ends(FxHashSet<Uid>, usize),
    /// The number of pathways per end.
    ByEnd(FxHashMap<Uid, u64>),
}

impl Folded {
    /// The number of pathways folded (see [`Folded::Ends`]).
    pub fn pathways(&self) -> usize {
        match self {
            Folded::Pathways(p) => p.len(),
            Folded::Count(n) | Folded::Ends(_, n) => *n,
            Folded::ByEnd(by_end) => by_end.values().sum::<u64>() as usize,
        }
    }

    /// Add what another pool job fed the same sink.
    fn merge(&mut self, other: Folded) {
        match (self, other) {
            (Folded::Pathways(a), Folded::Pathways(b)) => a.extend(b),
            (Folded::Count(a), Folded::Count(b)) => *a += b,
            (Folded::Ends(a, n), Folded::Ends(b, m)) => {
                a.extend(b);
                *n += m;
            }
            (Folded::ByEnd(a), Folded::ByEnd(b)) => {
                for (end, n) in b {
                    *a.entry(end).or_default() += n;
                }
            }
            _ => unreachable!("one evaluation feeds one sink"),
        }
    }
}

/// How a fold was obtained: at `Union`, without building the pathways, or
/// by enumerating them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldMode {
    /// A [`Sink::Count`] counted at `Union`.
    Union,
    DistinctEnds,
    ByEnd,
    Enumerate,
}

impl FoldMode {
    /// `union` / `distinct-ends` / `by-end` / `enumerate`, as
    /// `EXPLAIN ANALYZE` and the spans show it.
    pub fn as_str(self) -> &'static str {
        match self {
            FoldMode::Union => "union",
            FoldMode::DistinctEnds => "distinct-ends",
            FoldMode::ByEnd => "by-end",
            FoldMode::Enumerate => "enumerate",
        }
    }
}

/// What `sink` collects over the pathways [`try_evaluate`] would return
/// from the plan's anchor, and how it was obtained. At `Current` the same
/// passes run with `Union` feeding every admissible half pair to the sink
/// — cycle check, length cap and checkpoints unchanged — and no pathway is
/// written, sorted or finalized:
/// - `Count` when the plan proves that no pathway is produced twice
///   ([`RpePlan::count_at_union`]); a set `opts.limit` caps the count;
/// - `DistinctEnds` for every plan, because duplicates do not change a set,
///   and `CountByEnd` with the proof; both only without `opts.limit`.
///
/// Otherwise the pathways are enumerated and folded ([`Sink::fold`]).
pub fn try_fold(
    view: &GraphView,
    plan: &RpePlan,
    sink: Sink,
    opts: &EvalOptions,
    ctx: &mut ExecCtx,
) -> Result<(Folded, FoldMode), RpeError> {
    let current = matches!(view.filter, TimeFilter::Current);
    let mode = match sink {
        Sink::Count if current && plan.count_at_union => FoldMode::Union,
        Sink::DistinctEnds(_) if current && opts.limit.is_none() => FoldMode::DistinctEnds,
        Sink::CountByEnd(_) if current && opts.limit.is_none() && plan.count_at_union => FoldMode::ByEnd,
        _ => return Ok((sink.fold(try_evaluate(view, plan, Seeds::Anchor, opts, ctx)?), FoldMode::Enumerate)),
    };
    Ok((evaluate_as(view, plan, Seeds::Anchor, opts, ctx, sink)?, mode))
}

/// [`try_evaluate`] and [`try_fold`]: the passes, with `Union` feeding
/// `sink`.
fn evaluate_as(
    view: &GraphView,
    plan: &RpePlan,
    seeds: Seeds,
    opts: &EvalOptions,
    ctx: &mut ExecCtx,
    sink: Sink,
) -> Result<Folded, RpeError> {
    // Fast-fail: a request arriving with an already-tripped token (server
    // drain, expired deadline) must not seed any work, however small the
    // graph — checkpoint polls inside the evaluator are rate-limited and
    // may never fire on tiny inputs.
    if let Some(cause) = opts.cancel.as_ref().and_then(|t| t.poll()) {
        return Err(RpeError::from(cause));
    }
    // Caller CPU: one clock pair around the whole evaluation, on the
    // calling thread. Helper CPU is folded in separately at pool
    // boundaries (run_stage), so the meter's total covers every thread
    // that touched the query.
    let cpu0 = opts.meter.as_ref().map(|_| thread_cpu_ns());
    if let (Some(mm), Seeds::Sources(nodes) | Seeds::Targets(nodes)) = (opts.meter.as_ref(), seeds) {
        mm.add_rows(nodes.len() as u64);
    }
    let threads = resolved_threads(opts.threads);
    let result = run_passes(view, plan, seeds, opts, ctx, sink, threads, (threads > 1).then(heartbeat_ns));
    if let (Some(mm), Some(c0)) = (opts.meter.as_ref(), cpu0) {
        mm.add_cpu_ns(thread_cpu_ns().saturating_sub(c0));
    }
    result
}

/// One search unit: the extension tree of one `(candidate, NFA seed
/// transition)` in one direction. `halves` starts with what was completed
/// while seeding and, after the search stage, holds the unit's full
/// half-match list. Its roots live in the atom's [`Roots`] arena.
struct Unit {
    fwd: bool,
    halves: Halves,
}

fn new_unit(units: &mut Vec<Unit>, fwd: bool) -> usize {
    units.push(Unit { fwd, halves: Halves::default() });
    units.len() - 1
}

/// One anchor atom's seeded search: its units, their roots, and the
/// (backward unit, forward unit) pairs `Union` combines.
#[derive(Default)]
struct Seeded {
    units: Vec<Unit>,
    roots: Roots,
    pairs: Vec<(usize, usize)>,
}

/// Nanoseconds since `t0`; 0 when timing is off (`t0` is `None`).
fn ns_since(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Time spent extending forwards and backwards, for the `Extend` rows.
#[derive(Default)]
struct ExtendNs {
    fwd: u64,
    bwd: u64,
}

impl ExtendNs {
    fn add(&mut self, fwd: bool, ns: u64) {
        *(if fwd { &mut self.fwd } else { &mut self.bwd }) += ns;
    }
}

/// Seed: step over each candidate's own element(s) and collect search
/// units and their roots instead of recursing, on the calling thread.
fn seed_atom(
    env: &Env,
    m: &mut ElemMatcher,
    occ: u32,
    candidates: &[(Uid, Times)],
    enabled: bool,
    ns: &mut ExtendNs,
) -> Seeded {
    let (plan, view) = (env.plan, env.view);
    let atom = &plan.atoms[occ as usize];
    let seed_trans = plan.nfa.seeds_for(occ);
    let mut out = Seeded::default();
    let Seeded { units, roots, pairs } = &mut out;
    let mut fwd_units: Vec<(u32, Option<usize>)> = Vec::new();
    let (mut seed, mut s1, mut s2) = (StateSet::new(), StateSet::new(), StateSet::new());
    for (elem, times0) in candidates {
        if m.cancel_cause.is_some() {
            break; // cancelled: stop seeding, surface below
        }
        let edge_ends = if atom.is_node {
            None
        } else {
            match view.graph.edge(*elem) {
                Ok(e) => Some((e.src, e.dst)),
                Err(_) => continue,
            }
        };
        // The anchor occurrence can sit on several transitions (one per
        // repetition depth), each from its own state; the forward half
        // depends only on the target state, so there is one forward unit
        // per distinct state (`None` marks a state the edge seed cannot
        // even step into).
        fwd_units.clear();
        for tr in &seed_trans {
            let t_fwd = enabled.then(Instant::now);
            let fu = match fwd_units.iter().find(|(s, _)| *s == tr.to) {
                Some(&(_, u)) => u,
                None => {
                    seed.clear();
                    seed.push((tr.to, times0.clone()));
                    let u = match edge_ends {
                        // Edge seed: forward must consume the edge's
                        // target node first.
                        Some((_, dst)) => {
                            step(plan, m, &seed, dst, true, true, &mut s2);
                            (!s2.is_empty()).then(|| {
                                let u = new_unit(units, true);
                                roots.push(u, &[*elem, dst], &mut s2);
                                u
                            })
                        }
                        None => {
                            let u = new_unit(units, true);
                            roots.push(u, &[*elem], &mut seed);
                            Some(u)
                        }
                    };
                    fwd_units.push((tr.to, u));
                    u
                }
            };
            ns.add(true, ns_since(t_fwd));
            let Some(fu) = fu else { continue };
            let t_bwd = enabled.then(Instant::now);
            seed.clear();
            seed.push((tr.from, times0.clone()));
            let bu = if let Some((src, _)) = edge_ends {
                step(plan, m, &seed, src, true, false, &mut s2);
                (!s2.is_empty()).then(|| {
                    let bu = new_unit(units, false);
                    roots.push(bu, &[src], &mut s2);
                    bu
                })
            } else {
                // Node seed: the seed itself is the (current) leftmost
                // element; acceptance before extending is legal, and the
                // first hop left of the seed happens here, so every root
                // below is a standard backward search root.
                let bu = new_unit(units, false);
                if let Some(t) = complete_times(plan, &seed, false) {
                    units[bu].halves.push(&[], t);
                }
                let node = view.graph.class_of(*elem).expect("a candidate is a stored element");
                for (class, entries) in view.graph.in_adj_list(*elem).buckets() {
                    if !admitted(plan, &seed, class, node, false) {
                        m.typed_prunes += 1;
                        continue;
                    }
                    for adj in entries {
                        if adj.edge == *elem || adj.other == *elem {
                            continue;
                        }
                        step(plan, m, &seed, adj.edge, false, false, &mut s1);
                        if s1.is_empty() {
                            continue;
                        }
                        step(plan, m, &s1, adj.other, true, false, &mut s2);
                        if s2.is_empty() {
                            continue;
                        }
                        roots.push(bu, &[adj.edge, adj.other], &mut s2);
                    }
                }
                Some(bu)
            };
            ns.add(false, ns_since(t_bwd));
            let Some(bu) = bu else { continue };
            pairs.push((bu, fu));
        }
    }
    out
}

/// The heartbeat of an inline search at more than one seat: twice the
/// pool's running estimate of its hand-off latency. A search that ends
/// sooner would not have gained from a helper that arrives only after the
/// hand-off; one that runs longer leaves a helper as much time to work as
/// it took to arrive.
fn heartbeat_ns() -> u64 {
    2 * par::handoff_ns()
}

/// Search: seat 0 searches the seeded roots depth-first on the calling
/// thread, in root order, with its own matcher, memo and buffers. With a
/// `heartbeat_ns` (more than one seat) the search reads the clock once per
/// 64 checkpoints; past the heartbeat it donates work and stops: every
/// open frame's untried children, stepped exactly as the depth-first
/// search would step them, plus the roots not yet searched, dealt as a
/// range. The donated roots and that range then run as pool jobs, with
/// the calling thread as seat 0. So the split makes the step calls the
/// one-seat search makes, each once — the work is split, not redone.
/// Returns the inline search's outcome.
fn search_stage<'a>(
    env: &Env<'a>,
    m: &mut ElemMatcher<'a>,
    pool: &mut PoolTotals,
    seeded: &mut Seeded,
    heartbeat_ns: Option<u64>,
    enabled: bool,
    ns: &mut ExtendNs,
) -> SearchSplit {
    let Seeded { units, roots, .. } = seeded;
    if roots.len() == 0 {
        return SearchSplit::Inline;
    }
    m.split = heartbeat_ns.map(|heartbeat_ns| Split {
        start: Instant::now(),
        heartbeat_ns,
        unit: 0,
        after_ns: 0,
        donated: None,
    });
    pool.chunks += 1;
    let mut next = roots.len();
    for i in 0..roots.len() {
        if m.cancel_cause.is_some() {
            break;
        }
        if m.split.as_ref().is_some_and(|sp| sp.donated.is_some()) {
            next = i;
            break;
        }
        let (ui, path, states) = roots.get(i);
        if let Some(sp) = m.split.as_mut() {
            sp.unit = ui;
        }
        let fwd = units[ui].fwd;
        let t0 = enabled.then(Instant::now);
        search_root(env, m, path, states, fwd, &mut units[ui].halves);
        ns.add(fwd, ns_since(t0));
    }
    let Some(Split { after_ns, donated: Some(donated), .. }) = m.split.take() else {
        return SearchSplit::Inline;
    };
    // Donated roots first, then the unsearched range `next..` of the
    // seeded roots, read in place. A split that found nothing left to
    // donate ran inline after all.
    let n_donated = donated.len();
    let n = n_donated + roots.len() - next;
    if m.cancel_cause.is_some() || n == 0 {
        return SearchSplit::Inline;
    }
    let root = |v: usize| if v < n_donated { donated.get(v) } else { roots.get(next + v - n_donated) };
    let bounds = par::chunks(n, env.threads);
    let outs = run_stage(env, m, pool, "search", bounds.len(), |mw, c| {
        let mut out: Vec<(usize, Halves)> = Vec::new();
        let mut job_ns = ExtendNs::default();
        for v in bounds[c].clone() {
            if mw.cancel_cause.is_some() {
                break;
            }
            let (ui, path, states) = root(v);
            let fwd = units[ui].fwd;
            if out.last().map(|(u, _)| *u) != Some(ui) {
                out.push((ui, Halves::default()));
            }
            let halves = &mut out.last_mut().expect("pushed above").1;
            let t0 = enabled.then(Instant::now);
            search_root(env, mw, path, states, fwd, halves);
            job_ns.add(fwd, ns_since(t0));
        }
        (out, job_ns)
    });
    for (out, job_ns) in outs.into_iter().flatten() {
        ns.fwd += job_ns.fwd;
        ns.bwd += job_ns.bwd;
        for (ui, halves) in out {
            units[ui].halves.append(halves);
        }
    }
    SearchSplit::Split { after_ns, donated: n as u64 }
}

/// Pool usage summed over one evaluation's stages.
#[derive(Default)]
struct PoolTotals {
    /// Jobs run: pool jobs, plus one per inline search.
    chunks: u64,
    steals: u64,
    /// Memo entries held by seats other than seat 0: a helper re-derives
    /// matches the caller or a sibling may also hold (the memo-locality
    /// trade-off), so the reported memo size grows with the seats used.
    helper_memo: u64,
}

/// Run one stage's jobs on the pool and fold what the seats report into
/// the caller's state. Seat 0 — always the calling thread — works with the
/// caller's own matcher `m`, memo and search buffers included, so a run
/// that stays on one seat matches every memoised element at most once per
/// evaluation; the other seats start from an empty memo. Prune counts and
/// a tripped cancel cause from every seat end up in `m`; the caller's heat
/// tally (seeding steps included) is flushed to the store's heatmap here,
/// a helper seat's when its matcher drops with the reports; `None` slots
/// are jobs nobody ran because the token had tripped.
fn run_stage<'a, T: Send>(
    env: &Env<'a>,
    m: &mut ElemMatcher<'a>,
    totals: &mut PoolTotals,
    stage: &str,
    n_jobs: usize,
    job: impl Fn(&mut ElemMatcher<'a>, usize) -> T + Sync,
) -> Vec<Option<T>> {
    let (outs, mut reports, stats) = par::run_jobs(
        n_jobs,
        env.threads,
        env.timed,
        env.opts.cancel.as_ref(),
        |seat| if seat == 0 { std::mem::replace(m, ElemMatcher::new(env)) } else { ElemMatcher::new(env) },
        job,
    );
    // Take the caller's matcher back; the stand-in left in seat 0's report
    // is empty, so the fold below counts every seat exactly once.
    if let Some(seat0) = reports.first_mut() {
        std::mem::swap(m, &mut seat0.state);
    }
    m.heat.flush();
    for r in &reports {
        m.temporal_prunes += r.state.temporal_prunes;
        m.typed_prunes += r.state.typed_prunes;
        m.heat.chain_reads += r.state.heat.chain_reads;
        totals.helper_memo += r.state.memo.len() as u64;
        if m.cancel_cause.is_none() {
            m.cancel_cause = r.state.cancel_cause;
        }
    }
    // Abandoned slots mean the pool observed a tripped token between
    // jobs; the flag is sticky, so this poll records it.
    if m.cancel_cause.is_none() && outs.iter().any(|o| o.is_none()) {
        m.cancel_cause = env.opts.cancel.as_ref().and_then(|t| t.poll());
    }
    totals.chunks += stats.jobs;
    totals.steals += stats.steals;
    if let Some(mm) = env.opts.meter.as_deref() {
        // Helpers sample their own thread-CPU clock at job boundaries.
        // Seat 0 is the calling thread, whose CPU the clock pair in
        // `try_evaluate` already covers.
        mm.add_cpu_ns(reports.iter().skip(1).map(|r| r.cpu_ns).sum());
    }
    for (i, r) in reports.iter().enumerate() {
        if r.busy_ns > 0 {
            env.span.span_dur(
                "worker",
                r.busy_ns,
                &[("stage", &stage), ("worker", &i), ("jobs", &r.jobs), ("steals", &r.steals)],
            );
        }
        if let Some(reg) = env.metrics {
            reg.histogram("nepal_rpe_worker_busy_ns", "Per-worker busy time per parallel evaluation stage (ns)")
                .observe(r.busy_ns);
        }
    }
    outs
}

/// Record one operator instance on the trace, if one is attached.
fn op_row(ctx: &mut ExecCtx, op: &str, detail: &str, depth: u8, rows: (u64, u64), elapsed_ns: u64) {
    if let Some(trc) = ctx.trace.as_deref_mut() {
        trc.ops.push(OpStats {
            op: op.into(),
            detail: detail.into(),
            rows_in: rows.0,
            rows_out: rows.1,
            elapsed_ns,
            depth,
        });
    }
}

/// Report a finished `Extend` / `Union`: its trace row, and — because its
/// work is interleaved across candidates and seats — the accumulated
/// duration as a completed span.
fn op_done(
    ctx: &mut ExecCtx,
    op: &str,
    detail: &str,
    rows: (u64, u64),
    elapsed_ns: u64,
    attrs: &[(&str, &dyn std::fmt::Display)],
) {
    op_row(ctx, op, detail, 1, rows, elapsed_ns);
    if let Some(span) = ctx.span {
        span.span_dur(op, elapsed_ns, attrs);
    }
}

/// The evaluator's passes. Per anchor atom: `Select` the candidates; seed
/// one search unit per (candidate, distinct NFA seed state) on the calling
/// thread; search the units' subtrees inline first ([`search_stage`]),
/// splitting to the pool past the heartbeat; cross-combine the halves
/// (`Union`) as pool jobs, each feeding its own value of `sink`; merge the
/// jobs' values, new pathways into the sorted result.
/// Then finalize; the merges and the finalize are the `Dedup` row, which a
/// fold (see [`try_fold`]) does not have. Imported seeds skip the `Select`
/// and the `Union` — every half is already a whole pathway. Seeding times
/// into the `Extend` row of the direction it extends.
///
/// Units, jobs and union pairs are enumerated in candidate order and job
/// outputs come back in job order, so nothing observable depends on which
/// seat ran which job. `threads` is the resolved seat count; an anchored
/// search splits to the pool only past `heartbeat_ns` ([`search_stage`]).
#[allow(clippy::too_many_arguments)]
fn run_passes(
    view: &GraphView,
    plan: &RpePlan,
    seeds: Seeds,
    opts: &EvalOptions,
    ctx: &mut ExecCtx,
    sink: Sink,
    threads: usize,
    heartbeat_ns: Option<u64>,
) -> Result<Folded, RpeError> {
    assert!(
        plan.typed.built_for(&plan.nfa),
        "the plan's typed table was built for another automaton (use RpePlan::set_nfa)"
    );
    let no_span = SpanHandle::none();
    let span = ctx.span.unwrap_or(&no_span);
    // Operator timings are wanted: a trace or a live span is attached.
    let enabled = ctx.trace.is_some() || span.is_active();
    let schema = view.graph.schema().clone();
    let env = Env {
        view,
        plan,
        schema: &schema,
        opts,
        cap: opts.max_elements.map(|m| m.min(plan.max_elements)).unwrap_or(plan.max_elements),
        threads,
        timed: enabled || ctx.metrics.is_some() || opts.meter.is_some(),
        span,
        metrics: ctx.metrics,
    };
    let mut m = ElemMatcher::new(&env);
    // What `Union` fed the sink so far: whole pathways are sorted and
    // distinct between atoms.
    let mut fed = sink.start();
    // Rows written for `Dedup` and its time.
    let (mut dedup_in, mut dedup_ns) = (0u64, 0u64);
    let mut pool = PoolTotals::default();
    // How the anchored searches ran, merged over the anchor's atoms.
    let mut search: Option<SearchSplit> = None;

    match seeds {
        Seeds::Anchor => {
            for &occ in &plan.anchor.atoms {
                let atom = &plan.atoms[occ as usize];
                let t_sel = enabled.then(Instant::now);
                let sel_span = span.child("Select");
                sel_span.attr("atom", &atom.display);
                let (candidates, scanned) =
                    anchor_scan_cancel(view, &schema, atom, opts.cancel.as_ref(), opts.meter.as_deref(), &mut m.heat)?;
                sel_span.attr("rows_in", scanned);
                sel_span.attr("rows_out", candidates.len());
                drop(sel_span);
                op_row(ctx, "Select", &atom.display, 0, (scanned, candidates.len() as u64), ns_since(t_sel));
                let mut ext = ExtendNs::default();
                let mut union_ns = 0u64;
                let union_before = fed.pathways();
                let mut seeded = seed_atom(&env, &mut m, occ, &candidates, enabled, &mut ext);
                let split = search_stage(&env, &mut m, &mut pool, &mut seeded, heartbeat_ns, enabled, &mut ext);
                search = Some(search.map_or(split, |s| s.merge(split)));
                let Seeded { units, pairs, .. } = &seeded;
                let (fwd_ns, bwd_ns) = (ext.fwd, ext.bwd);
                let halves_of =
                    |fwd: bool| -> u64 { units.iter().filter(|u| u.fwd == fwd).map(|u| u.halves.len() as u64).sum() };
                let (fwd_halves, bwd_halves) = (halves_of(true), halves_of(false));

                // Union: cross-combines are independent per (backward
                // half, forward half) pair; a big pair is split into
                // ranges of its row-major (backward, forward) index space,
                // so a single backward half against thousands of forward
                // ones — every node-anchored Table-1 query — still splits.
                let mut union_in = 0u64;
                let mut ujobs: Vec<(usize, usize, usize)> = Vec::new(); // (pair, lo, hi) over b * f
                for (pi, &(bu, fu)) in pairs.iter().enumerate() {
                    let n = units[bu].halves.len() * units[fu].halves.len();
                    union_in += n as u64;
                    let splits = if n > 2048 { threads } else { 1 };
                    ujobs.extend((0..splits).map(|c| (pi, c * n / splits, (c + 1) * n / splits)).filter(|j| j.1 < j.2));
                }
                let ubounds = par::chunks(ujobs.len(), threads);
                let uouts = run_stage(&env, &mut m, &mut pool, "union", ubounds.len(), |mw, c| {
                    let mut out = sink.start();
                    let t0 = enabled.then(Instant::now);
                    'jobs: for &(pi, lo, hi) in &ujobs[ubounds[c].clone()] {
                        let (bu, fu) = pairs[pi];
                        let (bwd, fwd) = (&units[bu].halves, &units[fu].halves);
                        let f = fwd.len();
                        for bi in lo / f..=(hi - 1) / f {
                            if mw.checkpoint() {
                                break 'jobs;
                            }
                            let (b, b_times) = bwd.get(bi);
                            // This job's part of row `bi`.
                            'combine: for fi in lo.max(bi * f) - bi * f..hi.min((bi + 1) * f) - bi * f {
                                let (fh, f_times) = fwd.get(fi);
                                // Cycle check across the two halves.
                                for u in b {
                                    if fh.contains(u) {
                                        continue 'combine;
                                    }
                                }
                                let (t, ok) = times_intersect(b_times, f_times);
                                if !ok {
                                    mw.temporal_prunes += 1;
                                    continue;
                                }
                                if b.len() + fh.len() > env.cap {
                                    continue;
                                }
                                sink.feed(&mut out, b, fh, t);
                            }
                        }
                    }
                    (out, ns_since(t0))
                });
                for (out, ns) in uouts.into_iter().flatten() {
                    union_ns += ns;
                    if let Folded::Pathways(written) = &out {
                        dedup_in += written.len() as u64;
                    }
                    fed.merge(out);
                }
                if let Folded::Pathways(results) = &mut fed {
                    let t0 = enabled.then(Instant::now);
                    merge_sorted(results);
                    dedup_ns += ns_since(t0);
                }

                let n_cand = candidates.len() as u64;
                let union_out = (fed.pathways() - union_before) as u64;
                for (op, rows, ns, key, n) in [
                    ("Extend(fwd)", (n_cand, fwd_halves), fwd_ns, "halves", fwd_halves),
                    ("Extend(bwd)", (n_cand, bwd_halves), bwd_ns, "halves", bwd_halves),
                    ("Union", (union_in, union_out), union_ns, "pairs_in", union_in),
                ] {
                    op_done(ctx, op, &atom.display, rows, ns, &[("atom", &atom.display), (key, &n)]);
                }
            }
        }
        Seeds::Sources(nodes) | Seeds::Targets(nodes) => {
            // Forwards from the start state at each source, or backwards
            // from every accepting state at each target.
            let fwd = matches!(seeds, Seeds::Sources(_));
            let Folded::Pathways(results) = &mut fed else { unreachable!("a fold starts from the anchor") };
            let t0 = enabled.then(Instant::now);
            let whole: Times = view.filter.is_range().then(universal);
            let init: StateSet = if fwd {
                vec![(plan.nfa.start, whole)]
            } else {
                (0..plan.nfa.n_states as u32)
                    .filter(|&s| plan.nfa.accepts[s as usize])
                    .map(|s| (s, whole.clone()))
                    .collect()
            };
            let bounds = par::chunks(nodes.len(), threads);
            let outs = run_stage(&env, &mut m, &mut pool, "search", bounds.len(), |mw, c| {
                let mut found = Halves::default();
                let mut seeded = 0u64;
                let mut s1 = StateSet::new();
                for &node in &nodes[bounds[c].clone()] {
                    if mw.cancel_cause.is_some() {
                        break;
                    }
                    if !view.graph.is_node(node) {
                        continue;
                    }
                    step(plan, mw, &init, node, true, fwd, &mut s1);
                    if s1.is_empty() {
                        continue;
                    }
                    seeded += 1;
                    search_root(&env, mw, &[node], &s1, fwd, &mut found);
                }
                (found, seeded)
            });
            let (mut seeded, mut halves) = (0u64, 0u64);
            for (found, s) in outs.into_iter().flatten() {
                seeded += s;
                halves += found.len() as u64;
                let mut lo = 0;
                for (hi, times) in found.ends {
                    let mut elems = found.elems[lo..hi].to_vec();
                    if !fwd {
                        elems.reverse();
                    }
                    results.push(Pathway { elems, times });
                    lo = hi;
                }
            }
            dedup_in = results.len() as u64;
            let t1 = enabled.then(Instant::now);
            merge_sorted(results);
            dedup_ns += ns_since(t1);
            let (op, select, extend) = if fwd {
                ("Extend(fwd)", "imported source seeds", "from imported sources")
            } else {
                ("Extend(bwd)", "imported target seeds", "from imported targets")
            };
            op_row(ctx, "Select", select, 0, (nodes.len() as u64, seeded), 0);
            let seeds = format_args!("{seeded}/{}", nodes.len());
            op_done(ctx, op, extend, (seeded, halves), ns_since(t0), &[("seeds", &seeds), ("halves", &halves)]);
        }
    }

    let memo_entries = m.memo.len() as u64 + pool.helper_memo;
    if let Some(trc) = ctx.trace.as_deref_mut() {
        trc.bump("temporal_prunes", m.temporal_prunes);
        trc.bump("chain_reads", m.heat.chain_reads);
        trc.bump("typed_prunes", m.typed_prunes);
        trc.bump("match_memo_entries", memo_entries);
        trc.bump("rpe_parallel_chunks", pool.chunks);
        trc.bump("rpe_steal_count", pool.steals);
        trc.search = search;
    }
    if let Some(split) = search {
        span.attr("search", split);
    }
    span.attr("temporal_prunes", m.temporal_prunes);
    span.attr("chain_reads", m.heat.chain_reads);
    span.attr("typed_prunes", m.typed_prunes);
    span.attr("match_memo_entries", memo_entries);
    span.attr("threads", threads);
    span.attr("rpe_parallel_chunks", pool.chunks);
    span.attr("rpe_steal_count", pool.steals);
    if let Some(reg) = ctx.metrics {
        reg.counter("nepal_rpe_parallel_chunks_total", "Parallel evaluation chunks (pool jobs) executed")
            .add(pool.chunks);
        reg.counter("nepal_rpe_steals_total", "Cross-worker steals in the parallel evaluator").add(pool.steals);
    }

    // Any trip — a checkpoint on any seat, or abandoned pool jobs — means
    // partial results: surface the typed error, never a truncated Ok.
    if let Some(cause) = m.cancel_cause {
        return Err(cause.into());
    }

    let mut out = match fed {
        Folded::Pathways(results) => results,
        Folded::Count(n) => return Ok(Folded::Count(opts.limit.map_or(n, |limit| n.min(limit)))),
        folded => return Ok(folded),
    };
    // `out` is sorted by elements; finalizing keeps the order.
    let t0 = enabled.then(Instant::now);
    out.retain_mut(|p| match finalize(view, p.times.take()) {
        Some(t) => {
            p.times = t;
            true
        }
        None => false,
    });
    if let Some(limit) = opts.limit {
        out.truncate(limit);
    }
    let rows = (dedup_in, out.len() as u64);
    op_done(ctx, "Dedup", "sort, merge, finalize", rows, dedup_ns + ns_since(t0), &[("rows_in", &dedup_in)]);
    Ok(Folded::Pathways(out))
}

/// Live-statistics estimator backed by the store (§5.1: "database
/// statistics are used if available; otherwise schema hints are used").
pub struct GraphEstimator<'g> {
    pub graph: &'g TemporalGraph,
}

impl CardinalityEstimator for GraphEstimator<'_> {
    fn estimate(&self, schema: &Schema, atom: &BoundAtom) -> f64 {
        if atom.unique_eq_pred(schema).is_some() {
            return 1.0;
        }
        let count = self.graph.alive_count(atom.class);
        let base = if count == 0 {
            schema
                .descendants(atom.class)
                .into_iter()
                .filter_map(|c| schema.class(c).hint_cardinality)
                .sum::<u64>()
                .max(1) as f64
        } else {
            count as f64
        };
        apply_selectivity(base, atom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rpe;
    use crate::plan::plan_rpe;
    use nepal_schema::dsl::parse_schema;
    use nepal_schema::Value;

    const SCHEMA: &str = r#"
        node N { n_id: int unique }
        node M { m_id: int unique }
        edge E { }
        edge F { }
        allow E (N -> N)
        allow E (N -> M)
        allow F (M -> M)
        allow F (M -> N)
    "#;

    /// Anchored at a unique node (forwards and backwards), edge-initial and
    /// edge-final, and one unanchored shape with many roots.
    const RPES: &[&str] = &[
        "N(n_id=0)->[E()]{1,6}->M()",
        "N()->[E()]{1,5}->M(m_id=1)",
        "N(n_id=3)->[E()]{1,6}",
        "[F()]{1,4}->N(n_id=4)",
        "N(n_id=5)->E()->M()->[F()]{1,4}->N()",
        "N()->E()->M()",
    ];

    /// Forty `N` and twenty `M` nodes with three and two random out-edges
    /// each, a third of the edges deleted later: trees deep enough that an
    /// anchored search passes its 64th checkpoint mid-search.
    fn graph(seed: u64) -> TemporalGraph {
        let schema = Arc::new(parse_schema(SCHEMA).unwrap());
        let c = |n: &str| schema.class_by_name(n).unwrap();
        let mut g = TemporalGraph::new(schema.clone());
        let mut x = seed;
        let mut rnd = |bound: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % bound
        };
        let ns: Vec<Uid> =
            (0..40).map(|i| g.insert_node(c("N"), vec![Value::Int(i)], rnd(10) as i64).unwrap()).collect();
        let ms: Vec<Uid> =
            (0..20).map(|i| g.insert_node(c("M"), vec![Value::Int(i)], rnd(10) as i64).unwrap()).collect();
        let mut edges = Vec::new();
        for &n in &ns {
            for _ in 0..3 {
                let to = if rnd(3) == 0 { ms[rnd(20) as usize] } else { ns[rnd(40) as usize] };
                edges.extend(g.insert_edge(c("E"), n, to, vec![], 10 + rnd(10) as i64).ok());
            }
        }
        for &m in &ms {
            for _ in 0..2 {
                let to = if rnd(2) == 0 { ms[rnd(20) as usize] } else { ns[rnd(40) as usize] };
                edges.extend(g.insert_edge(c("F"), m, to, vec![], 10 + rnd(10) as i64).ok());
            }
        }
        for (i, &e) in edges.iter().enumerate() {
            if i % 3 == 0 {
                let _ = g.delete(e, 40 + rnd(20) as i64);
            }
        }
        g
    }

    type UnitHalves = (bool, Vec<(Vec<Uid>, Times)>);

    /// Seed and search every anchor atom of `plan` at `threads` seats with
    /// `heartbeat_ns`: each unit's halves (sorted), the typed and temporal
    /// prune counts, and how the search ran.
    fn halves(
        view: &GraphView,
        plan: &RpePlan,
        threads: usize,
        heartbeat_ns: Option<u64>,
    ) -> (Vec<UnitHalves>, u64, u64, SearchSplit) {
        let schema = view.graph.schema().clone();
        let (opts, span) = (EvalOptions::default(), SpanHandle::none());
        let env = Env {
            view,
            plan,
            schema: &schema,
            opts: &opts,
            cap: plan.max_elements,
            threads,
            timed: false,
            span: &span,
            metrics: None,
        };
        let mut m = ElemMatcher::new(&env);
        let (mut pool, mut ns) = (PoolTotals::default(), ExtendNs::default());
        let (mut units, mut split) = (Vec::new(), SearchSplit::Inline);
        for &occ in &plan.anchor.atoms {
            let atom = &plan.atoms[occ as usize];
            let (cands, _) = anchor_scan_cancel(view, &schema, atom, None, None, &mut m.heat).unwrap();
            let mut seeded = seed_atom(&env, &mut m, occ, &cands, false, &mut ns);
            split = split.merge(search_stage(&env, &mut m, &mut pool, &mut seeded, heartbeat_ns, false, &mut ns));
            for u in seeded.units {
                let mut hs: Vec<(Vec<Uid>, Times)> = (0..u.halves.len())
                    .map(|i| {
                        let (elems, times) = u.halves.get(i);
                        (elems.to_vec(), times.clone())
                    })
                    .collect();
                hs.sort_by(|a, b| a.0.cmp(&b.0));
                units.push((u.fwd, hs));
            }
        }
        (units, m.typed_prunes, m.temporal_prunes, split)
    }

    const FILTERS: [TimeFilter; 3] = [TimeFilter::Current, TimeFilter::AsOf(30), TimeFilter::Range(5, 60)];

    #[test]
    fn split_search_gives_the_one_seat_halves_and_prunes() {
        let mut donated = 0;
        for seed in 0..6 {
            let g = graph(seed);
            for filter in FILTERS {
                let view = GraphView::new(&g, filter);
                for text in RPES {
                    let plan = plan_rpe(g.schema(), &parse_rpe(text).unwrap(), &GraphEstimator { graph: &g }).unwrap();
                    let (one, typed, temporal, split) = halves(&view, &plan, 1, None);
                    assert_eq!(split, SearchSplit::Inline);
                    // An expired heartbeat splits at the first clock read; no
                    // heartbeat never splits.
                    for (threads, heartbeat) in [(2, Some(0)), (4, Some(0)), (2, None)] {
                        let (units, t, tp, split) = halves(&view, &plan, threads, heartbeat);
                        let ctx = format!("{text} at {filter:?}, seed {seed}, {threads} seats, {split}");
                        assert_eq!(one, units, "halves differ: {ctx}");
                        assert_eq!((typed, temporal), (t, tp), "prune counts differ: {ctx}");
                        match split {
                            SearchSplit::Inline => {}
                            SearchSplit::Split { donated: n, .. } => {
                                assert!(heartbeat.is_some(), "split without a heartbeat: {ctx}");
                                donated += n;
                            }
                        }
                    }
                }
            }
        }
        assert!(donated > 0, "no search outlived its 64th checkpoint");
    }

    #[test]
    fn split_search_gives_the_one_seat_pathways_and_rows() {
        for seed in 0..4 {
            let g = graph(seed);
            for filter in FILTERS {
                let view = GraphView::new(&g, filter);
                for text in RPES {
                    let plan = plan_rpe(g.schema(), &parse_rpe(text).unwrap(), &GraphEstimator { graph: &g }).unwrap();
                    let run = |threads: usize, heartbeat: Option<u64>| {
                        let mut trace = ExecTrace::default();
                        let mut ctx = ExecCtx { trace: Some(&mut trace), ..Default::default() };
                        let opts = EvalOptions::default();
                        let folded = run_passes(
                            &view,
                            &plan,
                            Seeds::Anchor,
                            &opts,
                            &mut ctx,
                            Sink::Pathways,
                            threads,
                            heartbeat,
                        )
                        .unwrap();
                        let rows: Vec<(String, u64, u64)> =
                            trace.ops.iter().map(|o| (o.op.clone(), o.rows_in, o.rows_out)).collect();
                        let prunes = (trace.counter("typed_prunes"), trace.counter("temporal_prunes"));
                        assert!(trace.counter("rpe_parallel_chunks") > 0 || folded.pathways() == 0);
                        (folded, rows, prunes, trace.search)
                    };
                    let one = run(1, None);
                    assert_eq!(one.3, Some(SearchSplit::Inline));
                    for heartbeat in [Some(0), None] {
                        let two = run(2, heartbeat);
                        let ctx = format!("{text} at {filter:?}, seed {seed}, heartbeat {heartbeat:?}");
                        assert_eq!(one.0, two.0, "pathways differ: {ctx}");
                        assert_eq!(one.1, two.1, "operator rows differ: {ctx}");
                        assert_eq!(one.2, two.2, "prune counts differ: {ctx}");
                        if heartbeat.is_none() {
                            assert_eq!(two.3, Some(SearchSplit::Inline), "{ctx}");
                        }
                    }
                }
            }
        }
    }
}
