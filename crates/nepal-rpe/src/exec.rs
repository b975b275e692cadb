//! The native anchored evaluator.
//!
//! Implements the paper's evaluation strategy (§5.1/§5.2) directly against
//! the temporal graph store: a `Select` over the anchor atoms, then chained
//! `Extend` operators forwards and backwards with per-row NFA state and
//! uid-list cycle checks, and a `Union` merging the per-seed results.
//!
//! There is one evaluator ([`try_evaluate`]). It always runs the same
//! passes — seed, search, union, finalize — and deals the search and union
//! work to [`crate::par`] as jobs; with one seat (`threads = 1`) those jobs
//! run inline on the calling thread, with more they are shared with pool
//! helpers. The result does not depend on the seat count.
//!
//! Temporal scope is threaded through every operator: under a
//! [`TimeFilter::Range`] each partial pathway carries the intersection of
//! its elements' maximal assertion intervals and is pruned the moment that
//! intersection becomes empty.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use nepal_graph::FOREVER;
use nepal_graph::{FxHashMap, GraphView, Interval, IntervalSet, MatchTime, TemporalGraph, TimeFilter, Uid};
use nepal_obs::{thread_cpu_ns, ExecTrace, MetricsRegistry, OpStats, ResourceMeter, SpanHandle};
use nepal_schema::{ClassId, Schema};

use crate::anchor::{apply_selectivity, CardinalityEstimator};
use crate::bind::BoundAtom;
use crate::cancel::{CancelCause, CancelToken};
use crate::error::RpeError;
use crate::nfa::Label;
use crate::par;
use crate::path::Pathway;
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

/// One entry in an on-the-fly subset construction: an NFA state plus the
/// times during which this state is reachable for the current partial path.
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

/// Per-element memo of label match results.
struct ElemMatcher<'a> {
    view: &'a GraphView<'a>,
    schema: &'a Schema,
    atoms: &'a [BoundAtom],
    range_mode: bool,
    memo: FxHashMap<(Uid, Label), Option<Times>>,
    /// Partial matches dropped because their interval intersection became
    /// empty (§5 temporal pruning). A plain increment — counted even
    /// untraced, and only reported when a trace is attached.
    temporal_prunes: u64,
    /// Cooperative cancellation: the token (if any), a checkpoint counter
    /// bounding poll frequency, and the sticky cause once tripped.
    cancel: Option<CancelToken>,
    cancel_ctr: u32,
    cancel_cause: Option<CancelCause>,
}

/// Poll the cancel token once per this many search checkpoints (node
/// expansions / union rows), bounding both the poll overhead and the
/// cancellation latency.
const CANCEL_CHECK_MASK: u32 = 0x3F; // every 64 checkpoints

impl<'a> ElemMatcher<'a> {
    fn new(env: &Env<'a>) -> Self {
        ElemMatcher {
            view: env.view,
            schema: env.schema,
            atoms: &env.plan.atoms,
            range_mode: env.view.filter.is_range(),
            memo: FxHashMap::default(),
            temporal_prunes: 0,
            cancel: env.opts.cancel.clone(),
            cancel_ctr: 0,
            cancel_cause: None,
        }
    }

    /// One search checkpoint: `true` → the token tripped, abandon work and
    /// unwind. Sticky, and rate-limited to one token poll per
    /// [`CANCEL_CHECK_MASK`]+1 calls.
    #[inline]
    fn checkpoint(&mut self) -> bool {
        if self.cancel_cause.is_some() {
            return true;
        }
        let Some(tok) = &self.cancel else { return false };
        self.cancel_ctr = self.cancel_ctr.wrapping_add(1);
        if self.cancel_ctr & CANCEL_CHECK_MASK != 0 {
            return false;
        }
        match tok.poll() {
            Some(cause) => {
                self.cancel_cause = Some(cause);
                true
            }
            None => false,
        }
    }

    /// `None` → element does not satisfy the label; `Some(times)` → it
    /// does, with assertion times in range mode.
    fn matches(&mut self, uid: Uid, is_node: bool, label: Label) -> Option<Times> {
        // Fast path: kind and class mismatches are decided from two array
        // reads, without touching versions or the memo. This is what makes
        // class-partitioned storage pay off (§6: "the automatic elimination
        // of many useless edges from the navigation joins").
        if let Label::Atom(a) = label {
            let atom = &self.atoms[a as usize];
            if atom.is_node != is_node {
                return None;
            }
            let class = self.view.graph.class_of(uid)?;
            if !self.schema.is_subclass(class, atom.class) {
                return None;
            }
        } else if matches!(label, Label::AnyNode) != is_node {
            return None;
        }
        if let Some(hit) = self.memo.get(&(uid, label)) {
            return hit.clone();
        }
        let result = self.compute(uid, is_node, label);
        self.memo.insert((uid, label), result.clone());
        result
    }

    fn compute(&self, uid: Uid, is_node: bool, label: Label) -> Option<Times> {
        let to_times = |mt: MatchTime| -> Times {
            match mt {
                MatchTime::Point => None,
                MatchTime::Intervals(set) => Some(set),
            }
        };
        match label {
            Label::AnyNode => {
                if !is_node {
                    return None;
                }
                self.view.matching(uid, |_| true).map(to_times)
            }
            Label::AnyEdge => {
                if is_node {
                    return None;
                }
                self.view.matching(uid, |_| true).map(to_times)
            }
            Label::Atom(a) => {
                let atom = &self.atoms[a as usize];
                if atom.is_node != is_node {
                    return None;
                }
                let class = self.view.graph.class_of(uid)?;
                if !self.schema.is_subclass(class, atom.class) {
                    return None;
                }
                self.view.matching(uid, |f| atom.matches_fields(f)).map(to_times)
            }
        }
        .map(|t| if self.range_mode && t.is_none() { Some(universal()) } else { t })
    }
}

/// Step a state set over one element: forwards (`fwd`) along the NFA's
/// transitions, or backwards along its reverse adjacency, where the states
/// are *before*-states.
fn step(plan: &RpePlan, m: &mut ElemMatcher, states: &StateSet, uid: Uid, is_node: bool, fwd: bool) -> StateSet {
    let table = if fwd { &plan.nfa.trans } else { &plan.nfa.rev };
    let mut next: StateSet = Vec::new();
    for (s, t) in states {
        for &(label, to) in &table[*s as usize] {
            if let Some(lt) = m.matches(uid, is_node, label) {
                let (nt, ok) = times_intersect(t, &lt);
                if ok {
                    push_state(&mut next, to, nt);
                } else {
                    m.temporal_prunes += 1;
                }
            }
        }
    }
    next
}

/// The times under which `states` complete a half-match — an accepting
/// state going forwards, the start state going backwards — or `None` when
/// no state does.
fn complete_times(plan: &RpePlan, states: &StateSet, fwd: bool) -> Option<Times> {
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

/// A completed half-match: the elements on one side of the seed (seed
/// included on the forward side only) plus the times of the half.
#[derive(Debug, Clone)]
struct Half {
    elems: Vec<Uid>,
    times: Times,
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

/// Can an edge of exact `class` satisfy *any* edge-label transition out of
/// (`fwd`) or into (`!fwd`) the live states? When not, the whole adjacency
/// bucket is skipped without touching per-neighbor state. The test mirrors
/// [`ElemMatcher::matches`]'s fast-path rejections exactly (kind + class
/// only), so skipping a bucket never changes match results or prune counts
/// — every skipped neighbor would have produced `None` without counting.
fn class_viable(
    plan: &RpePlan,
    atoms: &[BoundAtom],
    schema: &Schema,
    states: &StateSet,
    class: ClassId,
    fwd: bool,
) -> bool {
    let table = if fwd { &plan.nfa.trans } else { &plan.nfa.rev };
    for (s, _) in states {
        for &(label, _) in &table[*s as usize] {
            match label {
                Label::AnyEdge => return true,
                Label::AnyNode => {}
                Label::Atom(a) => {
                    let atom = &atoms[a as usize];
                    if !atom.is_node && schema.is_subclass(class, atom.class) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Depth-first extension in one direction. Forwards, `path` holds the
/// elements consumed so far and `states` the NFA states after them.
/// Backwards, `path` holds the elements to the LEFT of the seed in
/// right-to-left order (so `path.last()` is the leftmost element) and
/// `states` are before-states. Either way `path` ends with a node.
fn search(env: &Env, m: &mut ElemMatcher, path: &mut Vec<Uid>, states: &StateSet, fwd: bool, out: &mut Vec<Half>) {
    if m.checkpoint() {
        return; // cancelled: unwind quickly, the caller surfaces the cause
    }
    if let Some(times) = complete_times(env.plan, states, fwd) {
        out.push(Half { elems: path.clone(), times });
    }
    if path.len() + 2 > env.cap {
        return;
    }
    let last = *path.last().expect("search roots are non-empty");
    let adj = if fwd { env.view.graph.out_adj_list(last) } else { env.view.graph.in_adj_list(last) };
    for (class, entries) in adj.buckets() {
        if !class_viable(env.plan, m.atoms, m.schema, states, class, fwd) {
            continue;
        }
        for a in entries {
            if path.contains(&a.edge) || path.contains(&a.other) {
                continue;
            }
            let s1 = step(env.plan, m, states, a.edge, false, fwd);
            if s1.is_empty() {
                continue;
            }
            let s2 = step(env.plan, m, &s1, a.other, true, fwd);
            if s2.is_empty() {
                continue;
            }
            path.push(a.edge);
            path.push(a.other);
            search(env, m, path, &s2, fwd, out);
            path.pop();
            path.pop();
        }
    }
}

/// Scan the store for elements satisfying an anchor atom (`Select`).
/// Uses the unique index when the atom has a unique-equality predicate.
pub fn anchor_scan(view: &GraphView, schema: &Schema, atom: &BoundAtom) -> Vec<(Uid, Times)> {
    anchor_scan_cancel(view, schema, atom, None, None).expect("no cancel token supplied").0
}

/// [`anchor_scan`] plus the number of stored elements examined (the
/// `Select` operator's input cardinality: 1 on the unique-index fast path,
/// the extent size on the scan path), polling `cancel` every 1024 scanned
/// elements; returns the trip cause instead of a truncated candidate set.
/// This is the deterministic metering boundary: it always runs on the
/// calling thread, and the per-uid access costs it charges are pure
/// functions of store state, so a metered query reports the same logical
/// rows / bytes / materializations at any thread count.
fn anchor_scan_cancel(
    view: &GraphView,
    schema: &Schema,
    atom: &BoundAtom,
    cancel: Option<&CancelToken>,
    meter: Option<&ResourceMeter>,
) -> std::result::Result<(Vec<(Uid, Times)>, u64), CancelCause> {
    let range_mode = view.filter.is_range();
    let to_times = |mt: MatchTime| -> Times {
        match mt {
            MatchTime::Point => {
                if range_mode {
                    Some(universal())
                } else {
                    None
                }
            }
            MatchTime::Intervals(set) => Some(set),
        }
    };
    // Unique-index fast path — only valid against the current snapshot,
    // since the index tracks currently asserted holders.
    if view.filter == TimeFilter::Current {
        if let Some((idx, value)) = atom.unique_eq_pred(schema) {
            if let Some(mm) = meter {
                mm.add_seeks(1);
                mm.add_classes(1);
            }
            if let Some(uid) = view.graph.find_unique(atom.class, idx, value) {
                if let Some(mm) = meter {
                    mm.add_rows(1);
                    let cost = view.access_cost(uid);
                    mm.add_bytes(cost.bytes);
                    mm.add_materializations(cost.materializations);
                    mm.add_keyframe_hits(cost.keyframe_hits);
                }
                if let Some(mt) = view.matching(uid, |f| atom.matches_fields(f)) {
                    return Ok((vec![(uid, to_times(mt))], 1));
                }
                return Ok((Vec::new(), 1));
            }
            return Ok((Vec::new(), 0));
        }
    }
    let mut out = Vec::new();
    let mut scanned = 0u64;
    // Local tallies so the metered scan issues one atomic add per counter,
    // not one per row.
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
            if let Some(mt) = view.matching(uid, |f| atom.matches_fields(f)) {
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

/// Accumulated results: elems → merged times. Every pass inserts through
/// [`add_result`], whose merge (`IntervalSet::union`, re-normalized) is
/// commutative and associative — final contents are independent of
/// insertion order, which is what makes the merge of pool job outputs
/// deterministic.
type ResultMap = FxHashMap<Vec<Uid>, Times>;

fn add_result(elems: Vec<Uid>, times: Times, results: &mut ResultMap) {
    results.entry(elems).and_modify(|t| *t = times_union(std::mem::take(t), &times)).or_insert(times);
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
/// rows and temporal-prune counts are identical at every
/// [`EvalOptions::threads`] value (see DESIGN.md §5b).
pub fn try_evaluate(
    view: &GraphView,
    plan: &RpePlan,
    seeds: Seeds,
    opts: &EvalOptions,
    ctx: &mut ExecCtx,
) -> Result<Vec<Pathway>, RpeError> {
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
    let result = run_passes(view, plan, seeds, opts, ctx);
    if let (Some(mm), Some(c0)) = (opts.meter.as_ref(), cpu0) {
        mm.add_cpu_ns(thread_cpu_ns().saturating_sub(c0));
    }
    result
}

/// One search unit: every frontier root of one `(candidate, NFA seed
/// transition)` extension tree, plus the halves already completed while
/// seeding (root accepts collected while carving out the frontier). After
/// the search stage, `halves` holds the unit's full half-match list.
struct Unit {
    fwd: bool,
    roots: Vec<(Vec<Uid>, StateSet)>,
    halves: Vec<Half>,
}

/// Consume search-tree levels breadth-first on the calling thread until
/// the frontier holds at least `want` independent subtrees (or the tree is
/// exhausted). Accepts found at consumed roots go to `prefix`; the
/// returned frontier items become pool jobs. The step calls made here are
/// exactly the ones the depth-first search would have made for the same
/// prefix paths, so match results and prune counts are unchanged — the
/// work is split, not redone.
fn expand_frontier(
    env: &Env,
    m: &mut ElemMatcher,
    roots: Vec<(Vec<Uid>, StateSet)>,
    fwd: bool,
    want: usize,
    prefix: &mut Vec<Half>,
) -> Vec<(Vec<Uid>, StateSet)> {
    let mut queue: VecDeque<(Vec<Uid>, StateSet)> = roots.into();
    let mut popped = 0usize;
    while queue.len() < want && popped < want.saturating_mul(4) {
        if m.checkpoint() {
            break; // cancelled: the caller checks the cause before merging
        }
        let Some((path, states)) = queue.pop_front() else { break };
        popped += 1;
        if let Some(times) = complete_times(env.plan, &states, fwd) {
            prefix.push(Half { elems: path.clone(), times });
        }
        if path.len() + 2 > env.cap {
            continue;
        }
        let last = *path.last().expect("expansion roots are non-empty");
        let adj = if fwd { env.view.graph.out_adj_list(last) } else { env.view.graph.in_adj_list(last) };
        for (class, entries) in adj.buckets() {
            if !class_viable(env.plan, m.atoms, m.schema, &states, class, fwd) {
                continue;
            }
            for a in entries {
                if path.contains(&a.edge) || path.contains(&a.other) {
                    continue;
                }
                let s1 = step(env.plan, m, &states, a.edge, false, fwd);
                if s1.is_empty() {
                    continue;
                }
                let s2 = step(env.plan, m, &s1, a.other, true, fwd);
                if s2.is_empty() {
                    continue;
                }
                let mut p = path.clone();
                p.push(a.edge);
                p.push(a.other);
                queue.push_back((p, s2));
            }
        }
    }
    queue.into_iter().collect()
}

/// Pool usage summed over one evaluation's stages.
#[derive(Default)]
struct PoolTotals {
    chunks: u64,
    steals: u64,
    /// Memo entries held by seats other than seat 0: a helper re-derives
    /// matches the caller or a sibling may also hold (the memo-locality
    /// trade-off), so the reported memo size grows with the seats used.
    helper_memo: u64,
}

/// Run one stage's jobs on the pool and fold what the seats report into
/// the caller's state. Seat 0 — always the calling thread — works with the
/// caller's own matcher `m`, memo included, so a run that stays on one
/// seat matches every element at most once per evaluation; the other seats
/// start from an empty memo. Prune counts and a tripped cancel cause from
/// every seat end up in `m`; `None` slots are jobs nobody ran because the
/// token had tripped.
fn run_stage<'a, T: Send>(
    env: &Env<'a>,
    m: &mut ElemMatcher<'a>,
    totals: &mut PoolTotals,
    stage: &str,
    n_jobs: usize,
    job: impl Fn(&mut ElemMatcher<'a>, usize) -> T + Sync,
) -> Vec<Option<T>> {
    let (outs, mut reports, stats) = par::run_jobs_cancel(
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
    for r in &reports {
        m.temporal_prunes += r.state.temporal_prunes;
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
                &[
                    ("stage", stage.to_string()),
                    ("worker", i.to_string()),
                    ("jobs", r.jobs.to_string()),
                    ("steals", r.steals.to_string()),
                ],
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
fn op_done(ctx: &mut ExecCtx, op: &str, detail: &str, rows: (u64, u64), elapsed_ns: u64, attrs: &[(&str, String)]) {
    op_row(ctx, op, detail, 1, rows, elapsed_ns);
    if let Some(span) = ctx.span {
        span.span_dur(op, elapsed_ns, attrs);
    }
}

/// The evaluator's passes. Per anchor atom: `Select` the candidates; seed
/// one search unit per (candidate, distinct NFA seed state) on the calling
/// thread; run the units' subtrees as pool jobs; cross-combine the halves
/// (`Union`) as pool jobs; then finalize and sort. Imported seeds skip the
/// `Select` and the `Union` — every half is already a whole pathway.
///
/// Units, jobs and union pairs are enumerated in candidate order and job
/// outputs come back in job order, so nothing observable depends on which
/// seat ran which job.
fn run_passes(
    view: &GraphView,
    plan: &RpePlan,
    seeds: Seeds,
    opts: &EvalOptions,
    ctx: &mut ExecCtx,
) -> Result<Vec<Pathway>, RpeError> {
    let no_span = SpanHandle::none();
    let span = ctx.span.unwrap_or(&no_span);
    // Operator timings are wanted: a trace or a live span is attached.
    let enabled = ctx.trace.is_some() || span.is_active();
    let schema = view.graph.schema().clone();
    let threads = resolved_threads(opts.threads);
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
    let mut results: ResultMap = ResultMap::default();
    let mut pool = PoolTotals::default();
    let ns_since = |t0: Option<Instant>| t0.map_or(0, |t| t.elapsed().as_nanos() as u64);

    match seeds {
        Seeds::Anchor => {
            for &occ in &plan.anchor.atoms {
                let atom = &plan.atoms[occ as usize];
                let t_sel = enabled.then(Instant::now);
                let sel_span = span.child("Select");
                sel_span.attr("atom", &atom.display);
                let (candidates, scanned) =
                    anchor_scan_cancel(view, &schema, atom, opts.cancel.as_ref(), opts.meter.as_deref())?;
                sel_span.attr("rows_in", scanned);
                sel_span.attr("rows_out", candidates.len());
                drop(sel_span);
                op_row(ctx, "Select", &atom.display, 0, (scanned, candidates.len() as u64), ns_since(t_sel));
                let seed_trans = plan.nfa.seeds_for(occ);
                let (mut fwd_ns, mut bwd_ns, mut union_ns) = (0u64, 0u64, 0u64);
                let union_before = results.len() as u64;

                // Seed: step over each candidate's own element(s) and
                // collect search units instead of recursing.
                let mut units: Vec<Unit> = Vec::new();
                let mut pairs: Vec<(usize, usize)> = Vec::new(); // (bwd unit, fwd unit)
                for (elem, times0) in &candidates {
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
                    // ε-elimination can leave the anchor occurrence on
                    // several transitions; the forward half depends only on
                    // the target state, so there is one forward unit per
                    // distinct state (`None` marks a state the edge seed
                    // cannot even step into) and duplicate (from, to) pairs
                    // are skipped outright.
                    let mut fwd_units: Vec<(u32, Option<usize>)> = Vec::new();
                    let mut seen_pairs: Vec<(u32, u32)> = Vec::new();
                    for tr in &seed_trans {
                        if seen_pairs.contains(&(tr.from, tr.to)) {
                            continue;
                        }
                        seen_pairs.push((tr.from, tr.to));
                        let fu = match fwd_units.iter().find(|(s, _)| *s == tr.to) {
                            Some(&(_, u)) => u,
                            None => {
                                let states: StateSet = vec![(tr.to, times0.clone())];
                                let root = match edge_ends {
                                    // Edge seed: forward must consume the
                                    // edge's target node first.
                                    Some((_, dst)) => {
                                        let s2 = step(plan, &mut m, &states, dst, true, true);
                                        (!s2.is_empty()).then(|| (vec![*elem, dst], s2))
                                    }
                                    None => Some((vec![*elem], states)),
                                };
                                let u = root.map(|root| {
                                    units.push(Unit { fwd: true, roots: vec![root], halves: Vec::new() });
                                    units.len() - 1
                                });
                                fwd_units.push((tr.to, u));
                                u
                            }
                        };
                        let Some(fu) = fu else { continue };
                        let bstates: StateSet = vec![(tr.from, times0.clone())];
                        if let Some((src, _)) = edge_ends {
                            let b1 = step(plan, &mut m, &bstates, src, true, false);
                            if b1.is_empty() {
                                continue;
                            }
                            units.push(Unit { fwd: false, roots: vec![(vec![src], b1)], halves: Vec::new() });
                        } else {
                            // Node seed: the seed itself is the (current)
                            // leftmost element; acceptance before extending
                            // is legal, and the first hop left of the seed
                            // happens here, so every root below is a
                            // standard backward search root.
                            let mut halves = Vec::new();
                            if let Some(t) = complete_times(plan, &bstates, false) {
                                halves.push(Half { elems: Vec::new(), times: t });
                            }
                            let mut roots = Vec::new();
                            for adj in view.graph.in_adj(*elem) {
                                if adj.edge == *elem || adj.other == *elem {
                                    continue;
                                }
                                let s1 = step(plan, &mut m, &bstates, adj.edge, false, false);
                                if s1.is_empty() {
                                    continue;
                                }
                                let s2 = step(plan, &mut m, &s1, adj.other, true, false);
                                if s2.is_empty() {
                                    continue;
                                }
                                roots.push((vec![adj.edge, adj.other], s2));
                            }
                            units.push(Unit { fwd: false, roots, halves });
                        }
                        pairs.push((units.len() - 1, fu));
                    }
                }

                // Carve: with few candidates (unique anchors — the common
                // Table-1 shape) there are too few roots to keep several
                // seats busy; carve deeper frontiers out of each unit's
                // tree. One seat has nobody to share with and searches the
                // roots as they are.
                let total_roots: usize = units.iter().map(|u| u.roots.len()).sum();
                let target = threads * 3;
                if threads > 1 && total_roots < target && !units.is_empty() {
                    let want = (target.div_ceil(units.len())).max(2);
                    for u in units.iter_mut().filter(|u| u.roots.len() < want) {
                        let t0 = enabled.then(Instant::now);
                        let roots = std::mem::take(&mut u.roots);
                        u.roots = expand_frontier(&env, &mut m, roots, u.fwd, want, &mut u.halves);
                        *(if u.fwd { &mut fwd_ns } else { &mut bwd_ns }) += ns_since(t0);
                    }
                }

                // Search: run the roots' subtrees on the pool, dealt as
                // contiguous chunks, each seat carrying its memo across the
                // chunks it executes. A chunk returns one half-list per run
                // of roots belonging to one unit.
                let mut jobs: Vec<(usize, Vec<Uid>, StateSet, bool)> = Vec::new();
                for (ui, u) in units.iter_mut().enumerate() {
                    for (path, states) in std::mem::take(&mut u.roots) {
                        jobs.push((ui, path, states, u.fwd));
                    }
                }
                let bounds = par::chunks(jobs.len(), threads);
                let outs = run_stage(&env, &mut m, &mut pool, "search", bounds.len(), |mw, c| {
                    let mut out: Vec<(usize, Vec<Half>)> = Vec::new();
                    let (mut f_ns, mut b_ns) = (0u64, 0u64);
                    for (ui, path, states, fwd) in &jobs[bounds[c].clone()] {
                        if mw.cancel_cause.is_some() {
                            break;
                        }
                        if out.last().map(|(u, _)| u) != Some(ui) {
                            out.push((*ui, Vec::new()));
                        }
                        let halves = &mut out.last_mut().expect("pushed above").1;
                        let t0 = enabled.then(Instant::now);
                        search(&env, mw, &mut path.clone(), states, *fwd, halves);
                        *(if *fwd { &mut f_ns } else { &mut b_ns }) += ns_since(t0);
                    }
                    (out, f_ns, b_ns)
                });
                for (out, f_ns, b_ns) in outs.into_iter().flatten() {
                    fwd_ns += f_ns;
                    bwd_ns += b_ns;
                    for (ui, halves) in out {
                        units[ui].halves.extend(halves);
                    }
                }
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
                    let mut out: Vec<(Vec<Uid>, Times)> = Vec::new();
                    let t0 = enabled.then(Instant::now);
                    'jobs: for &(pi, lo, hi) in &ujobs[ubounds[c].clone()] {
                        let (bu, fu) = pairs[pi];
                        let (bwd, fwd) = (&units[bu].halves, &units[fu].halves);
                        let f = fwd.len();
                        let (first, last) = (lo / f, (hi - 1) / f);
                        for (bi, b) in bwd.iter().enumerate().take(last + 1).skip(first) {
                            if mw.checkpoint() {
                                break 'jobs;
                            }
                            // This job's part of row `bi`.
                            let row = lo.max(bi * f) - bi * f..hi.min((bi + 1) * f) - bi * f;
                            'combine: for fh in &fwd[row] {
                                // Cycle check across the two halves.
                                for u in &b.elems {
                                    if fh.elems.contains(u) {
                                        continue 'combine;
                                    }
                                }
                                let (t, ok) = times_intersect(&b.times, &fh.times);
                                if !ok {
                                    mw.temporal_prunes += 1;
                                    continue;
                                }
                                let mut elems = b.elems.clone();
                                elems.reverse();
                                elems.extend_from_slice(&fh.elems);
                                if elems.len() > env.cap {
                                    continue;
                                }
                                out.push((elems, t));
                            }
                        }
                    }
                    (out, ns_since(t0))
                });
                for (out, ns) in uouts.into_iter().flatten() {
                    union_ns += ns;
                    for (e, t) in out {
                        add_result(e, t, &mut results);
                    }
                }

                let n_cand = candidates.len() as u64;
                let atom_attr = ("atom", atom.display.clone());
                let halves_attr = |n: u64| [atom_attr.clone(), ("halves", n.to_string())];
                op_done(ctx, "Extend(fwd)", &atom.display, (n_cand, fwd_halves), fwd_ns, &halves_attr(fwd_halves));
                op_done(ctx, "Extend(bwd)", &atom.display, (n_cand, bwd_halves), bwd_ns, &halves_attr(bwd_halves));
                let union_out = results.len() as u64 - union_before;
                let pairs_attr = [atom_attr.clone(), ("pairs_in", union_in.to_string())];
                op_done(ctx, "Union", &atom.display, (union_in, union_out), union_ns, &pairs_attr);
            }
        }
        Seeds::Sources(nodes) | Seeds::Targets(nodes) => {
            // Forwards from the start state at each source, or backwards
            // from every accepting state at each target.
            let fwd = matches!(seeds, Seeds::Sources(_));
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
                let mut found: Vec<Half> = Vec::new();
                let mut seeded = 0u64;
                for &node in &nodes[bounds[c].clone()] {
                    if mw.cancel_cause.is_some() {
                        break;
                    }
                    if !view.graph.is_node(node) {
                        continue;
                    }
                    let s1 = step(plan, mw, &init, node, true, fwd);
                    if s1.is_empty() {
                        continue;
                    }
                    seeded += 1;
                    search(&env, mw, &mut vec![node], &s1, fwd, &mut found);
                }
                (found, seeded)
            });
            let (mut seeded, mut halves) = (0u64, 0u64);
            for (found, s) in outs.into_iter().flatten() {
                seeded += s;
                halves += found.len() as u64;
                for mut h in found {
                    if !fwd {
                        h.elems.reverse();
                    }
                    add_result(h.elems, h.times, &mut results);
                }
            }
            let (op, select, extend) = if fwd {
                ("Extend(fwd)", "imported source seeds", "from imported sources")
            } else {
                ("Extend(bwd)", "imported target seeds", "from imported targets")
            };
            op_row(ctx, "Select", select, 0, (nodes.len() as u64, seeded), 0);
            let attrs = [("seeds", format!("{seeded}/{}", nodes.len())), ("halves", halves.to_string())];
            op_done(ctx, op, extend, (seeded, halves), ns_since(t0), &attrs);
        }
    }

    let memo_entries = m.memo.len() as u64 + pool.helper_memo;
    if let Some(trc) = ctx.trace.as_deref_mut() {
        trc.bump("temporal_prunes", m.temporal_prunes);
        trc.bump("match_memo_entries", memo_entries);
        trc.bump("rpe_parallel_chunks", pool.chunks);
        trc.bump("rpe_steal_count", pool.steals);
    }
    span.attr("temporal_prunes", m.temporal_prunes);
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

    let mut out: Vec<Pathway> = Vec::new();
    for (elems, times) in results {
        if let Some(t) = finalize(view, times) {
            out.push(Pathway { elems, times: t });
        }
    }
    out.sort_by(|a, b| a.elems.cmp(&b.elems));
    if let Some(limit) = opts.limit {
        out.truncate(limit);
    }
    Ok(out)
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
