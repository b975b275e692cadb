//! Relational evaluation of RPE plans.
//!
//! This is the paper's Postgres code-generation strategy (§5.2) executed
//! against the in-memory substrate: the anchor `Select` materializes the
//! single-element paths; each automaton transition is an `Extend` — a bulk
//! equi-join between a frontier and the class tables — appending to
//! `uid_list` with `NOT id = ANY(…)` cycle predicates; the feeds of one
//! state merge into its frontier (`Union`); the forward and backward
//! frontiers are finally joined on the seed. [`crate::script`] writes the
//! same program as SQL text from the plan alone.

use std::collections::{HashMap, HashSet};

use nepal_graph::{Interval, IntervalSet, TimeFilter, Uid, FOREVER};
use nepal_obs::SpanHandle;
use nepal_rpe::{BoundPred, CancelCause, CancelToken, CmpOp, EvalOptions, Label, Pathway, RpePlan, Seeds};
use nepal_schema::{ClassId, Schema, Ts, Value, EDGE, NODE};

use crate::db::RelDb;
use crate::error::Result;
use crate::load::{field_offset, history_name, table_name};
use crate::table::{ColDef, ColType};

/// Result of a relational evaluation.
#[derive(Debug)]
pub struct RelResult {
    pub pathways: Vec<Pathway>,
    /// Version rows examined by `Select` over class tables: every row of a
    /// scanned table, or only the rows a hash-index probe returned when an
    /// anchor predicate is an `Eq` on a scalar column.
    pub rows_scanned: u64,
    /// Candidate rows probed by `Extend` equi-joins (before predicates).
    pub rows_joined: u64,
}

/// A frontier row (one partial path); its seed is `uid_list[0]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Row {
    uid_list: Vec<i64>,
    curr: i64,
    /// The forced next element (edge endpoint) when the last consumed
    /// element was an edge; `None` when it was a node.
    pending: Option<i64>,
    /// Accumulated assertion-interval intersection (range mode only).
    t_from: Option<Ts>,
    t_to: Option<Ts>,
}

impl Row {
    fn intersect_span(&self, from: Ts, to: Ts) -> Option<(Option<Ts>, Option<Ts>)> {
        let nf = self.t_from.map_or(from, |f| f.max(from));
        let nt = self.t_to.map_or(to, |t| t.min(to));
        (nf < nt).then_some((Some(nf), Some(nt)))
    }
}

struct Evaluator<'a> {
    db: &'a mut RelDb,
    schema: &'a Schema,
    plan: &'a RpePlan,
    filter: TimeFilter,
    rows_scanned: u64,
    rows_joined: u64,
    /// Live span the scans and join passes attach child spans to; inert
    /// outside a traced execution.
    span: &'a SpanHandle,
    /// Cooperative cancellation: token, rate-limiting counter, and the
    /// sticky trip cause once observed.
    cancel: Option<CancelToken>,
    cancel_ctr: u64,
    tripped: Option<CancelCause>,
}

/// Poll the cancel token once per this many scanned/probed rows.
const REL_CANCEL_MASK: u64 = 0x3FF; // every 1024 rows

/// One scan/probe checkpoint: `true` → abandon work, the caller surfaces
/// [`crate::error::RelError::DeadlineExceeded`] /
/// [`crate::error::RelError::Cancelled`]. Free-standing over the cancel
/// fields so scan loops can poll while a table borrow is live.
#[inline]
fn rel_checkpoint(cancel: &Option<CancelToken>, ctr: &mut u64, tripped: &mut Option<CancelCause>) -> bool {
    if tripped.is_some() {
        return true;
    }
    let Some(tok) = cancel else { return false };
    *ctr = ctr.wrapping_add(1);
    if *ctr & REL_CANCEL_MASK != 0 {
        return false;
    }
    match tok.poll() {
        Some(cause) => {
            *tripped = Some(cause);
            true
        }
        None => false,
    }
}

impl<'a> Evaluator<'a> {
    /// Class tables (and history companions, unless only current versions
    /// qualify) that can hold elements satisfying `label`.
    fn tables_for_label(&self, label: Label) -> Vec<String> {
        let mut out = Vec::new();
        for t in self.db.subtree(&label_table(self.schema, self.plan, label)) {
            if !matches!(self.filter, TimeFilter::Current) {
                out.push(history_name(&t));
            }
            out.push(t);
        }
        out
    }

    /// `Select`: scan class tables for elements satisfying an atom, one row
    /// per matching version. For edge atoms the returned pair carries the
    /// source endpoint so the backward pass can seed with `pending=source`
    /// while the forward pass uses `pending=target`. An `Eq` predicate on a
    /// scalar column probes that column's hash index instead of scanning.
    fn select_atom(&mut self, atom_idx: u32) -> Vec<SeedPair> {
        let atom = &self.plan.atoms[atom_idx as usize];
        let label = Label::Atom(atom_idx);
        let is_node = atom.is_node;
        let scan_span = self.span.child("Scan");
        scan_span.attr("atom", &atom.display);
        let scanned_before = self.rows_scanned;
        let mut rows = Vec::new();
        for tname in self.tables_for_label(label) {
            let Ok(t) = self.db.table_mut(&tname) else { continue };
            let n = t.cols.len();
            let (hits, all) = match atom.preds.iter().find_map(|p| index_key(p, &t.cols, is_node)) {
                Some((col, key)) => {
                    let (rids, all) = t.probe(col, key);
                    (Some(rids), all)
                }
                None => (None, t.rows.as_slice()),
            };
            let count = hits.map_or(all.len(), <[u32]>::len);
            self.rows_scanned += count as u64;
            for k in 0..count {
                if rel_checkpoint(&self.cancel, &mut self.cancel_ctr, &mut self.tripped) {
                    break;
                }
                let r = &all[hits.map_or(k, |h| h[k] as usize)];
                let (from, to) = (as_ts(&r[n - 2]), as_ts(&r[n - 1]));
                if !version_ok(self.filter, from, to) || !preds_ok(self.plan, label, r, is_node) {
                    continue;
                }
                let uid = as_i64(&r[0]);
                let (pending, source) = if is_node { (None, None) } else { (Some(as_i64(&r[2])), Some(as_i64(&r[1]))) };
                let (t_from, t_to) = if self.filter.is_range() { (Some(from), Some(to)) } else { (None, None) };
                rows.push((Row { uid_list: vec![uid], curr: uid, pending, t_from, t_to }, source));
            }
        }
        scan_span.attr("rows_scanned", self.rows_scanned - scanned_before);
        scan_span.attr("rows_out", rows.len());
        rows
    }

    /// `Extend`: step each row over one element satisfying `label`. A node
    /// label consumes the row's pending endpoint (probing `id_`); an edge
    /// label joins the current node on the edge's source going forwards or
    /// its target going backwards, and leaves the far endpoint pending.
    fn extend(&mut self, rows: &[Row], label: Label, forwards: bool) -> Vec<Row> {
        let is_node = label_is_node(self.plan, label);
        let (near_col, far_col) = if forwards { (1, 2) } else { (2, 1) };
        let probe_col = if is_node { 0 } else { near_col };
        let range = self.filter.is_range();
        let mut out = Vec::new();
        for tname in self.tables_for_label(label) {
            let Ok(t) = self.db.table_mut(&tname) else { continue };
            let n = t.cols.len();
            for row in rows {
                if rel_checkpoint(&self.cancel, &mut self.cancel_ctr, &mut self.tripped) {
                    return out;
                }
                // A node consumes the pending endpoint; an edge needs none.
                let key = match (is_node, row.pending) {
                    (true, Some(p)) => p,
                    (false, None) => row.curr,
                    _ => continue,
                };
                let (rids, trows) = t.probe(probe_col, &Value::Int(key));
                self.rows_joined += rids.len() as u64;
                for &rid in rids {
                    let r = &trows[rid as usize];
                    let (from, to) = (as_ts(&r[n - 2]), as_ts(&r[n - 1]));
                    if !version_ok(self.filter, from, to) {
                        continue;
                    }
                    let uid = as_i64(&r[0]);
                    let pending = (!is_node).then(|| as_i64(&r[far_col]));
                    // Cycle predicates: NOT H.id_ = ANY(T.uid_list) AND NOT
                    // H.target_id_ = ANY(T.uid_list). A node was checked as
                    // the far endpoint of the edge that made it pending.
                    if !is_node && (row.uid_list.contains(&uid) || pending.is_some_and(|p| row.uid_list.contains(&p))) {
                        continue;
                    }
                    if !preds_ok(self.plan, label, r, is_node) {
                        continue;
                    }
                    let (t_from, t_to) = if range {
                        match row.intersect_span(from, to) {
                            Some(t) => t,
                            None => continue,
                        }
                    } else {
                        (None, None)
                    };
                    let mut new = row.clone();
                    new.uid_list.push(uid);
                    new.curr = uid;
                    new.pending = pending;
                    new.t_from = t_from;
                    new.t_to = t_to;
                    out.push(new);
                }
            }
        }
        out
    }

    /// One directional pass from the seeded states: returns the accepting
    /// rows.
    fn pass(&mut self, mut frontier: HashMap<u32, Vec<Row>>, forwards: bool) -> Vec<Row> {
        let join_span = self.span.child(if forwards { "Join(fwd)" } else { "Join(bwd)" });
        let joined_before = self.rows_joined;
        let plan = self.plan;
        let mut accepted: Vec<Row> = Vec::new();
        for state in topo_order(plan, forwards) {
            if self.tripped.is_some() {
                break; // cancelled: stop joining, the caller surfaces it
            }
            // The automaton is a DAG walked in topological order: nothing
            // adds to this state's frontier once it is reached, so take it.
            let mut rows = match frontier.remove(&state) {
                Some(r) if !r.is_empty() => r,
                _ => continue,
            };
            let mut seen = HashSet::new();
            rows.retain(|r| seen.insert(r.clone()));
            let transitions = if forwards { &plan.nfa.trans[state as usize] } else { &plan.nfa.rev[state as usize] };
            for &(label, next) in transitions {
                let new_rows = self.extend(&rows, label, forwards);
                frontier.entry(next).or_default().extend(new_rows);
            }
            let accepting = if forwards { plan.nfa.accepts[state as usize] } else { state == plan.nfa.start };
            if accepting {
                accepted.extend(rows.into_iter().filter(|r| r.pending.is_none()));
            }
        }
        join_span.attr("rows_joined", self.rows_joined - joined_before);
        join_span.attr("accepted", accepted.len());
        accepted
    }
}

/// The column and literal with which an anchor predicate can probe a
/// table's hash index: `Eq` on a top-level field whose column holds the
/// literal's type, so hash equality agrees with the predicate's (which
/// compares an int literal with a float cell numerically).
fn index_key<'p>(p: &'p BoundPred, cols: &[ColDef], is_node: bool) -> Option<(usize, &'p Value)> {
    let col = field_offset(is_node) + p.field_idx;
    let typed = matches!(
        (&cols.get(col)?.ty, &p.value),
        (ColType::BigInt, Value::Int(_)) | (ColType::Text, Value::Str(_)) | (ColType::Bool, Value::Bool(_))
    );
    (p.op == CmpOp::Eq && p.sub_path.is_empty() && typed).then_some((col, &p.value))
}

/// The one time rule for a version row asserted over `[from, to)`: is it
/// visible under `filter`? `Current` sees the open version, `AsOf(t)` the
/// version holding `t`, and `Range(a, b)` every version overlapping
/// `[a, b]`.
fn visible(filter: TimeFilter, from: Ts, to: Ts) -> bool {
    match filter {
        TimeFilter::Current => to == FOREVER,
        TimeFilter::AsOf(t) => from <= t && t < to,
        TimeFilter::Range(a, b) => from <= b && a < to,
    }
}

/// Does `Select` or `Extend` keep a version row? Under a range every
/// version is kept: a pathway's answer is its maximal run of assertion,
/// which may reach outside the window, and [`finalize_times`] drops the
/// runs that miss it.
fn version_ok(filter: TimeFilter, from: Ts, to: Ts) -> bool {
    filter.is_range() || visible(filter, from, to)
}

/// Field predicate of a label on a version row.
fn preds_ok(plan: &RpePlan, label: Label, row: &[Value], is_node: bool) -> bool {
    match label {
        Label::AnyNode | Label::AnyEdge => true,
        Label::Atom(a) => {
            let atom = &plan.atoms[a as usize];
            let off = field_offset(is_node);
            let fields = &row[off..row.len() - 2];
            atom.matches_fields(fields)
        }
    }
}

fn as_i64(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        _ => panic!("expected bigint, got {v:?}"),
    }
}

fn as_ts(v: &Value) -> Ts {
    match v {
        Value::Ts(t) => *t,
        Value::Int(t) => *t,
        _ => panic!("expected timestamp, got {v:?}"),
    }
}

pub(crate) fn label_is_node(plan: &RpePlan, label: Label) -> bool {
    match label {
        Label::AnyNode => true,
        Label::AnyEdge => false,
        Label::Atom(a) => plan.atoms[a as usize].is_node,
    }
}

/// The root class table of a label's subtree.
pub(crate) fn label_table(schema: &Schema, plan: &RpePlan, label: Label) -> String {
    match label {
        Label::AnyNode => "node".into(),
        Label::AnyEdge => "edge".into(),
        Label::Atom(a) => table_name(schema, plan.atoms[a as usize].class),
    }
}

/// Topological order of the automaton's states (it is a DAG; see
/// `nepal_rpe::nfa`). For the backward pass the order is reversed.
pub(crate) fn topo_order(plan: &RpePlan, forwards: bool) -> Vec<u32> {
    let n = plan.nfa.n_states;
    let mut indeg = vec![0usize; n];
    for list in &plan.nfa.trans {
        for &(_, t) in list {
            indeg[t as usize] += 1;
        }
    }
    let mut stack: Vec<u32> = (0..n as u32).filter(|&s| indeg[s as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(s) = stack.pop() {
        order.push(s);
        for &(_, t) in &plan.nfa.trans[s as usize] {
            indeg[t as usize] -= 1;
            if indeg[t as usize] == 0 {
                stack.push(t);
            }
        }
    }
    if !forwards {
        order.reverse();
    }
    order
}

/// Where imported seeds enter the automaton, as (label, seeded state): a
/// source is a path's first element, consumed by a start transition going
/// forwards; a target its last, consumed by a transition into an accepting
/// state going backwards.
pub(crate) fn seed_transitions(plan: &RpePlan, forwards: bool) -> Vec<(Label, u32)> {
    let nfa = &plan.nfa;
    if forwards {
        nfa.trans[nfa.start as usize].clone()
    } else {
        nfa.transitions.iter().filter(|t| nfa.accepts[t.to as usize]).map(|t| (t.label, t.from)).collect()
    }
}

fn finalize_times(filter: TimeFilter, combos: Vec<(Option<Ts>, Option<Ts>)>) -> Option<Option<IntervalSet>> {
    match filter {
        TimeFilter::Range(a, b) => {
            let probe = Interval::new(a, b.saturating_add(1));
            let ivs: Vec<Interval> = combos
                .into_iter()
                .filter_map(|(f, t)| match (f, t) {
                    (Some(f), Some(t)) if f < t => Some(Interval::new(f, t)),
                    _ => None,
                })
                .collect();
            let set = IntervalSet::from_intervals(ivs);
            let comps = set.components_overlapping(&probe);
            if comps.is_empty() {
                None
            } else {
                Some(Some(IntervalSet::from_intervals(comps)))
            }
        }
        _ => Some(None),
    }
}

/// A frontier pair: the row plus the source endpoint for edge seeds.
type SeedPair = (Row, Option<i64>);

/// Evaluate a planned RPE against the relational store. Under a live
/// `span`, table scans become `Scan` child spans and each directional
/// frontier pass a `Join(fwd)`/`Join(bwd)` span, carrying
/// rows-scanned/rows-joined attributes; an inactive span adds no work.
pub fn evaluate_relational(
    db: &mut RelDb,
    schema: &Schema,
    plan: &RpePlan,
    filter: TimeFilter,
    seeds: Seeds,
    opts: &EvalOptions,
    span: &SpanHandle,
) -> Result<RelResult> {
    // Fast-fail, as the native evaluator does: a token already tripped on
    // entry seeds no work. The scan and join checkpoints poll only every
    // 1024 rows and may never fire on a small pass.
    if let Some(cause) = opts.cancel.as_ref().and_then(CancelToken::poll) {
        return Err(cause.into());
    }
    let mut ev = Evaluator {
        db,
        schema,
        plan,
        filter,
        rows_scanned: 0,
        rows_joined: 0,
        span,
        cancel: opts.cancel.clone(),
        cancel_ctr: 0,
        tripped: None,
    };
    let range = filter.is_range();

    type TimeCombo = (Option<Ts>, Option<Ts>);
    let mut merged: HashMap<Vec<i64>, Vec<TimeCombo>> = HashMap::new();
    match seeds {
        Seeds::Anchor => {
            'anchors: for &occ in &plan.anchor.atoms {
                let seed_pairs = ev.select_atom(occ);
                if seed_pairs.is_empty() {
                    continue;
                }
                for tr in plan.nfa.seeds_for(occ) {
                    if ev.tripped.is_some() {
                        break 'anchors;
                    }
                    let fwd_rows: Vec<Row> = seed_pairs.iter().map(|(r, _)| r.clone()).collect();
                    // Backward seeds consume toward the edge's SOURCE.
                    let bwd_rows: Vec<Row> =
                        seed_pairs.iter().map(|(r, src)| Row { pending: r.pending.and(*src), ..r.clone() }).collect();
                    // Forward from tr.to (seed element already consumed).
                    let fwd = ev.pass(HashMap::from([(tr.to, fwd_rows)]), true);
                    if fwd.is_empty() {
                        continue;
                    }
                    // Backward from tr.from.
                    let bwd = ev.pass(HashMap::from([(tr.from, bwd_rows)]), false);
                    // Join forward and backward halves on the seed.
                    let mut bwd_by_seed: HashMap<i64, Vec<&Row>> = HashMap::new();
                    for b in &bwd {
                        bwd_by_seed.entry(b.uid_list[0]).or_default().push(b);
                    }
                    'fwd: for f in &fwd {
                        let Some(bs) = bwd_by_seed.get(&f.uid_list[0]) else { continue };
                        for b in bs {
                            // Cycle check across halves (element 0 shared).
                            let tail = &b.uid_list[1..];
                            if tail.iter().any(|u| f.uid_list.contains(u)) {
                                continue;
                            }
                            let (tf, tt) = if range {
                                let nf = match (b.t_from, f.t_from) {
                                    (Some(x), Some(y)) => Some(x.max(y)),
                                    (x, y) => x.or(y),
                                };
                                let nt = match (b.t_to, f.t_to) {
                                    (Some(x), Some(y)) => Some(x.min(y)),
                                    (x, y) => x.or(y),
                                };
                                match (nf, nt) {
                                    (Some(a2), Some(b2)) if a2 >= b2 => continue,
                                    other => other,
                                }
                            } else {
                                (None, None)
                            };
                            let mut elems: Vec<i64> = tail.to_vec();
                            elems.reverse();
                            elems.extend_from_slice(&f.uid_list);
                            merged.entry(elems).or_default().push((tf, tt));
                            if let Some(limit) = opts.limit {
                                if merged.len() >= limit.saturating_mul(4) {
                                    break 'fwd;
                                }
                            }
                        }
                    }
                }
            }
        }
        Seeds::Sources(nodes) | Seeds::Targets(nodes) => {
            // Forwards from the start state at each source, or backwards
            // from every accepting state at each target: a seed node is the
            // pending endpoint of an empty path.
            let forwards = matches!(seeds, Seeds::Sources(_));
            let pending: Vec<Row> = nodes
                .iter()
                .map(|n| Row { uid_list: Vec::new(), curr: 0, pending: Some(n.0 as i64), t_from: None, t_to: None })
                .collect();
            let mut frontier: HashMap<u32, Vec<Row>> = HashMap::new();
            for (label, state) in seed_transitions(plan, forwards) {
                let rows = ev.extend(&pending, label, forwards);
                frontier.entry(state).or_default().extend(rows);
            }
            for r in ev.pass(frontier, forwards) {
                let mut elems = r.uid_list;
                if !forwards {
                    elems.reverse();
                }
                merged.entry(elems).or_default().push((r.t_from, r.t_to));
            }
        }
    }

    // A tripped checkpoint anywhere above means the frontier (and thus
    // `merged`) is partial: surface the typed error.
    if let Some(cause) = ev.tripped {
        return Err(cause.into());
    }

    let mut pathways = Vec::new();
    for (elems, combos) in merged {
        if let Some(times) = finalize_times(filter, combos) {
            pathways.push(Pathway { elems: elems.into_iter().map(|u| Uid(u as u64)).collect(), times });
        }
    }
    pathways.sort_by(|a, b| a.elems.cmp(&b.elems));
    if let Some(limit) = opts.limit {
        pathways.truncate(limit);
    }
    Ok(RelResult { pathways, rows_scanned: ev.rows_scanned, rows_joined: ev.rows_joined })
}

/// The field values and runtime class of element `uid` under `filter`:
/// its latest version visible there, as the native store's
/// `GraphView::fields` answers. Class tables are named after the class,
/// so the table that holds the uid names its class.
pub fn element_fields(db: &mut RelDb, schema: &Schema, uid: Uid, filter: TimeFilter) -> Option<(ClassId, Vec<Value>)> {
    let key = Value::Int(uid.0 as i64);
    for kind_root in [NODE, EDGE] {
        let offset = field_offset(kind_root == NODE);
        for class in schema.descendants(kind_root) {
            let name = table_name(schema, class);
            let tables = match filter {
                TimeFilter::Current => vec![name],
                _ => vec![history_name(&name), name],
            };
            // The latest visible version has the greatest `sys_from`.
            let mut latest: Option<(Ts, Vec<Value>)> = None;
            for tname in &tables {
                let Ok(t) = db.table_mut(tname) else { continue };
                let n = t.cols.len();
                let (rids, rows) = t.probe(0, &key);
                for &rid in rids {
                    let r = &rows[rid as usize];
                    let (from, to) = (as_ts(&r[n - 2]), as_ts(&r[n - 1]));
                    if visible(filter, from, to) && latest.as_ref().is_none_or(|(f, _)| from > *f) {
                        latest = Some((from, r[offset..n - 2].to_vec()));
                    }
                }
            }
            if let Some((_, fields)) = latest {
                return Some((class, fields));
            }
        }
    }
    None
}
