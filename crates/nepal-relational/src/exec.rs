//! Relational evaluation of RPE plans.
//!
//! This is the paper's Postgres code-generation strategy (§5.2) executed
//! against the in-memory substrate: the anchor `Select` materializes a TEMP
//! table of single-element paths; each NFA transition becomes an `Extend`
//! — a bulk equi-join between a frontier TEMP table and the class tables —
//! appending to `uid_list`/`concept_list` arrays with `NOT id = ANY(…)`
//! cycle predicates; `Union` merges the feeds of one NFA state into its
//! frontier table; the forward and backward frontiers are finally joined
//! on the seed.
//!
//! Every operator also emits the equivalent SQL text, so the generated
//! query sequence can be inspected exactly as the paper presents it.

use std::collections::{HashMap, HashSet};

use nepal_graph::{Interval, IntervalSet, TimeFilter, Uid, FOREVER};
use nepal_obs::SpanHandle;
use nepal_rpe::{BoundPred, CancelCause, CancelToken, CmpOp, EvalOptions, Label, Pathway, RpePlan, Seeds};
use nepal_schema::{format_ts, Schema, Ts, Value};

use crate::db::RelDb;
use crate::error::Result;
use crate::load::{field_offset, history_name, table_name};
use crate::table::{ColDef, ColType};

/// Result of a relational evaluation: the pathways plus the SQL script the
/// translator generated for the target DBMS.
#[derive(Debug)]
pub struct RelResult {
    pub pathways: Vec<Pathway>,
    pub sql: Vec<String>,
    /// Version rows examined by `Select` over class tables: every row of a
    /// scanned table, or only the rows a hash-index probe returned when an
    /// anchor predicate is an `Eq` on a scalar column.
    pub rows_scanned: u64,
    /// Candidate rows probed by `Extend` equi-joins (before predicates).
    pub rows_joined: u64,
}

/// A frontier row (one partial path).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Row {
    seed_uid: i64,
    seed_tr: u32,
    uid_list: Vec<i64>,
    /// `concept_list`: per element, an index into `Evaluator::concepts`.
    concepts: Vec<u32>,
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
    sql: Vec<String>,
    /// Concept names the rows' `concepts` index into.
    concepts: Vec<String>,
    temp_counter: u32,
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
    /// Class tables (and history companions, depending on the time filter)
    /// that can hold elements satisfying `label`.
    fn tables_for_label(&self, label: Label) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        for t in self.db.subtree(&self.label_table(label)) {
            match self.filter {
                TimeFilter::Current => out.push((t, true)),
                _ => {
                    out.push((history_name(&t), false));
                    out.push((t, true));
                }
            }
        }
        out
    }

    /// Index into `concepts` of a class table's concept (its name without
    /// the history suffix).
    fn concept_id(&mut self, tname: &str) -> u32 {
        let name = tname.trim_end_matches("__history");
        match self.concepts.iter().position(|c| c == name) {
            Some(i) => i as u32,
            None => {
                self.concepts.push(name.to_string());
                (self.concepts.len() - 1) as u32
            }
        }
    }

    fn label_is_node(&self, label: Label) -> bool {
        match label {
            Label::AnyNode => true,
            Label::AnyEdge => false,
            Label::Atom(a) => self.plan.atoms[a as usize].is_node,
        }
    }

    /// The root class table of a label's subtree.
    fn label_table(&self, label: Label) -> String {
        match label {
            Label::AnyNode => "node".into(),
            Label::AnyEdge => "edge".into(),
            Label::Atom(a) => table_name(self.schema, self.plan.atoms[a as usize].class),
        }
    }

    /// Suffix folding a class table's history companion in, unless only
    /// current versions qualify.
    fn hist_suffix(&self) -> &'static str {
        if matches!(self.filter, TimeFilter::Current) {
            ""
        } else {
            "__historical"
        }
    }

    /// The temporal predicate on version alias `alias`.
    fn temporal_sql(&self, alias: &str) -> String {
        match self.filter {
            TimeFilter::AsOf(t) => format!(" AND {alias}.sys_period @> '{}'::timestamptz", format_ts(t)),
            TimeFilter::Current | TimeFilter::Range(_, _) => String::new(),
        }
    }

    /// Log the statement filling NFA state `state`'s frontier table with
    /// `select`: the state's first feed creates the table, later feeds
    /// append to it (the per-state `Union`).
    fn log_feed(&mut self, frontier: &mut HashMap<u32, String>, state: u32, stem: &str, select: String) {
        match frontier.get(&state) {
            Some(name) => self.sql.push(format!("insert into {name}\n  {select};")),
            None => {
                self.temp_counter += 1;
                let name = format!("tmp_{stem}_{}", self.temp_counter);
                self.sql.push(format!("create TEMP table {name} as (\n  {select}\n);"));
                frontier.insert(state, name);
            }
        }
    }

    /// Log the seed table of a `Sources`/`Targets` evaluation: the `uids`
    /// that satisfy node `label`, as single-element paths entering `state`.
    fn log_seed(&mut self, frontier: &mut HashMap<u32, String>, state: u32, label: Label, uids: &[Uid]) {
        let ids: Vec<String> = uids.iter().map(|u| u.0.to_string()).collect();
        let (table, hist) = (self.label_table(label), self.hist_suffix());
        let select = format!(
            "select ARRAY[N.id_] as uid_list, ARRAY[cast('{table}' as text)] as concept_list, N.id_ as curr_uid\n  from {table}{hist} N\n  where N.id_ = ANY(ARRAY[{}]){}",
            ids.join(", "),
            self.temporal_sql("N"),
        );
        self.log_feed(frontier, state, "seed_node", select);
    }

    /// `Select`: scan class tables for elements satisfying an atom, one row
    /// per matching version. For edge atoms the returned pair carries the
    /// source endpoint so the backward pass can seed with `pending=source`
    /// while the forward pass uses `pending=target`. An `Eq` predicate on a
    /// scalar column probes that column's hash index instead of scanning.
    fn select_atom(&mut self, atom_idx: u32, seed_tr: u32) -> (Vec<SeedPair>, String) {
        let plan = self.plan;
        let atom = &plan.atoms[atom_idx as usize];
        let label = Label::Atom(atom_idx);
        let is_node = atom.is_node;
        let scan_span = self.span.child("Scan");
        scan_span.attr("atom", &atom.display);
        let scanned_before = self.rows_scanned;
        let mut rows = Vec::new();
        let tables = self.tables_for_label(label);
        for (tname, _) in &tables {
            if !self.db.has_table(tname) {
                continue;
            }
            let concept = self.concept_id(tname);
            let t = self.db.table_mut(tname).unwrap();
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
                rows.push((
                    Row {
                        seed_uid: uid,
                        seed_tr,
                        uid_list: vec![uid],
                        concepts: vec![concept],
                        curr: uid,
                        pending,
                        t_from,
                        t_to,
                    },
                    source,
                ));
            }
        }
        self.temp_counter += 1;
        let name = format!("tmp_select_{}_{}", if is_node { "node" } else { "edge" }, self.temp_counter);
        self.sql.push(format!(
            "create TEMP table {name} as (\n  select ARRAY[N.id_] as uid_list, ARRAY[cast('{}' as text)] as concept_list, N.id_ as curr_uid{}\n  from {}{} N\n  where {}{}\n);",
            atom.class_name,
            if is_node { "" } else { ", N.source_id_ as source_uid, N.target_id_ as target_uid" },
            self.label_table(label),
            self.hist_suffix(),
            preds_sql(atom),
            self.temporal_sql("N"),
        ));
        scan_span.attr("rows_scanned", self.rows_scanned - scanned_before);
        scan_span.attr("rows_out", rows.len());
        (rows, name)
    }

    /// Extend a node-position frontier by one edge (forwards: join on
    /// `source_id_`; backwards: on `target_id_`).
    fn extend_edge(&mut self, rows: &[Row], label: Label, forwards: bool) -> Vec<Row> {
        if self.label_is_node(label) {
            return Vec::new();
        }
        let mut out = Vec::new();
        let tables = self.tables_for_label(label);
        for (tname, _) in &tables {
            if !self.db.has_table(tname) {
                continue;
            }
            let concept = self.concept_id(tname);
            // Probe column: source for forward extension, target backward.
            let t = self.db.table_mut(tname).unwrap();
            let n = t.cols.len();
            let probe_col = if forwards { 1 } else { 2 };
            let other_col = if forwards { 2 } else { 1 };
            for row in rows {
                if rel_checkpoint(&self.cancel, &mut self.cancel_ctr, &mut self.tripped) {
                    return out;
                }
                if row.pending.is_some() {
                    continue; // must consume the pending node first
                }
                let (rids, trows) = t.probe(probe_col, &Value::Int(row.curr));
                self.rows_joined += rids.len() as u64;
                for &rid in rids {
                    let r = &trows[rid as usize];
                    let (from, to) = (as_ts(&r[n - 2]), as_ts(&r[n - 1]));
                    if !version_ok(self.filter, from, to) {
                        continue;
                    }
                    let eid = as_i64(&r[0]);
                    let other = as_i64(&r[other_col]);
                    // Cycle predicates: NOT H.id_ = ANY(T.uid_list) AND NOT
                    // H.target_id_ = ANY(T.uid_list).
                    if row.uid_list.contains(&eid) || row.uid_list.contains(&other) {
                        continue;
                    }
                    if !preds_ok(self.plan, label, r, false) {
                        continue;
                    }
                    let times = if self.filter.is_range() {
                        match row.intersect_span(from, to) {
                            Some(t) => t,
                            None => continue,
                        }
                    } else {
                        (None, None)
                    };
                    let mut new = row.clone();
                    new.uid_list.push(eid);
                    new.concepts.push(concept);
                    new.curr = eid;
                    new.pending = Some(other);
                    new.t_from = times.0;
                    new.t_to = times.1;
                    out.push(new);
                }
            }
        }
        out
    }

    /// Extend an edge-position frontier by its pending endpoint node.
    fn extend_node(&mut self, rows: &[Row], label: Label) -> Vec<Row> {
        if !self.label_is_node(label) {
            return Vec::new();
        }
        let mut out = Vec::new();
        let tables = self.tables_for_label(label);
        for (tname, _) in &tables {
            if !self.db.has_table(tname) {
                continue;
            }
            let concept = self.concept_id(tname);
            let t = self.db.table_mut(tname).unwrap();
            let n = t.cols.len();
            for row in rows {
                if rel_checkpoint(&self.cancel, &mut self.cancel_ctr, &mut self.tripped) {
                    return out;
                }
                let p = match row.pending {
                    Some(p) => p,
                    None => continue,
                };
                let (rids, trows) = t.probe(0, &Value::Int(p));
                self.rows_joined += rids.len() as u64;
                for &rid in rids {
                    let r = &trows[rid as usize];
                    let (from, to) = (as_ts(&r[n - 2]), as_ts(&r[n - 1]));
                    if !version_ok(self.filter, from, to) || !preds_ok(self.plan, label, r, true) {
                        continue;
                    }
                    let times = if self.filter.is_range() {
                        match row.intersect_span(from, to) {
                            Some(t) => t,
                            None => continue,
                        }
                    } else {
                        (None, None)
                    };
                    let mut new = row.clone();
                    new.uid_list.push(p);
                    new.concepts.push(concept);
                    new.curr = p;
                    new.pending = None;
                    new.t_from = times.0;
                    new.t_to = times.1;
                    out.push(new);
                }
            }
        }
        out
    }

    /// The `Extend` statement reading frontier table `from`: an edge
    /// label joins on the frontier's current node and carries both
    /// endpoints; a node label joins on the pending endpoint — the target
    /// going forwards, the source going backwards.
    fn extend_sql(&self, label: Label, forwards: bool, from: &str) -> String {
        let (cols, join) = if self.label_is_node(label) {
            let pending = if forwards { "target_uid" } else { "source_uid" };
            (String::new(), format!("H.id_ = T.{pending}"))
        } else {
            let (near, far) = if forwards { ("source_id_", "target_id_") } else { ("target_id_", "source_id_") };
            (
                ", H.source_id_ as source_uid, H.target_id_ as target_uid".to_string(),
                format!("H.{near} = T.curr_uid AND NOT H.{far} = ANY(T.uid_list)"),
            )
        };
        let (table, hist) = (self.label_table(label), self.hist_suffix());
        format!(
            "select T.uid_list || ARRAY[H.id_] as uid_list,\n         T.concept_list || ARRAY[cast('{table}' as text)] as concept_list,\n         H.id_ as curr_uid{cols}\n  from {table}{hist} H, {from} T\n  where {join} AND NOT H.id_ = ANY(T.uid_list){}",
            self.temporal_sql("H"),
        )
    }

    /// One directional pass: returns accepting rows keyed by (seed, tr).
    ///
    /// `frontier` names the SQL table holding each seeded state's rows;
    /// the pass adds one per state its extensions reach.
    fn pass(
        &mut self,
        seeds_by_state: HashMap<u32, Vec<Row>>,
        mut frontier: HashMap<u32, String>,
        forwards: bool,
    ) -> Vec<Row> {
        let join_span = self.span.child(if forwards { "Join(fwd)" } else { "Join(bwd)" });
        let joined_before = self.rows_joined;
        // Topological order of the NFA DAG.
        let order = topo_order(self.plan, forwards);
        let mut tables: HashMap<u32, Vec<Row>> = seeds_by_state;
        let mut seen: HashMap<u32, HashSet<Row>> = HashMap::new();
        for (s, rows) in &tables {
            seen.entry(*s).or_default().extend(rows.iter().cloned());
        }
        let mut accepted: Vec<Row> = Vec::new();
        for &state in &order {
            if self.tripped.is_some() {
                break; // cancelled: stop joining, the caller surfaces it
            }
            // The NFA is a DAG walked in topological order: nothing adds to
            // this state's frontier once it is reached, so take it.
            let rows = match tables.remove(&state) {
                Some(r) if !r.is_empty() => r,
                _ => continue,
            };
            let from = frontier[&state].clone();
            // Extend along transitions out of (fwd) / into (bwd) the state.
            let transitions: Vec<(Label, u32)> = if forwards {
                self.plan.nfa.trans[state as usize].clone()
            } else {
                self.plan.nfa.rev[state as usize].clone()
            };
            for (label, next) in transitions {
                let new_rows = {
                    let edge_rows = self.extend_edge(&rows, label, forwards);
                    let node_rows = self.extend_node(&rows, label);
                    if !edge_rows.is_empty() || !node_rows.is_empty() {
                        let stem = if self.label_is_node(label) { "extend_node" } else { "extend_edge" };
                        let select = self.extend_sql(label, forwards, &from);
                        self.log_feed(&mut frontier, next, stem, select);
                    }
                    let mut all = edge_rows;
                    all.extend(node_rows);
                    all
                };
                if new_rows.is_empty() {
                    continue;
                }
                let dedup = seen.entry(next).or_default();
                let bucket = tables.entry(next).or_default();
                for r in new_rows {
                    if dedup.insert(r.clone()) {
                        bucket.push(r);
                    }
                }
            }
            // Collect acceptance at this state.
            let accepting = if forwards { self.plan.nfa.accepts[state as usize] } else { state == self.plan.nfa.start };
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

/// Temporal predicate on a version row.
fn version_ok(filter: TimeFilter, from: Ts, to: Ts) -> bool {
    match filter {
        TimeFilter::Current => to == FOREVER,
        TimeFilter::AsOf(t) => from <= t && t < to,
        TimeFilter::Range(_, _) => true, // filtered at finalize
    }
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

fn preds_sql(atom: &nepal_rpe::BoundAtom) -> String {
    if atom.preds.is_empty() {
        return "true".to_string();
    }
    atom.preds
        .iter()
        .map(|p| format!("N.{} {} {}", p.field_name, op_sql(p.op), p.value))
        .collect::<Vec<_>>()
        .join(" AND ")
}

fn op_sql(op: nepal_rpe::CmpOp) -> &'static str {
    use nepal_rpe::CmpOp::*;
    match op {
        Eq => "=",
        Ne => "<>",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
        Contains => "@>",
    }
}

/// Topological order of the NFA states (the NFA is a DAG; see
/// `nepal_rpe::nfa`). For the backward pass the order is reversed.
fn topo_order(plan: &RpePlan, forwards: bool) -> Vec<u32> {
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
        sql: Vec::new(),
        concepts: Vec::new(),
        temp_counter: 0,
        rows_scanned: 0,
        rows_joined: 0,
        span,
        cancel: opts.cancel.clone(),
        cancel_ctr: 0,
        tripped: None,
    };
    let range = filter.is_range();
    let init_times = |rows: &mut Vec<Row>| {
        if !range {
            for r in rows.iter_mut() {
                r.t_from = None;
                r.t_to = None;
            }
        }
    };

    type TimeCombo = (Option<Ts>, Option<Ts>);
    let mut merged: HashMap<Vec<i64>, Vec<TimeCombo>> = HashMap::new();
    match seeds {
        Seeds::Anchor => {
            'anchors: for &occ in &plan.anchor.atoms {
                let seed_trans = plan.nfa.seeds_for(occ);
                for (tr_idx, tr) in seed_trans.iter().enumerate() {
                    if ev.tripped.is_some() {
                        break 'anchors;
                    }
                    let (seed_pairs, seed_table) = ev.select_atom(occ, tr_idx as u32);
                    if seed_pairs.is_empty() {
                        continue;
                    }
                    let mut fwd_rows: Vec<Row> = seed_pairs.iter().map(|(r, _)| r.clone()).collect();
                    // Backward seeds consume toward the edge's SOURCE.
                    let mut bwd_rows: Vec<Row> = seed_pairs
                        .iter()
                        .map(|(r, src)| {
                            let mut b = r.clone();
                            if b.pending.is_some() {
                                b.pending = *src;
                            }
                            b
                        })
                        .collect();
                    init_times(&mut fwd_rows);
                    init_times(&mut bwd_rows);
                    // Forward from tr.to (seed element already consumed).
                    let mut fwd_seeds: HashMap<u32, Vec<Row>> = HashMap::new();
                    fwd_seeds.insert(tr.to, fwd_rows);
                    let fwd = ev.pass(fwd_seeds, HashMap::from([(tr.to, seed_table.clone())]), true);
                    if fwd.is_empty() {
                        continue;
                    }
                    // Backward from tr.from.
                    let mut bwd_seeds: HashMap<u32, Vec<Row>> = HashMap::new();
                    bwd_seeds.insert(tr.from, bwd_rows);
                    let bwd = ev.pass(bwd_seeds, HashMap::from([(tr.from, seed_table)]), false);
                    // Join forward and backward halves on the seed.
                    let mut bwd_by_seed: HashMap<i64, Vec<&Row>> = HashMap::new();
                    for b in &bwd {
                        bwd_by_seed.entry(b.seed_uid).or_default().push(b);
                    }
                    ev.sql.push(format!("-- Union: join forward/backward frontiers on seed (transition {})", tr_idx));
                    'fwd: for f in &fwd {
                        let Some(bs) = bwd_by_seed.get(&f.seed_uid) else { continue };
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
        Seeds::Sources(srcs) => {
            let mut seed_rows: HashMap<u32, Vec<Row>> = HashMap::new();
            for &src in srcs {
                for &(label, to) in &plan.nfa.trans[plan.nfa.start as usize] {
                    if !ev.label_is_node(label) {
                        continue;
                    }
                    // Verify the node exists/matches under the label.
                    let probe = Row {
                        seed_uid: src.0 as i64,
                        seed_tr: 0,
                        uid_list: Vec::new(),
                        concepts: Vec::new(),
                        curr: 0,
                        pending: Some(src.0 as i64),
                        t_from: None,
                        t_to: None,
                    };
                    let rows = ev.extend_node(&[probe], label);
                    for mut r in rows {
                        r.uid_list = vec![src.0 as i64];
                        r.concepts = r.concepts.split_off(r.concepts.len() - 1);
                        r.curr = src.0 as i64;
                        r.pending = None;
                        seed_rows.entry(to).or_default().push(r);
                    }
                }
            }
            let mut frontier = HashMap::new();
            for &(label, to) in &plan.nfa.trans[plan.nfa.start as usize] {
                if ev.label_is_node(label) && seed_rows.contains_key(&to) {
                    ev.log_seed(&mut frontier, to, label, srcs);
                }
            }
            for f in ev.pass(seed_rows, frontier, true) {
                merged.entry(f.uid_list.clone()).or_default().push((f.t_from, f.t_to));
            }
        }
        Seeds::Targets(tgts) => {
            let mut seed_rows: HashMap<u32, Vec<Row>> = HashMap::new();
            for &tgt in tgts {
                for tr in &plan.nfa.transitions {
                    if !plan.nfa.accepts[tr.to as usize] || !ev.label_is_node(tr.label) {
                        continue;
                    }
                    let probe = Row {
                        seed_uid: tgt.0 as i64,
                        seed_tr: 0,
                        uid_list: Vec::new(),
                        concepts: Vec::new(),
                        curr: 0,
                        pending: Some(tgt.0 as i64),
                        t_from: None,
                        t_to: None,
                    };
                    let rows = ev.extend_node(&[probe], tr.label);
                    for mut r in rows {
                        r.uid_list = vec![tgt.0 as i64];
                        r.concepts = r.concepts.split_off(r.concepts.len() - 1);
                        r.curr = tgt.0 as i64;
                        r.pending = None;
                        seed_rows.entry(tr.from).or_default().push(r);
                    }
                }
            }
            let mut frontier = HashMap::new();
            for tr in &plan.nfa.transitions {
                if plan.nfa.accepts[tr.to as usize] && ev.label_is_node(tr.label) && seed_rows.contains_key(&tr.from) {
                    ev.log_seed(&mut frontier, tr.from, tr.label, tgts);
                }
            }
            for b in ev.pass(seed_rows, frontier, false) {
                let mut elems = b.uid_list.clone();
                elems.reverse();
                merged.entry(elems).or_default().push((b.t_from, b.t_to));
            }
        }
    }

    // A tripped checkpoint anywhere above means the frontier (and thus
    // `merged`) is partial: drop temps and surface the typed error.
    if let Some(cause) = ev.tripped {
        ev.db.drop_temps();
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
    let sql = std::mem::take(&mut ev.sql);
    let (rows_scanned, rows_joined) = (ev.rows_scanned, ev.rows_joined);
    ev.db.drop_temps();
    Ok(RelResult { pathways, sql, rows_scanned, rows_joined })
}
