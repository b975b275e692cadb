//! The §5.2 SQL script of a planned RPE, written from the plan alone.
//!
//! The anchor `Select` (or, for imported seeds, the seed rows) fills a TEMP
//! table; every transition reachable from the seeded state is one
//! `Extend` statement that feeds its target state's frontier table — the
//! state's first feed creates it, later feeds append to it (the per-state
//! `Union`) — written in topological order. The text depends on the plan,
//! the time filter and the seeds, never on what the store holds. The final
//! join of the forward and backward halves is a comment: the executor
//! ([`crate::exec`]) runs it in Rust.

use std::collections::HashMap;

use nepal_graph::TimeFilter;
use nepal_rpe::{BoundAtom, CmpOp, Label, RpePlan, Seeds};
use nepal_schema::{format_ts, Schema};

use crate::exec::{label_is_node, label_table, seed_transitions, topo_order};
use crate::load::table_name;

/// The SQL statements that evaluate `plan` under `filter` from `seeds`.
pub fn script(schema: &Schema, plan: &RpePlan, filter: TimeFilter, seeds: Seeds) -> Vec<String> {
    let mut w = Writer { schema, plan, filter, sql: Vec::new(), tables: 0 };
    match seeds {
        Seeds::Anchor => {
            for &occ in &plan.anchor.atoms {
                let seed = w.select(&plan.atoms[occ as usize]);
                for (i, tr) in plan.nfa.seeds_for(occ).iter().enumerate() {
                    w.pass(HashMap::from([(tr.to, seed.clone())]), true);
                    w.pass(HashMap::from([(tr.from, seed.clone())]), false);
                    w.sql.push(format!("-- Union: join forward/backward frontiers on seed (transition {i})"));
                }
            }
        }
        Seeds::Sources(nodes) | Seeds::Targets(nodes) => {
            let forwards = matches!(seeds, Seeds::Sources(_));
            let ids: Vec<String> = nodes.iter().map(|u| u.0.to_string()).collect();
            let mut frontier = HashMap::new();
            for (label, state) in seed_transitions(plan, forwards) {
                let select = format!(
                    "select ARRAY[N.id_] as uid_list, ARRAY[cast('{table}' as text)] as concept_list, N.id_ as curr_uid\n  from {table}{hist} N\n  where N.id_ = ANY(ARRAY[{ids}]){temporal}",
                    table = label_table(schema, plan, label),
                    hist = w.hist_suffix(),
                    ids = ids.join(", "),
                    temporal = w.temporal_sql("N"),
                );
                w.feed(&mut frontier, state, "seed_node", select);
            }
            w.pass(frontier, forwards);
        }
    }
    w.sql
}

struct Writer<'a> {
    schema: &'a Schema,
    plan: &'a RpePlan,
    filter: TimeFilter,
    sql: Vec<String>,
    /// TEMP tables named so far; numbers their names.
    tables: u32,
}

impl Writer<'_> {
    fn temp_name(&mut self, stem: &str) -> String {
        self.tables += 1;
        format!("tmp_{stem}_{}", self.tables)
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

    /// The anchor `Select` into a TEMP table; returns the table's name.
    fn select(&mut self, atom: &BoundAtom) -> String {
        let kind = if atom.is_node { "node" } else { "edge" };
        let name = self.temp_name(&format!("select_{kind}"));
        self.sql.push(format!(
            "create TEMP table {name} as (\n  select ARRAY[N.id_] as uid_list, ARRAY[cast('{}' as text)] as concept_list, N.id_ as curr_uid{}\n  from {}{} N\n  where {}{}\n);",
            atom.class_name,
            if atom.is_node { "" } else { ", N.source_id_ as source_uid, N.target_id_ as target_uid" },
            table_name(self.schema, atom.class),
            self.hist_suffix(),
            preds_sql(atom),
            self.temporal_sql("N"),
        ));
        name
    }

    /// Fill state `state`'s frontier table with `select`: the state's first
    /// feed creates the table, later feeds append to it.
    fn feed(&mut self, frontier: &mut HashMap<u32, String>, state: u32, stem: &str, select: String) {
        match frontier.get(&state) {
            Some(name) => self.sql.push(format!("insert into {name}\n  {select};")),
            None => {
                let name = self.temp_name(stem);
                self.sql.push(format!("create TEMP table {name} as (\n  {select}\n);"));
                frontier.insert(state, name);
            }
        }
    }

    /// One directional pass: an `Extend` per transition reachable from the
    /// states `frontier` names, in topological order.
    fn pass(&mut self, mut frontier: HashMap<u32, String>, forwards: bool) {
        let plan = self.plan;
        for state in topo_order(plan, forwards) {
            let Some(from) = frontier.get(&state).cloned() else { continue };
            let transitions = if forwards { &plan.nfa.trans[state as usize] } else { &plan.nfa.rev[state as usize] };
            for &(label, next) in transitions {
                let kind = if label_is_node(plan, label) { "node" } else { "edge" };
                let select = self.extend_sql(label, forwards, &from);
                self.feed(&mut frontier, next, &format!("extend_{kind}"), select);
            }
        }
    }

    /// The `Extend` statement reading frontier table `from`: an edge label
    /// joins on the frontier's current node and carries both endpoints; a
    /// node label joins on the pending endpoint — the target going
    /// forwards, the source going backwards.
    fn extend_sql(&self, label: Label, forwards: bool, from: &str) -> String {
        let (cols, join) = if label_is_node(self.plan, label) {
            let pending = if forwards { "target_uid" } else { "source_uid" };
            (String::new(), format!("H.id_ = T.{pending}"))
        } else {
            let (near, far) = if forwards { ("source_id_", "target_id_") } else { ("target_id_", "source_id_") };
            (
                ", H.source_id_ as source_uid, H.target_id_ as target_uid".to_string(),
                format!("H.{near} = T.curr_uid AND NOT H.{far} = ANY(T.uid_list)"),
            )
        };
        let (table, hist) = (label_table(self.schema, self.plan, label), self.hist_suffix());
        format!(
            "select T.uid_list || ARRAY[H.id_] as uid_list,\n         T.concept_list || ARRAY[cast('{table}' as text)] as concept_list,\n         H.id_ as curr_uid{cols}\n  from {table}{hist} H, {from} T\n  where {join} AND NOT H.id_ = ANY(T.uid_list){}",
            self.temporal_sql("H"),
        )
    }
}

fn preds_sql(atom: &BoundAtom) -> String {
    if atom.preds.is_empty() {
        return "true".to_string();
    }
    atom.preds
        .iter()
        .map(|p| format!("N.{} {} {}", p.field_name, op_sql(p.op), p.value))
        .collect::<Vec<_>>()
        .join(" AND ")
}

fn op_sql(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Contains => "@>",
    }
}
