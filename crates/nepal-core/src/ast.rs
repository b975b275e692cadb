//! Abstract syntax of the Nepal query language (§3.4/§4).
//!
//! ```text
//! [AT 'ts' [: 'ts']]
//! Retrieve P, Q | Select <exprs> | First Time When Exists |
//!     Last Time When Exists | When Exists
//! From PATHS P [USING backend] [(@'ts' [: 'ts'])], …
//! Where P MATCHES <rpe>
//!   And source(P) = target(Q)
//!   And [Not] Exists ( <query> )
//! ```

use nepal_rpe::Rpe;
use nepal_schema::{Ts, Value};

/// A temporal scope: a time point or a closed time range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeSpec {
    At(Ts),
    Range(Ts, Ts),
}

/// One range variable declaration.
///
/// §3.4: "The source is an unmaterialized view of pathways … the view
/// PATHS is the set of all pathways. Additional views can be defined."
/// `view = None` is the built-in PATHS view; `Some(name)` ranges over a
/// view registered with [`crate::engine::Engine::define_view`].
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDecl {
    pub var: String,
    /// Named view, or `None` for the built-in `PATHS`.
    pub view: Option<String>,
    /// Per-variable temporal scope (`PATHS P(@'2017-02-15 10:00')`).
    pub time: Option<TimeSpec>,
    /// Backend routing for data integration (`PATHS P USING legacy`).
    pub backend: Option<String>,
}

/// `source(P)` / `target(P)`, shared with the evaluator's end-keyed sinks.
pub use nepal_rpe::PathFn;

/// An expression usable in Select heads and Where comparisons.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `source(P)` or `target(P)` — a node.
    PathEnd(PathFn, String),
    /// `source(P).name` — a field of an end node.
    PathEndField(PathFn, String, String),
    /// `length(P)` — number of edges.
    Length(String),
    /// A bare pathway variable — only valid inside `count(…)`.
    PathVar(String),
    /// A literal value.
    Literal(Value),
}

impl Expr {
    /// The pathway variable the expression refers to, if any.
    pub fn var(&self) -> Option<&str> {
        match self {
            Expr::PathEnd(_, v) | Expr::PathEndField(_, v, _) | Expr::Length(v) | Expr::PathVar(v) => Some(v),
            Expr::Literal(_) => None,
        }
    }
}

/// Aggregate functions over pathway sets — the "aggregation … queries on
/// pathway sets" the paper lists as future work (§8), implemented here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Count,
    Min,
    Max,
    Sum,
    Avg,
}

/// One Select output: an optional aggregate over an expression.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub agg: Option<AggFn>,
    /// `count(DISTINCT source(P))`.
    pub distinct: bool,
    pub expr: Expr,
}

impl SelectItem {
    /// A plain (non-aggregated) expression item.
    pub fn plain(expr: Expr) -> SelectItem {
        SelectItem { agg: None, distinct: false, expr }
    }
}

/// The query head.
#[derive(Debug, Clone, PartialEq)]
pub enum Head {
    /// `Retrieve P, Q` — raw pathways.
    Retrieve(Vec<String>),
    /// `Select expr, …` — post-processed values (§3.4: "by changing the
    /// keyword Retrieve with the keyword Select, we indicate that post
    /// processing is to be performed on the returned pathways"), possibly
    /// aggregated (`Select count(P), avg(length(P))`).
    Select(Vec<SelectItem>),
    /// `First Time When Exists` (§4 temporal aggregates).
    FirstTimeWhenExists,
    /// `Last Time When Exists`.
    LastTimeWhenExists,
    /// `When Exists` — the intervals during which a satisfying pathway
    /// exists.
    WhenExists,
}

/// A comparison operator in the Where clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QCmp {
    Eq,
    Ne,
}

/// One Where-clause condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// `P MATCHES <rpe>`.
    Matches(String, Rpe),
    /// `expr = expr` / `expr != expr`.
    Cmp(Expr, QCmp, Expr),
    /// `[Not] Exists (subquery)`; correlated via conditions inside the
    /// subquery that reference outer variables.
    Exists { negated: bool, query: Box<Query> },
}

/// A parsed Nepal query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Query-level temporal scope (`AT …` prefix).
    pub time: Option<TimeSpec>,
    pub head: Head,
    pub sources: Vec<SourceDecl>,
    pub conds: Vec<Cond>,
}

impl Query {
    /// The MATCHES expression of a variable, if any.
    pub fn matches_of(&self, var: &str) -> Option<&Rpe> {
        self.conds.iter().find_map(|c| match c {
            Cond::Matches(v, rpe) if v == var => Some(rpe),
            _ => None,
        })
    }

    /// Declared variable names.
    pub fn var_names(&self) -> Vec<&str> {
        self.sources.iter().map(|s| s.var.as_str()).collect()
    }
}
