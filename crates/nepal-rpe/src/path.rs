//! Pathways: the first-class result objects of Nepal queries.

use std::fmt;

use nepal_graph::{IntervalSet, TemporalGraph, Uid};

/// `source(P)` / `target(P)`: one end of a pathway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathFn {
    Source,
    Target,
}

/// A pathway: an alternating sequence of node and edge uids that starts and
/// ends with a node (§3.3). For time-range queries, `times` carries the
/// maximal assertion intervals of the whole pathway (§4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pathway {
    /// Element uids: `n1, e1, n2, …, nk`.
    pub elems: Vec<Uid>,
    /// Maximal assertion intervals (range queries only).
    pub times: Option<IntervalSet>,
}

impl Pathway {
    /// Single-node pathway.
    pub fn node(uid: Uid) -> Pathway {
        Pathway { elems: vec![uid], times: None }
    }

    /// The source node (`source(P)` in the query language).
    pub fn source(&self) -> Uid {
        self.elems[0]
    }

    /// The target node (`target(P)`).
    pub fn target(&self) -> Uid {
        *self.elems.last().unwrap()
    }

    /// The end `f` names.
    pub fn end(&self, f: PathFn) -> Uid {
        match f {
            PathFn::Source => self.source(),
            PathFn::Target => self.target(),
        }
    }

    /// Number of edges (hops).
    pub fn len_edges(&self) -> usize {
        self.elems.len() / 2
    }

    /// Node uids, in order.
    pub fn nodes(&self) -> impl Iterator<Item = Uid> + '_ {
        self.elems.iter().step_by(2).copied()
    }

    /// Edge uids, in order.
    pub fn edges(&self) -> impl Iterator<Item = Uid> + '_ {
        self.elems.iter().skip(1).step_by(2).copied()
    }

    /// Render with class names resolved against the graph, e.g.
    /// `VNF#3 -ComposedOf#17-> VFC#4`.
    pub fn display<'a>(&'a self, g: &'a TemporalGraph) -> PathwayDisplay<'a> {
        PathwayDisplay { p: self, g }
    }
}

/// Helper for human-readable pathway rendering.
pub struct PathwayDisplay<'a> {
    p: &'a Pathway,
    g: &'a TemporalGraph,
}

impl fmt::Display for PathwayDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |u: Uid| -> String {
            match self.g.class_of(u) {
                Some(c) => format!("{}#{}", self.g.schema().class(c).name, u.0),
                None => format!("?#{}", u.0),
            }
        };
        for (i, &u) in self.p.elems.iter().enumerate() {
            if i % 2 == 0 {
                write!(f, "{}", name(u))?;
            } else {
                write!(f, " -{}-> ", name(u))?;
            }
        }
        if let Some(times) = &self.p.times {
            write!(f, " @ {times}")?;
        }
        Ok(())
    }
}
