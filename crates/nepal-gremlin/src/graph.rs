//! A schema-free property graph, the storage model of the Gremlin backend.
//!
//! Labels encode the Nepal class hierarchy as inheritance paths
//! (`Node:Container:VM:VMWare`), and concept membership is tested by
//! **prefix matching** — exactly the paper's §5.2: "we implement
//! inheritance by using the inheritance path of a node/edge … as the label
//! … and using prefix matching to find all nodes that are VM or are
//! subclassed from VM."

use std::collections::{BTreeMap, HashMap};

use crate::json::Json;

/// A stored vertex.
#[derive(Debug, Clone)]
pub struct GVertex {
    pub id: u64,
    pub label: String,
    pub props: BTreeMap<String, Json>,
}

/// A stored edge.
#[derive(Debug, Clone)]
pub struct GEdge {
    pub id: u64,
    pub label: String,
    pub src: u64,
    pub dst: u64,
    pub props: BTreeMap<String, Json>,
}

/// The property graph.
#[derive(Debug, Default)]
pub struct PropertyGraph {
    pub(crate) vertices: HashMap<u64, GVertex>,
    pub(crate) edges: HashMap<u64, GEdge>,
    out: HashMap<u64, Vec<u64>>,
    inc: HashMap<u64, Vec<u64>>,
    /// exact label → vertex ids (BTreeMap enables prefix range scans).
    label_index_v: BTreeMap<String, Vec<u64>>,
    label_index_e: BTreeMap<String, Vec<u64>>,
}

impl PropertyGraph {
    pub fn new() -> PropertyGraph {
        PropertyGraph::default()
    }

    pub fn add_vertex(&mut self, id: u64, label: impl Into<String>, props: BTreeMap<String, Json>) {
        let label = label.into();
        self.label_index_v.entry(label.clone()).or_default().push(id);
        self.vertices.insert(id, GVertex { id, label, props });
    }

    pub fn add_edge(&mut self, id: u64, label: impl Into<String>, src: u64, dst: u64, props: BTreeMap<String, Json>) {
        let label = label.into();
        self.label_index_e.entry(label.clone()).or_default().push(id);
        self.edges.insert(id, GEdge { id, label, src, dst, props });
        self.out.entry(src).or_default().push(id);
        self.inc.entry(dst).or_default().push(id);
    }

    pub fn vertex(&self, id: u64) -> Option<&GVertex> {
        self.vertices.get(&id)
    }

    pub fn edge(&self, id: u64) -> Option<&GEdge> {
        self.edges.get(&id)
    }

    pub fn out_edges(&self, v: u64) -> &[u64] {
        self.out.get(&v).map(|x| x.as_slice()).unwrap_or(&[])
    }

    pub fn in_edges(&self, v: u64) -> &[u64] {
        self.inc.get(&v).map(|x| x.as_slice()).unwrap_or(&[])
    }

    /// Prefix-match vertex ids: every vertex whose label equals the prefix
    /// or continues it at a `:` boundary.
    pub fn vertices_with_label_prefix(&self, prefix: &str) -> Vec<u64> {
        prefix_scan(&self.label_index_v, prefix)
    }

    /// Prefix-match edge ids.
    pub fn edges_with_label_prefix(&self, prefix: &str) -> Vec<u64> {
        prefix_scan(&self.label_index_e, prefix)
    }
}

/// Does `label` denote the concept `prefix` or a subclass of it?
pub fn label_matches_prefix(label: &str, prefix: &str) -> bool {
    label == prefix
        || (label.len() > prefix.len() && label.starts_with(prefix) && label.as_bytes()[prefix.len()] == b':')
}

fn prefix_scan(index: &BTreeMap<String, Vec<u64>>, prefix: &str) -> Vec<u64> {
    let mut out = Vec::new();
    for (label, ids) in index.range(prefix.to_string()..) {
        if !label.starts_with(prefix) {
            break;
        }
        if label_matches_prefix(label, prefix) {
            out.extend_from_slice(ids);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_vertex(1, "Node:Container:VM:VMWare", BTreeMap::new());
        g.add_vertex(2, "Node:Container:VM:OnMetal", BTreeMap::new());
        g.add_vertex(3, "Node:Container:Docker", BTreeMap::new());
        g.add_vertex(4, "Node:Host", BTreeMap::new());
        g.add_vertex(5, "Node:VMOther", BTreeMap::new()); // tricky near-prefix
        g.add_edge(10, "Edge:Vertical:HostedOn", 1, 4, BTreeMap::new());
        g
    }

    #[test]
    fn prefix_matching_finds_subclasses() {
        let g = graph();
        let vms = g.vertices_with_label_prefix("Node:Container:VM");
        assert_eq!(vms.len(), 2);
        let containers = g.vertices_with_label_prefix("Node:Container");
        assert_eq!(containers.len(), 3);
        let all = g.vertices_with_label_prefix("Node");
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn prefix_matching_respects_segment_boundaries() {
        let g = graph();
        // "Node:VMOther" must NOT match prefix "Node:VM".
        let vms = g.vertices_with_label_prefix("Node:VM");
        assert!(vms.is_empty());
        assert!(!label_matches_prefix("Node:VMOther", "Node:VM"));
        assert!(label_matches_prefix("Node:VM:X", "Node:VM"));
        assert!(label_matches_prefix("Node:VM", "Node:VM"));
    }

    #[test]
    fn adjacency() {
        let g = graph();
        assert_eq!(g.out_edges(1), &[10]);
        assert_eq!(g.in_edges(4), &[10]);
        assert!(g.out_edges(4).is_empty());
        let e = g.edge(10).unwrap();
        assert_eq!((e.src, e.dst), (1, 4));
    }
}
