//! The Gremlin-style traversal machine: bytecode, interpreter, and the
//! JSON (de)serialization used on the wire.
//!
//! Supported steps cover what Nepal's translator emits (§5.2): vertex
//! selection, label-prefix filtering (class inheritance), property
//! filters, edge/vertex hops in both directions, bounded `repeat` (the
//! `ExtendBlock` loop-unrolling operator), `simplePath` cycle pruning,
//! `path` extraction with full element detail or as ids only
//! (`path().by(id)`), plus the usual `dedup`, `limit`, `count`, `values`,
//! and `id` terminators. `V()` / `E()` directly followed by a label-prefix
//! filter start from the label index rather than the whole graph.

use std::collections::BTreeMap;

use nepal_rpe::{CancelCause, CancelToken};

use crate::graph::{label_matches_prefix, PropertyGraph};
use crate::json::Json;

/// Errors from cancellable traversal evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Evaluation abandoned at a cancellation checkpoint.
    Cancelled(CancelCause),
    /// Malformed traversal or unsupported step.
    Other(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Cancelled(CancelCause::Deadline) => write!(f, "traversal deadline exceeded"),
            EvalError::Cancelled(CancelCause::Explicit) => write!(f, "traversal cancelled"),
            EvalError::Other(m) => write!(f, "{m}"),
        }
    }
}

/// Rate-limited cancellation checker for the traversal interpreter:
/// `tick` polls the token once per `mask + 1` calls so hot per-traverser
/// loops stay cheap, `check` polls immediately (used once per step).
struct Ticker<'a> {
    tok: Option<&'a CancelToken>,
    n: u64,
}

const TRAVERSAL_CANCEL_MASK: u64 = 0x3F; // poll every 64 traversers

impl Ticker<'_> {
    fn tick(&mut self) -> Result<(), EvalError> {
        let Some(t) = self.tok else { return Ok(()) };
        self.n = self.n.wrapping_add(1);
        if self.n & TRAVERSAL_CANCEL_MASK != 0 {
            return Ok(());
        }
        match t.poll() {
            Some(c) => Err(EvalError::Cancelled(c)),
            None => Ok(()),
        }
    }

    fn check(&self) -> Result<(), EvalError> {
        match self.tok.and_then(|t| t.poll()) {
            Some(c) => Err(EvalError::Cancelled(c)),
            None => Ok(()),
        }
    }
}

/// Property comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GCmp {
    Eq,
    Neq,
    Lt,
    Lte,
    Gt,
    Gte,
}

impl GCmp {
    fn name(&self) -> &'static str {
        match self {
            GCmp::Eq => "eq",
            GCmp::Neq => "neq",
            GCmp::Lt => "lt",
            GCmp::Lte => "lte",
            GCmp::Gt => "gt",
            GCmp::Gte => "gte",
        }
    }

    fn from_name(s: &str) -> Option<GCmp> {
        Some(match s {
            "eq" => GCmp::Eq,
            "neq" => GCmp::Neq,
            "lt" => GCmp::Lt,
            "lte" => GCmp::Lte,
            "gt" => GCmp::Gt,
            "gte" => GCmp::Gte,
            _ => return None,
        })
    }

    fn test(&self, a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => self.test_ord(x.total_cmp(y)),
            (Json::Str(x), Json::Str(y)) => self.test_ord(x.cmp(y)),
            (Json::Bool(x), Json::Bool(y)) => self.test_ord(x.cmp(y)),
            // Tag objects (timestamps etc.): compare inner values.
            (Json::Obj(x), Json::Obj(y)) if x.len() == 1 && y.len() == 1 => {
                let (kx, vx) = x.iter().next().unwrap();
                let (ky, vy) = y.iter().next().unwrap();
                kx == ky && self.test(vx, vy)
            }
            _ => matches!(self, GCmp::Neq),
        }
    }

    fn test_ord(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            GCmp::Eq => ord == Equal,
            GCmp::Neq => ord != Equal,
            GCmp::Lt => ord == Less,
            GCmp::Lte => ord != Greater,
            GCmp::Gt => ord == Greater,
            GCmp::Gte => ord != Less,
        }
    }
}

/// One traversal step.
#[derive(Debug, Clone, PartialEq)]
pub enum GStep {
    /// `g.V()` or `g.V(id, …)`.
    V(Vec<u64>),
    /// `g.E()` or `g.E(id, …)`.
    E(Vec<u64>),
    /// Class-inheritance filter via label prefix matching.
    HasLabelPrefix(String),
    /// Property filter on the current element.
    Has(String, GCmp, Json),
    /// Outgoing edges, optionally restricted by label prefix.
    OutE(Option<String>),
    /// Incoming edges, optionally restricted by label prefix.
    InE(Option<String>),
    /// Head vertex of the current edge.
    InV,
    /// Tail vertex of the current edge.
    OutV,
    /// Bounded repetition of a sub-traversal, emitting every intermediate
    /// result whose depth is ≥ `min` (the ExtendBlock operator).
    Repeat(Vec<GStep>, u32, u32),
    /// Drop traversers that revisit an element.
    SimplePath,
    /// Emit the traverser's full path (elements with labels and props).
    Path,
    /// `path().by(id)`: emit the traverser's path as an array of ids.
    PathIds,
    /// Deduplicate by current element.
    Dedup,
    /// Keep the first n traversers.
    Limit(u64),
    /// Terminate with the number of traversers.
    Count,
    /// Terminate with a property value of each element.
    Values(String),
    /// Terminate with the element id.
    Id,
}

/// A reference to a graph element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemRef {
    V(u64),
    E(u64),
}

#[derive(Debug, Clone)]
struct Traverser {
    elem: ElemRef,
    path: Vec<ElemRef>,
}

fn elem_json(g: &PropertyGraph, e: ElemRef, detail: bool) -> Json {
    match e {
        ElemRef::V(id) => {
            let v = g.vertex(id);
            let mut m = BTreeMap::new();
            m.insert("id".into(), Json::Num(id as f64));
            m.insert("type".into(), Json::Str("vertex".into()));
            if let Some(v) = v {
                m.insert("label".into(), Json::Str(v.label.clone()));
                if detail {
                    m.insert("properties".into(), Json::Obj(v.props.clone()));
                }
            }
            Json::Obj(m)
        }
        ElemRef::E(id) => {
            let e = g.edge(id);
            let mut m = BTreeMap::new();
            m.insert("id".into(), Json::Num(id as f64));
            m.insert("type".into(), Json::Str("edge".into()));
            if let Some(e) = e {
                m.insert("label".into(), Json::Str(e.label.clone()));
                m.insert("outV".into(), Json::Num(e.src as f64));
                m.insert("inV".into(), Json::Num(e.dst as f64));
                if detail {
                    m.insert("properties".into(), Json::Obj(e.props.clone()));
                }
            }
            Json::Obj(m)
        }
    }
}

fn elem_id_json(e: ElemRef) -> Json {
    match e {
        ElemRef::V(id) | ElemRef::E(id) => Json::Num(id as f64),
    }
}

fn get_prop<'a>(g: &'a PropertyGraph, e: ElemRef, key: &str) -> Option<&'a Json> {
    match e {
        ElemRef::V(id) => g.vertex(id)?.props.get(key),
        ElemRef::E(id) => g.edge(id)?.props.get(key),
    }
}

fn get_label(g: &PropertyGraph, e: ElemRef) -> Option<&str> {
    match e {
        ElemRef::V(id) => g.vertex(id).map(|v| v.label.as_str()),
        ElemRef::E(id) => g.edge(id).map(|v| v.label.as_str()),
    }
}

/// Start ids of `V(ids)` / `E(ids)`: the given ids, else every element in
/// id order. When the next step is `hasLabelPrefix(p)` the candidates come
/// from the label index instead of the whole graph; that step still runs,
/// so the result is the same.
fn start_ids(
    ids: &[u64],
    next: Option<&GStep>,
    with_prefix: impl FnOnce(&str) -> Vec<u64>,
    all: impl FnOnce() -> Vec<u64>,
) -> Vec<u64> {
    if !ids.is_empty() {
        return ids.to_vec();
    }
    let mut out = match next {
        Some(GStep::HasLabelPrefix(p)) => with_prefix(p),
        _ => all(),
    };
    out.sort_unstable();
    out.dedup();
    out
}

/// Evaluate a bytecode program against a graph. Returns one JSON result
/// per surviving traverser.
pub fn evaluate(g: &PropertyGraph, steps: &[GStep]) -> Result<Vec<Json>, String> {
    evaluate_cancel(g, steps, None).map_err(|e| e.to_string())
}

/// [`evaluate`] with cooperative cancellation: the token is polled once
/// per step and at bounded intervals inside the fan-out loops (edge hops,
/// repeat frontiers), so a deadline or drain interrupts evaluation within
/// a bounded amount of work — returning a typed error, never a partial
/// result set masquerading as complete.
pub fn evaluate_cancel(
    g: &PropertyGraph,
    steps: &[GStep],
    cancel: Option<&CancelToken>,
) -> Result<Vec<Json>, EvalError> {
    let mut ts: Vec<Traverser> = Vec::new();
    let mut started = false;
    // `Path` or `PathIds`, whichever came last.
    let mut want_path: Option<&GStep> = None;
    let mut terminator: Option<&GStep> = None;
    let mut ticker = Ticker { tok: cancel, n: 0 };

    for (i, step) in steps.iter().enumerate() {
        ticker.check()?;
        match step {
            GStep::V(ids) => {
                started = true;
                let ids = start_ids(
                    ids,
                    steps.get(i + 1),
                    |p| g.vertices_with_label_prefix(p),
                    || g.vertices.keys().copied().collect(),
                );
                ts = ids
                    .into_iter()
                    .filter(|id| g.vertex(*id).is_some())
                    .map(|id| Traverser { elem: ElemRef::V(id), path: vec![ElemRef::V(id)] })
                    .collect();
            }
            GStep::E(ids) => {
                started = true;
                let ids = start_ids(
                    ids,
                    steps.get(i + 1),
                    |p| g.edges_with_label_prefix(p),
                    || g.edges.keys().copied().collect(),
                );
                ts = ids
                    .into_iter()
                    .filter(|id| g.edge(*id).is_some())
                    .map(|id| Traverser { elem: ElemRef::E(id), path: vec![ElemRef::E(id)] })
                    .collect();
            }
            _ if !started => return Err(EvalError::Other("traversal must start with V() or E()".into())),
            GStep::HasLabelPrefix(p) => {
                ts.retain(|t| get_label(g, t.elem).is_some_and(|l| label_matches_prefix(l, p)));
            }
            GStep::Has(key, cmp, val) => {
                ts.retain(|t| get_prop(g, t.elem, key).is_some_and(|p| cmp.test(p, val)));
            }
            GStep::OutE(prefix) | GStep::InE(prefix) => {
                let outgoing = matches!(step, GStep::OutE(_));
                let mut next = Vec::new();
                for t in &ts {
                    ticker.tick()?;
                    if let ElemRef::V(v) = t.elem {
                        let edges = if outgoing { g.out_edges(v) } else { g.in_edges(v) };
                        for &eid in edges {
                            if let Some(p) = prefix {
                                let Some(e) = g.edge(eid) else { continue };
                                if !label_matches_prefix(&e.label, p) {
                                    continue;
                                }
                            }
                            let mut path = t.path.clone();
                            path.push(ElemRef::E(eid));
                            next.push(Traverser { elem: ElemRef::E(eid), path });
                        }
                    }
                }
                ts = next;
            }
            GStep::InV | GStep::OutV => {
                let head = matches!(step, GStep::InV);
                let mut next = Vec::new();
                for t in &ts {
                    ticker.tick()?;
                    if let ElemRef::E(eid) = t.elem {
                        let Some(e) = g.edge(eid) else { continue };
                        let v = if head { e.dst } else { e.src };
                        let mut path = t.path.clone();
                        path.push(ElemRef::V(v));
                        next.push(Traverser { elem: ElemRef::V(v), path });
                    }
                }
                ts = next;
            }
            GStep::Repeat(body, min, max) => {
                if *max == 0 || min > max {
                    return Err(EvalError::Other("bad repeat bounds".into()));
                }
                let mut emitted: Vec<Traverser> = Vec::new();
                let mut frontier = std::mem::take(&mut ts);
                if *min == 0 {
                    emitted.extend(frontier.iter().cloned());
                }
                for depth in 1..=*max {
                    let mut next = Vec::new();
                    for t in &frontier {
                        ticker.tick()?;
                        let sub = run_body(g, body, t).map_err(EvalError::Other)?;
                        next.extend(sub);
                    }
                    if depth >= *min {
                        emitted.extend(next.iter().cloned());
                    }
                    frontier = next;
                    if frontier.is_empty() {
                        break;
                    }
                }
                ts = emitted;
            }
            GStep::SimplePath => {
                ts.retain(|t| {
                    let mut seen = std::collections::HashSet::new();
                    t.path.iter().all(|e| seen.insert(*e))
                });
            }
            GStep::Path | GStep::PathIds => {
                want_path = Some(step);
            }
            GStep::Dedup => {
                let mut seen = std::collections::HashSet::new();
                ts.retain(|t| seen.insert(t.elem));
            }
            GStep::Limit(n) => {
                ts.truncate(*n as usize);
            }
            GStep::Count | GStep::Values(_) | GStep::Id => {
                terminator = Some(step);
            }
        }
    }

    Ok(match terminator {
        Some(GStep::Count) => vec![Json::Num(ts.len() as f64)],
        Some(GStep::Values(key)) => ts.iter().filter_map(|t| get_prop(g, t.elem, key).cloned()).collect(),
        Some(GStep::Id) => ts.iter().map(|t| elem_id_json(t.elem)).collect(),
        _ => match want_path {
            Some(GStep::PathIds) => {
                ts.iter().map(|t| Json::Arr(t.path.iter().map(|e| elem_id_json(*e)).collect())).collect()
            }
            Some(_) => ts
                .iter()
                .map(|t| Json::obj(vec![("path", Json::Arr(t.path.iter().map(|e| elem_json(g, *e, true)).collect()))]))
                .collect(),
            None => ts.iter().map(|t| elem_json(g, t.elem, true)).collect(),
        },
    })
}

/// Run a repeat body for one traverser (sub-traversal without V()/E()).
fn run_body(g: &PropertyGraph, body: &[GStep], start: &Traverser) -> Result<Vec<Traverser>, String> {
    let mut ts = vec![start.clone()];
    for step in body {
        match step {
            GStep::HasLabelPrefix(p) => {
                ts.retain(|t| get_label(g, t.elem).is_some_and(|l| label_matches_prefix(l, p)));
            }
            GStep::Has(key, cmp, val) => {
                ts.retain(|t| get_prop(g, t.elem, key).is_some_and(|p| cmp.test(p, val)));
            }
            GStep::OutE(prefix) | GStep::InE(prefix) => {
                let outgoing = matches!(step, GStep::OutE(_));
                let mut next = Vec::new();
                for t in &ts {
                    if let ElemRef::V(v) = t.elem {
                        let edges = if outgoing { g.out_edges(v) } else { g.in_edges(v) };
                        for &eid in edges {
                            if let Some(p) = prefix {
                                let Some(e) = g.edge(eid) else { continue };
                                if !label_matches_prefix(&e.label, p) {
                                    continue;
                                }
                            }
                            let mut path = t.path.clone();
                            path.push(ElemRef::E(eid));
                            next.push(Traverser { elem: ElemRef::E(eid), path });
                        }
                    }
                }
                ts = next;
            }
            GStep::InV | GStep::OutV => {
                let head = matches!(step, GStep::InV);
                let mut next = Vec::new();
                for t in &ts {
                    if let ElemRef::E(eid) = t.elem {
                        let Some(e) = g.edge(eid) else { continue };
                        let v = if head { e.dst } else { e.src };
                        let mut path = t.path.clone();
                        path.push(ElemRef::V(v));
                        next.push(Traverser { elem: ElemRef::V(v), path });
                    }
                }
                ts = next;
            }
            GStep::SimplePath => {
                ts.retain(|t| {
                    let mut seen = std::collections::HashSet::new();
                    t.path.iter().all(|e| seen.insert(*e))
                });
            }
            other => return Err(format!("step {other:?} not allowed inside repeat()")),
        }
    }
    Ok(ts)
}

// ---------------------------------------------------------------------
// Bytecode (de)serialization
// ---------------------------------------------------------------------

fn ids_json(ids: &[u64]) -> Json {
    Json::Arr(ids.iter().map(|i| Json::Num(*i as f64)).collect())
}

/// Serialize a bytecode program to the wire representation.
pub fn bytecode_to_json(steps: &[GStep]) -> Json {
    Json::Arr(steps.iter().map(step_to_json).collect())
}

fn step_to_json(s: &GStep) -> Json {
    match s {
        GStep::V(ids) => Json::Arr(vec![Json::Str("V".into()), ids_json(ids)]),
        GStep::E(ids) => Json::Arr(vec![Json::Str("E".into()), ids_json(ids)]),
        GStep::HasLabelPrefix(p) => Json::Arr(vec![Json::Str("hasLabelPrefix".into()), Json::Str(p.clone())]),
        GStep::Has(k, c, v) => {
            Json::Arr(vec![Json::Str("has".into()), Json::Str(k.clone()), Json::Str(c.name().into()), v.clone()])
        }
        GStep::OutE(p) => {
            Json::Arr(vec![Json::Str("outE".into()), p.as_ref().map(|x| Json::Str(x.clone())).unwrap_or(Json::Null)])
        }
        GStep::InE(p) => {
            Json::Arr(vec![Json::Str("inE".into()), p.as_ref().map(|x| Json::Str(x.clone())).unwrap_or(Json::Null)])
        }
        GStep::InV => Json::Arr(vec![Json::Str("inV".into())]),
        GStep::OutV => Json::Arr(vec![Json::Str("outV".into())]),
        GStep::Repeat(body, min, max) => Json::Arr(vec![
            Json::Str("repeat".into()),
            bytecode_to_json(body),
            Json::Num(*min as f64),
            Json::Num(*max as f64),
        ]),
        GStep::SimplePath => Json::Arr(vec![Json::Str("simplePath".into())]),
        GStep::Path => Json::Arr(vec![Json::Str("path".into())]),
        GStep::PathIds => Json::Arr(vec![Json::Str("pathIds".into())]),
        GStep::Dedup => Json::Arr(vec![Json::Str("dedup".into())]),
        GStep::Limit(n) => Json::Arr(vec![Json::Str("limit".into()), Json::Num(*n as f64)]),
        GStep::Count => Json::Arr(vec![Json::Str("count".into())]),
        GStep::Values(k) => Json::Arr(vec![Json::Str("values".into()), Json::Str(k.clone())]),
        GStep::Id => Json::Arr(vec![Json::Str("id".into())]),
    }
}

/// Deserialize bytecode from the wire representation.
pub fn bytecode_from_json(j: &Json) -> Result<Vec<GStep>, String> {
    let arr = j.as_arr().ok_or("bytecode must be an array")?;
    arr.iter().map(step_from_json).collect()
}

fn parse_ids(j: &Json) -> Result<Vec<u64>, String> {
    j.as_arr().ok_or("ids must be an array")?.iter().map(|x| x.as_u64().ok_or_else(|| "bad id".to_string())).collect()
}

fn step_from_json(j: &Json) -> Result<GStep, String> {
    let a = j.as_arr().ok_or("step must be an array")?;
    let name = a.first().and_then(|x| x.as_str()).ok_or("missing step name")?;
    let arg = |i: usize| a.get(i).ok_or_else(|| format!("step {name}: missing arg {i}"));
    Ok(match name {
        "V" => GStep::V(parse_ids(arg(1)?)?),
        "E" => GStep::E(parse_ids(arg(1)?)?),
        "hasLabelPrefix" => GStep::HasLabelPrefix(arg(1)?.as_str().ok_or("bad prefix")?.to_string()),
        "has" => GStep::Has(
            arg(1)?.as_str().ok_or("bad key")?.to_string(),
            GCmp::from_name(arg(2)?.as_str().ok_or("bad cmp")?).ok_or("unknown cmp")?,
            arg(3)?.clone(),
        ),
        "outE" => GStep::OutE(arg(1)?.as_str().map(|s| s.to_string())),
        "inE" => GStep::InE(arg(1)?.as_str().map(|s| s.to_string())),
        "inV" => GStep::InV,
        "outV" => GStep::OutV,
        "repeat" => GStep::Repeat(
            bytecode_from_json(arg(1)?)?,
            arg(2)?.as_u64().ok_or("bad min")? as u32,
            arg(3)?.as_u64().ok_or("bad max")? as u32,
        ),
        "simplePath" => GStep::SimplePath,
        "path" => GStep::Path,
        "pathIds" => GStep::PathIds,
        "dedup" => GStep::Dedup,
        "limit" => GStep::Limit(arg(1)?.as_u64().ok_or("bad limit")?),
        "count" => GStep::Count,
        "values" => GStep::Values(arg(1)?.as_str().ok_or("bad key")?.to_string()),
        "id" => GStep::Id,
        other => return Err(format!("unknown step `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn props(pairs: &[(&str, Json)]) -> BTreeMap<String, Json> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_vertex(1, "Node:VNF:DNS", props(&[("vnf_id", Json::Num(1.0))]));
        g.add_vertex(2, "Node:VFC", props(&[("vfc_id", Json::Num(11.0))]));
        g.add_vertex(3, "Node:VM", props(&[("status", Json::Str("Green".into()))]));
        g.add_vertex(4, "Node:Host", props(&[("host_id", Json::Num(23245.0))]));
        g.add_edge(10, "Edge:Vertical:ComposedOf", 1, 2, props(&[]));
        g.add_edge(11, "Edge:Vertical:HostedOn", 2, 3, props(&[]));
        g.add_edge(12, "Edge:Vertical:HostedOn", 3, 4, props(&[]));
        g
    }

    #[test]
    fn v_haslabel_has_chain() {
        let g = graph();
        let r = evaluate(
            &g,
            &[
                GStep::V(vec![]),
                GStep::HasLabelPrefix("Node:VNF".into()),
                GStep::Has("vnf_id".into(), GCmp::Eq, Json::Num(1.0)),
                GStep::Id,
            ],
        )
        .unwrap();
        assert_eq!(r, vec![Json::Num(1.0)]);
    }

    #[test]
    fn hop_and_path() {
        let g = graph();
        let r = evaluate(&g, &[GStep::V(vec![1]), GStep::OutE(Some("Edge:Vertical".into())), GStep::InV, GStep::Path])
            .unwrap();
        assert_eq!(r.len(), 1);
        let path = r[0].get("path").unwrap().as_arr().unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[1].get("label").unwrap().as_str(), Some("Edge:Vertical:ComposedOf"));
        assert_eq!(path[2].get("id").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn repeat_emits_intermediate_depths() {
        let g = graph();
        // ExtendBlock: from the VNF, 1..3 Vertical hops.
        let r = evaluate(
            &g,
            &[
                GStep::V(vec![1]),
                GStep::Repeat(vec![GStep::OutE(Some("Edge:Vertical".into())), GStep::InV], 1, 3),
                GStep::Id,
            ],
        )
        .unwrap();
        // Reaches VFC (depth1), VM (depth2), Host (depth3).
        assert_eq!(r, vec![Json::Num(2.0), Json::Num(3.0), Json::Num(4.0)]);
    }

    #[test]
    fn simple_path_prunes_cycles() {
        let mut g = graph();
        g.add_edge(13, "Edge:Vertical:HostedOn", 4, 1, props(&[])); // cycle back
        let r = evaluate(
            &g,
            &[
                GStep::V(vec![1]),
                GStep::Repeat(vec![GStep::OutE(Some("Edge:Vertical".into())), GStep::InV, GStep::SimplePath], 4, 4),
                GStep::Id,
            ],
        )
        .unwrap();
        // Depth-4 walk would revisit vertex 1 → pruned.
        assert!(r.is_empty());
    }

    #[test]
    fn ine_and_outv_walk_backwards() {
        let g = graph();
        let r = evaluate(&g, &[GStep::V(vec![4]), GStep::InE(None), GStep::OutV, GStep::Id]).unwrap();
        assert_eq!(r, vec![Json::Num(3.0)]);
    }

    #[test]
    fn count_values_limit_dedup() {
        let g = graph();
        let r = evaluate(&g, &[GStep::V(vec![]), GStep::Count]).unwrap();
        assert_eq!(r, vec![Json::Num(4.0)]);
        let r = evaluate(&g, &[GStep::V(vec![3]), GStep::Values("status".into())]).unwrap();
        assert_eq!(r, vec![Json::Str("Green".into())]);
        let r = evaluate(&g, &[GStep::V(vec![]), GStep::Limit(2), GStep::Count]).unwrap();
        assert_eq!(r, vec![Json::Num(2.0)]);
    }

    #[test]
    fn bytecode_round_trip() {
        let steps = vec![
            GStep::V(vec![1, 2]),
            GStep::HasLabelPrefix("Node:VM".into()),
            GStep::Has("status".into(), GCmp::Eq, Json::Str("Green".into())),
            GStep::Repeat(vec![GStep::OutE(None), GStep::InV], 1, 6),
            GStep::SimplePath,
            GStep::Path,
            GStep::PathIds,
        ];
        let j = bytecode_to_json(&steps);
        let text = j.to_string();
        let parsed = crate::json::parse_json(&text).unwrap();
        let back = bytecode_from_json(&parsed).unwrap();
        assert_eq!(steps, back);
    }

    #[test]
    fn label_indexed_start_matches_full_scan() {
        let mut g = graph();
        g.add_vertex(0, "Node:VNF", props(&[]));
        // Re-adding a vertex under another label leaves a stale index entry.
        g.add_vertex(2, "Node:VNF:Firewall", props(&[]));
        // A step between V() and the filter forces the full scan.
        for prefix in ["Node:VNF", "Node", "Node:VFC", "Node:Nope"] {
            let indexed = evaluate(&g, &[GStep::V(vec![]), GStep::HasLabelPrefix(prefix.into()), GStep::Id]).unwrap();
            let scanned =
                evaluate(&g, &[GStep::V(vec![]), GStep::Dedup, GStep::HasLabelPrefix(prefix.into()), GStep::Id])
                    .unwrap();
            assert_eq!(indexed, scanned, "prefix {prefix}");
        }
        let r = evaluate(&g, &[GStep::V(vec![]), GStep::HasLabelPrefix("Node:VNF".into()), GStep::Id]).unwrap();
        assert_eq!(r, vec![Json::Num(0.0), Json::Num(1.0), Json::Num(2.0)]);
        let r = evaluate(&g, &[GStep::E(vec![]), GStep::HasLabelPrefix("Edge:Vertical:HostedOn".into()), GStep::Id])
            .unwrap();
        assert_eq!(r, vec![Json::Num(11.0), Json::Num(12.0)]);
    }

    #[test]
    fn path_ids_ships_only_ids() {
        let g = graph();
        let r = evaluate(
            &g,
            &[
                GStep::V(vec![1]),
                GStep::Repeat(vec![GStep::OutE(Some("Edge:Vertical".into())), GStep::InV], 2, 2),
                GStep::PathIds,
            ],
        )
        .unwrap();
        assert_eq!(
            r,
            vec![Json::Arr(vec![Json::Num(1.0), Json::Num(10.0), Json::Num(2.0), Json::Num(11.0), Json::Num(3.0)])]
        );
    }

    #[test]
    fn traversal_must_start_with_v_or_e() {
        let g = graph();
        assert!(evaluate(&g, &[GStep::InV]).is_err());
    }
}
