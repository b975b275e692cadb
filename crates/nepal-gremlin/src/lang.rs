//! A parser for textual Gremlin traversals (`g.V().hasLabel('Node:VM')…`),
//! so the mock server also accepts the Gremlin Server `eval` op that every
//! console/driver speaks, in addition to bytecode submissions.
//!
//! Supported surface (what Nepal's translator and the tests/examples use):
//!
//! ```text
//! g.V(1, 2) | g.E()
//! .hasLabel('prefix')                 — inheritance prefix matching
//! .has('key', value)                  — equality
//! .has('key', gte(value))             — P predicates: eq neq lt lte gt gte
//! .outE('prefix'?) .inE('prefix'?) .inV() .outV()
//! .repeat(__.outE('x').inV().simplePath()).times(n) [.emit()]
//! .simplePath() .path() .path().by(id) .dedup() .limit(n) .count()
//! .values('k') .id()
//! ```

use crate::json::Json;
use crate::traversal::{GCmp, GStep};

/// Parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    pub pos: usize,
    pub msg: String,
}

impl std::fmt::Display for LangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gremlin parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for LangError {}

struct P<'a> {
    s: &'a str,
    i: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Arg {
    Num(f64),
    Str(String),
    Pred(GCmp, Box<Arg>),
    /// An anonymous sub-traversal `__.step().step()`.
    Sub(Vec<(String, Vec<Arg>)>),
    /// A bare token: `id`, `T.id`.
    Token(String),
}

impl<'a> P<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LangError> {
        Err(LangError { pos: self.i, msg: msg.into() })
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s.as_bytes()[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.ws();
        if self.s[self.i..].starts_with(c) {
            self.i += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), LangError> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(format!("expected `{c}`"))
        }
    }

    fn ident(&mut self) -> Result<String, LangError> {
        self.ws();
        let start = self.i;
        while self.i < self.s.len() {
            let c = self.s.as_bytes()[self.i] as char;
            if c.is_alphanumeric() || c == '_' {
                self.i += 1;
            } else {
                break;
            }
        }
        if self.i == start {
            return self.err("expected identifier");
        }
        Ok(self.s[start..self.i].to_string())
    }

    fn arg(&mut self) -> Result<Arg, LangError> {
        self.ws();
        let rest = &self.s[self.i..];
        if rest.starts_with('\'') || rest.starts_with('"') {
            let quote = rest.chars().next().unwrap();
            let body = &rest[1..];
            match body.find(quote) {
                Some(end) => {
                    let v = body[..end].to_string();
                    self.i += end + 2;
                    Ok(Arg::Str(v))
                }
                None => self.err("unterminated string"),
            }
        } else if rest.starts_with("__") {
            self.i += 2;
            let mut steps = Vec::new();
            while self.eat('.') {
                steps.push(self.call()?);
            }
            Ok(Arg::Sub(steps))
        } else if rest.chars().next().is_some_and(|c| c.is_ascii_digit() || c == '-') {
            let start = self.i;
            self.i += 1;
            while self.i < self.s.len() {
                let c = self.s.as_bytes()[self.i] as char;
                if c.is_ascii_digit() || c == '.' {
                    self.i += 1;
                } else {
                    break;
                }
            }
            self.s[start..self.i]
                .parse::<f64>()
                .map(Arg::Num)
                .map_err(|_| LangError { pos: start, msg: "bad number".into() })
        } else {
            // P predicate: gte(5), eq('x'), …; or a bare token.
            let mut name = self.ident()?;
            if name == "T" && self.eat('.') {
                name = format!("T.{}", self.ident()?);
            }
            self.ws();
            if name != "true" && !self.s[self.i..].starts_with('(') {
                return Ok(Arg::Token(name));
            }
            let cmp = match name.as_str() {
                "eq" => GCmp::Eq,
                "neq" => GCmp::Neq,
                "lt" => GCmp::Lt,
                "lte" => GCmp::Lte,
                "gt" => GCmp::Gt,
                "gte" => GCmp::Gte,
                "true" => return Ok(Arg::Str("true".into())),
                other => return self.err(format!("unknown predicate `{other}`")),
            };
            self.expect('(')?;
            let inner = self.arg()?;
            self.expect(')')?;
            Ok(Arg::Pred(cmp, Box::new(inner)))
        }
    }

    /// Parse `name(args…)`.
    fn call(&mut self) -> Result<(String, Vec<Arg>), LangError> {
        let name = self.ident()?;
        self.expect('(')?;
        let mut args = Vec::new();
        self.ws();
        if !self.s[self.i..].starts_with(')') {
            loop {
                args.push(self.arg()?);
                if !self.eat(',') {
                    break;
                }
            }
        }
        self.expect(')')?;
        Ok((name, args))
    }
}

fn arg_json(a: &Arg) -> Result<Json, LangError> {
    Ok(match a {
        Arg::Num(n) => Json::Num(*n),
        Arg::Str(s) => Json::Str(s.clone()),
        _ => return Err(LangError { pos: 0, msg: "expected literal".into() }),
    })
}

fn ids_of(args: &[Arg]) -> Result<Vec<u64>, LangError> {
    args.iter()
        .map(|a| match a {
            Arg::Num(n) => Ok(*n as u64),
            _ => Err(LangError { pos: 0, msg: "ids must be numbers".into() }),
        })
        .collect()
}

fn label_of(args: &[Arg]) -> Option<String> {
    match args.first() {
        Some(Arg::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Convert a parsed call chain into bytecode steps. `repeat(...)` is held
/// pending until its `.times(n)` modulator arrives.
fn build(calls: Vec<(String, Vec<Arg>)>) -> Result<Vec<GStep>, LangError> {
    let mut out: Vec<GStep> = Vec::new();
    let mut pending_repeat: Option<Vec<GStep>> = None;
    let e = |m: &str| LangError { pos: 0, msg: m.to_string() };
    for (name, args) in calls {
        match name.as_str() {
            "V" => out.push(GStep::V(ids_of(&args)?)),
            "E" => out.push(GStep::E(ids_of(&args)?)),
            "hasLabel" | "hasLabelPrefix" => {
                out.push(GStep::HasLabelPrefix(label_of(&args).ok_or_else(|| e("hasLabel needs a string"))?))
            }
            "has" => {
                let key = match args.first() {
                    Some(Arg::Str(s)) => s.clone(),
                    _ => return Err(e("has() needs a property key")),
                };
                match args.get(1) {
                    Some(Arg::Pred(cmp, inner)) => out.push(GStep::Has(key, *cmp, arg_json(inner)?)),
                    Some(lit) => out.push(GStep::Has(key, GCmp::Eq, arg_json(lit)?)),
                    None => return Err(e("has() needs a value")),
                }
            }
            "outE" => out.push(GStep::OutE(label_of(&args))),
            "inE" => out.push(GStep::InE(label_of(&args))),
            "inV" => out.push(GStep::InV),
            "outV" => out.push(GStep::OutV),
            "repeat" => {
                let body = match args.into_iter().next() {
                    Some(Arg::Sub(calls)) => build(calls)?,
                    _ => return Err(e("repeat() needs an anonymous traversal (__.…)")),
                };
                pending_repeat = Some(body);
            }
            "times" => {
                let body = pending_repeat.take().ok_or_else(|| e("times() without repeat()"))?;
                let n = match args.first() {
                    Some(Arg::Num(n)) => *n as u32,
                    _ => return Err(e("times() needs a count")),
                };
                out.push(GStep::Repeat(body, 1, n.max(1)));
            }
            "emit" => {} // our Repeat already emits every depth ≥ min
            "simplePath" => out.push(GStep::SimplePath),
            "path" => out.push(GStep::Path),
            "by" => match (out.last_mut(), &args[..]) {
                (Some(step @ GStep::Path), [Arg::Token(t)]) if t == "id" || t == "T.id" => *step = GStep::PathIds,
                (Some(GStep::Path), _) => return Err(e("path() takes by(id) only")),
                _ => return Err(e("by() must follow path()")),
            },
            "dedup" => out.push(GStep::Dedup),
            "limit" => {
                let n = match args.first() {
                    Some(Arg::Num(n)) => *n as u64,
                    _ => return Err(e("limit() needs a count")),
                };
                out.push(GStep::Limit(n));
            }
            "count" => out.push(GStep::Count),
            "values" => out.push(GStep::Values(label_of(&args).ok_or_else(|| e("values() needs a key"))?)),
            "id" => out.push(GStep::Id),
            other => return Err(e(&format!("unknown step `{other}`"))),
        }
    }
    if pending_repeat.is_some() {
        return Err(e("repeat() without a terminating times(n)"));
    }
    Ok(out)
}

/// Parse a textual traversal (`g.V()…`) into bytecode.
pub fn parse_traversal(text: &str) -> Result<Vec<GStep>, LangError> {
    let mut p = P { s: text, i: 0 };
    p.ws();
    if !p.s[p.i..].starts_with('g') {
        return p.err("traversal must start with `g`");
    }
    p.i += 1;
    let mut calls = Vec::new();
    while p.eat('.') {
        calls.push(p.call()?);
    }
    p.ws();
    if p.i != p.s.len() {
        return p.err("trailing input");
    }
    if calls.is_empty() {
        return p.err("empty traversal");
    }
    build(calls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PropertyGraph;
    use crate::traversal::evaluate;
    use std::collections::BTreeMap;

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let props = |id: f64| {
            let mut m = BTreeMap::new();
            m.insert("vm_id".to_string(), Json::Num(id));
            m
        };
        g.add_vertex(1, "Node:VM", props(55.0));
        g.add_vertex(2, "Node:Host", props(7.0));
        g.add_vertex(3, "Node:Host", props(9.0));
        g.add_edge(10, "Edge:Vertical:HostedOn", 1, 2, BTreeMap::new());
        g.add_edge(11, "Edge:Connects", 2, 3, BTreeMap::new());
        g
    }

    #[test]
    fn parses_and_runs_basic_chain() {
        let g = graph();
        let steps = parse_traversal("g.V().hasLabel('Node:VM').has('vm_id', 55).id()").unwrap();
        let r = evaluate(&g, &steps).unwrap();
        assert_eq!(r, vec![Json::Num(1.0)]);
    }

    #[test]
    fn parses_predicates_and_hops() {
        let g = graph();
        let steps = parse_traversal("g.V().hasLabel('Node:Host').has('vm_id', gte(8)).id()").unwrap();
        let r = evaluate(&g, &steps).unwrap();
        assert_eq!(r, vec![Json::Num(3.0)]);
        let steps = parse_traversal("g.V(1).outE('Edge:Vertical').inV().id()").unwrap();
        let r = evaluate(&g, &steps).unwrap();
        assert_eq!(r, vec![Json::Num(2.0)]);
    }

    #[test]
    fn parses_repeat_times() {
        let g = graph();
        let steps = parse_traversal("g.V(1).repeat(__.outE().inV().simplePath()).times(2).emit().path()").unwrap();
        let r = evaluate(&g, &steps).unwrap();
        // Depth 1: 1→2; depth 2: 1→2→3.
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_traversal("V().id()").is_err()); // no `g`
        assert!(parse_traversal("g.V().unknownStep()").is_err());
        assert!(parse_traversal("g.V().repeat(__.outE())").is_err()); // no times
        assert!(parse_traversal("g.V().has('k')").is_err());
        assert!(parse_traversal("g.V().hasLabel('unterminated").is_err());
        assert!(parse_traversal("g.V() trailing").is_err());
    }

    #[test]
    fn path_by_id_parses_to_the_extend_block_bytecode() {
        // The shape the translator submits for an ExtendBlock.
        let text = "g.V(1, 2).repeat(__.outE('Edge:Vertical').inV().simplePath()).times(3)\
                    .hasLabel('Node:Host').path().by(id)";
        let body = vec![GStep::OutE(Some("Edge:Vertical".into())), GStep::InV, GStep::SimplePath];
        let bytecode = vec![
            GStep::V(vec![1, 2]),
            GStep::Repeat(body, 1, 3),
            GStep::HasLabelPrefix("Node:Host".into()),
            GStep::PathIds,
        ];
        assert_eq!(parse_traversal(text).unwrap(), bytecode);
        assert_eq!(parse_traversal(&text.replace("by(id)", "by(T.id)")).unwrap(), bytecode);
        let r = evaluate(&graph(), &parse_traversal("g.V(1).outE().inV().path().by(id)").unwrap()).unwrap();
        assert_eq!(r, vec![Json::Arr(vec![Json::Num(1.0), Json::Num(10.0), Json::Num(2.0)])]);
        for bad in ["g.V().path().by('vm_id')", "g.V().path().by(label)", "g.V().path().by()", "g.V().by(id)"] {
            let err = parse_traversal(bad).unwrap_err();
            assert!(err.msg.contains("by("), "{bad}: {err}");
        }
        // `true` is still a literal, and an unknown call still an error.
        assert!(parse_traversal("g.V().has('up', true)").is_ok());
        assert!(parse_traversal("g.V().has('k', near(1))").is_err());
    }

    #[test]
    fn quotes_both_kinds() {
        let a = parse_traversal("g.V().hasLabel('Node:VM')").unwrap();
        let b = parse_traversal("g.V().hasLabel(\"Node:VM\")").unwrap();
        assert_eq!(a, b);
    }
}
