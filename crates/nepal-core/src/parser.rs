//! Parser for the Nepal query language.
//!
//! Keywords are case-insensitive (the paper mixes `Retrieve`, `WHERE`,
//! `And`, …). The RPE after `MATCHES` is delimited by bracket-depth
//! scanning up to the next top-level `And` (or the end of the enclosing
//! subquery), then handed to [`nepal_rpe::parse_rpe`].

use nepal_rpe::parse_rpe;
use nepal_schema::{parse_ts, Value};

use crate::ast::{AggFn, Cond, Expr, Head, PathFn, QCmp, Query, SelectItem, SourceDecl, TimeSpec};
use crate::error::{NepalError, Result};

struct P<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(NepalError::Parse { pos: self.pos, msg: msg.into() })
    }

    fn ws(&mut self) {
        let b = self.s.as_bytes();
        while self.pos < b.len() && (b[self.pos] as char).is_whitespace() {
            self.pos += 1;
        }
    }

    fn rest(&self) -> &'a str {
        &self.s[self.pos..]
    }

    fn peek_char(&mut self) -> Option<char> {
        self.ws();
        self.rest().chars().next()
    }

    /// Case-insensitive keyword with word boundary.
    fn try_kw(&mut self, kw: &str) -> bool {
        self.ws();
        let rest = self.rest();
        if rest.len() < kw.len() {
            return false;
        }
        if !rest[..kw.len()].eq_ignore_ascii_case(kw) {
            return false;
        }
        // Word boundary: next char must not be identifier-ish.
        if let Some(c) = rest[kw.len()..].chars().next() {
            if c.is_alphanumeric() || c == '_' {
                return false;
            }
        }
        self.pos += kw.len();
        true
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.try_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword `{kw}`"))
        }
    }

    fn try_sym(&mut self, sym: &str) -> bool {
        self.ws();
        if self.rest().starts_with(sym) {
            self.pos += sym.len();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<()> {
        if self.try_sym(sym) {
            Ok(())
        } else {
            self.err(format!("expected `{sym}`"))
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.ws();
        let rest = self.rest();
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            if c.is_alphanumeric() || c == '_' {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            return self.err("expected identifier");
        }
        let id = &rest[..end];
        if id.chars().next().unwrap().is_ascii_digit() {
            return self.err("identifier cannot start with a digit");
        }
        self.pos += end;
        Ok(id.to_string())
    }

    fn quoted(&mut self) -> Result<String> {
        self.ws();
        if !self.rest().starts_with('\'') {
            return self.err("expected quoted string");
        }
        let rest = &self.rest()[1..];
        match rest.find('\'') {
            Some(end) => {
                let s = rest[..end].to_string();
                self.pos += end + 2;
                Ok(s)
            }
            None => self.err("unterminated string"),
        }
    }

    fn timestamp(&mut self) -> Result<i64> {
        let start = self.pos;
        let text = self.quoted()?;
        parse_ts(&text).ok_or(NepalError::Parse { pos: start, msg: format!("bad timestamp `{text}`") })
    }

    /// `'ts'` or `'ts' : 'ts'`.
    fn time_spec(&mut self) -> Result<TimeSpec> {
        let a = self.timestamp()?;
        if self.try_sym(":") {
            let b = self.timestamp()?;
            Ok(TimeSpec::Range(a.min(b), a.max(b)))
        } else {
            Ok(TimeSpec::At(a))
        }
    }

    fn head(&mut self) -> Result<Head> {
        if self.try_kw("retrieve") {
            let mut vars = vec![self.ident()?];
            while self.try_sym(",") {
                vars.push(self.ident()?);
            }
            return Ok(Head::Retrieve(vars));
        }
        if self.try_kw("select") {
            let mut items = vec![self.select_item()?];
            while self.try_sym(",") {
                items.push(self.select_item()?);
            }
            return Ok(Head::Select(items));
        }
        if self.try_kw("first") {
            self.expect_kw("time")?;
            self.expect_kw("when")?;
            self.expect_kw("exists")?;
            return Ok(Head::FirstTimeWhenExists);
        }
        if self.try_kw("last") {
            self.expect_kw("time")?;
            self.expect_kw("when")?;
            self.expect_kw("exists")?;
            return Ok(Head::LastTimeWhenExists);
        }
        if self.try_kw("when") {
            self.expect_kw("exists")?;
            return Ok(Head::WhenExists);
        }
        self.err("expected Retrieve, Select, or a temporal aggregate head")
    }

    /// One Select output: `count(P)`, `count(distinct expr)`,
    /// `min/max/sum/avg(expr)`, or a plain expression.
    fn select_item(&mut self) -> Result<SelectItem> {
        let save = self.pos;
        if let Ok(id) = self.ident() {
            let agg = match id.to_ascii_lowercase().as_str() {
                "count" => Some(AggFn::Count),
                "min" => Some(AggFn::Min),
                "max" => Some(AggFn::Max),
                "sum" => Some(AggFn::Sum),
                "avg" => Some(AggFn::Avg),
                _ => None,
            };
            // `length(...)`/`source(...)` are plain expressions, not
            // aggregates — fall through for those.
            if let Some(agg) = agg {
                self.expect_sym("(")?;
                let distinct = self.try_kw("distinct");
                // The argument is either a full expression or a bare
                // pathway variable (only meaningful under count).
                let inner_save = self.pos;
                let expr = match self.expr() {
                    Ok(e) => e,
                    Err(_) => {
                        self.pos = inner_save;
                        Expr::PathVar(self.ident()?)
                    }
                };
                self.expect_sym(")")?;
                if matches!(expr, Expr::PathVar(_)) && agg != AggFn::Count {
                    return self.err("only count(…) accepts a bare pathway variable");
                }
                return Ok(SelectItem { agg: Some(agg), distinct, expr });
            }
            self.pos = save;
        } else {
            self.pos = save;
        }
        Ok(SelectItem::plain(self.expr()?))
    }

    fn expr(&mut self) -> Result<Expr> {
        self.ws();
        if self.rest().starts_with('\'') {
            return Ok(Expr::Literal(Value::Str(self.quoted()?)));
        }
        if self.peek_char().is_some_and(|c| c.is_ascii_digit() || c == '-') {
            return self.number();
        }
        let save = self.pos;
        let id = self.ident()?;
        let lower = id.to_ascii_lowercase();
        match lower.as_str() {
            "source" | "target" => {
                let f = if lower == "source" { PathFn::Source } else { PathFn::Target };
                self.expect_sym("(")?;
                let var = self.ident()?;
                self.expect_sym(")")?;
                if self.try_sym(".") {
                    let field = self.ident()?;
                    Ok(Expr::PathEndField(f, var, field))
                } else {
                    Ok(Expr::PathEnd(f, var))
                }
            }
            "length" => {
                self.expect_sym("(")?;
                let var = self.ident()?;
                self.expect_sym(")")?;
                Ok(Expr::Length(var))
            }
            "true" => Ok(Expr::Literal(Value::Bool(true))),
            "false" => Ok(Expr::Literal(Value::Bool(false))),
            _ => {
                self.pos = save;
                self.err(format!("unknown expression starting with `{id}`"))
            }
        }
    }

    fn number(&mut self) -> Result<Expr> {
        self.ws();
        let rest = self.rest();
        let mut end = 0;
        let mut is_float = false;
        for (i, c) in rest.char_indices() {
            if c.is_ascii_digit() || (i == 0 && c == '-') {
                end = i + 1;
            } else if c == '.' && !is_float {
                is_float = true;
                end = i + 1;
            } else {
                break;
            }
        }
        let txt = &rest[..end];
        self.pos += end;
        if is_float {
            txt.parse::<f64>()
                .map(|f| Expr::Literal(Value::Float(f)))
                .map_err(|_| NepalError::Parse { pos: self.pos, msg: "bad float".into() })
        } else {
            txt.parse::<i64>()
                .map(|i| Expr::Literal(Value::Int(i)))
                .map_err(|_| NepalError::Parse { pos: self.pos, msg: "bad integer".into() })
        }
    }

    fn sources(&mut self) -> Result<Vec<SourceDecl>> {
        let mut out = Vec::new();
        loop {
            // `PATHS` is the built-in view; any other identifier names a
            // user-defined view (§3.4).
            let view_name = self.ident()?;
            let view = if view_name.eq_ignore_ascii_case("paths") { None } else { Some(view_name) };
            let var = self.ident()?;
            let mut backend = None;
            if self.try_kw("using") {
                backend = Some(self.ident()?);
            }
            let mut time = None;
            if self.try_sym("(") {
                self.expect_sym("@")?;
                time = Some(self.time_spec()?);
                self.expect_sym(")")?;
            }
            out.push(SourceDecl { var, view, time, backend });
            if !self.try_sym(",") {
                break;
            }
        }
        Ok(out)
    }

    /// Extract the raw RPE text after MATCHES: scan to the next top-level
    /// `And` keyword or the end of the enclosing scope.
    fn rpe_text(&mut self) -> Result<&'a str> {
        self.ws();
        let start = self.pos;
        let bytes = self.s.as_bytes();
        let mut depth: i32 = 0;
        let mut i = self.pos;
        let mut in_str = false;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if in_str {
                if c == '\'' {
                    in_str = false;
                }
                i += 1;
                continue;
            }
            match c {
                '\'' => in_str = true,
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    if depth == 0 {
                        break; // end of enclosing subquery
                    }
                    depth -= 1;
                }
                'a' | 'A' if depth == 0 => {
                    let rest = &self.s[i..];
                    if rest.len() >= 3
                        && rest[..3].eq_ignore_ascii_case("and")
                        && rest[3..].chars().next().is_none_or(|c| !(c.is_alphanumeric() || c == '_'))
                        && i > start
                        && !(bytes[i - 1] as char).is_alphanumeric()
                        && bytes[i - 1] != b'_'
                    {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        let text = self.s[start..i].trim_end();
        if text.is_empty() {
            return self.err("empty RPE after MATCHES");
        }
        self.pos = start + text.len();
        Ok(text)
    }

    fn cond(&mut self) -> Result<Cond> {
        // [Not] Exists (query)
        if self.try_kw("not") {
            self.expect_kw("exists")?;
            self.expect_sym("(")?;
            let q = self.query()?;
            self.expect_sym(")")?;
            return Ok(Cond::Exists { negated: true, query: Box::new(q) });
        }
        if self.try_kw("exists") {
            self.expect_sym("(")?;
            let q = self.query()?;
            self.expect_sym(")")?;
            return Ok(Cond::Exists { negated: false, query: Box::new(q) });
        }
        // `P MATCHES <rpe>` — variable name followed by the keyword.
        let save = self.pos;
        if let Ok(var) = self.ident() {
            if self.try_kw("matches") {
                let text = self.rpe_text()?;
                let rpe = parse_rpe(text)?;
                return Ok(Cond::Matches(var, rpe));
            }
            self.pos = save;
        }
        // Comparison.
        let lhs = self.expr()?;
        let op = if self.try_sym("!=") {
            QCmp::Ne
        } else if self.try_sym("=") {
            QCmp::Eq
        } else {
            return self.err("expected `=` or `!=`");
        };
        let rhs = self.expr()?;
        Ok(Cond::Cmp(lhs, op, rhs))
    }

    fn query(&mut self) -> Result<Query> {
        let time = if self.try_kw("at") { Some(self.time_spec()?) } else { None };
        let head = self.head()?;
        self.expect_kw("from")?;
        let sources = self.sources()?;
        let mut conds = Vec::new();
        if self.try_kw("where") {
            conds.push(self.cond()?);
            while self.try_kw("and") {
                conds.push(self.cond()?);
            }
        }
        Ok(Query { time, head, sources, conds })
    }
}

/// Validate variable references and MATCHES coverage.
fn validate(q: &Query) -> Result<()> {
    let vars = q.var_names();
    let known = |v: &str| vars.contains(&v);
    for s in &q.sources {
        // A variable over a named view takes its pathways from the view;
        // only PATHS variables require a MATCHES predicate (§3.4).
        if s.view.is_none() && q.matches_of(&s.var).is_none() {
            return Err(NepalError::NoMatches(s.var.clone()));
        }
    }
    let check_expr = |e: &Expr| -> Result<()> {
        match e.var() {
            Some(v) if !known(v) => Err(NepalError::UnknownVariable(v.to_string())),
            _ => Ok(()),
        }
    };
    if let Head::Retrieve(vs) = &q.head {
        for v in vs {
            if !known(v) {
                return Err(NepalError::UnknownVariable(v.clone()));
            }
        }
    }
    if let Head::Select(items) = &q.head {
        for item in items {
            check_expr(&item.expr)?;
            if matches!(item.expr, Expr::PathVar(_)) && item.agg.is_none() {
                return Err(NepalError::Parse {
                    pos: 0,
                    msg: "bare pathway variable in Select requires count(…)".into(),
                });
            }
        }
    }
    for c in &q.conds {
        match c {
            Cond::Matches(v, _) => {
                if !known(v) {
                    return Err(NepalError::UnknownVariable(v.clone()));
                }
            }
            Cond::Cmp(a, _, b) => {
                check_expr(a)?;
                check_expr(b)?;
            }
            Cond::Exists { query, .. } => {
                // Inner queries may reference outer variables (correlation);
                // validate inner-declared vars recursively, outer refs are
                // resolved at execution time.
                for s in &query.sources {
                    if s.view.is_none() && query.matches_of(&s.var).is_none() {
                        return Err(NepalError::NoMatches(s.var.clone()));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Parse a Nepal query.
pub fn parse_query(text: &str) -> Result<Query> {
    let mut p = P { s: text, pos: 0 };
    let q = p.query()?;
    p.ws();
    if p.pos != p.s.len() {
        return p.err("trailing input after query");
    }
    validate(&q)?;
    Ok(q)
}

/// A top-level statement: a query, optionally wrapped in `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(Query),
    /// `EXPLAIN ANALYZE <query>`: execute the query and report its profile.
    ExplainAnalyze(Query),
}

/// Parse a statement: `[EXPLAIN ANALYZE] <query>`.
pub fn parse_statement(text: &str) -> Result<Statement> {
    let mut p = P { s: text, pos: 0 };
    let explain = p.try_kw("EXPLAIN");
    if explain && !p.try_kw("ANALYZE") {
        return p.err("expected ANALYZE after EXPLAIN");
    }
    let q = p.query()?;
    p.ws();
    if p.pos != p.s.len() {
        return p.err("trailing input after query");
    }
    validate(&q)?;
    Ok(if explain { Statement::ExplainAnalyze(q) } else { Statement::Query(q) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example_1() {
        let q = parse_query("Retrieve P From PATHS P WHERE P MATCHES VNF()->VFC()->VM()->Host(id=23245)").unwrap();
        assert_eq!(q.head, Head::Retrieve(vec!["P".into()]));
        assert_eq!(q.sources.len(), 1);
        assert!(q.matches_of("P").is_some());
    }

    #[test]
    fn parses_join_query() {
        let q = parse_query(
            "Retrieve Phys \
             From PATHS D1, PATHS D2, PATHS Phys \
             Where D1 MATCHES VNF(id=123)->Vertical(){1,6}->Host() \
             And D2 MATCHES VNF(id=234)->Vertical(){1,6}->Host() \
             And Phys MATCHES ConnectsTo(){1,8} \
             And source(Phys)=target(D1) And target(Phys)=target(D2)",
        )
        .unwrap();
        assert_eq!(q.sources.len(), 3);
        assert_eq!(q.conds.len(), 5);
        match &q.conds[3] {
            Cond::Cmp(Expr::PathEnd(PathFn::Source, p), QCmp::Eq, Expr::PathEnd(PathFn::Target, d)) => {
                assert_eq!(p, "Phys");
                assert_eq!(d, "D1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_not_exists_subquery() {
        let q = parse_query(
            "Retrieve V From PATHS V Where V MATCHES VM() \
             And NOT EXISTS( \
               Retrieve P from PATHS P \
               Where P MATCHES (VNF()|VFC())->[HostedOn(){1,5}]->VM() \
               And target(V) = target(P) )",
        )
        .unwrap();
        match &q.conds[1] {
            Cond::Exists { negated: true, query } => {
                assert_eq!(query.sources.len(), 1);
                assert_eq!(query.conds.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_temporal_forms() {
        let q = parse_query(
            "AT '2017-02-15 10:00:00' Select source(P) From PATHS P \
             Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245)",
        )
        .unwrap();
        assert!(matches!(q.time, Some(TimeSpec::At(_))));
        let q2 = parse_query(
            "AT '2017-02-15 9:00' : '2017-02-15 11:00' Select source(P) From PATHS P \
             Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245)",
        )
        .unwrap();
        assert!(matches!(q2.time, Some(TimeSpec::Range(_, _))));
        // Per-variable time points (§4's two-snapshot join).
        let q3 = parse_query(
            "Select source(P) From PATHS P(@'2017-02-15 10:00'), Q(@'2017-02-15 11:00') \
             Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245) \
             And Q MATCHES VNF()->[HostedOn()]{1,6}->Host(id=34356) \
             And source(P) = source(Q)",
        );
        // Note: the paper writes `PATHS P(@…), Q(@…)` — our grammar requires
        // the PATHS keyword per declaration.
        assert!(q3.is_err());
        let q3 = parse_query(
            "Select source(P) From PATHS P(@'2017-02-15 10:00'), PATHS Q(@'2017-02-15 11:00') \
             Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245) \
             And Q MATCHES VNF()->[HostedOn()]{1,6}->Host(id=34356) \
             And source(P) = source(Q)",
        )
        .unwrap();
        assert_eq!(q3.sources[0].time, Some(TimeSpec::At(nepal_schema::parse_ts("2017-02-15 10:00").unwrap())));
    }

    #[test]
    fn parses_temporal_aggregates() {
        for (src, head) in [
            ("First Time When Exists", Head::FirstTimeWhenExists),
            ("Last Time When Exists", Head::LastTimeWhenExists),
            ("When Exists", Head::WhenExists),
        ] {
            let q = parse_query(&format!("{src} From PATHS P Where P MATCHES VM(vm_id=5)")).unwrap();
            assert_eq!(q.head, head);
        }
    }

    #[test]
    fn parses_select_field_access() {
        let q = parse_query("Select source(V).name, source(V).id From PATHS V Where V MATCHES VM()").unwrap();
        match &q.head {
            Head::Select(es) => {
                assert_eq!(es.len(), 2);
                assert_eq!(es[0], SelectItem::plain(Expr::PathEndField(PathFn::Source, "V".into(), "name".into())));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_backend_routing() {
        let q = parse_query("Retrieve P From PATHS P USING legacy Where P MATCHES VM()").unwrap();
        assert_eq!(q.sources[0].backend.as_deref(), Some("legacy"));
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            parse_query("Retrieve Q From PATHS P Where P MATCHES VM()"),
            Err(NepalError::UnknownVariable(_))
        ));
        assert!(matches!(parse_query("Retrieve P From PATHS P"), Err(NepalError::NoMatches(_))));
        assert!(matches!(
            parse_query("Retrieve P From PATHS P Where P MATCHES VM() And source(Z) = target(P)"),
            Err(NepalError::UnknownVariable(_))
        ));
    }

    #[test]
    fn keywords_case_insensitive_and_rpe_keeps_case() {
        let q = parse_query("retrieve p FROM paths p WHERE p matches VM(status='AndMore')").unwrap();
        match &q.conds[0] {
            Cond::Matches(_, rpe) => {
                assert!(rpe.to_string().contains("AndMore"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
