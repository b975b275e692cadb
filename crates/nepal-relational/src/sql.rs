//! A parser and executor for the SQL subset Nepal emits (§5.2).
//!
//! The translator generates Postgres statements — `CREATE TABLE …
//! INHERITS(…)`, `create TEMP table … as (select …)`, `insert into …
//! select …` for a frontier table's further feeds, array columns with
//! `||` concatenation and `= ANY(uid_list)` cycle predicates, and
//! `sys_period @> '…'::timestamptz` temporal filters. This module makes
//! that output *executable* against the in-memory substrate, so tests can
//! round-trip: generate SQL → parse → execute → compare with the native
//! operator pipeline.
//!
//! Inheritance semantics mirror Postgres: selecting `FROM parent` scans the
//! whole subtree, projecting child rows onto the parent's column set.
//! `<table>__historical` resolves to the union of the current table and
//! its `__history` companion. `alias.sys_period @> ts` is interpreted
//! against the physical `sys_from`/`sys_to` columns.

use std::collections::HashMap;

use nepal_schema::{parse_ts, Value};

use crate::db::RelDb;
use crate::error::{RelError, Result};
use crate::table::{ColDef, ColType, Table};

// ---------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `CREATE TABLE name(cols…) [INHERITS(parent)]`.
    CreateTable { name: String, cols: Vec<ColDef>, inherits: Option<String> },
    /// `CREATE [TEMP] TABLE name AS (select)`.
    CreateTableAs { name: String, temp: bool, query: Select },
    /// A bare `SELECT`.
    Select(Select),
    /// `INSERT INTO name VALUES (…), (…)`.
    Insert { table: String, rows: Vec<Vec<SqlExpr>> },
    /// `INSERT INTO name SELECT …`.
    InsertSelect { table: String, query: Select },
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `(expr, output name)`; `*` expands positionally at execution.
    pub items: Vec<(SqlExpr, Option<String>)>,
    pub star: bool,
    /// `(table, alias)`.
    pub from: Vec<(String, String)>,
    pub where_: Option<SqlExpr>,
}

/// A SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    Lit(Value),
    /// `alias.column` (or bare `column` with an empty alias).
    Col(String, String),
    /// `ARRAY[…]`.
    Array(Vec<SqlExpr>),
    /// `a || b` (array/string concatenation).
    Concat(Box<SqlExpr>, Box<SqlExpr>),
    /// `cast(e AS type)` — type-checked loosely, passthrough at runtime.
    Cast(Box<SqlExpr>, String),
    Cmp(Box<SqlExpr>, CmpKind, Box<SqlExpr>),
    /// `e = ANY(array)`.
    AnyEq(Box<SqlExpr>, Box<SqlExpr>),
    /// `alias.sys_period @> ts` (temporal containment).
    PeriodContains(String, Box<SqlExpr>),
    And(Box<SqlExpr>, Box<SqlExpr>),
    Or(Box<SqlExpr>, Box<SqlExpr>),
    Not(Box<SqlExpr>),
}

/// Comparison kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(i64),
    Str(String),
    Sym(&'static str),
}

fn lex(sql: &str) -> Result<Vec<Tok>> {
    let b = sql.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    let err = |i: usize, m: &str| RelError::UnknownColumn {
        table: format!("<sql parse at byte {i}>"),
        column: m.to_string(),
    };
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | ';' | '*' | '[' | ']' | '.' => {
                out.push(Tok::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    ';' => ";",
                    '*' => "*",
                    '[' => "[",
                    ']' => "]",
                    _ => ".",
                }));
                i += 1;
            }
            '|' if b.get(i + 1) == Some(&b'|') => {
                out.push(Tok::Sym("||"));
                i += 2;
            }
            ':' if b.get(i + 1) == Some(&b':') => {
                out.push(Tok::Sym("::"));
                i += 2;
            }
            '@' if b.get(i + 1) == Some(&b'>') => {
                out.push(Tok::Sym("@>"));
                i += 2;
            }
            '<' if b.get(i + 1) == Some(&b'>') => {
                out.push(Tok::Sym("<>"));
                i += 2;
            }
            '<' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Sym("<="));
                i += 2;
            }
            '>' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Sym(">="));
                i += 2;
            }
            '!' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Sym("<>"));
                i += 2;
            }
            '=' => {
                out.push(Tok::Sym("="));
                i += 1;
            }
            '<' => {
                out.push(Tok::Sym("<"));
                i += 1;
            }
            '>' => {
                out.push(Tok::Sym(">"));
                i += 1;
            }
            '-' if b.get(i + 1) == Some(&b'-') => {
                // comment to end of line
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(err(i, "unterminated string"));
                }
                out.push(Tok::Str(sql[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() || (c == '-' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())) => {
                let start = i;
                i += 1;
                while i < b.len() && (b[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = sql[start..i].parse().map_err(|_| err(start, "bad number"))?;
                out.push(Tok::Num(n));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && {
                    let d = b[i] as char;
                    d.is_alphanumeric() || d == '_'
                } {
                    i += 1;
                }
                out.push(Tok::Ident(sql[start..i].to_string()));
            }
            other => return Err(err(i, &format!("unexpected `{other}`"))),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct P {
    toks: Vec<Tok>,
    i: usize,
}

impl P {
    fn err<T>(&self, m: &str) -> Result<T> {
        Err(RelError::UnknownColumn {
            table: format!("<sql parse at token {}>", self.i),
            column: format!("{m}; next: {:?}", self.toks.get(self.i)),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i)
    }

    fn kw(&mut self, word: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(word) {
                self.i += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, word: &str) -> Result<()> {
        if self.kw(word) {
            Ok(())
        } else {
            self.err(&format!("expected keyword {word}"))
        }
    }

    fn sym(&mut self, s: &str) -> bool {
        if self.peek() == Some(&Tok::Sym(Box::leak(s.to_string().into_boxed_str()))) {
            self.i += 1;
            return true;
        }
        // Compare by value to avoid the leak path in the common case.
        if let Some(Tok::Sym(t)) = self.peek() {
            if *t == s {
                self.i += 1;
                return true;
            }
        }
        false
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if let Some(Tok::Sym(t)) = self.peek() {
            if *t == s {
                self.i += 1;
                return Ok(());
            }
        }
        self.err(&format!("expected `{s}`"))
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.i += 1;
                Ok(s)
            }
            _ => self.err("expected identifier"),
        }
    }

    fn stmt(&mut self) -> Result<Stmt> {
        if self.kw("create") {
            let temp = self.kw("temp") || self.kw("temporary");
            self.expect_kw("table")?;
            let name = self.ident()?;
            if self.kw("as") {
                self.expect_sym("(")?;
                let q = self.select()?;
                self.expect_sym(")")?;
                return Ok(Stmt::CreateTableAs { name, temp, query: q });
            }
            self.expect_sym("(")?;
            let mut cols = Vec::new();
            loop {
                let cname = self.ident()?;
                let ty = self.col_type()?;
                cols.push(ColDef::new(cname, ty));
                if !self.sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            let inherits = if self.kw("inherits") {
                self.expect_sym("(")?;
                let p = self.ident()?;
                self.expect_sym(")")?;
                Some(p)
            } else {
                None
            };
            return Ok(Stmt::CreateTable { name, cols, inherits });
        }
        if self.kw("insert") {
            self.expect_kw("into")?;
            let table = self.ident()?;
            if matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("select")) {
                return Ok(Stmt::InsertSelect { table, query: self.select()? });
            }
            self.expect_kw("values")?;
            let mut rows = Vec::new();
            loop {
                self.expect_sym("(")?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
                rows.push(row);
                if !self.sym(",") {
                    break;
                }
            }
            return Ok(Stmt::Insert { table, rows });
        }
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case("select") {
                return Ok(Stmt::Select(self.select()?));
            }
        }
        self.err("expected CREATE, INSERT, or SELECT")
    }

    fn col_type(&mut self) -> Result<ColType> {
        let base = self.ident()?.to_ascii_lowercase();
        let mut ty = match base.as_str() {
            "bigint" | "int" | "integer" => ColType::BigInt,
            "text" | "varchar" => ColType::Text,
            "boolean" | "bool" => ColType::Bool,
            "double" => {
                let _ = self.kw("precision");
                ColType::Double
            }
            "timestamptz" | "timestamp" => ColType::Timestamp,
            "jsonb" => ColType::Jsonb,
            other => return self.err(&format!("unknown column type `{other}`")),
        };
        while self.sym("[") {
            self.expect_sym("]")?;
            ty = ColType::Array(Box::new(ty));
        }
        Ok(ty)
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let mut items = Vec::new();
        let mut star = false;
        loop {
            if self.sym("*") {
                star = true;
            } else {
                let e = self.expr()?;
                let alias = if self.kw("as") { Some(self.ident()?) } else { None };
                items.push((e, alias));
            }
            if !self.sym(",") {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        loop {
            let t = self.ident()?;
            // Optional alias (an identifier that isn't WHERE).
            let alias = match self.peek() {
                Some(Tok::Ident(s)) if !s.eq_ignore_ascii_case("where") => self.ident()?,
                _ => t.clone(),
            };
            from.push((t, alias));
            if !self.sym(",") {
                break;
            }
        }
        let where_ = if self.kw("where") { Some(self.expr()?) } else { None };
        Ok(Select { items, star, from, where_ })
    }

    fn expr(&mut self) -> Result<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut e = self.and_expr()?;
        while self.kw("or") {
            let r = self.and_expr()?;
            e = SqlExpr::Or(Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut e = self.not_expr()?;
        while self.kw("and") {
            let r = self.not_expr()?;
            e = SqlExpr::And(Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.kw("not") {
            return Ok(SqlExpr::Not(Box::new(self.not_expr()?)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<SqlExpr> {
        let lhs = self.concat_expr()?;
        // `alias.sys_period @> ts`
        if let Some(Tok::Sym("@>")) = self.peek() {
            self.i += 1;
            let rhs = self.concat_expr()?;
            if let SqlExpr::Col(alias, col) = &lhs {
                if col == "sys_period" {
                    return Ok(SqlExpr::PeriodContains(alias.clone(), Box::new(rhs)));
                }
            }
            return Ok(SqlExpr::Cmp(Box::new(lhs), CmpKind::Eq, Box::new(rhs)));
        }
        let kind = match self.peek() {
            Some(Tok::Sym("=")) => Some(CmpKind::Eq),
            Some(Tok::Sym("<>")) => Some(CmpKind::Ne),
            Some(Tok::Sym("<")) => Some(CmpKind::Lt),
            Some(Tok::Sym("<=")) => Some(CmpKind::Le),
            Some(Tok::Sym(">")) => Some(CmpKind::Gt),
            Some(Tok::Sym(">=")) => Some(CmpKind::Ge),
            _ => None,
        };
        if let Some(kind) = kind {
            self.i += 1;
            // `= ANY(expr)`
            if kind == CmpKind::Eq && self.kw("any") {
                self.expect_sym("(")?;
                let arr = self.expr()?;
                self.expect_sym(")")?;
                return Ok(SqlExpr::AnyEq(Box::new(lhs), Box::new(arr)));
            }
            let rhs = self.concat_expr()?;
            return Ok(SqlExpr::Cmp(Box::new(lhs), kind, Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn concat_expr(&mut self) -> Result<SqlExpr> {
        let mut e = self.atom()?;
        while let Some(Tok::Sym("||")) = self.peek() {
            self.i += 1;
            let r = self.atom()?;
            e = SqlExpr::Concat(Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<SqlExpr> {
        match self.peek().cloned() {
            Some(Tok::Num(n)) => {
                self.i += 1;
                Ok(SqlExpr::Lit(Value::Int(n)))
            }
            Some(Tok::Str(s)) => {
                self.i += 1;
                // Optional `::timestamptz` cast on string literals.
                if let Some(Tok::Sym("::")) = self.peek() {
                    self.i += 1;
                    let ty = self.ident()?;
                    if ty.eq_ignore_ascii_case("timestamptz") || ty.eq_ignore_ascii_case("timestamp") {
                        let ts = parse_ts(&s).ok_or_else(|| RelError::UnknownColumn {
                            table: "<sql>".into(),
                            column: format!("bad timestamp `{s}`"),
                        })?;
                        return Ok(SqlExpr::Lit(Value::Ts(ts)));
                    }
                    return Ok(SqlExpr::Cast(Box::new(SqlExpr::Lit(Value::Str(s))), ty));
                }
                Ok(SqlExpr::Lit(Value::Str(s)))
            }
            Some(Tok::Sym("(")) => {
                self.i += 1;
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Tok::Ident(id)) => {
                if id.eq_ignore_ascii_case("array") {
                    self.i += 1;
                    self.expect_sym("[")?;
                    let mut items = Vec::new();
                    if self.peek() != Some(&Tok::Sym("]")) {
                        loop {
                            items.push(self.expr()?);
                            if !self.sym(",") {
                                break;
                            }
                        }
                    }
                    self.expect_sym("]")?;
                    return Ok(SqlExpr::Array(items));
                }
                if id.eq_ignore_ascii_case("cast") {
                    self.i += 1;
                    self.expect_sym("(")?;
                    let e = self.expr()?;
                    self.expect_kw("as")?;
                    let ty = self.ident()?;
                    self.expect_sym(")")?;
                    return Ok(SqlExpr::Cast(Box::new(e), ty));
                }
                if id.eq_ignore_ascii_case("true") {
                    self.i += 1;
                    return Ok(SqlExpr::Lit(Value::Bool(true)));
                }
                if id.eq_ignore_ascii_case("false") {
                    self.i += 1;
                    return Ok(SqlExpr::Lit(Value::Bool(false)));
                }
                if id.eq_ignore_ascii_case("null") {
                    self.i += 1;
                    return Ok(SqlExpr::Lit(Value::Null));
                }
                self.i += 1;
                if self.sym(".") {
                    let col = self.ident()?;
                    Ok(SqlExpr::Col(id, col))
                } else {
                    Ok(SqlExpr::Col(String::new(), id))
                }
            }
            other => self.err(&format!("unexpected token {other:?}")),
        }
    }
}

/// Parse one or more `;`-separated statements.
pub fn parse_sql(sql: &str) -> Result<Vec<Stmt>> {
    let toks = lex(sql)?;
    let mut p = P { toks, i: 0 };
    let mut out = Vec::new();
    while p.peek().is_some() {
        if p.sym(";") {
            continue;
        }
        out.push(p.stmt()?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

/// Resolve a FROM item into rows projected onto a known column set,
/// honouring INHERITS subtree semantics and `__historical` views.
fn rows_of(db: &RelDb, table: &str) -> Result<(Vec<ColDef>, Vec<Vec<Value>>)> {
    if let Some(base) = table.strip_suffix("__historical") {
        let (cols, mut rows) = rows_of(db, base)?;
        let hist = format!("{base}__history");
        if db.has_table(&hist) {
            let (hcols, hrows) = rows_of(db, &hist)?;
            // Project history rows onto the base column set by name.
            let map: Vec<Option<usize>> = cols.iter().map(|c| hcols.iter().position(|h| h.name == c.name)).collect();
            for r in hrows {
                rows.push(map.iter().map(|m| m.map(|i| r[i].clone()).unwrap_or(Value::Null)).collect());
            }
        }
        return Ok((cols, rows));
    }
    let base = db.table(table)?;
    let cols = base.cols.clone();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for sub in db.subtree(table) {
        let t = db.table(&sub)?;
        if sub == table {
            rows.extend(t.rows.iter().cloned());
        } else {
            let map: Vec<Option<usize>> = cols.iter().map(|c| t.col_idx(&c.name).ok()).collect();
            for r in &t.rows {
                rows.push(map.iter().map(|m| m.map(|i| r[i].clone()).unwrap_or(Value::Null)).collect());
            }
        }
    }
    Ok((cols, rows))
}

/// A materialized FROM item: (alias, columns, rows).
type Source = (String, Vec<ColDef>, Vec<Vec<Value>>);

struct Scope<'a> {
    /// alias → (column defs, current row).
    bindings: HashMap<&'a str, (&'a [ColDef], &'a [Value])>,
}

fn eval_expr(e: &SqlExpr, scope: &Scope) -> Result<Value> {
    Ok(match e {
        SqlExpr::Lit(v) => v.clone(),
        SqlExpr::Col(alias, col) => {
            let lookup = |a: &str| -> Option<Value> {
                let (cols, row) = scope.bindings.get(a)?;
                let idx = cols.iter().position(|c| &c.name == col)?;
                Some(row[idx].clone())
            };
            if alias.is_empty() {
                // Search all bindings for an unambiguous column.
                let mut found = None;
                for a in scope.bindings.keys() {
                    if let Some(v) = lookup(a) {
                        if found.is_some() {
                            return Err(RelError::UnknownColumn { table: "<ambiguous>".into(), column: col.clone() });
                        }
                        found = Some(v);
                    }
                }
                found.ok_or_else(|| RelError::UnknownColumn { table: "<scope>".into(), column: col.clone() })?
            } else {
                lookup(alias).ok_or_else(|| RelError::UnknownColumn { table: alias.clone(), column: col.clone() })?
            }
        }
        SqlExpr::Array(items) => Value::List(items.iter().map(|i| eval_expr(i, scope)).collect::<Result<Vec<_>>>()?),
        SqlExpr::Concat(a, b) => {
            let (av, bv) = (eval_expr(a, scope)?, eval_expr(b, scope)?);
            match (av, bv) {
                (Value::List(mut x), Value::List(y)) => {
                    x.extend(y);
                    Value::List(x)
                }
                (Value::List(mut x), y) => {
                    x.push(y);
                    Value::List(x)
                }
                (x, Value::List(mut y)) => {
                    let mut out = vec![x];
                    out.append(&mut y);
                    Value::List(out)
                }
                (Value::Str(x), Value::Str(y)) => Value::Str(format!("{x}{y}")),
                (x, y) => Value::List(vec![x, y]),
            }
        }
        SqlExpr::Cast(inner, _ty) => eval_expr(inner, scope)?,
        SqlExpr::Cmp(a, kind, b) => {
            let (av, bv) = (eval_expr(a, scope)?, eval_expr(b, scope)?);
            let ord = av.query_cmp(&bv);
            let r = match (kind, ord) {
                (_, None) => false,
                (CmpKind::Eq, Some(o)) => o == std::cmp::Ordering::Equal,
                (CmpKind::Ne, Some(o)) => o != std::cmp::Ordering::Equal,
                (CmpKind::Lt, Some(o)) => o == std::cmp::Ordering::Less,
                (CmpKind::Le, Some(o)) => o != std::cmp::Ordering::Greater,
                (CmpKind::Gt, Some(o)) => o == std::cmp::Ordering::Greater,
                (CmpKind::Ge, Some(o)) => o != std::cmp::Ordering::Less,
            };
            Value::Bool(r)
        }
        SqlExpr::AnyEq(needle, hay) => {
            let n = eval_expr(needle, scope)?;
            match eval_expr(hay, scope)? {
                Value::List(items) => Value::Bool(items.contains(&n)),
                _ => Value::Bool(false),
            }
        }
        SqlExpr::PeriodContains(alias, at) => {
            let t = match eval_expr(at, scope)? {
                Value::Ts(t) => t,
                Value::Int(t) => t,
                _ => return Ok(Value::Bool(false)),
            };
            let get = |col: &str| -> Option<i64> {
                let (cols, row) = scope.bindings.get(alias.as_str())?;
                let idx = cols.iter().position(|c| c.name == col)?;
                match &row[idx] {
                    Value::Ts(x) => Some(*x),
                    Value::Int(x) => Some(*x),
                    _ => None,
                }
            };
            match (get("sys_from"), get("sys_to")) {
                (Some(a), Some(b)) => Value::Bool(a <= t && t < b),
                _ => Value::Bool(false),
            }
        }
        SqlExpr::And(a, b) => {
            Value::Bool(eval_expr(a, scope)? == Value::Bool(true) && eval_expr(b, scope)? == Value::Bool(true))
        }
        SqlExpr::Or(a, b) => {
            Value::Bool(eval_expr(a, scope)? == Value::Bool(true) || eval_expr(b, scope)? == Value::Bool(true))
        }
        SqlExpr::Not(a) => Value::Bool(eval_expr(a, scope)? != Value::Bool(true)),
    })
}

fn default_name(e: &SqlExpr, i: usize) -> String {
    match e {
        SqlExpr::Col(_, c) => c.clone(),
        _ => format!("col{i}"),
    }
}

/// Execute one SELECT; returns the result as an anonymous table.
pub fn execute_select(db: &RelDb, q: &Select) -> Result<Table> {
    // Materialize each FROM source.
    let sources: Vec<Source> =
        q.from.iter().map(|(t, a)| rows_of(db, t).map(|(c, r)| (a.clone(), c, r))).collect::<Result<Vec<_>>>()?;
    // Output columns.
    let mut out_cols: Vec<ColDef> = Vec::new();
    if q.star {
        for (_, cols, _) in &sources {
            out_cols.extend(cols.iter().cloned());
        }
    }
    for (i, (e, alias)) in q.items.iter().enumerate() {
        out_cols.push(ColDef::new(alias.clone().unwrap_or_else(|| default_name(e, i)), ColType::Jsonb));
    }
    let mut result = Table::new("<select>", out_cols);
    // Nested-loop cross product with filter (test-scale executor).
    fn recurse(
        q: &Select,
        sources: &[Source],
        level: usize,
        scope: &mut HashMap<String, (Vec<ColDef>, Vec<Value>)>,
        result: &mut Table,
    ) -> Result<()> {
        if level == sources.len() {
            let s = Scope {
                bindings: scope.iter().map(|(k, (c, r))| (k.as_str(), (c.as_slice(), r.as_slice()))).collect(),
            };
            if let Some(w) = &q.where_ {
                if eval_expr(w, &s)? != Value::Bool(true) {
                    return Ok(());
                }
            }
            let mut row = Vec::new();
            if q.star {
                for (alias, _, _) in sources {
                    let (_, r) = &scope[alias];
                    row.extend(r.iter().cloned());
                }
            }
            for (e, _) in &q.items {
                row.push(eval_expr(e, &s)?);
            }
            result.insert(row)?;
            return Ok(());
        }
        let (alias, cols, rows) = &sources[level];
        for r in rows {
            scope.insert(alias.clone(), (cols.clone(), r.clone()));
            recurse(q, sources, level + 1, scope, result)?;
        }
        scope.remove(alias);
        Ok(())
    }
    let mut scope = HashMap::new();
    recurse(q, &sources, 0, &mut scope, &mut result)?;
    Ok(result)
}

/// Execute one statement. SELECTs return their result table.
pub fn execute_stmt(db: &mut RelDb, stmt: &Stmt) -> Result<Option<Table>> {
    match stmt {
        Stmt::CreateTable { name, cols, inherits } => {
            db.create_table(Table::new(name.clone(), cols.clone()), inherits.as_deref())?;
            Ok(None)
        }
        Stmt::CreateTableAs { name, query, .. } => {
            let mut t = execute_select(db, query)?;
            t.name = name.clone();
            db.create_table(t, None)?;
            Ok(None)
        }
        Stmt::Select(q) => Ok(Some(execute_select(db, q)?)),
        Stmt::Insert { table, rows } => {
            let empty = Scope { bindings: HashMap::new() };
            let values: Vec<Vec<Value>> = rows
                .iter()
                .map(|r| r.iter().map(|e| eval_expr(e, &empty)).collect::<Result<Vec<_>>>())
                .collect::<Result<Vec<_>>>()?;
            let t = db.table_mut(table)?;
            for v in values {
                t.insert(v)?;
            }
            Ok(None)
        }
        Stmt::InsertSelect { table, query } => {
            let rows = execute_select(db, query)?.rows;
            let t = db.table_mut(table)?;
            for v in rows {
                t.insert(v)?;
            }
            Ok(None)
        }
    }
}

/// Parse and execute a script; returns the last SELECT's result, if any.
pub fn execute_sql(db: &mut RelDb, sql: &str) -> Result<Option<Table>> {
    let stmts = parse_sql(sql)?;
    let mut last = None;
    for s in &stmts {
        if let Some(t) = execute_stmt(db, s)? {
            last = Some(t);
        }
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_db() -> RelDb {
        let mut db = RelDb::new();
        execute_sql(
            &mut db,
            "CREATE TABLE node(id_ bigint, sys_from timestamptz, sys_to timestamptz);
             CREATE TABLE vm(id_ bigint, vm_id bigint, status text, sys_from timestamptz, sys_to timestamptz) INHERITS(node);
             CREATE TABLE vmware(id_ bigint, vm_id bigint, status text, sys_from timestamptz, sys_to timestamptz) INHERITS(vm);
             CREATE TABLE hostedon(id_ bigint, source_id_ bigint, target_id_ bigint, sys_from timestamptz, sys_to timestamptz);
             INSERT INTO vm VALUES (1, 55, 'Green', 0, 9000000000000000);
             INSERT INTO vmware VALUES (2, 66, 'Red', 0, 9000000000000000);
             INSERT INTO hostedon VALUES (10, 1, 2, 0, 9000000000000000);",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_from_parent_scans_subtree() {
        let mut db = fresh_db();
        let t = execute_sql(&mut db, "SELECT id_ FROM vm").unwrap().unwrap();
        assert_eq!(t.rows.len(), 2); // vm + vmware rows
        let t = execute_sql(&mut db, "SELECT id_ FROM vmware").unwrap().unwrap();
        assert_eq!(t.rows.len(), 1);
        let t = execute_sql(&mut db, "SELECT id_ FROM node").unwrap().unwrap();
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn where_and_projection() {
        let mut db = fresh_db();
        let t = execute_sql(&mut db, "SELECT V.id_, V.status FROM vm V WHERE V.vm_id = 55").unwrap().unwrap();
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0], vec![Value::Int(1), Value::Str("Green".into())]);
        // Bare column names resolve when unambiguous.
        let t = execute_sql(&mut db, "SELECT status FROM vm WHERE vm_id = 66").unwrap().unwrap();
        assert_eq!(t.rows[0][0], Value::Str("Red".into()));
    }

    #[test]
    fn the_papers_extend_statement_executes() {
        // Literally the §5.2 shape, including array concat, ANY cycle
        // predicates, and the uid_list/concept_list/curr_uid columns.
        let mut db = fresh_db();
        execute_sql(
            &mut db,
            "create TEMP table tmp_select_node as (
               select ARRAY[N.id_] as uid_list,
                      ARRAY[cast('VM' as text)] as concept_list,
                      N.id_ as curr_uid
               from vm N where N.vm_id = 55
             );",
        )
        .unwrap();
        let out = execute_sql(
            &mut db,
            "create TEMP table tmp_extend_node_1 as (
               select T.uid_list || ARRAY[H.id_] as uid_list,
                      T.concept_list || ARRAY[cast('HostedOn' as text)] as concept_list,
                      H.target_id_ as curr_uid
               from hostedon H, tmp_select_node T
               where H.source_id_ = T.curr_uid AND NOT H.id_ = ANY(T.uid_list)
             );
             SELECT uid_list, curr_uid FROM tmp_extend_node_1",
        )
        .unwrap()
        .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::List(vec![Value::Int(1), Value::Int(10)]));
        assert_eq!(out.rows[0][1], Value::Int(2));
        // The cycle predicate actually prunes: a self-referencing frontier
        // row would be rejected.
        let t = execute_sql(
            &mut db,
            "SELECT H.id_ FROM hostedon H, tmp_select_node T
             WHERE H.source_id_ = T.curr_uid AND NOT H.source_id_ = ANY(T.uid_list)",
        )
        .unwrap()
        .unwrap();
        assert_eq!(t.rows.len(), 0); // source 1 IS in uid_list → pruned
    }

    #[test]
    fn temporal_predicates() {
        let mut db = fresh_db();
        execute_sql(
            &mut db,
            "CREATE TABLE vm__history(id_ bigint, vm_id bigint, status text, sys_from timestamptz, sys_to timestamptz);
             INSERT INTO vm__history VALUES (1, 55, 'Amber', '1970-01-01'::timestamptz, '2017-02-15 09:00:00'::timestamptz);",
        )
        .unwrap();
        // __historical = current ∪ history.
        let t = execute_sql(&mut db, "SELECT id_ FROM vm__historical").unwrap().unwrap();
        assert_eq!(t.rows.len(), 3);
        // sys_period @> containment resolves against sys_from/sys_to.
        let t = execute_sql(
            &mut db,
            "SELECT H.status FROM vm__historical H WHERE H.sys_period @> '2017-02-15 08:00:00'::timestamptz AND H.vm_id = 55",
        )
        .unwrap()
        .unwrap();
        assert_eq!(t.rows.len(), 2); // Amber (history) + Green (current, open)
    }

    #[test]
    fn parse_errors_are_reported() {
        let mut db = fresh_db();
        assert!(execute_sql(&mut db, "SELEC oops").is_err());
        assert!(execute_sql(&mut db, "SELECT FROM vm").is_err());
        assert!(execute_sql(&mut db, "SELECT x FROM no_such_table").is_err());
        assert!(execute_sql(&mut db, "INSERT INTO vm VALUES (1)").is_err()); // arity
    }

    #[test]
    fn comments_and_booleans() {
        let mut db = fresh_db();
        let t = execute_sql(&mut db, "-- leading comment\nSELECT vm_id FROM vm WHERE true AND NOT false -- trailing")
            .unwrap()
            .unwrap();
        assert_eq!(t.rows.len(), 2);
    }
}
