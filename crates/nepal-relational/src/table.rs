//! In-memory relational tables.
//!
//! A deliberately small but real relational substrate: typed columns, row
//! storage, predicate scans, and hash indexes for the bulk equi-joins that
//! implement the paper's `Extend` operators (§5.2, "implemented using bulk
//! join operators, using techniques similar to … Fan, Raj, and Patel").

use std::collections::HashMap;

use nepal_schema::Value;

use crate::error::{RelError, Result};

/// Declared column type (used for display/DDL generation; the engine is
/// dynamically typed at the cell level like the rest of Nepal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColType {
    BigInt,
    Text,
    Bool,
    Double,
    Timestamp,
    /// Postgres-style array column (e.g. `uid_list bigint[]`).
    Array(Box<ColType>),
    /// Opaque composite payload (structured data fields).
    Jsonb,
}

impl std::fmt::Display for ColType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColType::BigInt => write!(f, "bigint"),
            ColType::Text => write!(f, "text"),
            ColType::Bool => write!(f, "boolean"),
            ColType::Double => write!(f, "double precision"),
            ColType::Timestamp => write!(f, "timestamptz"),
            ColType::Array(t) => write!(f, "{t}[]"),
            ColType::Jsonb => write!(f, "jsonb"),
        }
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColDef {
    pub name: String,
    pub ty: ColType,
}

impl ColDef {
    pub fn new(name: impl Into<String>, ty: ColType) -> ColDef {
        ColDef { name: name.into(), ty }
    }
}

/// An in-memory table.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub cols: Vec<ColDef>,
    pub rows: Vec<Vec<Value>>,
    /// Lazily built hash indexes: column index → value → row ids.
    indexes: HashMap<usize, HashMap<Value, Vec<u32>>>,
}

impl Table {
    pub fn new(name: impl Into<String>, cols: Vec<ColDef>) -> Table {
        Table { name: name.into(), cols, rows: Vec::new(), indexes: HashMap::new() }
    }

    pub fn col_idx(&self, name: &str) -> Result<usize> {
        self.cols
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| RelError::UnknownColumn { table: self.name.clone(), column: name.to_string() })
    }

    pub fn insert(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.cols.len() {
            return Err(RelError::Arity { table: self.name.clone(), expected: self.cols.len(), got: row.len() });
        }
        // Keep any existing index in sync.
        let rid = self.rows.len() as u32;
        for (col, idx) in self.indexes.iter_mut() {
            idx.entry(row[*col].clone()).or_default().push(rid);
        }
        self.rows.push(row);
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Build (or reuse) a hash index on a column and look `key` up in it:
    /// the ids of the matching rows, beside the rows they index (both
    /// borrowed, so a probe copies nothing).
    pub fn probe(&mut self, col: usize, key: &Value) -> (&[u32], &[Vec<Value>]) {
        let rows = &self.rows;
        let idx = self.indexes.entry(col).or_insert_with(|| {
            let mut idx: HashMap<Value, Vec<u32>> = HashMap::new();
            for (rid, row) in rows.iter().enumerate() {
                idx.entry(row[col].clone()).or_default().push(rid as u32);
            }
            idx
        });
        (idx.get(key).map_or(&[], Vec::as_slice), rows)
    }

    /// `CREATE TABLE` DDL for this table (Postgres dialect).
    pub fn ddl(&self, inherits: Option<&str>) -> String {
        let cols: Vec<String> = self.cols.iter().map(|c| format!("{} {}", c.name, c.ty)).collect();
        match inherits {
            Some(p) => format!("CREATE TABLE {}({}) INHERITS({});", self.name, cols.join(", "), p),
            None => format!("CREATE TABLE {}({});", self.name, cols.join(", ")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        let mut t = Table::new("vm", vec![ColDef::new("id_", ColType::BigInt), ColDef::new("status", ColType::Text)]);
        t.insert(vec![Value::Int(1), Value::Str("Green".into())]).unwrap();
        t.insert(vec![Value::Int(2), Value::Str("Red".into())]).unwrap();
        t.insert(vec![Value::Int(3), Value::Str("Green".into())]).unwrap();
        t
    }

    #[test]
    fn probe_uses_hash_index() {
        let mut t = t();
        assert_eq!(t.probe(1, &Value::Str("Green".into())).0, [0, 2]);
        let (rids, rows) = t.probe(0, &Value::Int(2));
        assert_eq!(rids, [1]);
        assert_eq!(rows[1][1], Value::Str("Red".into()));
        assert!(t.probe(0, &Value::Int(99)).0.is_empty());
    }

    #[test]
    fn index_stays_in_sync_with_inserts() {
        let mut t = t();
        let _ = t.probe(1, &Value::Str("Green".into()));
        t.insert(vec![Value::Int(4), Value::Str("Green".into())]).unwrap();
        assert_eq!(t.probe(1, &Value::Str("Green".into())).0, [0, 2, 3]);
    }

    #[test]
    fn arity_checked() {
        let mut t = t();
        assert!(matches!(t.insert(vec![Value::Int(9)]), Err(RelError::Arity { .. })));
    }

    #[test]
    fn ddl_renders_inherits() {
        let t = Table::new("vmware", vec![ColDef::new("id_", ColType::BigInt)]);
        assert_eq!(t.ddl(Some("vm")), "CREATE TABLE vmware(id_ bigint) INHERITS(vm);");
        let arr = Table::new("tmp", vec![ColDef::new("uid_list", ColType::Array(Box::new(ColType::BigInt)))]);
        assert!(arr.ddl(None).contains("uid_list bigint[]"));
    }
}
