//! The relational database: named tables, `INHERITS` hierarchy, and
//! historical views.
//!
//! Mirrors the paper's Postgres layout (§5.2/§5.3): one table per node and
//! edge class created with `INHERITS`, so that selecting from `VM` sees all
//! `VMWare`/`OnMetal` rows; plus, per class, a `__history` companion (the
//! `temporal_tables` pattern) whose union with the current table is the
//! `__historical` view.

use std::collections::HashMap;

use crate::error::{RelError, Result};
use crate::table::Table;

/// The relational store.
#[derive(Debug, Default)]
pub struct RelDb {
    tables: HashMap<String, Table>,
    /// child table → parent table (INHERITS).
    inherits: HashMap<String, String>,
    /// parent table → children (derived from `inherits`).
    children: HashMap<String, Vec<String>>,
}

impl RelDb {
    pub fn new() -> RelDb {
        RelDb::default()
    }

    /// Create a permanent table, optionally inheriting from a parent.
    pub fn create_table(&mut self, table: Table, inherits: Option<&str>) -> Result<()> {
        if self.tables.contains_key(&table.name) {
            return Err(RelError::DuplicateTable(table.name.clone()));
        }
        if let Some(p) = inherits {
            if !self.tables.contains_key(p) {
                return Err(RelError::UnknownTable(p.to_string()));
            }
            self.inherits.insert(table.name.clone(), p.to_string());
            self.children.entry(p.to_string()).or_default().push(table.name.clone());
        }
        self.tables.insert(table.name.clone(), table);
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables.get_mut(name).ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// The inheritance subtree of a table: itself plus all transitive
    /// children — what a Postgres `SELECT FROM parent` actually reads.
    pub fn subtree(&self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut stack = vec![name.to_string()];
        while let Some(t) = stack.pop() {
            if let Some(ch) = self.children.get(&t) {
                stack.extend(ch.iter().cloned());
            }
            out.push(t);
        }
        out
    }

    /// Parent of a table in the INHERITS hierarchy.
    pub fn parent(&self, name: &str) -> Option<&str> {
        self.inherits.get(name).map(|s| s.as_str())
    }

    /// Total row count over a subtree (statistics for anchor costing).
    pub fn subtree_rows(&self, name: &str) -> usize {
        self.subtree(name).iter().filter_map(|t| self.tables.get(t)).map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColDef, ColType};
    use nepal_schema::Value;

    fn cols() -> Vec<ColDef> {
        vec![ColDef::new("id_", ColType::BigInt)]
    }

    #[test]
    fn inherits_subtree_resolution() {
        let mut db = RelDb::new();
        db.create_table(Table::new("node", cols()), None).unwrap();
        db.create_table(Table::new("vm", cols()), Some("node")).unwrap();
        db.create_table(Table::new("vmware", cols()), Some("vm")).unwrap();
        db.create_table(Table::new("host", cols()), Some("node")).unwrap();
        let mut sub = db.subtree("vm");
        sub.sort();
        assert_eq!(sub, vec!["vm", "vmware"]);
        assert_eq!(db.subtree("node").len(), 4);
        assert_eq!(db.parent("vmware"), Some("vm"));
    }

    #[test]
    fn subtree_rows_counts_children() {
        let mut db = RelDb::new();
        db.create_table(Table::new("vm", cols()), None).unwrap();
        db.create_table(Table::new("vmware", cols()), Some("vm")).unwrap();
        db.table_mut("vmware").unwrap().insert(vec![Value::Int(1)]).unwrap();
        db.table_mut("vm").unwrap().insert(vec![Value::Int(2)]).unwrap();
        assert_eq!(db.subtree_rows("vm"), 2);
    }

    #[test]
    fn duplicate_and_missing_tables_error() {
        let mut db = RelDb::new();
        db.create_table(Table::new("x", cols()), None).unwrap();
        assert!(matches!(db.create_table(Table::new("x", cols()), None), Err(RelError::DuplicateTable(_))));
        assert!(matches!(db.create_table(Table::new("y", cols()), Some("nope")), Err(RelError::UnknownTable(_))));
        assert!(matches!(db.table("zzz"), Err(RelError::UnknownTable(_))));
    }
}
