//! # nepal-relational — the relational backend substrate
//!
//! An in-memory reproduction of the paper's PostgreSQL backend (§5.2/§5.3):
//!
//! - [`table`] — typed tables with hash-join probes and array columns.
//! - [`db`] — the database: `INHERITS` hierarchies (class subtree scans)
//!   and `__history` companions.
//! - [`load`] — table-per-class DDL generation and graph loading.
//! - [`exec`] — set-at-a-time RPE evaluation: `Select` → chained `Extend`
//!   bulk joins with `uid_list` cycle predicates → `Union`.
//! - [`script`] — the equivalent SQL script, written from the plan alone.
//!
//! The substrate exists so the repository is self-contained; the script is
//! what Nepal would send to a real Postgres.

pub mod db;
pub mod error;
pub mod exec;
pub mod load;
mod script;
pub mod sql;
pub mod table;

pub use db::RelDb;
pub use error::{RelError, Result};
pub use exec::{element_fields, evaluate_relational, RelResult};
pub use load::{create_schema, db_from_graph, field_offset, history_name, load_graph, table_name};
pub use script::script;
pub use sql::{execute_sql, parse_sql, Select, SqlExpr, Stmt};
pub use table::{ColDef, ColType, Table};
