//! Loading a temporal graph into the relational layout.
//!
//! One table per node/edge class (including the `node` and `edge` roots),
//! created with `INHERITS` so that scanning a concept scans its whole
//! subtree; per class a `__history` companion holding closed versions (the
//! `temporal_tables` pattern of §5.3); and a `uids` table asserting global
//! uid uniqueness ("as well as a table to ensure that unique identifiers
//! are indeed unique", §5.2).

use nepal_graph::{TemporalGraph, FOREVER};
use nepal_schema::{ClassId, ClassKind, Schema, Value, EDGE, NODE};

use crate::db::RelDb;
use crate::error::Result;
use crate::table::{ColDef, ColType, Table};

/// Relational name of a class table.
pub fn table_name(schema: &Schema, class: ClassId) -> String {
    schema.class(class).name.to_lowercase()
}

/// History companion of a class table.
pub fn history_name(table: &str) -> String {
    format!("{table}__history")
}

fn col_type(ft: &nepal_schema::FieldType) -> ColType {
    use nepal_schema::FieldType as F;
    match ft {
        F::Bool => ColType::Bool,
        F::Int => ColType::BigInt,
        F::Float => ColType::Double,
        F::Str => ColType::Text,
        F::Ts => ColType::Timestamp,
        F::Ip => ColType::Text,
        _ => ColType::Jsonb,
    }
}

fn class_cols(schema: &Schema, class: ClassId) -> Vec<ColDef> {
    let mut cols = vec![ColDef::new("id_", ColType::BigInt)];
    if schema.kind(class) == ClassKind::Edge {
        cols.push(ColDef::new("source_id_", ColType::BigInt));
        cols.push(ColDef::new("target_id_", ColType::BigInt));
    }
    for f in schema.all_fields(class) {
        cols.push(ColDef::new(f.name.clone(), col_type(&f.ty)));
    }
    cols.push(ColDef::new("sys_from", ColType::Timestamp));
    cols.push(ColDef::new("sys_to", ColType::Timestamp));
    cols
}

/// Number of leading non-field columns in a class table.
pub fn field_offset(is_node: bool) -> usize {
    if is_node {
        1
    } else {
        3
    }
}

/// Create the full relational schema (DDL phase) for a Nepal schema.
/// Returns the DDL statements that an actual Postgres deployment would run.
pub fn create_schema(db: &mut RelDb, schema: &Schema) -> Result<Vec<String>> {
    let mut ddl = Vec::new();
    let uids = Table::new("uids", vec![ColDef::new("id_", ColType::BigInt)]);
    ddl.push(uids.ddl(None));
    db.create_table(uids, None)?;
    // Classes are registered parents-first in the schema, so iterating in
    // id order creates parents before children.
    for kind_root in [NODE, EDGE] {
        for class in schema.descendants(kind_root) {
            let name = table_name(schema, class);
            let parent =
                schema.class(class).parent.filter(|p| *p != nepal_schema::ENTITY).map(|p| table_name(schema, p));
            let t = Table::new(name.clone(), class_cols(schema, class));
            ddl.push(t.ddl(parent.as_deref()));
            db.create_table(t, parent.as_deref())?;
            let h = Table::new(history_name(&name), class_cols(schema, class));
            ddl.push(h.ddl(None));
            db.create_table(h, None)?;
        }
    }
    Ok(ddl)
}

/// Load every version of every entity from the graph: open versions into
/// the class table, closed versions into its `__history` companion.
pub fn load_graph(db: &mut RelDb, g: &TemporalGraph) -> Result<()> {
    let schema = g.schema().clone();
    for kind_root in [NODE, EDGE] {
        let is_node = kind_root == NODE;
        for class in schema.descendants(kind_root) {
            let name = table_name(&schema, class);
            let hist = history_name(&name);
            for &uid in g.extent_exact(class) {
                db.table_mut("uids")?.insert(vec![Value::Int(uid.0 as i64)])?;
                let endpoints = if is_node {
                    None
                } else {
                    let e = g.edge(uid).expect("edge extent");
                    Some((e.src, e.dst))
                };
                for (i, v) in g.versions(uid).iter().enumerate() {
                    let mut row = vec![Value::Int(uid.0 as i64)];
                    if let Some((s, d)) = endpoints {
                        row.push(Value::Int(s.0 as i64));
                        row.push(Value::Int(d.0 as i64));
                    }
                    row.extend(g.fields_of(uid, i).iter().cloned());
                    row.push(Value::Ts(v.span.from));
                    row.push(Value::Ts(v.span.to));
                    let target = if v.span.to == FOREVER { &name } else { &hist };
                    db.table_mut(target)?.insert(row)?;
                }
            }
        }
    }
    Ok(())
}

/// Convenience: create the schema and load the graph into a fresh [`RelDb`].
pub fn db_from_graph(g: &TemporalGraph) -> Result<RelDb> {
    let mut db = RelDb::new();
    create_schema(&mut db, g.schema())?;
    load_graph(&mut db, g)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nepal_schema::dsl::parse_schema;
    use std::sync::Arc;

    fn graph() -> TemporalGraph {
        let s = Arc::new(
            parse_schema(
                r#"
                node VM { vm_id: int unique, status: str }
                node VMWare : VM { }
                node Host { host_id: int unique }
                edge HostedOn { }
                allow HostedOn (VM -> Host)
                "#,
            )
            .unwrap(),
        );
        let mut g = TemporalGraph::new(s.clone());
        let c = |n: &str| s.class_by_name(n).unwrap();
        let vm = g.insert_node(c("VMWare"), vec![Value::Int(1), Value::Str("Green".into())], 100).unwrap();
        let h = g.insert_node(c("Host"), vec![Value::Int(7)], 100).unwrap();
        g.insert_edge(c("HostedOn"), vm, h, vec![], 100).unwrap();
        g.update(vm, &[(1, Value::Str("Red".into()))], 200).unwrap();
        g
    }

    #[test]
    fn ddl_uses_inherits_like_the_paper() {
        let g = graph();
        let mut db = RelDb::new();
        let ddl = create_schema(&mut db, g.schema()).unwrap();
        let vmware = ddl.iter().find(|d| d.starts_with("CREATE TABLE vmware")).unwrap();
        assert!(vmware.contains("INHERITS(vm)"), "{vmware}");
        let vm = ddl.iter().find(|d| d.starts_with("CREATE TABLE vm(")).unwrap();
        assert!(vm.contains("INHERITS(node)"), "{vm}");
    }

    #[test]
    fn subtree_select_sees_subclass_rows() {
        let g = graph();
        let db = db_from_graph(&g).unwrap();
        // Paper: "Every VMWare node is also a VM node, and also a Node node."
        assert_eq!(db.subtree_rows("vmware"), 1);
        assert_eq!(db.subtree_rows("vm"), 1);
        assert!(db.subtree_rows("node") >= 2);
        // The closed Green version went to history.
        assert_eq!(db.table("vmware__history").unwrap().len(), 1);
        assert_eq!(db.table("vmware").unwrap().len(), 1);
    }

    #[test]
    fn edge_rows_carry_endpoints() {
        let g = graph();
        let db = db_from_graph(&g).unwrap();
        let t = db.table("hostedon").unwrap();
        assert_eq!(t.len(), 1);
        let row = &t.rows[0];
        let src = t.col_idx("source_id_").unwrap();
        let tgt = t.col_idx("target_id_").unwrap();
        assert_eq!(row[src], Value::Int(0));
        assert_eq!(row[tgt], Value::Int(1));
    }

    #[test]
    fn uids_table_has_every_entity() {
        let g = graph();
        let db = db_from_graph(&g).unwrap();
        assert_eq!(db.table("uids").unwrap().len(), g.num_entities());
    }
}
