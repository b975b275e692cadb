//! # Nepal — a path-first temporal graph database for virtualized network
//! # inventory
//!
//! A from-scratch Rust reproduction of *"A Graph Database for a
//! Virtualized Network Infrastructure"* (SIGMOD 2018): the **Nepal**
//! (NEtwork PAth query Language) system built at AT&T Labs for the
//! ECOMP/ONAP network-automation platform.
//!
//! This facade crate re-exports the full stack:
//!
//! | crate | contents |
//! |---|---|
//! | [`schema`] | strongly-typed node/edge class hierarchies, TOSCA-style DSL |
//! | [`graph`] | native transaction-time temporal graph store |
//! | [`rpe`] | Regular Pathway Expressions: parser, anchors, NFA, evaluator |
//! | [`relational`] | the Postgres-style backend substrate (SQL-emitting) |
//! | [`gremlin`] | property graph + traversal machine + wire protocol |
//! | [`core`] | the query language, engine, backends, federation |
//! | [`obs`] | metrics registry, query profiles, span tracing |
//! | [`workload`] | evaluation topology & churn generators |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use nepal::core::engine_over;
//! use nepal::graph::TemporalGraph;
//! use nepal::schema::dsl::parse_schema;
//! use nepal::schema::Value;
//!
//! let schema = Arc::new(parse_schema(r#"
//!     node VM { vm_id: int unique }
//!     node Host { host_id: int unique }
//!     edge HostedOn { }
//!     allow HostedOn (VM -> Host)
//! "#).unwrap());
//! let mut g = TemporalGraph::new(schema.clone());
//! let vm = g.insert_node(schema.class_by_name("VM").unwrap(), vec![Value::Int(55)], 0).unwrap();
//! let host = g.insert_node(schema.class_by_name("Host").unwrap(), vec![Value::Int(7)], 0).unwrap();
//! g.insert_edge(schema.class_by_name("HostedOn").unwrap(), vm, host, vec![], 0).unwrap();
//!
//! let mut engine = engine_over(Arc::new(g));
//! let result = engine
//!     .query("Retrieve P From PATHS P Where P MATCHES VM(vm_id=55)->HostedOn()->Host()")
//!     .unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

pub use nepal_core as core;
pub use nepal_graph as graph;
pub use nepal_gremlin as gremlin;
pub use nepal_obs as obs;
pub use nepal_relational as relational;
pub use nepal_rpe as rpe;
pub use nepal_schema as schema;
pub use nepal_workload as workload;
