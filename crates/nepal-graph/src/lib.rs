//! # nepal-graph — the native temporal graph store
//!
//! Transaction-time temporal graph storage for Nepal (§4/§5.3 of the
//! paper): versioned, class-partitioned node/edge storage with adjacency
//! and unique indexes, time-filtered views, an interval algebra for maximal
//! assertion ranges, and the update-by-snapshot ingestion service.
//!
//! - [`store::TemporalGraph`] — the store and its mutation API.
//! - [`view::GraphView`] / [`view::TimeFilter`] — current / as-of / range
//!   scoped reads.
//! - [`interval::IntervalSet`] — the temporal algebra behind time-range
//!   query results.
//! - [`snapshot::SnapshotLoader`] — diff-based ingestion of periodic full
//!   snapshots.
//! - [`journal`] — lossless save/load of the whole temporal graph.
//!
//! ## Example: time travel
//!
//! ```
//! use std::sync::Arc;
//! use nepal_graph::TemporalGraph;
//! use nepal_schema::dsl::parse_schema;
//! use nepal_schema::Value;
//!
//! let schema = Arc::new(parse_schema("node VM { status: str }").unwrap());
//! let vm_class = schema.class_by_name("VM").unwrap();
//! let mut g = TemporalGraph::new(schema);
//! let vm = g.insert_node(vm_class, vec![Value::Str("Green".into())], 100).unwrap();
//! g.update(vm, &[(0, Value::Str("Red".into()))], 200).unwrap();
//!
//! // The current snapshot sees Red; time travel to 150 sees Green.
//! assert_eq!(g.current_fields(vm).unwrap()[0], Value::Str("Red".into()));
//! assert_eq!(g.fields_at(vm, 150).unwrap()[0], Value::Str("Green".into()));
//! ```

pub mod binsnap;
pub mod error;
pub mod fxmap;
pub mod interval;
pub mod journal;
pub mod metrics;
pub mod snapshot;
pub mod store;
pub mod view;

pub use binsnap::{
    binary_snapshot_bytes, decode_stats, load_binary, load_binary_from_file, load_binary_from_file_lenient,
    load_binary_lenient, save_binary, save_binary_to_file, schema_fingerprint, TornSnap, BIN_MAGIC,
};
pub use error::{GraphError, Result};
pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet};
pub use interval::{Interval, IntervalSet, FOREVER};
pub use journal::{
    journal_bytes, journal_lines, load_from_file, load_from_file_lenient, load_graph as load_journal,
    load_graph_lenient, save_graph as save_journal, save_to_file, TornTail,
};
pub use metrics::{resource_summary, StoreGauges};
pub use snapshot::{SnapshotEdge, SnapshotLoader, SnapshotNode, SnapshotStats};
pub use store::{
    materialize_version, value_heap_bytes, AdjEntry, AdjList, ClassAccounting, ClassHeat, ClassHeatSnapshot,
    ClassMemory, EdgeEntry, ElemWord, HeatTally, MemoryReport, NodeEntry, StoreCounts, TemporalGraph, Uid,
    UniqueIndexRow, Version, VersionData, KEYFRAME_INTERVAL,
};
pub use view::{AccessCost, GraphView, MatchTime, TimeFilter};
