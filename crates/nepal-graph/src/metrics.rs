//! Store-level gauges: the temporal store's size, churn, and estimated
//! memory footprint, exported through a [`MetricsRegistry`] so the
//! telemetry endpoint can serve them alongside the engine's query metrics.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use nepal_obs::{Gauge, MetricsRegistry, ResourceClass, ResourceSummary};
use nepal_schema::ClassId;

use crate::journal::journal_lines;
use nepal_schema::ClassKind;

use crate::store::{MemoryReport, TemporalGraph};

/// Gauges describing one [`TemporalGraph`]. Register once, then call
/// [`StoreGauges::refresh`] whenever current values are wanted (e.g. from a
/// telemetry refresher hook before rendering `/metrics`).
///
/// [`refresh`](StoreGauges::refresh) is the cheap path — O(classes) reads
/// of the incremental accounting, safe to run per scrape or even per
/// query. [`refresh_deep`](StoreGauges::refresh_deep) additionally walks
/// the store for the version-chain length distribution and the journal /
/// unique-index sizes; run it on scrape, not per query.
pub struct StoreGauges {
    metrics: Arc<MetricsRegistry>,
    nodes: Arc<Gauge>,
    edges: Arc<Gauge>,
    node_versions: Arc<Gauge>,
    edge_versions: Arc<Gauge>,
    alive_nodes: Arc<Gauge>,
    alive_edges: Arc<Gauge>,
    journal_lines: Arc<Gauge>,
    total_bytes: Arc<Gauge>,
    entity_bytes: Arc<Gauge>,
    adjacency_bytes: Arc<Gauge>,
    unique_index_bytes: Arc<Gauge>,
    journal_bytes: Arc<Gauge>,
    binsnap_full: Arc<Gauge>,
    binsnap_delta: Arc<Gauge>,
    /// Labeled-series handles resolved once per class: registry lookups
    /// allocate and take the registry lock, so the per-query-safe
    /// [`refresh`](Self::refresh) path must not repeat them.
    per_class: Mutex<HashMap<ClassId, ClassSeries>>,
}

struct ClassSeries {
    bytes: Arc<Gauge>,
    alive_ratio: Arc<Gauge>,
    heat_scans: Arc<Gauge>,
    heat_scan_rows: Arc<Gauge>,
    heat_seeks: Arc<Gauge>,
    heat_materializations: Arc<Gauge>,
    heat_keyframe_hits: Arc<Gauge>,
    heat_bytes_read: Arc<Gauge>,
}

const BYTES_HELP: &str = "Estimated heap bytes per class (version chains + property payloads)";
const ALIVE_HELP: &str = "Currently-asserted entities per thousand ever created, per class";
const CHAIN_HELP: &str = "Entities whose version chain is at most `le` versions long";
const HEAT_SCANS_HELP: &str = "Extent scans over this class since process start";
const HEAT_SCAN_ROWS_HELP: &str = "Entity uids yielded by extent scans of this class";
const HEAT_SEEKS_HELP: &str = "Unique-index point lookups against this class";
const HEAT_MAT_HELP: &str = "Historical versions materialized by replaying delta chains, per class";
const HEAT_KF_HELP: &str = "Version reads satisfied directly by a keyframe (no delta replay), per class";
const HEAT_BYTES_HELP: &str = "Estimated property-value bytes read from this class";

impl StoreGauges {
    /// Create the gauge family inside `metrics`. Keeps a handle on the
    /// registry: per-class series are created lazily as classes first
    /// appear in the store.
    pub fn register(metrics: &Arc<MetricsRegistry>) -> StoreGauges {
        StoreGauges {
            metrics: metrics.clone(),
            nodes: metrics.gauge("nepal_store_nodes", "Node uids ever created"),
            edges: metrics.gauge("nepal_store_edges", "Edge uids ever created"),
            node_versions: metrics.gauge("nepal_store_node_versions", "Stored node versions, current + history"),
            edge_versions: metrics.gauge("nepal_store_edge_versions", "Stored edge versions, current + history"),
            alive_nodes: metrics.gauge("nepal_store_alive_nodes", "Nodes currently asserted"),
            alive_edges: metrics.gauge("nepal_store_alive_edges", "Edges currently asserted"),
            journal_lines: metrics.gauge("nepal_store_journal_lines", "Lines a full journal save would emit"),
            total_bytes: metrics
                .gauge("nepal_store_total_bytes", "Estimated store heap bytes (entities + adjacency + indexes)"),
            entity_bytes: metrics
                .gauge("nepal_store_entity_bytes", "Estimated heap bytes across all version chains and payloads"),
            adjacency_bytes: metrics.gauge("nepal_store_adjacency_bytes", "Estimated adjacency-structure heap bytes"),
            unique_index_bytes: metrics.gauge("nepal_store_unique_index_bytes", "Estimated unique-index heap bytes"),
            journal_bytes: metrics.gauge("nepal_store_journal_bytes", "Bytes a full journal save would write"),
            binsnap_full: metrics
                .gauge("nepal_binsnap_decoded_full", "Full (keyframe) versions decoded from binary snapshots"),
            binsnap_delta: metrics.gauge("nepal_binsnap_decoded_delta", "Delta versions decoded from binary snapshots"),
            per_class: Mutex::new(HashMap::new()),
        }
    }

    /// Update the cheap store gauges from the incremental accounting:
    /// totals, per-class `nepal_store_bytes{class=...}`, and per-class
    /// alive ratios. O(classes) — no walk over entities.
    pub fn refresh(&self, g: &TemporalGraph) {
        let c = g.counts();
        self.nodes.set(c.nodes as i64);
        self.edges.set(c.edges as i64);
        self.node_versions.set(c.node_versions as i64);
        self.edge_versions.set(c.edge_versions as i64);
        self.alive_nodes.set(c.alive_nodes as i64);
        self.alive_edges.set(c.alive_edges as i64);
        self.journal_lines.set(journal_lines(g) as i64);

        let mut entity_bytes = 0u64;
        let mut series = self.per_class.lock().unwrap_or_else(|e| e.into_inner());
        for row in g.class_memory() {
            entity_bytes += row.bytes;
            let s = series.entry(row.class).or_insert_with(|| {
                let labels = [("class", row.name.as_str())];
                ClassSeries {
                    bytes: self.metrics.gauge_labeled("nepal_store_bytes", &labels, BYTES_HELP),
                    alive_ratio: self.metrics.gauge_labeled("nepal_store_alive_ratio_x1000", &labels, ALIVE_HELP),
                    heat_scans: self.metrics.gauge_labeled("nepal_heat_scans", &labels, HEAT_SCANS_HELP),
                    heat_scan_rows: self.metrics.gauge_labeled("nepal_heat_scan_rows", &labels, HEAT_SCAN_ROWS_HELP),
                    heat_seeks: self.metrics.gauge_labeled("nepal_heat_seeks", &labels, HEAT_SEEKS_HELP),
                    heat_materializations: self.metrics.gauge_labeled(
                        "nepal_heat_materializations",
                        &labels,
                        HEAT_MAT_HELP,
                    ),
                    heat_keyframe_hits: self.metrics.gauge_labeled("nepal_heat_keyframe_hits", &labels, HEAT_KF_HELP),
                    heat_bytes_read: self.metrics.gauge_labeled("nepal_heat_bytes_read", &labels, HEAT_BYTES_HELP),
                }
            });
            s.bytes.set(row.bytes as i64);
            let ratio = (row.alive * 1000).checked_div(row.entities).unwrap_or(0);
            s.alive_ratio.set(ratio as i64);
            let heat = g.class_heat(row.class);
            s.heat_scans.set(heat.scans as i64);
            s.heat_scan_rows.set(heat.scan_rows as i64);
            s.heat_seeks.set(heat.seeks as i64);
            s.heat_materializations.set(heat.materializations as i64);
            s.heat_keyframe_hits.set(heat.keyframe_hits as i64);
            s.heat_bytes_read.set(heat.bytes_read as i64);
        }
        drop(series);
        self.entity_bytes.set(entity_bytes as i64);
        self.adjacency_bytes.set(g.adjacency_bytes() as i64);
        let (full, delta) = crate::binsnap::decode_stats();
        self.binsnap_full.set(full as i64);
        self.binsnap_delta.set(delta as i64);
        // Keep `nepal_store_total_bytes` live on the cheap path too
        // (satellite of the deep-scrape split): entity + adjacency move per
        // mutation; unique-index and journal bytes reuse the last deep walk.
        let total = entity_bytes
            + g.adjacency_bytes()
            + self.unique_index_bytes.get().max(0) as u64
            + self.journal_bytes.get().max(0) as u64;
        self.total_bytes.set(total as i64);
    }

    /// [`refresh`](Self::refresh), plus the store-walking figures: total /
    /// unique-index / journal bytes and the version-chain length
    /// distribution (`nepal_store_chain_entities{le=...}`).
    pub fn refresh_deep(&self, g: &TemporalGraph) -> MemoryReport {
        self.refresh(g);
        let report = g.memory_report();
        self.total_bytes.set(report.total_bytes as i64);
        self.unique_index_bytes.set(report.unique_index_bytes as i64);
        self.journal_bytes.set(report.journal_bytes as i64);
        for (bound, count) in &report.chain_histogram {
            let le = if *bound == u64::MAX { "+Inf".to_string() } else { bound.to_string() };
            self.metrics
                .gauge_labeled("nepal_store_chain_entities", &[("le", le.as_str())], CHAIN_HELP)
                .set(*count as i64);
        }
        report
    }
}

/// Convert a store [`MemoryReport`] into the store-agnostic
/// [`ResourceSummary`] the telemetry endpoint serves on `/healthz` and
/// `/dashboard` (via [`Telemetry::set_resources`]).
///
/// [`Telemetry::set_resources`]: nepal_obs::Telemetry::set_resources
pub fn resource_summary(report: &MemoryReport) -> ResourceSummary {
    ResourceSummary {
        classes: report
            .classes
            .iter()
            .map(|c| ResourceClass {
                name: c.name.clone(),
                kind: match c.kind {
                    ClassKind::Node => "node",
                    ClassKind::Edge => "edge",
                },
                entities: c.entities,
                alive: c.alive,
                versions: c.versions,
                bytes: c.bytes,
            })
            .collect(),
        entity_bytes: report.entity_bytes,
        adjacency_bytes: report.adjacency_bytes,
        unique_index_bytes: report.unique_index_bytes,
        journal_bytes: report.journal_bytes,
        total_bytes: report.total_bytes,
        chain_histogram: report.chain_histogram.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nepal_schema::dsl::parse_schema;
    use nepal_schema::Value;

    #[test]
    fn gauges_track_store_and_snapshot_state() {
        let schema = Arc::new(parse_schema("node VM { status: str }").unwrap());
        let vm = schema.class_by_name("VM").unwrap();
        let mut g = TemporalGraph::new(schema);
        let a = g.insert_node(vm, vec![Value::Str("Green".into())], 100).unwrap();
        g.update(a, &[(0, Value::Str("Red".into()))], 200).unwrap();
        let b = g.insert_node(vm, vec![Value::Str("Green".into())], 100).unwrap();
        g.delete(b, 300).unwrap();

        let metrics = Arc::new(MetricsRegistry::new());
        let gauges = StoreGauges::register(&metrics);
        gauges.refresh(&g);
        let text = metrics.render_prometheus();
        assert!(text.contains("nepal_store_nodes 2"), "{text}");
        assert!(text.contains("nepal_store_node_versions 3"), "{text}");
        assert!(text.contains("nepal_store_alive_nodes 1"), "{text}");
        // 1 header + 2 entities + 3 versions.
        assert!(text.contains("nepal_store_journal_lines 6"), "{text}");
        // Per-class byte + alive-ratio series (1 of 2 VMs alive = 500).
        assert!(text.contains("nepal_store_bytes{class=\"VM\"}"), "{text}");
        assert!(text.contains("nepal_store_alive_ratio_x1000{class=\"VM\"} 500"), "{text}");

        // Access-heatmap series follow the read path: one extent scan over
        // two uids, then a refresh re-exports the counters.
        assert_eq!(g.extent_exact(vm).len(), 2);
        gauges.refresh(&g);
        let text = metrics.render_prometheus();
        assert!(text.contains("nepal_heat_scans{class=\"VM\"} 1"), "{text}");
        assert!(text.contains("nepal_heat_scan_rows{class=\"VM\"} 2"), "{text}");
        assert!(text.contains("nepal_heat_seeks{class=\"VM\"} 0"), "{text}");
        assert!(text.contains("nepal_binsnap_decoded_full"), "{text}");
        assert!(text.contains("nepal_binsnap_decoded_delta"), "{text}");
    }

    #[test]
    fn deep_refresh_exports_footprint_and_chain_distribution() {
        let schema = Arc::new(parse_schema("node VM { status: str }").unwrap());
        let vm = schema.class_by_name("VM").unwrap();
        let mut g = TemporalGraph::new(schema);
        let a = g.insert_node(vm, vec![Value::Str("Green".into())], 0).unwrap();
        for ts in 1..=5 {
            g.update(a, &[(0, Value::Str(format!("v{ts}")))], ts).unwrap();
        }
        g.insert_node(vm, vec![Value::Str("Green".into())], 0).unwrap();

        let metrics = Arc::new(MetricsRegistry::new());
        let gauges = StoreGauges::register(&metrics);
        let report = gauges.refresh_deep(&g);
        assert_eq!(report.total_bytes, g.memory_recount().total_bytes);

        let text = metrics.render_prometheus();
        assert!(text.contains("nepal_store_total_bytes"), "{text}");
        assert!(text.contains("nepal_store_journal_bytes"), "{text}");
        // One entity with a 6-long chain (≤8 bucket), one with 1 (≤1).
        assert!(text.contains("nepal_store_chain_entities{le=\"1\"} 1"), "{text}");
        assert!(text.contains("nepal_store_chain_entities{le=\"8\"} 1"), "{text}");

        let summary = resource_summary(&report);
        assert_eq!(summary.total_bytes, report.total_bytes);
        assert_eq!(summary.classes.len(), 1);
        assert_eq!(summary.classes[0].kind, "node");
        assert_eq!(summary.chain_histogram, report.chain_histogram);
    }
}
