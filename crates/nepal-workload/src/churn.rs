//! Churn generator: simulates inventory maintenance over a multi-day
//! window to build transaction-time history.
//!
//! §6 loads both data sets "into a historical database, with a two-month
//! history"; §6.1 reports the resulting storage overhead: "+6%" for the
//! virtualized service graph and "+16%" for the legacy graph — versus
//! "5,900% for the conventional approach of storing 60 separate graphs".
//! The churn rate here is calibrated so the same ratios emerge.

use nepal_graph::{TemporalGraph, Uid, FOREVER};
use nepal_schema::{Ts, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Churn parameters.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Days of simulated history (the paper: 60).
    pub days: u32,
    /// Fraction of entities touched per day (field updates).
    pub daily_update_fraction: f64,
    /// Fraction of *edges* deleted and replaced per day.
    pub daily_rewire_fraction: f64,
    pub seed: u64,
}

impl ChurnParams {
    /// Calibrated to ≈6% history growth over 60 days (virtualized graph).
    pub fn virtualized_default() -> Self {
        ChurnParams { days: 60, daily_update_fraction: 0.0016, daily_rewire_fraction: 0.0, seed: 11 }
    }

    /// Calibrated to ≈16% history growth over 60 days (legacy graph).
    pub fn legacy_default() -> Self {
        ChurnParams { days: 60, daily_update_fraction: 0.0042, daily_rewire_fraction: 0.0, seed: 13 }
    }
}

/// Outcome of a churn run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnStats {
    pub updates: usize,
    pub rewires: usize,
    /// versions after / versions before − 1 (the §6 "full history is N%
    /// larger" metric).
    pub history_growth: f64,
}

const DAY: Ts = 86_400_000_000;

/// Apply `params.days` days of churn starting the day after `start_ts`.
///
/// Updates rewrite one string field of a random entity ("the changes the
/// network elements' state"); rewires delete an edge and recreate an
/// equivalent one ("the topology of the network").
pub fn apply_churn(
    g: &mut TemporalGraph,
    updatable: &[(Uid, usize)], // (entity, string-field layout index)
    rewirable: &[Uid],          // edges eligible for delete+recreate
    start_ts: Ts,
    params: &ChurnParams,
) -> ChurnStats {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut stats = ChurnStats::default();
    let before = g.num_versions() as f64;
    let mut alive_edges: Vec<Uid> = rewirable.to_vec();
    for day in 1..=params.days {
        let ts0 = start_ts + day as Ts * DAY;
        let n_updates = (updatable.len() as f64 * params.daily_update_fraction).round() as usize;
        for k in 0..n_updates {
            let (uid, field) = updatable[rng.gen_range(0..updatable.len())];
            if g.current_version(uid).is_none() {
                continue;
            }
            let ts = ts0 + k as Ts; // strictly increasing within the day
            let new_val = Value::Str(format!("state-d{day}-{k}"));
            if g.update(uid, &[(field, new_val)], ts).is_ok() {
                stats.updates += 1;
            }
        }
        let n_rewires = (alive_edges.len() as f64 * params.daily_rewire_fraction).round() as usize;
        for k in 0..n_rewires {
            let idx = rng.gen_range(0..alive_edges.len());
            let e = alive_edges[idx];
            let (Ok(entry), Some(class)) = (g.edge(e), g.class_of(e)) else { continue };
            let (src, dst) = (entry.src, entry.dst);
            let fields = match g.current_version(e) {
                Some(v) => v.fields().to_vec(),
                None => continue,
            };
            let ts = ts0 + 500_000 + k as Ts;
            if g.delete(e, ts).is_ok() {
                if let Ok(new_e) = g.insert_edge(class, src, dst, fields, ts + 1) {
                    alive_edges[idx] = new_e;
                    stats.rewires += 1;
                }
            }
        }
    }
    stats.history_growth = g.num_versions() as f64 / before - 1.0;
    stats
}

/// Collect `(uid, field_idx)` pairs for every currently-asserted entity
/// that has a string field, preferring the given field name.
pub fn updatable_entities(g: &TemporalGraph, field_name: &str) -> Vec<(Uid, usize)> {
    let schema = g.schema().clone();
    let mut out = Vec::new();
    for root in [nepal_schema::NODE, nepal_schema::EDGE] {
        for class in schema.descendants(root) {
            let fields = schema.all_fields(class);
            let idx = fields
                .iter()
                .position(|f| f.name == field_name && f.ty == nepal_schema::FieldType::Str)
                .or_else(|| fields.iter().position(|f| f.ty == nepal_schema::FieldType::Str));
            let Some(idx) = idx else { continue };
            for &uid in g.extent_exact(class) {
                if let Some(v) = g.current_version(uid) {
                    if v.span.to == FOREVER {
                        out.push((uid, idx));
                    }
                }
            }
        }
    }
    out
}

/// All currently-asserted edges.
pub fn alive_edges(g: &TemporalGraph) -> Vec<Uid> {
    let schema = g.schema().clone();
    let mut out = Vec::new();
    for class in schema.descendants(nepal_schema::EDGE) {
        for &uid in g.extent_exact(class) {
            if g.current_version(uid).is_some() {
                out.push(uid);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtualized::{generate_virtualized, VirtParams};

    #[test]
    fn virtualized_history_growth_near_six_percent() {
        let mut topo = generate_virtualized(VirtParams::default());
        let updatable = updatable_entities(&topo.graph, "status");
        let stats =
            apply_churn(&mut topo.graph, &updatable, &[], topo.params.start_ts, &ChurnParams::virtualized_default());
        // §6: "The full history is 6% larger than the current snapshot."
        assert!((0.03..=0.10).contains(&stats.history_growth), "growth = {:.3}", stats.history_growth);
        assert!(stats.updates > 0);
    }

    #[test]
    fn rewires_preserve_current_topology_shape() {
        let mut topo = generate_virtualized(VirtParams::default());
        let edges_before = topo.graph.alive_count(nepal_schema::EDGE);
        let rewirable = alive_edges(&topo.graph);
        let stats = apply_churn(
            &mut topo.graph,
            &[],
            &rewirable,
            topo.params.start_ts,
            &ChurnParams { days: 10, daily_update_fraction: 0.0, daily_rewire_fraction: 0.002, seed: 3 },
        );
        assert!(stats.rewires > 0);
        let edges_after = topo.graph.alive_count(nepal_schema::EDGE);
        assert_eq!(edges_before, edges_after, "rewires keep the snapshot edge count");
    }

    #[test]
    fn time_travel_sees_pre_churn_values() {
        let mut topo = generate_virtualized(VirtParams::default());
        let updatable = updatable_entities(&topo.graph, "status");
        let (uid, field) = updatable[0];
        let before_value = topo.graph.current_version(uid).unwrap().fields()[field].clone();
        apply_churn(
            &mut topo.graph,
            &[(uid, field)],
            &[],
            topo.params.start_ts,
            &ChurnParams { days: 5, daily_update_fraction: 1.0, daily_rewire_fraction: 0.0, seed: 1 },
        );
        // The day-0 snapshot still shows the original value.
        let f = topo.graph.fields_at(uid, topo.params.start_ts).unwrap();
        assert_eq!(f[field], before_value);
        // The current value changed.
        assert_ne!(topo.graph.current_version(uid).unwrap().fields()[field], before_value);
    }
}
