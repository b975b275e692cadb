//! Declarative SLO rules evaluated by a pull-time burn-rate engine.
//!
//! No background thread: every evaluation happens when a consumer asks
//! (`/alerts.json`, `/healthz`, the REPL's `:health`, a bench harness). Each
//! rule measures one *signal* against a ceiling:
//!
//! - [`SloSignal::LatencyQuantile`] — a quantile of a registered log₂
//!   histogram, computed over the **window** of observations since the
//!   previous evaluation (the delta of the cumulative bucket counts), so
//!   an overload that ends actually resolves instead of being frozen into
//!   the cumulative distribution. The same signal bounds the planner's
//!   anchor q-error (`nepal_planner_qerror_x1000`).
//! - [`SloSignal::ErrorRate`] — the ratio of two counter families over
//!   the same inter-evaluation window.
//! - [`SloSignal::GaugeMax`] — an instantaneous watermark on a gauge
//!   family sum (e.g. `nepal_store_total_bytes`).
//!
//! Burn rate is `measured / threshold`: 1.0 means the error budget is
//! being consumed exactly at the sustainable rate, >1 means the SLO is
//! being violated. Rules move through a four-state machine:
//!
//! ```text
//! Ok ──breach──▶ Pending ──breach ≥ for_ms──▶ Firing
//!                  │ clean                       │ clean
//!                  ▼                             ▼
//!                 Ok ◀──clean ≥ clear_ms── Resolved ──breach──▶ Firing
//! ```
//!
//! A window with no observations is treated as healthy (nothing burned).

use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics::{quantile_from_counts, Counter, Gauge, MetricsRegistry, HISTOGRAM_BUCKETS};

/// What a rule measures. Metric names refer to families in the
/// [`MetricsRegistry`] the engine was built over.
pub enum SloSignal {
    /// `quantile(q)` of `histogram` over the inter-evaluation window must
    /// stay ≤ `max`.
    LatencyQuantile { histogram: String, q: f64, max: u64 },
    /// `Δerrors / Δtotal` over the window must stay ≤ `max_ratio`.
    ErrorRate { errors: String, total: String, max_ratio: f64 },
    /// The gauge family sum must stay ≤ `max`.
    GaugeMax { gauge: String, max: i64 },
}

/// One declarative SLO rule.
pub struct SloRule {
    pub name: String,
    pub signal: SloSignal,
    /// Sustained-breach duration before Pending escalates to Firing.
    pub for_ms: u64,
    /// How long Resolved lingers before decaying back to Ok.
    pub clear_ms: u64,
}

impl SloRule {
    pub fn new(name: &str, signal: SloSignal) -> SloRule {
        SloRule { name: name.to_string(), signal, for_ms: 0, clear_ms: 0 }
    }

    /// Quantile target: `q`-quantile of `histogram` ≤ `max` (nanoseconds
    /// for a latency histogram).
    pub fn latency(name: &str, histogram: &str, q: f64, max: u64) -> SloRule {
        SloRule::new(name, SloSignal::LatencyQuantile { histogram: histogram.to_string(), q, max })
    }

    /// Error-rate target: `errors / total` ≤ `max_ratio` per window.
    pub fn error_rate(name: &str, errors: &str, total: &str, max_ratio: f64) -> SloRule {
        SloRule::new(name, SloSignal::ErrorRate { errors: errors.to_string(), total: total.to_string(), max_ratio })
    }

    /// Memory watermark: gauge family sum ≤ `max`.
    pub fn gauge_max(name: &str, gauge: &str, max: i64) -> SloRule {
        SloRule::new(name, SloSignal::GaugeMax { gauge: gauge.to_string(), max })
    }

    /// Require the breach to persist `ms` before firing.
    pub fn pending_for(mut self, ms: u64) -> SloRule {
        self.for_ms = ms;
        self
    }

    /// Keep the Resolved state visible for `ms` after recovery.
    pub fn clear_after(mut self, ms: u64) -> SloRule {
        self.clear_ms = ms;
        self
    }
}

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    Ok,
    Pending { since_ms: u64 },
    Firing { since_ms: u64 },
    Resolved { since_ms: u64 },
}

impl AlertState {
    pub fn name(&self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending { .. } => "pending",
            AlertState::Firing { .. } => "firing",
            AlertState::Resolved { .. } => "resolved",
        }
    }

    pub fn is_firing(&self) -> bool {
        matches!(self, AlertState::Firing { .. })
    }

    /// Compact numeric code used in flight-recorder event payloads.
    pub fn code(&self) -> u64 {
        match self {
            AlertState::Ok => 0,
            AlertState::Pending { .. } => 1,
            AlertState::Firing { .. } => 2,
            AlertState::Resolved { .. } => 3,
        }
    }
}

/// One rule's outcome at an evaluation.
#[derive(Debug, Clone)]
pub struct AlertStatus {
    pub name: String,
    pub state: AlertState,
    /// The measured signal value (ns, ratio, bytes, …).
    pub measured: f64,
    /// The rule's ceiling in the same unit.
    pub threshold: f64,
    /// `measured / threshold`; > 1 burns the budget faster than allowed.
    pub burn: f64,
    pub detail: String,
}

struct RuleState {
    rule: SloRule,
    state: AlertState,
    prev_buckets: Option<[u64; HISTOGRAM_BUCKETS]>,
    prev_counts: Option<(u64, u64)>,
}

/// The pull-time alert engine. Thread-safe; cheap enough to evaluate on
/// every scrape or even per query.
pub struct SloEngine {
    metrics: Arc<MetricsRegistry>,
    rules: Mutex<Vec<RuleState>>,
    firing: Arc<Gauge>,
    transitions: Arc<Counter>,
}

pub(crate) fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

impl SloEngine {
    pub fn new(metrics: Arc<MetricsRegistry>) -> SloEngine {
        let firing = metrics.gauge("nepal_alerts_firing", "SLO alert rules currently firing");
        let transitions = metrics.counter("nepal_alert_transitions_total", "Alert state-machine transitions observed");
        SloEngine { metrics, rules: Mutex::new(Vec::new()), firing, transitions }
    }

    pub fn add(&self, rule: SloRule) {
        self.rules.lock().unwrap_or_else(|e| e.into_inner()).push(RuleState {
            rule,
            state: AlertState::Ok,
            prev_buckets: None,
            prev_counts: None,
        });
    }

    /// Evaluate all rules against wall-clock time.
    pub fn evaluate(&self) -> Vec<AlertStatus> {
        self.evaluate_at(now_ms())
    }

    /// Evaluate all rules at an explicit timestamp (deterministic tests,
    /// replayed benches).
    pub fn evaluate_at(&self, now_ms: u64) -> Vec<AlertStatus> {
        let mut rules = self.rules.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(rules.len());
        let mut firing = 0i64;
        for rs in rules.iter_mut() {
            let (measured, threshold, breach, detail) = measure(&self.metrics, rs);
            let before = rs.state;
            rs.state = step(rs.state, breach, now_ms, rs.rule.for_ms, rs.rule.clear_ms);
            if rs.state != before {
                self.transitions.inc();
                crate::flight::emit(
                    crate::flight::FlightKind::AlertTransition,
                    before.code(),
                    rs.state.code(),
                    0,
                    &rs.rule.name,
                );
            }
            if rs.state.is_firing() {
                firing += 1;
            }
            let burn = if threshold > 0.0 { measured / threshold } else { 0.0 };
            out.push(AlertStatus { name: rs.rule.name.clone(), state: rs.state, measured, threshold, burn, detail });
        }
        self.firing.set(firing);
        out
    }

    /// Number of rules firing as of the last evaluation.
    pub fn firing_count(&self) -> i64 {
        self.firing.get()
    }
}

/// One state-machine step given whether the signal breaches its ceiling.
fn step(state: AlertState, breach: bool, now_ms: u64, for_ms: u64, clear_ms: u64) -> AlertState {
    match (state, breach) {
        (AlertState::Ok, true) => {
            if for_ms == 0 {
                AlertState::Firing { since_ms: now_ms }
            } else {
                AlertState::Pending { since_ms: now_ms }
            }
        }
        (AlertState::Ok, false) => AlertState::Ok,
        (AlertState::Pending { since_ms }, true) => {
            if now_ms.saturating_sub(since_ms) >= for_ms {
                AlertState::Firing { since_ms: now_ms }
            } else {
                AlertState::Pending { since_ms }
            }
        }
        (AlertState::Pending { .. }, false) => AlertState::Ok,
        (AlertState::Firing { since_ms }, true) => AlertState::Firing { since_ms },
        (AlertState::Firing { .. }, false) => AlertState::Resolved { since_ms: now_ms },
        (AlertState::Resolved { .. }, true) => AlertState::Firing { since_ms: now_ms },
        (AlertState::Resolved { since_ms }, false) => {
            if now_ms.saturating_sub(since_ms) >= clear_ms {
                AlertState::Ok
            } else {
                AlertState::Resolved { since_ms }
            }
        }
    }
}

/// Measure one rule's signal: `(measured, threshold, breach, detail)`.
/// Unregistered metrics and empty windows read as healthy.
fn measure(metrics: &MetricsRegistry, rs: &mut RuleState) -> (f64, f64, bool, String) {
    match &rs.rule.signal {
        SloSignal::LatencyQuantile { histogram, q, max } => {
            let Some(h) = metrics.histogram_handle(histogram) else {
                return (0.0, *max as f64, false, format!("histogram {histogram} not registered"));
            };
            let cur = h.bucket_counts();
            let prev = rs.prev_buckets.unwrap_or([0; HISTOGRAM_BUCKETS]);
            rs.prev_buckets = Some(cur);
            let delta: [u64; HISTOGRAM_BUCKETS] = std::array::from_fn(|i| cur[i].saturating_sub(prev[i]));
            let window: u64 = delta.iter().sum();
            if window == 0 {
                return (0.0, *max as f64, false, "no observations in window".to_string());
            }
            let measured = quantile_from_counts(&delta, *q);
            (
                measured as f64,
                *max as f64,
                measured > *max,
                format!("p{:.0} {histogram} {measured} over {window} obs (max {max})", q * 100.0),
            )
        }
        SloSignal::ErrorRate { errors, total, max_ratio } => {
            let err = metrics.counter_total(errors).unwrap_or(0);
            let tot = metrics.counter_total(total).unwrap_or(0);
            let (perr, ptot) = rs.prev_counts.unwrap_or((0, 0));
            rs.prev_counts = Some((err, tot));
            let (de, dt) = (err.saturating_sub(perr), tot.saturating_sub(ptot));
            if dt == 0 {
                return (0.0, *max_ratio, false, "no requests in window".to_string());
            }
            let ratio = de as f64 / dt as f64;
            (ratio, *max_ratio, ratio > *max_ratio, format!("{de}/{dt} errors in window (max ratio {max_ratio})"))
        }
        SloSignal::GaugeMax { gauge, max } => {
            let v = metrics.gauge_total(gauge).unwrap_or(0);
            (v as f64, *max as f64, v > *max, format!("{gauge} = {v} (max {max})"))
        }
    }
}

/// Human-readable rule states (the REPL's `:health`).
pub fn alerts_text(statuses: &[AlertStatus]) -> String {
    if statuses.is_empty() {
        return "no slo rules configured\n".to_string();
    }
    let mut s = format!("{:<28} {:>9} {:>10} {:>8}  detail\n", "rule", "state", "measured", "burn");
    for a in statuses {
        s.push_str(&format!(
            "{:<28} {:>9} {:>10.1} {:>8.2}  {}\n",
            a.name,
            a.state.name(),
            a.measured,
            a.burn,
            a.detail
        ));
    }
    s
}

/// `/alerts.json` body: `{"firing": n, "rules": [...]}`.
pub fn alerts_json(statuses: &[AlertStatus]) -> Json {
    let firing = statuses.iter().filter(|a| a.state.is_firing()).count();
    let rules = statuses
        .iter()
        .map(|a| {
            Json::obj([
                ("name", a.name.as_str().into()),
                ("state", a.state.name().into()),
                ("measured", a.measured.into()),
                ("threshold", a.threshold.into()),
                ("burn", a.burn.into()),
                ("detail", a.detail.as_str().into()),
            ])
        })
        .collect();
    Json::obj([("firing", firing.into()), ("rules", Json::Arr(rules))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_walks_ok_pending_firing_resolved() {
        let metrics = Arc::new(MetricsRegistry::new());
        let level = metrics.gauge("level", "test level");
        let engine = SloEngine::new(metrics);
        engine.add(SloRule::gauge_max("level-ceiling", "level", 10).pending_for(100).clear_after(50));

        // Healthy.
        let s = engine.evaluate_at(1_000);
        assert_eq!(s[0].state, AlertState::Ok);
        assert_eq!(engine.firing_count(), 0);

        // Breach begins: pending, not yet firing.
        level.set(40);
        let s = engine.evaluate_at(1_010);
        assert_eq!(s[0].state, AlertState::Pending { since_ms: 1_010 });
        assert!((s[0].burn - 4.0).abs() < 1e-9, "burn {}", s[0].burn);

        // Still breaching after for_ms: firing.
        let s = engine.evaluate_at(1_200);
        assert!(s[0].state.is_firing(), "{:?}", s[0].state);
        assert_eq!(engine.firing_count(), 1);

        // Recovery: resolved, then decays to ok after clear_ms.
        level.set(0);
        let s = engine.evaluate_at(1_300);
        assert_eq!(s[0].state, AlertState::Resolved { since_ms: 1_300 });
        assert_eq!(engine.firing_count(), 0);
        let s = engine.evaluate_at(1_320);
        assert_eq!(s[0].state, AlertState::Resolved { since_ms: 1_300 }, "lingers inside clear window");
        let s = engine.evaluate_at(1_400);
        assert_eq!(s[0].state, AlertState::Ok);
    }

    #[test]
    fn pending_breach_that_recovers_never_fires() {
        let metrics = Arc::new(MetricsRegistry::new());
        let level = metrics.gauge("level", "test level");
        level.set(99);
        let engine = SloEngine::new(metrics);
        engine.add(SloRule::gauge_max("spike", "level", 10).pending_for(1_000));
        assert_eq!(engine.evaluate_at(0)[0].state, AlertState::Pending { since_ms: 0 });
        level.set(0);
        assert_eq!(engine.evaluate_at(500)[0].state, AlertState::Ok);
    }

    #[test]
    fn latency_rule_windows_between_evaluations() {
        let metrics = Arc::new(MetricsRegistry::new());
        let h = metrics.histogram("lat_ns", "latency");
        let engine = SloEngine::new(metrics);
        engine.add(SloRule::latency("p99-latency", "lat_ns", 0.99, 1_000));

        // Slow observations: firing.
        for _ in 0..50 {
            h.observe(1_000_000);
        }
        assert!(engine.evaluate_at(10)[0].state.is_firing());

        // The next window holds only fast observations: the cumulative
        // histogram still remembers the slow ones, the window does not.
        for _ in 0..50 {
            h.observe(10);
        }
        let s = engine.evaluate_at(20);
        assert_eq!(s[0].state, AlertState::Resolved { since_ms: 20 }, "windowed quantile resolves: {}", s[0].detail);
        assert!(s[0].measured <= 16.0, "window p99 {}", s[0].measured);

        // An empty window is healthy.
        let s = engine.evaluate_at(30);
        assert_eq!(s[0].state, AlertState::Ok);
        assert_eq!(s[0].measured, 0.0);
    }

    #[test]
    fn error_rate_burns_on_window_deltas() {
        let metrics = Arc::new(MetricsRegistry::new());
        let errs = metrics.counter("errs_total", "e");
        let tot = metrics.counter("reqs_total", "t");
        let engine = SloEngine::new(metrics);
        engine.add(SloRule::error_rate("error-rate", "errs_total", "reqs_total", 0.01));

        tot.add(100);
        assert_eq!(engine.evaluate_at(0)[0].state, AlertState::Ok);

        // 10% errors in the next window.
        tot.add(100);
        errs.add(10);
        let s = engine.evaluate_at(10);
        assert!(s[0].state.is_firing(), "{}", s[0].detail);
        assert!((s[0].burn - 10.0).abs() < 1e-9);

        // Clean window resolves.
        tot.add(100);
        assert_eq!(engine.evaluate_at(20)[0].state, AlertState::Resolved { since_ms: 20 });
    }

    #[test]
    fn gauge_watermark_sums_label_sets() {
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.gauge_labeled("store_bytes", &[("class", "VM")], "b").set(600);
        metrics.gauge_labeled("store_bytes", &[("class", "Host")], "b").set(500);
        let engine = SloEngine::new(metrics.clone());
        engine.add(SloRule::gauge_max("memory-watermark", "store_bytes", 1_000));
        let s = engine.evaluate_at(0);
        assert!(s[0].state.is_firing(), "{}", s[0].detail);
        assert_eq!(s[0].measured, 1_100.0);
        // nepal_alerts_firing is exported through the registry.
        assert_eq!(metrics.gauge_total("nepal_alerts_firing"), Some(1));
    }

    #[test]
    fn renderings_cover_firing_and_ok() {
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.gauge("g", "g").set(5);
        let engine = SloEngine::new(metrics);
        engine.add(SloRule::gauge_max("over", "g", 1));
        engine.add(SloRule::gauge_max("under", "g", 10));
        let s = engine.evaluate_at(0);
        let text = alerts_text(&s);
        assert!(text.contains("over") && text.contains("firing"), "{text}");
        let json = alerts_json(&s);
        assert_eq!(json.get("firing").and_then(Json::as_u64), Some(1), "{json}");
        let rules = json.get("rules").and_then(Json::as_arr).unwrap();
        let under = rules.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("under")).unwrap();
        assert_eq!(under.get("state").and_then(Json::as_str), Some("ok"), "{json}");
    }
}
