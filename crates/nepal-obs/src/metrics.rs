//! Atomic metric primitives and the process-wide registry.
//!
//! All primitives are lock-free on the hot path (a single
//! `fetch_add(Relaxed)`); the registry itself takes a mutex only on
//! registration, lookup and rendering.
//!
//! A metric *family* is one name plus a set of label combinations
//! (`nepal_store_bytes{class="VM"}`, …). The unlabeled family is the
//! common case and keeps the original `counter`/`gauge`/`histogram`
//! entry points; `*_labeled` variants add one handle per label set.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets. Bucket `i` counts observations `v` with
/// `2^(i-1) < v ≤ 2^i` (bucket 0 counts `v ≤ 1`), so 64 buckets cover the
/// full `u64` range — nanosecond latencies up to ~584 years.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Log₂-bucketed histogram for latency-style observations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Estimated `q`-quantile over raw per-bucket counts (see
/// [`Histogram::quantile`] for the interpolation and its error bound).
/// Exposed so callers holding a *delta* between two bucket snapshots (a
/// windowed view) can reuse the estimator.
pub fn quantile_from_counts(counts: &[u64; HISTOGRAM_BUCKETS], q: f64) -> u64 {
    let count: u64 = counts.iter().sum();
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let bound = if i >= 63 { u64::MAX } else { 1u64 << i };
        if cum + n >= rank {
            let hi = bound as f64;
            let lo = if bound <= 1 { 0.0 } else { (bound / 2) as f64 };
            let frac = (rank - cum) as f64 / n as f64;
            let v = if lo == 0.0 { hi * frac } else { lo * (hi / lo).powf(frac) };
            return v.round() as u64;
        }
        cum += n;
    }
    0
}

impl Histogram {
    fn bucket_index(v: u64) -> usize {
        // Smallest i with v <= 2^i.
        (64 - v.saturating_sub(1).leading_zeros()) as usize
    }

    pub fn observe(&self, v: u64) {
        let idx = Self::bucket_index(v).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Raw per-bucket counts — the cumulative snapshot a windowed consumer
    /// (e.g. the SLO burn-rate engine) diffs between evaluations.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (0 < q ≤ 1) with log-linear interpolation
    /// inside the log₂ bucket holding the rank: the rank's fractional
    /// position `f` in the bucket `(lo, hi]` maps to `lo · (hi/lo)^f`
    /// (plain linear `hi · f` for the first bucket, whose lower bound is
    /// 0).
    ///
    /// Error bound: the estimate is exact at bucket boundaries; inside a
    /// bucket the true value and the estimate both lie in `(lo, 2·lo]`, so
    /// the worst-case *relative* error is the bucket width ratio — the
    /// estimate is within a factor of 2 of the true quantile (at most
    /// +100% / −50%), hit only when all of a bucket's mass sits at the
    /// opposite end from where the interpolation places the rank. For
    /// smooth distributions the log-linear assumption lands within a few
    /// percent (see the pinning test below).
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.bucket_counts(), q)
    }

    /// Per-bucket counts with their inclusive upper bounds, up to and
    /// including the last non-empty bucket.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let bound = if i >= 63 { u64::MAX } else { 1u64 << i };
                out.push((bound, n));
            }
        }
        out
    }
}

/// One family: all label sets of one name, keyed by the rendered label
/// pairs (`class="VM"`; the empty string is the unlabeled sample).
enum Metric {
    Counter(BTreeMap<String, Arc<Counter>>),
    Gauge(BTreeMap<String, Arc<Gauge>>),
    Histogram(BTreeMap<String, Arc<Histogram>>),
}

struct Entry {
    help: String,
    metric: Metric,
}

/// Named metric families, rendered in Prometheus text exposition format
/// or JSON.
///
/// Cheap to share: handles returned by `counter`/`gauge`/`histogram` are
/// `Arc`s that bypass the registry lock entirely on update.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' }).collect()
}

/// Escape a label value per the exposition format: backslash, quote, LF.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Render `[("class", "VM")]` as `class="VM"` (empty for no labels).
fn label_key(labels: &[(&str, &str)]) -> String {
    labels.iter().map(|(k, v)| format!("{}=\"{}\"", sanitize(k), escape_label_value(v))).collect::<Vec<_>>().join(",")
}

/// `name` or `name{labels}` for a sample line.
fn series(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    }
}

/// `{le="…"}` merged with any family labels.
fn series_le(name: &str, labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{name}_bucket{{le=\"{le}\"}}")
    } else {
        format!("{name}_bucket{{{labels},le=\"{le}\"}}")
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the unlabeled counter of a family. The help text of
    /// the first registration wins; registering an existing name with a
    /// different metric type panics (a programming error, not runtime
    /// input).
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_labeled(name, &[], help)
    }

    /// Get or create the counter for one label set of a family.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let entry = entries
            .entry(sanitize(name))
            .or_insert_with(|| Entry { help: help.to_string(), metric: Metric::Counter(BTreeMap::new()) });
        match &mut entry.metric {
            Metric::Counter(m) => m.entry(label_key(labels)).or_default().clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_labeled(name, &[], help)
    }

    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let entry = entries
            .entry(sanitize(name))
            .or_insert_with(|| Entry { help: help.to_string(), metric: Metric::Gauge(BTreeMap::new()) });
        match &mut entry.metric {
            Metric::Gauge(m) => m.entry(label_key(labels)).or_default().clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_labeled(name, &[], help)
    }

    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Histogram> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let entry = entries
            .entry(sanitize(name))
            .or_insert_with(|| Entry { help: help.to_string(), metric: Metric::Histogram(BTreeMap::new()) });
        match &mut entry.metric {
            Metric::Histogram(m) => m.entry(label_key(labels)).or_default().clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Sum of a counter family across all its label sets, if registered.
    /// The read-by-name hook for pull-time consumers (the SLO engine).
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match &entries.get(&sanitize(name))?.metric {
            Metric::Counter(m) => Some(m.values().map(|c| c.get()).sum()),
            _ => None,
        }
    }

    /// Sum of a gauge family across all its label sets, if registered.
    pub fn gauge_total(&self, name: &str) -> Option<i64> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match &entries.get(&sanitize(name))?.metric {
            Metric::Gauge(m) => Some(m.values().map(|g| g.get()).sum()),
            _ => None,
        }
    }

    /// A handle on a histogram family: the unlabeled member when present,
    /// otherwise the family's sole member.
    pub fn histogram_handle(&self, name: &str) -> Option<Arc<Histogram>> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match &entries.get(&sanitize(name))?.metric {
            Metric::Histogram(m) => {
                m.get("").cloned().or_else(|| (m.len() == 1).then(|| m.values().next().unwrap().clone()))
            }
            _ => None,
        }
    }

    /// Prometheus text exposition format: every family gets `# HELP` /
    /// `# TYPE` headers followed by its samples, histograms as cumulative
    /// `_bucket{le="…"}` series plus `_sum` and `_count`. The estimated
    /// p50/p95/p99 of each histogram are exported as three derived gauge
    /// families (`<name>_p50`, …) with their own headers.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, entry) in entries.iter() {
            let help = entry.help.replace('\n', " ");
            match &entry.metric {
                Metric::Counter(m) => {
                    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
                    for (labels, c) in m {
                        out.push_str(&format!("{} {}\n", series(name, labels), c.get()));
                    }
                }
                Metric::Gauge(m) => {
                    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
                    for (labels, g) in m {
                        out.push_str(&format!("{} {}\n", series(name, labels), g.get()));
                    }
                }
                Metric::Histogram(m) => {
                    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
                    for (labels, h) in m {
                        let mut cumulative = 0u64;
                        for (bound, n) in h.buckets() {
                            cumulative += n;
                            out.push_str(&format!("{} {cumulative}\n", series_le(name, labels, &bound.to_string())));
                        }
                        out.push_str(&format!("{} {}\n", series_le(name, labels, "+Inf"), h.count()));
                        out.push_str(&format!("{} {}\n", series(&format!("{name}_sum"), labels), h.sum()));
                        out.push_str(&format!("{} {}\n", series(&format!("{name}_count"), labels), h.count()));
                    }
                    for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                        let qname = format!("{name}_{suffix}");
                        out.push_str(&format!(
                            "# HELP {qname} Estimated {q} quantile of {name}\n# TYPE {qname} gauge\n"
                        ));
                        for (labels, h) in m {
                            out.push_str(&format!("{} {}\n", series(&qname, labels), h.quantile(q)));
                        }
                    }
                }
            }
        }
        out
    }

    /// Numeric snapshot of every series, for the metrics history ring:
    /// counters and gauges yield one `(series, value)` pair each;
    /// histograms yield `_count`, `_sum` and estimated `_p50`/`_p95`/`_p99`
    /// per label set. Series names match the Prometheus rendering.
    pub fn scrape(&self) -> Vec<(String, f64)> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for (name, entry) in entries.iter() {
            match &entry.metric {
                Metric::Counter(m) => {
                    for (labels, c) in m {
                        out.push((series(name, labels), c.get() as f64));
                    }
                }
                Metric::Gauge(m) => {
                    for (labels, g) in m {
                        out.push((series(name, labels), g.get() as f64));
                    }
                }
                Metric::Histogram(m) => {
                    for (labels, h) in m {
                        out.push((series(&format!("{name}_count"), labels), h.count() as f64));
                        out.push((series(&format!("{name}_sum"), labels), h.sum() as f64));
                        out.push((series(&format!("{name}_p50"), labels), h.quantile(0.50) as f64));
                        out.push((series(&format!("{name}_p95"), labels), h.quantile(0.95) as f64));
                        out.push((series(&format!("{name}_p99"), labels), h.quantile(0.99) as f64));
                    }
                }
            }
        }
        out
    }

    /// Every registered family as `(name, type, help)`, in name order —
    /// the enumeration the metrics-reference docs test renders.
    pub fn families(&self) -> Vec<(String, &'static str, String)> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .iter()
            .map(|(name, entry)| {
                let kind = match &entry.metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                (name.clone(), kind, entry.help.clone())
            })
            .collect()
    }

    /// JSON object keyed by series (`name` or `name{labels}`). Histograms
    /// carry `{"count", "sum", "buckets": [[le, n], …]}`.
    pub fn render_json(&self) -> Json {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = BTreeMap::new();
        for (name, entry) in entries.iter() {
            match &entry.metric {
                Metric::Counter(m) => {
                    out.extend(m.iter().map(|(labels, c)| (series(name, labels), c.get().into())));
                }
                Metric::Gauge(m) => {
                    out.extend(m.iter().map(|(labels, g)| (series(name, labels), g.get().into())));
                }
                Metric::Histogram(m) => {
                    for (labels, h) in m {
                        let buckets = h.buckets().into_iter().map(|(le, n)| vec![le, n]).collect::<Vec<_>>();
                        let doc = Json::obj([
                            ("count", h.count().into()),
                            ("sum", h.sum().into()),
                            ("p50", h.quantile(0.50).into()),
                            ("p95", h.quantile(0.95).into()),
                            ("p99", h.quantile(0.99).into()),
                            ("buckets", buckets.into()),
                        ]);
                        out.insert(series(name, labels), doc);
                    }
                }
            }
        }
        Json::Obj(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("nepal_queries_total", "Total queries executed");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying counter.
        assert_eq!(reg.counter("nepal_queries_total", "ignored").get(), 5);
        let g = reg.gauge("nepal_backends", "Registered backends");
        g.set(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(1); // ≤ 2^0
        h.observe(2); // ≤ 2^1
        h.observe(3); // ≤ 2^2
        h.observe(1024); // ≤ 2^10
        h.observe(1025); // ≤ 2^11
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 2055);
        let buckets = h.buckets();
        assert_eq!(buckets, vec![(1, 2), (2, 1), (4, 1), (1024, 1), (2048, 1)]);
    }

    #[test]
    fn prometheus_rendering_is_valid_exposition_format() {
        let reg = MetricsRegistry::new();
        reg.counter("nepal_queries_total", "Total queries executed").add(7);
        reg.gauge("nepal_slow_log_len", "Entries in the slow-query log").set(2);
        let h = reg.histogram("nepal_query_ns", "Query latency in ns");
        h.observe(100);
        h.observe(5000);
        let text = reg.render_prometheus();

        // Line-oriented: every line is a comment or `name{labels} value`,
        // and every family (incl. the derived quantile gauges) carries
        // both headers.
        let mut help_seen = 0;
        let mut type_seen = 0;
        for line in text.lines() {
            assert!(!line.trim().is_empty());
            if let Some(rest) = line.strip_prefix("# HELP ") {
                assert!(rest.contains(' '));
                help_seen += 1;
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let _name = parts.next().unwrap();
                let kind = parts.next().unwrap();
                assert!(["counter", "gauge", "histogram"].contains(&kind), "{kind}");
                type_seen += 1;
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
            let name_part = series.split('{').next().unwrap();
            assert!(
                name_part.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {name_part:?}"
            );
        }
        // counter + gauge + histogram + three derived quantile families.
        assert_eq!(help_seen, 6);
        assert_eq!(type_seen, 6);

        // Histogram series are cumulative and end with +Inf == count.
        assert!(text.contains("nepal_query_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("nepal_query_ns_sum 5100"));
        assert!(text.contains("nepal_query_ns_count 2"));
        // Specific samples.
        assert!(text.contains("nepal_queries_total 7"));
        assert!(text.contains("nepal_slow_log_len 2"));
    }

    #[test]
    fn labeled_families_share_headers_and_sum_in_totals() {
        let reg = MetricsRegistry::new();
        let a = reg.gauge_labeled("nepal_store_bytes", &[("class", "VM")], "Estimated heap bytes");
        let b = reg.gauge_labeled("nepal_store_bytes", &[("class", "Host")], "ignored");
        a.set(100);
        b.set(40);
        // Same (name, labels) returns the same handle.
        reg.gauge_labeled("nepal_store_bytes", &[("class", "VM")], "x").add(1);
        assert_eq!(a.get(), 101);
        assert_eq!(reg.gauge_total("nepal_store_bytes"), Some(141));
        assert_eq!(reg.gauge_total("nope"), None);

        let text = reg.render_prometheus();
        assert_eq!(text.matches("# HELP nepal_store_bytes ").count(), 1, "one header per family:\n{text}");
        assert_eq!(text.matches("# TYPE nepal_store_bytes ").count(), 1);
        assert!(text.contains("nepal_store_bytes{class=\"Host\"} 40"), "{text}");
        assert!(text.contains("nepal_store_bytes{class=\"VM\"} 101"), "{text}");

        let json = reg.render_json().to_string();
        assert!(json.contains("\"nepal_store_bytes{class=\\\"VM\\\"}\":101"), "{json}");

        // Label values are escaped, label names sanitized.
        reg.counter_labeled("hits_total", &[("pa th", "a\"b\\c")], "h").inc();
        let text = reg.render_prometheus();
        assert!(text.contains("hits_total{pa_th=\"a\\\"b\\\\c\"} 1"), "{text}");
    }

    #[test]
    fn counter_total_and_histogram_handle_lookups() {
        let reg = MetricsRegistry::new();
        reg.counter("errs_total", "e").add(3);
        assert_eq!(reg.counter_total("errs_total"), Some(3));
        assert_eq!(reg.counter_total("missing"), None);
        let h = reg.histogram("lat_ns", "l");
        h.observe(7);
        let again = reg.histogram_handle("lat_ns").expect("registered");
        assert_eq!(again.count(), 1);
        assert!(reg.histogram_handle("errs_total").is_none(), "type mismatch yields None");
    }

    #[test]
    fn json_rendering_includes_all_metrics() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "a").add(3);
        reg.histogram("b_ns", "b").observe(9);
        let json = reg.render_json();
        assert_eq!(json.get("a_total").and_then(Json::as_u64), Some(3));
        // 9 lands in the (8, 16] bucket; rank 1 of 1 interpolates to the
        // bucket's upper bound for every quantile.
        assert_eq!(
            json.get("b_ns").map(Json::to_string).as_deref(),
            Some(r#"{"buckets":[[16,1]],"count":1,"p50":16,"p95":16,"p99":16,"sum":9}"#)
        );
        let text = json.to_string();
        assert!(text.starts_with('{') && text.ends_with('}'));
    }

    #[test]
    fn quantiles_interpolate_log_linearly() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for _ in 0..100 {
            h.observe(1000); // (512, 1024] bucket
        }
        // Every observation in one bucket: p50 interpolates halfway up in
        // log space (512·2^0.5 ≈ 724), p99/p100 approach the upper bound.
        let p50 = h.quantile(0.5);
        assert!((700..=750).contains(&p50), "{p50}");
        assert_eq!(h.quantile(1.0), 1024);
        // Exact at boundaries for a uniform two-bucket split.
        let h2 = Histogram::default();
        h2.observe(2);
        h2.observe(4);
        assert_eq!(h2.quantile(0.5), 2);
        assert_eq!(h2.quantile(1.0), 4);
    }

    /// Pin p50/p95/p99 on a known distribution (uniform 1..=1000) and
    /// check the documented worst-case factor-2 bound on an adversarial
    /// single-point distribution.
    #[test]
    fn quantile_estimates_pinned_on_known_distribution() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        // True quantiles: 500 / 950 / 990. Log-linear interpolation on the
        // uniform distribution lands within a few percent.
        let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
        assert!((480..=520).contains(&p50), "p50 {p50}");
        assert!((920..=990).contains(&p95), "p95 {p95}");
        assert!((960..=1030).contains(&p99), "p99 {p99}");
        // Never the plain bucket upper bound (the pre-interpolation bug
        // reported 512 / 1024 / 1024 here).
        assert_ne!(p50, 512);

        // Worst case: all mass at one end of the (512, 1024] bucket. Any
        // quantile estimate must stay within a factor 2 of the true 1000.
        let w = Histogram::default();
        for _ in 0..1000 {
            w.observe(1000);
        }
        for q in [0.01, 0.5, 0.99] {
            let est = w.quantile(q);
            assert!((512..=1024).contains(&est), "q={q} est={est} outside factor-2 band");
        }
    }

    #[test]
    fn prometheus_includes_quantile_samples() {
        let reg = MetricsRegistry::new();
        reg.histogram("q_ns", "q").observe(9);
        let text = reg.render_prometheus();
        assert!(text.contains("q_ns_p50 16"));
        assert!(text.contains("q_ns_p95 16"));
        assert!(text.contains("q_ns_p99 16"));
        // Derived quantile families are proper gauge families.
        assert!(text.contains("# TYPE q_ns_p50 gauge"), "{text}");
    }

    #[test]
    fn scrape_and_families_enumerate_every_series() {
        let reg = MetricsRegistry::new();
        reg.counter("s_total", "scraped counter").add(3);
        reg.gauge_labeled("s_gauge", &[("class", "VM")], "scraped gauge").set(7);
        reg.histogram("s_ns", "scraped histogram").observe(9);
        let snap = reg.scrape();
        let get = |n: &str| snap.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(get("s_total"), Some(3.0));
        assert_eq!(get("s_gauge{class=\"VM\"}"), Some(7.0));
        assert_eq!(get("s_ns_count"), Some(1.0));
        assert_eq!(get("s_ns_sum"), Some(9.0));
        assert_eq!(get("s_ns_p99"), Some(16.0));
        let fams = reg.families();
        assert_eq!(
            fams,
            vec![
                ("s_gauge".to_string(), "gauge", "scraped gauge".to_string()),
                ("s_ns".to_string(), "histogram", "scraped histogram".to_string()),
                ("s_total".to_string(), "counter", "scraped counter".to_string()),
            ]
        );
    }

    #[test]
    fn metric_names_are_sanitized() {
        let reg = MetricsRegistry::new();
        reg.counter("weird name-with.chars", "x").inc();
        assert!(reg.render_prometheus().contains("weird_name_with_chars 1"));
    }
}
