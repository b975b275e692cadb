//! Metrics history ring: periodic self-scrape snapshots of the registry,
//! held in a bounded ring with downsampling so ~an hour of history fits a
//! fixed memory budget. Served at `/history.json`, rendered as dashboard
//! sparklines, and appended to flight-recorder bundles so a crash snapshot
//! shows the minutes *before* the anomaly, not just the instant.
//!
//! Retention model: snapshots are admitted at most once per `resolution`.
//! When the ring is full, the **older half** is thinned by dropping every
//! second snapshot — recent history stays at full resolution while older
//! history degrades gracefully to half, quarter, … resolution instead of
//! falling off a cliff.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics::MetricsRegistry;

/// One self-scrape: a timestamp plus every series' numeric value.
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySnapshot {
    pub unix_ms: u64,
    pub values: Vec<(String, f64)>,
}

struct Inner {
    snaps: VecDeque<HistorySnapshot>,
    last_ms: u64,
    /// Snapshots thinned out by downsampling since creation.
    downsampled: u64,
}

/// Bounded, downsampling ring of metrics snapshots.
pub struct HistoryRing {
    resolution_ms: u64,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for HistoryRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistoryRing")
            .field("resolution_ms", &self.resolution_ms)
            .field("capacity", &self.capacity)
            .finish()
    }
}

fn unix_ms_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

impl HistoryRing {
    /// `resolution` is the minimum spacing between admitted snapshots;
    /// `capacity` bounds held snapshots (so memory). The default serving
    /// configuration (5s x 720) covers one hour at full resolution and
    /// degrades older history from there.
    pub fn new(resolution: Duration, capacity: usize) -> HistoryRing {
        HistoryRing {
            resolution_ms: (resolution.as_millis() as u64).max(1),
            capacity: capacity.max(2),
            inner: Mutex::new(Inner { snaps: VecDeque::new(), last_ms: 0, downsampled: 0 }),
        }
    }

    pub fn resolution_ms(&self) -> u64 {
        self.resolution_ms
    }

    /// Scrape `reg` now if at least one resolution interval has elapsed.
    /// Returns whether a snapshot was admitted. Cheap to call from a tight
    /// poll loop: the off-interval path is one lock + compare.
    pub fn tick(&self, reg: &MetricsRegistry) -> bool {
        self.tick_at(unix_ms_now(), reg)
    }

    /// Whether a [`HistoryRing::tick`] now would admit a snapshot. Lets a
    /// driver skip (possibly costly) pre-scrape work on off-interval polls.
    pub fn due(&self) -> bool {
        self.due_at(unix_ms_now())
    }

    /// [`HistoryRing::due`] at an explicit timestamp (test hook).
    pub fn due_at(&self, unix_ms: u64) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.last_ms == 0 || unix_ms >= inner.last_ms.saturating_add(self.resolution_ms)
    }

    /// [`HistoryRing::tick`] at an explicit timestamp (test hook).
    pub fn tick_at(&self, unix_ms: u64, reg: &MetricsRegistry) -> bool {
        {
            let inner = self.inner.lock().unwrap();
            if inner.last_ms != 0 && unix_ms < inner.last_ms.saturating_add(self.resolution_ms) {
                return false;
            }
        }
        // Scrape outside the ring lock — the registry takes its own.
        let snap = HistorySnapshot { unix_ms, values: reg.scrape() };
        let mut inner = self.inner.lock().unwrap();
        if inner.last_ms != 0 && unix_ms < inner.last_ms.saturating_add(self.resolution_ms) {
            return false; // raced with another ticker
        }
        inner.last_ms = unix_ms;
        inner.snaps.push_back(snap);
        if inner.snaps.len() > self.capacity {
            // Thin the older half: keep indices 0, 2, 4, … of it, so old
            // history halves in resolution instead of being truncated.
            let half = inner.snaps.len() / 2;
            let older: Vec<HistorySnapshot> = inner.snaps.drain(..half).collect();
            let kept = older.len().div_ceil(2);
            inner.downsampled += (older.len() - kept) as u64;
            for (i, s) in older.into_iter().enumerate().rev() {
                if i % 2 == 0 {
                    inner.snaps.push_front(s);
                }
            }
        }
        true
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().snaps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots thinned out by downsampling since creation.
    pub fn downsampled(&self) -> u64 {
        self.inner.lock().unwrap().downsampled
    }

    /// The most recent `tail` snapshots (all of them if `None`), oldest
    /// first.
    pub fn snapshots(&self, tail: Option<usize>) -> Vec<HistorySnapshot> {
        let inner = self.inner.lock().unwrap();
        let skip = tail.map(|t| inner.snaps.len().saturating_sub(t)).unwrap_or(0);
        inner.snaps.iter().skip(skip).cloned().collect()
    }

    /// One series' `(unix_ms, value)` trajectory across the ring — the
    /// sparkline input.
    pub fn series(&self, name: &str) -> Vec<(u64, f64)> {
        let inner = self.inner.lock().unwrap();
        inner
            .snaps
            .iter()
            .filter_map(|s| s.values.iter().find(|(k, _)| k == name).map(|(_, v)| (s.unix_ms, *v)))
            .collect()
    }

    /// JSON for `/history.json` and bundle inclusion: ring configuration
    /// plus the most recent `tail` snapshots (oldest first), each carrying
    /// its full series map.
    pub fn render_json(&self, tail: Option<usize>) -> Json {
        let snapshots = self
            .snapshots(tail)
            .into_iter()
            .map(|s| {
                let values = s.values.into_iter().map(|(k, v)| (k, Json::Num(v))).collect();
                Json::obj([("unix_ms", s.unix_ms.into()), ("values", Json::Obj(values))])
            })
            .collect();
        Json::obj([
            ("resolution_ms", self.resolution_ms.into()),
            ("capacity", self.capacity.into()),
            ("len", self.len().into()),
            ("downsampled", self.downsampled().into()),
            ("snapshots", Json::Arr(snapshots)),
        ])
    }
}

/// Render values as a unicode block sparkline (`▁▂▃▄▅▆▇█`), scaled to the
/// slice's own min/max. Empty input renders empty; a flat series renders
/// at the lowest block.
pub fn sparkline(vals: &[f64]) -> String {
    const BLOCKS: [char; 8] =
        ['\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}'];
    let finite: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let (min, max) = finite.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = max - min;
    vals.iter()
        .map(|v| {
            if !v.is_finite() {
                return BLOCKS[0];
            }
            if span <= 0.0 {
                return BLOCKS[0];
            }
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BLOCKS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(v: u64) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("h_total", "history test counter").add(v);
        reg
    }

    #[test]
    fn respects_resolution() {
        let ring = HistoryRing::new(Duration::from_millis(100), 16);
        let reg = reg_with(1);
        assert!(ring.tick_at(1000, &reg));
        assert!(!ring.tick_at(1050, &reg), "inside the resolution window");
        assert!(ring.tick_at(1100, &reg));
        assert_eq!(ring.len(), 2);
        let snaps = ring.snapshots(None);
        assert_eq!(snaps[0].unix_ms, 1000);
        assert_eq!(snaps[1].unix_ms, 1100);
    }

    #[test]
    fn downsamples_older_half_at_capacity() {
        let ring = HistoryRing::new(Duration::from_millis(1), 8);
        let reg = reg_with(1);
        for i in 0..32u64 {
            assert!(ring.tick_at(1000 + i * 10, &reg));
        }
        // Bounded: never exceeds capacity.
        assert!(ring.len() <= 8, "len {}", ring.len());
        assert!(ring.downsampled() > 0);
        let snaps = ring.snapshots(None);
        // Still ordered oldest -> newest, and the newest snapshot is the
        // last tick (recent history is never thinned).
        for w in snaps.windows(2) {
            assert!(w[0].unix_ms < w[1].unix_ms);
        }
        assert_eq!(snaps.last().unwrap().unix_ms, 1000 + 31 * 10);
        // Older spacing is coarser than the newest spacing.
        let oldest_gap = snaps[1].unix_ms - snaps[0].unix_ms;
        let n = snaps.len();
        let newest_gap = snaps[n - 1].unix_ms - snaps[n - 2].unix_ms;
        assert!(oldest_gap >= newest_gap, "old {oldest_gap} new {newest_gap}");
    }

    #[test]
    fn series_and_tail_render() {
        let ring = HistoryRing::new(Duration::from_millis(1), 32);
        let reg = MetricsRegistry::new();
        let c = reg.counter("h_total", "history test counter");
        for i in 0..5u64 {
            c.add(10);
            ring.tick_at(2000 + i * 5, &reg);
        }
        let series = ring.series("h_total");
        assert_eq!(series.len(), 5);
        assert_eq!(series[0], (2000, 10.0));
        assert_eq!(series[4], (2020, 50.0));
        let json = ring.render_json(Some(2)).to_string();
        assert!(json.contains("\"len\":5"), "{json}");
        assert!(json.contains("\"unix_ms\":2020"), "{json}");
        assert!(!json.contains("\"unix_ms\":2000"), "tail should drop oldest: {json}");
        assert!(json.contains("\"h_total\":50"), "{json}");
    }

    #[test]
    fn sparkline_scales_to_range() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[3.0, 3.0]), "\u{2581}\u{2581}");
        let s = sparkline(&[0.0, 7.0]);
        assert_eq!(s.chars().next(), Some('\u{2581}'));
        assert_eq!(s.chars().nth(1), Some('\u{2588}'));
    }
}
