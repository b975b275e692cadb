//! Order statistics, the tail-percentile rule, digest folding and the
//! bound comparison shared by `repeat` and `compare`.

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile, no higher than the workload's nominal `cap`,
/// that still has [`MIN_BEYOND`] samples beyond it. With fewer than
/// `2 * MIN_BEYOND` samples nothing above the median qualifies and the
/// median is returned.
pub fn tail_percentile(samples: usize, cap: f64) -> f64 {
    if samples < 2 * MIN_BEYOND {
        return 0.5;
    }
    cap.min(1.0 - MIN_BEYOND as f64 / samples as f64)
}

/// Order-insensitive fold of per-op digests: xor of each digest mixed with
/// its op index, so two ops swapping results do not cancel out.
pub fn fold_digests(digests: &[u64]) -> u64 {
    digests.iter().enumerate().fold(0, |acc, (i, d)| acc ^ d.rotate_left((i % 63) as u32 + 1))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    Lower,
    Higher,
}

impl Direction {
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "lower" => Some(Direction::Lower),
            "higher" => Some(Direction::Higher),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// The run-to-run spread is wider than the bound: the difference cannot
    /// be told from noise either way.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `base` the value `new` is worse (positive) or better
/// (negative), given which direction is better.
pub fn worsening(base: f64, new: f64, better: Direction) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Direction::Lower => (new - base) / base,
        Direction::Higher => (base - new) / base,
    }
}

/// Judge `new` against `base` under `bound`; `spread` is the larger of the
/// two sides' interquartile range as a share of its median (0 when a side
/// is a single run).
pub fn judge(base: f64, new: f64, better: Direction, bound: f64, spread: f64) -> Verdict {
    let w = worsening(base, new, better);
    if spread > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Interquartile range as a share of the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: f64| {
        let pos = k * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let med = quantile(&s, 0.5);
    if med == 0.0 {
        0.0
    } else {
        (q(3.0) - q(1.0)) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, so the cap holds.
        assert_eq!(tail_percentile(1000, 0.99), 0.99);
        // 500 samples: p99 would leave 5; the rule lowers it to p98.
        assert!((tail_percentile(500, 0.99) - 0.98).abs() < 1e-12);
        // 100 samples: p90.
        assert!((tail_percentile(100, 0.99) - 0.90).abs() < 1e-12);
        // A lower nominal cap is never raised.
        assert_eq!(tail_percentile(100_000, 0.95), 0.95);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(19, 0.99), 0.5);
        assert_eq!(tail_percentile(20, 0.99), 0.5);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn digest_fold_is_position_sensitive_and_self_inverse() {
        let a = fold_digests(&[1, 2, 3]);
        assert_ne!(a, fold_digests(&[2, 1, 3]), "swapped results must not cancel");
        assert_ne!(a, fold_digests(&[1, 2]));
        assert_eq!(fold_digests(&[]), 0);
        // xor: folding the same list twice into one accumulator cancels.
        assert_eq!(a ^ fold_digests(&[1, 2, 3]), 0);
    }

    #[test]
    fn bounds_respect_direction_and_spread() {
        use Direction::*;
        // Latency up 20 % against a 10 % bound: worse. Down 20 %: better.
        assert_eq!(judge(100.0, 120.0, Lower, 0.10, 0.02), Verdict::Worse);
        assert_eq!(judge(100.0, 80.0, Lower, 0.10, 0.02), Verdict::Better);
        // Throughput down 20 %: worse; up 5 %: within.
        assert_eq!(judge(100.0, 80.0, Higher, 0.10, 0.02), Verdict::Worse);
        assert_eq!(judge(100.0, 105.0, Higher, 0.10, 0.02), Verdict::Within);
        // Spread wider than the bound: neither side can be claimed.
        assert_eq!(judge(100.0, 150.0, Lower, 0.10, 0.30), Verdict::Unresolved);
        assert!((worsening(200.0, 150.0, Higher) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
