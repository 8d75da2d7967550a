//! Order statistics for repeat timings and latency samples.
//!
//! Quartiles use the same "exclusive" method as Python's
//! `statistics.quantiles(values, n=4)`, so the spread this harness
//! prints is the spread an outside driver computes from the same raw
//! values.

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller has at least one
/// repeat.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` by the exclusive method; a single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Five-number view of one metric over the repeats of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median — the value the metric reports.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
    /// The per-repeat values, in repeat order.
    pub raw: Vec<f64>,
}

impl Summary {
    /// Summarize per-repeat values.
    pub fn of(raw: Vec<f64>) -> Summary {
        let (q1, _, q3) = quartiles(&raw);
        Summary {
            min: raw.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: median(&raw),
            q3,
            max: raw.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            raw,
        }
    }

    /// A value measured once per run (counts, ratios, memory).
    pub fn single(value: f64) -> Summary {
        Summary::of(vec![value])
    }

    /// Distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// How many samples must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of ascending `sorted`, or
/// `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond it — a
/// p99 of 200 samples is two outliers, not a percentile.
pub fn tail_percentile(sorted: &[u64], q: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= TAIL_SAMPLES).then(|| sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn summary_keeps_raw_order_and_extremes() {
        let s = Summary::of(vec![2.0, 9.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.min, s.median, s.max), (2.0, 5.0, 9.0));
        assert_eq!(s.raw, vec![2.0, 9.0, 4.0, 6.0, 5.0]);
        assert_eq!(s.iqr(), s.q3 - s.q1);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let thousand: Vec<u64> = (1..=1000).collect();
        // p99 of 1000: rank 990, exactly 10 beyond.
        assert_eq!(tail_percentile(&thousand, 0.99), Some(990));
        assert_eq!(tail_percentile(&thousand, 0.5), Some(500));
        // p99.9 of 1000 leaves one sample beyond: refused.
        assert_eq!(tail_percentile(&thousand, 0.999), None);
        let few: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_percentile(&few, 0.99), None, "999 samples leave 9 beyond p99");
        assert_eq!(tail_percentile(&[], 0.5), None);
    }
}
