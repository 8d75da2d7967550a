//! Percentile machinery.
//!
//! The paper aggregates "in terms of the distribution of latency values
//! per IP address ... so that well-connected hosts that reply reliably are
//! not over-represented relative to hosts that reply infrequently". The
//! central object is therefore a per-address sample set
//! ([`LatencySamples`]) and percentiles *of* per-address percentiles.
//!
//! Percentiles use the nearest-rank definition (the smallest sample such
//! that at least `p`% of samples are ≤ it), which is exact, monotone in
//! `p`, and always returns an observed value — the right choice when the
//! resulting number is read as "the timeout that would have captured p% of
//! pings".

use std::borrow::Cow;

/// The percentile levels the paper's tables use.
pub const PAPER_PERCENTILES: [f64; 7] = [1.0, 50.0, 80.0, 90.0, 95.0, 98.0, 99.0];

/// Nearest-rank index (1-based) for fraction `q ∈ (0, 1]` of `n` samples:
/// `⌈q·n⌉`, clamped into `1..=n`.
///
/// The product is snapped to the nearest integer before the ceiling when
/// it lands within float error of one: `0.14 * 50` evaluates to
/// `7.000000000000001` in f64, and a plain `ceil()` would quote rank 8 —
/// one sample higher than the nearest-rank definition asks for. Every
/// quantile consumer in the repo (offline tables, the CoDel window, the
/// loadgen report) must route through this so on- and offline ranks agree.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    let scaled = q * n as f64;
    let snapped = scaled.round();
    let rank =
        if (scaled - snapped).abs() <= scaled.abs() * 1e-12 { snapped } else { scaled.ceil() };
    (rank as usize).clamp(1, n)
}

/// Nearest-rank percentile of a **sorted** slice. `p` in `(0, 100]`.
/// Returns `None` on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "slice not sorted");
    Some(sorted[nearest_rank(p / 100.0, sorted.len()) - 1])
}

/// Don't bother merging the tail into the run below this size: reads scan
/// or sort a tail this small essentially for free.
const TAIL_MIN_MERGE: usize = 64;

/// Latency samples of one address.
///
/// Ingestion is amortized O(log n) per [`push`](Self::push): values land
/// in an unsorted tail that is merged into the sorted run whenever it
/// grows past a fraction of the run (so the total merge work over n
/// pushes is O(n log n), not the O(n²) of a sorted `Vec::insert` — flood
/// addresses receive 20k+ responses). Reads see the merged view; call
/// [`flush`](Self::flush) after bulk ingestion so repeated reads hit the
/// zero-cost sorted path.
///
/// ```
/// use beware_core::percentile::LatencySamples;
///
/// let s = LatencySamples::from_values(vec![0.1, 0.2, 0.2, 5.0]);
/// assert_eq!(s.percentile(50.0), Some(0.2));
/// assert_eq!(s.percentile(100.0), Some(5.0));
/// // A 3-second timeout would lose a quarter of this host's pings:
/// assert!((s.fraction_above(3.0) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencySamples {
    /// Sorted run.
    run: Vec<f64>,
    /// Unsorted recently-appended values, merged into `run` lazily.
    tail: Vec<f64>,
}

impl LatencySamples {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted values (non-finite values are rejected —
    /// latencies come from subtraction of timestamps and must be real).
    pub fn from_values(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| v.is_finite()), "non-finite latency sample");
        values.sort_by(f64::total_cmp);
        LatencySamples { run: values, tail: Vec::new() }
    }

    /// Build by k-way merging already-sorted runs (ascending each), as
    /// produced by [`into_sorted_vec`](Self::into_sorted_vec). Avoids the
    /// concat-and-resort cost when combining surveys.
    pub fn from_sorted_runs(runs: Vec<Vec<f64>>) -> Self {
        LatencySamples { run: merge_sorted_runs(runs), tail: Vec::new() }
    }

    /// Append one value. Amortized cheap: the value goes into the tail,
    /// which is merged into the sorted run only when it has grown past a
    /// quarter of the run's size.
    pub fn push(&mut self, value: f64) {
        assert!(value.is_finite(), "non-finite latency sample");
        self.tail.push(value);
        if self.tail.len() >= TAIL_MIN_MERGE && self.tail.len() * 4 >= self.run.len() {
            self.flush();
        }
    }

    /// Merge the unsorted tail into the sorted run. Reads work without
    /// this, but pay to re-merge the tail each time; call it once after
    /// bulk ingestion.
    pub fn flush(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.tail.sort_by(f64::total_cmp);
        self.run = merge_two(&self.run, &self.tail);
        self.tail.clear();
    }

    /// The sorted samples: borrowed straight from the run when the tail
    /// is empty, otherwise merged into a fresh vector.
    fn sorted_view(&self) -> Cow<'_, [f64]> {
        if self.tail.is_empty() {
            Cow::Borrowed(&self.run)
        } else {
            let mut tail = self.tail.clone();
            tail.sort_by(f64::total_cmp);
            Cow::Owned(merge_two(&self.run, &tail))
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.run.len() + self.tail.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.tail.is_empty()
    }

    /// Nearest-rank percentile.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        percentile_sorted(&self.sorted_view(), p)
    }

    /// The sorted samples. Borrowed (free) when the set is flushed.
    pub fn values(&self) -> Cow<'_, [f64]> {
        self.sorted_view()
    }

    /// Consume into a sorted vector.
    pub fn into_sorted_vec(mut self) -> Vec<f64> {
        self.flush();
        self.run
    }

    /// Fraction of samples strictly greater than `x` (used for "what loss
    /// rate would a timeout of `x` infer"). Never needs a merge: binary
    /// search on the run plus a linear scan of the tail.
    pub fn fraction_above(&self, x: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let below_or_eq =
            self.run.partition_point(|&v| v <= x) + self.tail.iter().filter(|&&v| v <= x).count();
        (n - below_or_eq) as f64 / n as f64
    }

    /// The percentile profile at the paper's levels
    /// (1/50/80/90/95/98/99). `None` when empty.
    pub fn paper_profile(&self) -> Option<[f64; 7]> {
        if self.is_empty() {
            return None;
        }
        let view = self.sorted_view();
        let mut out = [0.0; 7];
        for (i, &p) in PAPER_PERCENTILES.iter().enumerate() {
            out[i] = percentile_sorted(&view, p).expect("non-empty");
        }
        Some(out)
    }
}

/// Equality is observational — the run/tail split is a cache detail.
impl PartialEq for LatencySamples {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.sorted_view() == other.sorted_view()
    }
}

/// Merge two sorted slices into a fresh sorted vector.
fn merge_two(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].total_cmp(&b[j]).is_le() {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// K-way merge of sorted runs. The k in play is small (two surveys, a
/// handful of chunks), so a linear scan over run heads beats a heap.
fn merge_sorted_runs(mut runs: Vec<Vec<f64>>) -> Vec<f64> {
    runs.retain(|r| !r.is_empty());
    match runs.len() {
        0 => return Vec::new(),
        1 => return runs.pop().expect("one run"),
        2 => return merge_two(&runs[0], &runs[1]),
        _ => {}
    }
    let total = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heads = vec![0usize; runs.len()];
    loop {
        let mut best: Option<usize> = None;
        for (k, run) in runs.iter().enumerate() {
            if heads[k] >= run.len() {
                continue;
            }
            best = match best {
                Some(b) if runs[b][heads[b]].total_cmp(&run[heads[k]]).is_le() => Some(b),
                _ => Some(k),
            };
        }
        let Some(b) = best else { break };
        out.push(runs[b][heads[b]]);
        heads[b] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_basics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&s, 25.0), Some(1.0));
        assert_eq!(percentile_sorted(&s, 50.0), Some(2.0));
        assert_eq!(percentile_sorted(&s, 75.0), Some(3.0));
        assert_eq!(percentile_sorted(&s, 100.0), Some(4.0));
        assert_eq!(percentile_sorted(&s, 1.0), Some(1.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn integral_rank_products_do_not_drift_up() {
        // 0.14 * 50 is 7.000000000000001 in f64; a plain ceil() quotes
        // rank 8. Nearest-rank says rank 7.
        let q = 0.14;
        assert!(q * 50.0 > 7.0, "the premise: the product overshoots");
        assert_eq!(nearest_rank(q, 50), 7);
        let s: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 14.0), Some(7.0));
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 90.0), Some(9.0));
        assert_eq!(percentile_sorted(&s, 30.0), Some(3.0));
        assert_eq!(percentile_sorted(&s, 70.0), Some(7.0));
    }

    #[test]
    fn nearest_rank_boundaries_at_small_n() {
        // Pin the exact rank for every window fill a fresh tracker walks
        // through: q = 0.5 and q = 0.95 at n = 1..5.
        let half: Vec<usize> = (1..=5).map(|n| nearest_rank(0.5, n)).collect();
        assert_eq!(half, vec![1, 1, 2, 2, 3]);
        let p95: Vec<usize> = (1..=5).map(|n| nearest_rank(0.95, n)).collect();
        assert_eq!(p95, vec![1, 2, 3, 4, 5]);
        // q = 1.0 is always the max; tiny q clamps up to rank 1.
        assert_eq!(nearest_rank(1.0, 5), 5);
        assert_eq!(nearest_rank(0.001, 5), 1);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in PAPER_PERCENTILES {
            assert_eq!(percentile_sorted(&[7.5], p), Some(7.5));
        }
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let s: Vec<f64> = (0..997).map(|i| (i as f64 * 13.7) % 100.0).collect();
        let samples = LatencySamples::from_values(s);
        let mut last = f64::MIN;
        for p in 1..=100 {
            let v = samples.percentile(f64::from(p)).unwrap();
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn push_keeps_sorted_and_matches_from_values() {
        let mut a = LatencySamples::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0, 2.0] {
            a.push(v);
        }
        let b = LatencySamples::from_values(vec![5.0, 1.0, 3.0, 2.0, 4.0, 2.0]);
        assert_eq!(a, b);
        assert_eq!(a.values().as_ref(), &[1.0, 2.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn lazy_tail_reads_match_flushed_reads() {
        // Enough pushes to cross the merge threshold several times, with
        // reads in between — the unsorted tail must stay invisible.
        let mut lazy = LatencySamples::new();
        let mut values = Vec::new();
        for i in 0..500u32 {
            let v = f64::from(i.wrapping_mul(2_654_435_761).wrapping_add(i) % 1000) / 7.0;
            lazy.push(v);
            values.push(v);
            if i % 17 == 0 {
                let eager = LatencySamples::from_values(values.clone());
                assert_eq!(lazy.percentile(50.0), eager.percentile(50.0), "i={i}");
                assert_eq!(lazy.len(), eager.len());
                assert!((lazy.fraction_above(70.0) - eager.fraction_above(70.0)).abs() < 1e-12);
            }
        }
        let eager = LatencySamples::from_values(values);
        assert_eq!(lazy, eager);
        lazy.flush();
        assert_eq!(lazy, eager);
        assert!(lazy.values().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sorted_runs_merge_matches_resort() {
        let runs =
            vec![vec![0.1, 0.4, 0.4, 9.0], vec![], vec![0.2], vec![0.0, 0.3, 0.35, 0.5, 12.0]];
        let mut flat: Vec<f64> = runs.iter().flatten().copied().collect();
        flat.sort_by(f64::total_cmp);
        assert_eq!(LatencySamples::from_sorted_runs(runs).into_sorted_vec(), flat);
        assert!(LatencySamples::from_sorted_runs(Vec::new()).is_empty());
        assert_eq!(
            LatencySamples::from_sorted_runs(vec![vec![1.0, 2.0]]).into_sorted_vec(),
            vec![1.0, 2.0]
        );
    }

    #[test]
    fn fraction_above() {
        let s = LatencySamples::from_values(vec![0.1, 0.2, 0.3, 5.0, 10.0]);
        assert!((s.fraction_above(1.0) - 0.4).abs() < 1e-12);
        assert!((s.fraction_above(10.0) - 0.0).abs() < 1e-12);
        assert!((s.fraction_above(0.05) - 1.0).abs() < 1e-12);
        assert_eq!(LatencySamples::new().fraction_above(1.0), 0.0);
    }

    #[test]
    fn paper_profile_levels() {
        let s = LatencySamples::from_values((1..=100).map(f64::from).collect());
        let prof = s.paper_profile().unwrap();
        assert_eq!(prof[0], 1.0); // p1
        assert_eq!(prof[1], 50.0); // p50
        assert_eq!(prof[6], 99.0); // p99
        assert!(LatencySamples::new().paper_profile().is_none());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_rejected() {
        LatencySamples::from_values(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_push_rejected() {
        LatencySamples::new().push(f64::INFINITY);
    }
}
