//! Fixed-bucket log-scale latency histograms for SLO accounting.
//!
//! [`LatencySummary`](crate::LatencySummary) answers min/mean/max; serving
//! SLOs are stated in *percentiles* (p99 under overload), which no O(1)
//! accumulator can produce. [`LatencyHistogram`] is the classic
//! fixed-memory compromise: a bank of log-spaced buckets covering
//! 1 µs … 100 s at 8 buckets per decade (≈ 33 % relative resolution per
//! bucket, i.e. a reported quantile is exact up to one bucket's width),
//! with explicit under/overflow buckets so no sample is ever lost.
//! Recording is O(1), [`merge`](LatencyHistogram::merge) is element-wise,
//! and [`quantile`](LatencyHistogram::quantile) is a deterministic
//! function of the recorded multiset — two runs that record the same
//! samples report bit-identical percentiles, which is what lets the
//! traffic overload suite pin p50/p95/p99 at a fixed seed across worker
//! widths.

/// Buckets per decade of the log-scale bank.
const PER_DECADE: usize = 8;
/// Lower bound of the first regular bucket (seconds).
const MIN_S: f64 = 1e-6;
/// Upper bound of the last regular bucket (seconds).
const MAX_S: f64 = 1e2;
/// Decades covered by the regular buckets.
const DECADES: usize = 8;
/// Regular (log-spaced) buckets.
const REGULAR: usize = PER_DECADE * DECADES;
/// Regular buckets plus the underflow (`< 1 µs`, index 0) and overflow
/// (`≥ 100 s`, last index) buckets.
const BUCKETS: usize = REGULAR + 2;

/// A fixed-memory log-scale histogram over wall-time samples (seconds),
/// with mergeable counts and deterministic quantiles.
///
/// # Example
/// ```
/// use ingrass_metrics::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for i in 1..=100u32 {
///     h.record(f64::from(i) * 1e-3); // 1 ms … 100 ms
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.quantile(0.50);
/// let p99 = h.quantile(0.99);
/// // Bucket resolution is ~33 %: the medians land in the right bucket.
/// assert!(p50 > 0.030 && p50 < 0.075, "p50 {p50}");
/// assert!(p99 > 0.070 && p99 <= 0.135, "p99 {p99}");
/// assert!(p50 < p99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    rejected: u64,
    total_s: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            rejected: 0,
            total_s: 0.0,
        }
    }
}

/// Bucket index of a finite non-negative sample. The regular-bank bucket
/// boundaries are *defined* by [`lower_bound`] (the same values
/// [`LatencyHistogram::quantile`] interpolates between): bucket `1 + i`
/// holds exactly the samples in `[lower_bound(i), lower_bound(i + 1))`.
fn bucket_of(seconds: f64) -> usize {
    if seconds < MIN_S {
        return 0;
    }
    if seconds >= MAX_S {
        return BUCKETS - 1;
    }
    // `log10(s / MIN_S) · PER_DECADE` is only a hint: one-ulp rounding in
    // the division or the log places a sample sitting exactly on a bucket
    // boundary one bucket off (e.g. `lower_bound(1)` floors to 0).
    // Correct against the exact bounds so placement and interpolation
    // always agree.
    let mut i = (((seconds / MIN_S).log10() * PER_DECADE as f64).floor() as usize).min(REGULAR - 1);
    while i > 0 && seconds < lower_bound(i) {
        i -= 1;
    }
    while i + 1 < REGULAR && seconds >= lower_bound(i + 1) {
        i += 1;
    }
    1 + i
}

/// Lower bound (seconds) of regular bucket `i` (0-based within the
/// regular bank).
fn lower_bound(i: usize) -> f64 {
    MIN_S * 10f64.powf(i as f64 / PER_DECADE as f64)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample. Negative or non-finite samples are dropped and
    /// counted in [`LatencyHistogram::rejected`], exactly as
    /// [`crate::LatencySummary::record`] treats timer anomalies.
    pub fn record(&mut self, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            self.rejected += 1;
            return;
        }
        self.counts[bucket_of(seconds)] += 1;
        self.count += 1;
        self.total_s += seconds;
    }

    /// Folds another histogram into this one (element-wise counts).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.rejected += other.rejected;
        self.total_s += other.total_s;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Anomalous samples (negative or non-finite) dropped by
    /// [`LatencyHistogram::record`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Sum of all samples (seconds).
    pub fn total_seconds(&self) -> f64 {
        self.total_s
    }

    /// Mean sample (0 when empty).
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) of the recorded samples, resolved
    /// to bucket precision: the sample of rank `⌈q·count⌉` is located in
    /// its bucket and the value is geometrically interpolated between the
    /// bucket's bounds by the rank's position inside it. Samples below
    /// 1 µs report 1 µs; samples at or above 100 s report 100 s (the
    /// bank's edges).
    ///
    /// An empty histogram has no samples to rank, so every quantile is
    /// **defined as 0** (never a rank-1 probe of empty buckets); use
    /// [`LatencyHistogram::try_quantile`] to distinguish "no samples"
    /// from a real zero-latency percentile.
    ///
    /// # Panics
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.try_quantile(q).unwrap_or(0.0)
    }

    /// [`LatencyHistogram::quantile`], except an empty histogram returns
    /// `None` instead of 0.
    ///
    /// # Panics
    /// Panics if `q` is not within `[0, 1]`.
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                if i == 0 {
                    return Some(MIN_S);
                }
                if i == BUCKETS - 1 {
                    return Some(MAX_S);
                }
                let lo = lower_bound(i - 1);
                let hi = lower_bound(i);
                // Geometric interpolation by the rank's position within
                // the bucket (log-spaced buckets → log-space midpoints).
                let frac = (rank - seen) as f64 / c as f64;
                return Some(lo * (hi / lo).powf(frac));
            }
            seen += c;
        }
        Some(MAX_S) // unreachable while count tracks the bucket sums
    }

    /// Median ([`quantile`](LatencyHistogram::quantile) at 0.50).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The raw bucket counts (underflow, 64 log-spaced buckets, overflow)
    /// — for serialization into perf reports.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.mean_seconds(), 0.0);
        // The Option form tells "no samples" apart from a real zero.
        assert_eq!(h.try_quantile(0.0), None);
        assert_eq!(h.try_quantile(0.5), None);
        assert_eq!(h.try_quantile(1.0), None);
        let mut h = h;
        h.record(0.5);
        assert!(h.try_quantile(0.5).is_some());
    }

    #[test]
    fn boundary_samples_land_in_their_own_bucket() {
        // Every regular bucket boundary must open its bucket: bucket
        // `1 + k` is [lower_bound(k), lower_bound(k+1)). The log10 hint
        // alone floors lower_bound(1) = 10^(1/8) µs into bucket 1.
        for k in 0..REGULAR {
            let lb = lower_bound(k);
            assert_eq!(bucket_of(lb), 1 + k, "boundary {k} ({lb:e}) misplaced");
            // One ulp below the boundary belongs to the bucket before it.
            let below = f64::from_bits(lb.to_bits() - 1);
            let want = if k == 0 { 0 } else { k };
            assert_eq!(bucket_of(below), want, "pre-boundary {k} misplaced");
        }
    }

    #[test]
    fn edge_samples_clamp_to_the_edge_buckets() {
        // At or above the ceiling → overflow bucket, never out of range.
        assert_eq!(bucket_of(MAX_S), BUCKETS - 1);
        assert_eq!(bucket_of(f64::from_bits(MAX_S.to_bits() - 1)), REGULAR);
        assert_eq!(bucket_of(MAX_S * 10.0), BUCKETS - 1);
        assert_eq!(bucket_of(f64::MAX), BUCKETS - 1);
        // Below the floor — including subnormals — → underflow bucket.
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(f64::MIN_POSITIVE), 0);
        assert_eq!(bucket_of(f64::from_bits(1)), 0); // smallest subnormal
        assert_eq!(bucket_of(f64::from_bits(MIN_S.to_bits() - 1)), 0);
        assert_eq!(bucket_of(MIN_S), 1);
    }

    #[test]
    fn placement_and_interpolation_agree_at_boundaries() {
        // A lone boundary sample's quantile must interpolate inside the
        // bucket that holds it: within [lower_bound(k), lower_bound(k+1)].
        for k in [1usize, 2, 3, 17, 40] {
            let mut h = LatencyHistogram::new();
            let lb = lower_bound(k);
            h.record(lb);
            let q = h.quantile(1.0);
            assert!(
                q >= lb && q <= lower_bound(k + 1),
                "k={k}: sample {lb:e} reported as {q:e}"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bucket_accurate() {
        let mut h = LatencyHistogram::new();
        // 1000 samples spread over three decades.
        for i in 0..1000u32 {
            h.record(1e-4 * 1.007f64.powi(i as i32));
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99);
        // True p50 is 1e-4·1.007^500 ≈ 3.26e-3; one bucket is ×1.33 wide.
        let true_p50 = 1e-4 * 1.007f64.powi(500);
        assert!(p50 / true_p50 < 1.4 && true_p50 / p50 < 1.4, "p50 {p50}");
    }

    #[test]
    fn under_and_overflow_are_pinned_to_the_edges() {
        let mut h = LatencyHistogram::new();
        h.record(0.0);
        h.record(1e-9);
        h.record(1e3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), 1e-6);
        assert_eq!(h.quantile(1.0), 1e2);
    }

    #[test]
    fn bogus_samples_are_dropped() {
        let mut h = LatencyHistogram::new();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(f64::INFINITY);
        h.record(0.5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.rejected(), 3);
    }

    #[test]
    fn merge_equals_single_stream() {
        let samples: Vec<f64> = (1..=200).map(|i| i as f64 * 2.5e-4).collect();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                a.record(s);
            } else {
                b.record(s);
            }
            whole.record(s);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.quantile(0.99), whole.quantile(0.99));
        // Merging an empty histogram is a no-op.
        let before = a;
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn quantile_is_deterministic_under_permutation() {
        let mut fwd = LatencyHistogram::new();
        let mut rev = LatencyHistogram::new();
        let samples: Vec<f64> = (1..=500).map(|i| 1e-5 * i as f64).collect();
        for &s in &samples {
            fwd.record(s);
        }
        for &s in samples.iter().rev() {
            rev.record(s);
        }
        assert_eq!(fwd, rev);
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 0.999] {
            assert_eq!(fwd.quantile(q), rev.quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_quantile_panics() {
        LatencyHistogram::new().quantile(1.5);
    }
}
