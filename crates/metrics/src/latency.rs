//! Streaming latency summaries for serving-layer instrumentation.

/// An `O(1)`-memory accumulator over a series of wall-time measurements
/// (seconds): count, total, mean, min, max.
///
/// The serving layer (snapshot publishes, solve-drain rounds) records one
/// sample per event; publish reports and service stats carry the summary.
/// Two summaries can be [`merged`](LatencySummary::merge), so per-thread
/// accumulators combine without locks.
///
/// # Example
/// ```
/// use ingrass_metrics::LatencySummary;
/// let mut lat = LatencySummary::new();
/// lat.record(0.002);
/// lat.record(0.004);
/// assert_eq!(lat.count(), 2);
/// assert!((lat.mean_seconds() - 0.003).abs() < 1e-12);
/// assert_eq!(lat.max_seconds(), 0.004);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    count: usize,
    rejected: usize,
    total_s: f64,
    min_s: f64,
    max_s: f64,
}

impl LatencySummary {
    /// An empty summary.
    pub fn new() -> Self {
        LatencySummary::default()
    }

    /// Records one sample. Negative or non-finite samples can only arise
    /// from timer anomalies and must not poison the aggregate: they are
    /// *dropped* — counted in [`LatencySummary::rejected`], but excluded
    /// from count/total/min/max. (An earlier version clamped them to zero
    /// and recorded that, silently pinning `min_seconds` to 0.)
    pub fn record(&mut self, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            self.rejected += 1;
            return;
        }
        if self.count == 0 {
            self.min_s = seconds;
            self.max_s = seconds;
        } else {
            self.min_s = self.min_s.min(seconds);
            self.max_s = self.max_s.max(seconds);
        }
        self.count += 1;
        self.total_s += seconds;
    }

    /// Folds another summary into this one.
    pub fn merge(&mut self, other: &LatencySummary) {
        self.rejected += other.rejected;
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            let rejected = self.rejected;
            *self = *other;
            self.rejected = rejected;
            return;
        }
        self.count += other.count;
        self.total_s += other.total_s;
        self.min_s = self.min_s.min(other.min_s);
        self.max_s = self.max_s.max(other.max_s);
    }

    /// Anomalous samples (negative or non-finite) dropped by
    /// [`LatencySummary::record`].
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Samples recorded.
    pub fn count(&self) -> usize {
        self.count
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

    /// Smallest sample (0 when empty).
    pub fn min_seconds(&self) -> f64 {
        self.min_s
    }

    /// Largest sample (0 when empty).
    pub fn max_seconds(&self) -> f64 {
        self.max_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_all_zero() {
        let lat = LatencySummary::new();
        assert_eq!(lat.count(), 0);
        assert_eq!(lat.total_seconds(), 0.0);
        assert_eq!(lat.mean_seconds(), 0.0);
        assert_eq!(lat.min_seconds(), 0.0);
        assert_eq!(lat.max_seconds(), 0.0);
    }

    #[test]
    fn records_track_min_mean_max() {
        let mut lat = LatencySummary::new();
        for s in [0.003, 0.001, 0.005] {
            lat.record(s);
        }
        assert_eq!(lat.count(), 3);
        assert!((lat.total_seconds() - 0.009).abs() < 1e-12);
        assert!((lat.mean_seconds() - 0.003).abs() < 1e-12);
        assert_eq!(lat.min_seconds(), 0.001);
        assert_eq!(lat.max_seconds(), 0.005);
    }

    #[test]
    fn bogus_samples_are_dropped_not_recorded() {
        let mut lat = LatencySummary::new();
        lat.record(f64::NAN);
        lat.record(-1.0);
        lat.record(f64::INFINITY);
        assert_eq!(lat.count(), 0);
        assert_eq!(lat.rejected(), 3);
        assert_eq!(lat.total_seconds(), 0.0);
        assert_eq!(lat.max_seconds(), 0.0);
    }

    #[test]
    fn anomalies_do_not_poison_min_seconds() {
        // Regression: clamping anomalies to 0.0 and recording them used to
        // pin min_seconds at 0 for the rest of the summary's life.
        let mut lat = LatencySummary::new();
        lat.record(f64::NAN);
        lat.record(0.005);
        lat.record(-3.0);
        lat.record(0.002);
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.rejected(), 2);
        assert_eq!(lat.min_seconds(), 0.002);
        assert_eq!(lat.max_seconds(), 0.005);
        assert!((lat.mean_seconds() - 0.0035).abs() < 1e-12);

        // Merging propagates the rejected count without reviving zeros.
        let mut other = LatencySummary::new();
        other.record(f64::INFINITY);
        other.record(0.004);
        lat.merge(&other);
        assert_eq!(lat.count(), 3);
        assert_eq!(lat.rejected(), 3);
        assert_eq!(lat.min_seconds(), 0.002);

        // Merging into an empty summary keeps its rejected tally too.
        let mut empty = LatencySummary::new();
        empty.record(f64::NAN);
        empty.merge(&other);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.rejected(), 2);
        assert_eq!(empty.min_seconds(), 0.004);
    }

    #[test]
    fn merge_combines_like_a_single_stream() {
        let mut a = LatencySummary::new();
        let mut b = LatencySummary::new();
        let mut whole = LatencySummary::new();
        for (i, s) in [0.002, 0.007, 0.001, 0.004].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*s);
            } else {
                b.record(*s);
            }
            whole.record(*s);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.total_seconds() - whole.total_seconds()).abs() < 1e-12);
        assert_eq!(a.min_seconds(), whole.min_seconds());
        assert_eq!(a.max_seconds(), whole.max_seconds());
        // Merging an empty summary is a no-op in both directions.
        let empty = LatencySummary::new();
        let before = a;
        a.merge(&empty);
        assert_eq!(a, before);
        let mut e = LatencySummary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
