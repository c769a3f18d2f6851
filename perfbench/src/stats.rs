//! Order statistics over raw latency samples.
//!
//! Percentiles are nearest-rank over the exact samples (no histogram
//! buckets). A tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it; below that it is noise, and the
//! helper says so by returning `None`.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of any non-empty sample set (mean of the two middle samples for
/// an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// Nearest-rank `q`-quantile (`0 < q < 1`), or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1), got {q}");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p95 of n samples sits at rank ceil(0.95 n); it is reportable only
        // once n - rank >= 10, i.e. from n = 200 on.
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), None);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        // The median of 20 samples has exactly 10 beyond it.
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
    }

    #[test]
    fn percentile_counts_samples_not_values() {
        // Ties do not count as "beyond": 200 equal samples still report.
        let xs = vec![1.0; 200];
        assert_eq!(percentile(&xs, 0.95), Some(1.0));
        let mut xs: Vec<f64> = (0..300).map(|i| (i % 7) as f64).collect();
        xs.reverse();
        let p = percentile(&xs, 0.95).expect("300 samples leave 15 beyond p95");
        assert_eq!(p, 6.0);
    }
}
