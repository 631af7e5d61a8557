//! Order statistics for the benchmark's samples.
//!
//! Percentiles use the nearest-rank rule on a sorted copy. A tail
//! percentile is only reported when the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie beyond it, so p99 needs 1 000
//! samples and p90 needs 100.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of unsorted `values`; `0.0` for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples needed to support the `p`-th percentile.
pub fn needed(p: f64) -> usize {
    (MIN_BEYOND as f64 * 100.0 / (100.0 - p) - 1e-9).ceil() as usize
}

/// The median: the mean of the two middle values for an even count,
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean, `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), 90.0);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        assert_eq!(needed(50.0), 20);
        assert_eq!(needed(90.0), 100);
        assert_eq!(needed(99.0), 1000);
        // At exactly the needed count, ten samples lie beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 99.0)).count(), 10);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
