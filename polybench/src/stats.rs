//! Order statistics over stopwatch samples.

/// Median of `values` (mean of the two middle elements for an even
/// count). Panics on an empty slice: every reported timing has samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (of the per-personality values of one metric).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of nanosecond samples, in nanoseconds.
pub fn median_ns(samples: &[u64]) -> f64 {
    let as_f64: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    median(&as_f64)
}

/// Nearest-rank percentile (`pct` in 0..=100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990: the product is
    // not exact in binary.
    let rank = (pct / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile ladder a tail is reported on: each percentile with
/// the `k` of the "one sample in `k`" it leaves beyond it.
const LADDER: [(f64, usize); 6] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
    (99.999, 100_000),
];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it, or `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rfind(|(_, one_in)| n / one_in >= 10)
        .map(|(pct, _)| *pct)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default, exclusive method) computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a regression bound is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_ns(&[10, 30, 20]), 20.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.9), 9_990.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), None);
        // 20 samples: the median has exactly ten beyond it.
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        // p99 of 1000 has ten beyond it, p99 of 999 has nine.
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(25_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
