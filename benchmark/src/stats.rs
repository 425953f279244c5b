//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` with linear
/// interpolation between closest ranks — the same definition as
/// NumPy's default, so `quantile(v, 0.5)` is the usual median.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a benchmark
/// bug, never a value to report.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The bucket holding the median of a log₂ histogram (`hist[i]` counts
/// values in `[2^i, 2^(i+1))`), reported as that bucket's lower edge;
/// 0 for an empty histogram. This is how `/stats` exposes queue waits.
pub fn log2_histogram_median(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut seen = 0u64;
    for (i, &count) in hist.iter().enumerate() {
        seen += count;
        if seen * 2 >= total {
            return (1u64 << i) as f64;
        }
    }
    unreachable!("cumulative count reaches the total")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_hit_exact_ranks_and_interpolate_between() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        // 11 samples: rank position 0.9 * 10 = 9 exactly.
        let w: Vec<f64> = (0..11).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(quantile(&w, 0.9), 90.0);
        // 4 samples: position 2.7 sits 70 % of the way from 30 to 40.
        assert!((quantile(&[10.0, 20.0, 30.0, 40.0], 0.9) - 37.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_order_independent() {
        assert_eq!(
            quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5),
            quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5)
        );
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_a_bug() {
        quantile(&[], 0.5);
    }

    #[test]
    fn histogram_median_names_the_bucket_edge() {
        assert_eq!(log2_histogram_median(&[0, 0, 0]), 0.0);
        // 1 value in [1,2), 5 in [8,16): the median is in bucket 3.
        assert_eq!(log2_histogram_median(&[1, 0, 0, 5]), 8.0);
        assert_eq!(log2_histogram_median(&[3, 1]), 1.0);
    }
}
