//! Percentiles and the spread measure the acceptance rule uses.

/// Nearest-rank percentile of ascending `sorted` (`p` in 0..=1).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile is reported only where at least ten samples lie beyond it
/// (choosing-metrics §1): fewer, and the value is one scheduler hiccup.
pub fn enough_beyond(samples: usize, p: f64) -> bool {
    let rank = ((p * samples as f64).ceil() as usize).clamp(1, samples.max(1));
    samples >= rank + 10
}

pub fn median_f64(values: &[f64]) -> f64 {
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

/// Distance between the first and third quartile as a share of the median,
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the driver's steadiness measure.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median_f64(&v);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(enough_beyond(1000, 0.99));
        assert!(!enough_beyond(999, 0.99));
        assert!(enough_beyond(20, 0.50));
        assert!(!enough_beyond(19, 0.50));
        assert!(!enough_beyond(0, 0.50));
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_share(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let got = iqr_share(&[10.0, 20.0]).unwrap();
        assert!((got - 1.0).abs() < 1e-12, "{got}");
        assert_eq!(iqr_share(&[3.0]), None);
    }
}
