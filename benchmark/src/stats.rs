//! Order statistics over latency samples.

/// The `p`-th percentile (0..=100) by the nearest-rank rule: the
/// smallest sample with at least `p` percent of the samples at or below
/// it. No interpolation, so the value is always one that was measured.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.saturating_sub(1).min(last)]
}

/// Median with the two middle samples averaged on even counts.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean; a 2x gain on a short query counts like one on a long
/// query. Zero when empty or when any sample is not positive.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() || samples.iter().any(|s| *s <= 0.0) {
        return 0.0;
    }
    (samples.iter().map(|s| s.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are checked against.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    match (quartiles(samples), median(samples)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        // Unsorted input, and ten samples lie beyond p95 of 200.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 95.0), 190.0);
        assert_eq!(v.iter().filter(|x| **x > 190.0).count(), 10);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        // Halving the short query moves it as much as halving the long one.
        let a = geomean(&[0.5, 100.0]);
        let b = geomean(&[1.0, 50.0]);
        assert!((a - b).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.0).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
