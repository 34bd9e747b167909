//! Order statistics over small samples: nearest-rank percentiles, the
//! quartiles the acceptance rule uses, and the "at least ten samples
//! beyond" rule that decides which tail percentile a pool can resolve.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the samples at or below it. `p` in `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it — the one worth reporting for a pool of `n`.
pub fn highest_resolved_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as the mean of the two middle values (what
/// `statistics.median` gives), for run-level summaries.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance rule for a
/// benchmark's spread is written against. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // position k*(n+1)/4 on a 1-based scale, clamped to 1..n-1; the
        // remainder is taken after the clamp, so the ends extrapolate
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; 0 when it cannot be
/// formed (fewer than two values, or a zero median).
pub fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // nearest rank returns a sample, never an interpolation
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // movie: 5 runs x 22 steady frames
        assert_eq!(samples_beyond(110, 90.0), 11);
        assert_eq!(samples_beyond(110, 95.0), 5);
        assert_eq!(highest_resolved_percentile(110), Some(90.0));
        // ingest: 60 x 22
        assert_eq!(highest_resolved_percentile(1320), Some(99.0));
        assert_eq!(highest_resolved_percentile(100), Some(90.0));
        assert_eq!(highest_resolved_percentile(99), Some(75.0));
        assert_eq!(highest_resolved_percentile(20), Some(50.0));
        assert_eq!(highest_resolved_percentile(19), None);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }
}
