//! Order statistics shared by the run loop and `dbbench compare`.
//!
//! Percentiles of op latencies use the nearest-rank definition, so a
//! reported percentile is always a latency that was actually measured.
//! Medians and quartiles of run-level values follow Python's
//! `statistics.median` and `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads `dbbench compare` prints
//! are the ones an outside script computes from the same numbers.

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank whose share of samples is at least `p`%.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending-sorted `sorted`; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Number of samples strictly above the nearest-rank percentile `p` of
/// `n` samples. A percentile is only reported when at least ten samples
/// lie beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as Python's `statistics.median`: the middle value, or the mean
/// of the two middle values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (method "exclusive"). One value
/// yields that value three times; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            // Python's exact integer rescaling; `delta` leaves 0..4 when
            // the clamp bites, which extrapolates linearly as Python does.
            let m = ld as i64 + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..4i64) {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// Interquartile range as a share of the median (the run-to-run spread
/// the bounds in `BENCHMARK.json` are checked against).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Rank arithmetic on the hundred-sample boundary.
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 90.0), Some(90.0));
        assert_eq!(percentile(&w, 50.0), Some(50.0));
    }

    #[test]
    fn ten_samples_beyond_p90_needs_a_hundred_ops() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(105, 90.0), 10);
        assert_eq!(samples_beyond(110, 90.0), 11);
        assert_eq!(samples_beyond(36, 90.0), 3);
        assert_eq!(samples_beyond(0, 90.0), 0);
        assert_eq!(samples_beyond(20, 50.0), 10);
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[9.0]), Some([9.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&v).expect("spread");
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[4.0, 4.0, 4.0]), Some(0.0));
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
