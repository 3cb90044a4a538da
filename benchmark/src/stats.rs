//! The estimators: medians of rounds, paired ratios, supported percentiles.

/// Median of `values` (mean of the two middle ones for an even count).
/// NaN for an empty slice, so a missing measurement cannot read as a number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The location of a mix of `kinds` exact strata: the median of each kind,
/// averaged.  The plain median of a k-mode mixture sits between two modes and
/// jumps from one to the other with the slightest shift; each stratum's own
/// median does not, and the mix's composition is exact, so the mean of the
/// strata is well defined.  `None` when a stratum has fewer than `min` samples.
pub fn stratified_median(samples: &[f64], kind_of: &[u8], kinds: usize, min: usize) -> Option<f64> {
    let mut strata = vec![Vec::new(); kinds];
    for (&s, &k) in samples.iter().zip(kind_of) {
        strata[k as usize].push(s);
    }
    if strata.iter().any(|s| s.len() < min) {
        return None;
    }
    Some(strata.iter().map(|s| median(s)).sum::<f64>() / kinds as f64)
}

/// Per-round paired ratios `num[i] / den[i]`, formed before any median so
/// that drift common to both phases of a round cancels.
pub fn paired_ratio(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter().zip(den).map(|(n, d)| n / d).collect()
}

/// A percentile the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Supported {
    pub value: f64,
    /// The percentile actually reported: the requested one, or the highest
    /// lower one that still has `MIN_BEYOND` samples beyond it.
    pub q: f64,
    pub n: usize,
    pub beyond: usize,
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// `samples` in ascending order, for [`percentile_of_sorted`].
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of `samples` if at least [`MIN_BEYOND`] samples lie beyond
/// it, else the highest quantile that has them (never below the median).
pub fn percentile_supported(samples: &[f64], q: f64) -> Option<Supported> {
    percentile_of_sorted(&sorted(samples), q)
}

/// [`percentile_supported`] of samples already in ascending order.
pub fn percentile_of_sorted(v: &[f64], q: f64) -> Option<Supported> {
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n);
    let mut idx = rank(q);
    if n - idx < MIN_BEYOND {
        idx = n.saturating_sub(MIN_BEYOND).max(rank(0.5));
    }
    Some(Supported {
        value: v[idx - 1],
        q: idx as f64 / n as f64,
        n,
        beyond: n - idx,
    })
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the driver judges spreads with that function.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range over the median: the spread the driver bounds.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_rounds_ignores_one_bad_round() {
        // Seven quiet rounds and one that a neighbour stole: the mean moves
        // 11 %, the median of rounds not at all.
        let rounds = [10.0, 10.1, 9.9, 10.0, 19.0, 10.05, 9.95, 10.0];
        assert_eq!(median(&rounds), 10.0);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn paired_ratio_cancels_drift_common_to_a_round() {
        // Every round is slower than the last by 10 %, in both phases: the
        // ratio of pooled medians would see the drift, the paired ratio is flat.
        let seq: Vec<f64> = (0..8).map(|r| 10.0 * 1.1f64.powi(r)).collect();
        let p1: Vec<f64> = seq.iter().map(|s| s * 1.25).collect();
        for ratio in paired_ratio(&p1, &seq) {
            assert!((ratio - 1.25).abs() < 1e-12);
        }
        assert!((median(&paired_ratio(&p1, &seq)) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile_supported(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond, p99.n), (990.0, 10, 1000));
        assert!((p99.q - 0.99).abs() < 1e-12);

        // 200 samples cannot support p99 (2 beyond): p95 is what they support.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = percentile_supported(&samples, 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (190.0, 10));
        assert!((p.q - 0.95).abs() < 1e-12);
        let p90 = percentile_supported(&samples, 0.90).unwrap();
        assert_eq!((p90.value, p90.beyond), (180.0, 20));

        // Too few for any tail: falls back to the median, never above it.
        let p = percentile_supported(&[1.0, 2.0, 3.0, 4.0], 0.99).unwrap();
        assert_eq!(p.value, 2.0);
        assert!(percentile_supported(&[], 0.5).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert!((iqr_over_median(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[5.0]), 0.0);
    }

    #[test]
    fn stratified_median_does_not_jump_between_modes() {
        // Two exact strata at 1 and 3; one sample more or less on either
        // side flips the plain median between the modes, not the stratified one.
        let kinds = [0u8, 1, 0, 1, 0, 1];
        let a = [1.0, 3.0, 1.01, 3.01, 0.99, 2.99];
        assert!((stratified_median(&a, &kinds, 2, 3).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(
            stratified_median(&a, &kinds, 2, 4),
            None,
            "a stratum is short"
        );
    }
}
