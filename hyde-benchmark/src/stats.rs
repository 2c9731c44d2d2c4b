//! Order statistics for the benchmark's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so a spread printed here is the
//! spread a reader recomputes from the raw values.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile `p` of `sorted` (ascending), smoothed: the mean of the
/// samples ranked between the `p − 5` and `p + 5` percentiles (at least
/// one). Where a heterogeneous set has a gap at `p`, the nearest-rank
/// value jumps across it when one sample moves; this estimate does not.
pub fn smoothed_percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len() as f64;
    let lo = (((p - 5.0) * n / 100.0).floor().max(0.0) as usize).min(sorted.len() - 1);
    let hi = (((p + 5.0) * n / 100.0).ceil() as usize).clamp(lo + 1, sorted.len());
    let window = &sorted[lo..hi];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, exclusive method.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples above it: `(percentile, value, sample count)`.
/// `None` when fewer than eleven samples exist.
pub fn tail(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let s = sorted(samples);
    let n = s.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n - ((p / 100.0 * n as f64).ceil() as usize).min(n) >= 10)
        .map(|p| (p, percentile(&s, p), n))
}

/// Geometric mean of positive samples.
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geomean of no samples");
    assert!(
        samples.iter().all(|&x| x > 0.0),
        "geomean needs positive samples"
    );
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 10.0);
        assert_eq!(percentile(&s, 90.0), 18.0);
        assert_eq!(percentile(&s, 95.0), 19.0);
        assert_eq!(percentile(&s, 100.0), 20.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn smoothed_percentiles_average_a_window() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(smoothed_percentile(&s, 50.0), 50.5);
        assert_eq!(smoothed_percentile(&s, 90.0), 90.5);
        assert_eq!(smoothed_percentile(&[7.0], 50.0), 7.0);
        // 25 samples: the median window holds ranks 12 to 14.
        let s: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(smoothed_percentile(&s, 50.0), 13.0);
        // A gap at the median: moving one sample across it moves the
        // nearest-rank median by the whole gap, the smoothed one by a tenth.
        let mut gap: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 3.0 }).collect();
        let before = (percentile(&gap, 50.0), smoothed_percentile(&gap, 50.0));
        gap[49] = 3.0;
        let after = (percentile(&gap, 50.0), smoothed_percentile(&gap, 50.0));
        assert_eq!(after.0 - before.0, 2.0);
        assert!((after.1 - before.1 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        // Eleven samples: even the median leaves only five above it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0, 20)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0, 100)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0, 1000)));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
    }
}
