//! Order statistics over timing samples: the median, quartiles and top
//! percentile every reported metric carries.

/// Distribution summary of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile (`statistics.quantiles(n=4)` exclusive method).
    pub q1: f64,
    /// Median (linear interpolation between closest ranks).
    pub median: f64,
    /// Third quartile (same method as `q1`).
    pub q3: f64,
    /// 99th percentile (linear interpolation between closest ranks).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize `samples` (any order). `None` when empty or when a
    /// sample is not finite.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, _, q3] = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median: percentile(&sorted, 50.0),
            q3,
            p99: percentile(&sorted, 99.0),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// Median of `samples` in any order (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The `p`-th percentile (0..=100) of ascending `sorted` data by linear
/// interpolation between closest ranks (rank `(n - 1) * p / 100`).
///
/// # Panics
///
/// Panics on empty input.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() - 1) as f64 * p.clamp(0.0, 100.0) / 100.0;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The 99th percentile of each run of `window` consecutive samples (a
/// trailing partial window is left out), or of all samples when there
/// are fewer than `window`. Their median is a p99 that a host stall
/// covering less than half of the windows does not move.
pub fn windowed_p99(samples: &[f64], window: usize) -> Vec<f64> {
    let p99 = |w: &[f64]| {
        let mut v = w.to_vec();
        v.sort_by(f64::total_cmp);
        percentile(&v, 99.0)
    };
    if samples.is_empty() {
        Vec::new()
    } else if samples.len() < window {
        vec![p99(samples)]
    } else {
        samples.chunks_exact(window).map(p99).collect()
    }
}

/// Quartile cut points of ascending `sorted` data, computed exactly as
/// Python's `statistics.quantiles(data, n=4)` (the default `exclusive`
/// method), so a run's spread reads the same as an external check of it.
/// A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on empty input.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    assert!(!sorted.is_empty(), "quartiles of no samples");
    let ld = sorted.len();
    if ld == 1 {
        return [sorted[0]; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&one_to(4)), [1.25, 2.5, 3.75]);
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]: the
        // exclusive method extrapolates past the data on tiny samples.
        assert_eq!(quartiles(&[3.0, 7.0]), [2.0, 5.0, 8.0]);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9], n=4) == [2.5, 5.0, 7.5]
        assert_eq!(quartiles(&one_to(9)), [2.5, 5.0, 7.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let data = one_to(100);
        assert_eq!(percentile(&data, 50.0), 50.5);
        assert!((percentile(&data, 99.0) - 99.01).abs() < 1e-12);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 100.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn windowed_p99_takes_each_full_window() {
        let mut data = one_to(100);
        data.extend(one_to(100).iter().map(|x| x * 10.0));
        data.push(1e9);
        let w = windowed_p99(&data, 100);
        assert_eq!(w.len(), 2, "the trailing partial window is left out");
        assert!((w[0] - 99.01).abs() < 1e-12);
        assert!((w[1] - 990.1).abs() < 1e-9);
        assert_eq!(
            windowed_p99(&data[..10], 100),
            vec![percentile(&data[..10], 99.0)]
        );
        assert!(windowed_p99(&[], 100).is_empty());
    }

    #[test]
    fn summary_sorts_its_samples() {
        let mut data = one_to(1000);
        data.reverse();
        let s = Summary::of(&data).unwrap();
        assert_eq!((s.n, s.min, s.max), (1000, 1.0, 1000.0));
        assert_eq!(s.median, 500.5);
        assert!((s.p99 - 990.01).abs() < 1e-9);
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }
}
