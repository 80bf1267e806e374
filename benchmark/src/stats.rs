//! Median and quartiles of a handful of samples.
//!
//! The quartile rule is the one of Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), because
//! that is what the driver applies to the values this benchmark prints: a
//! spread computed here means the same thing there.

/// `n`, median and the two quartiles of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile distance as a share of the median (0 when the median
    /// is 0, so an all-zero count does not divide by zero).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarize `values` (any order). Panics on an empty slice: every
/// caller has timed at least one pass. With a single sample the quartiles
/// equal it.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let median = if m % 2 == 1 {
        v[m / 2]
    } else {
        (v[m / 2 - 1] + v[m / 2]) / 2.0
    };
    if m == 1 {
        return Summary {
            n: 1,
            median,
            q1: median,
            q3: median,
        };
    }
    let quartile = |i: usize| {
        // Cut point i of 4 sits at position i·(m+1)/4 (1-based), clamped
        // so that both neighbours exist, and interpolates linearly.
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n: m,
        median,
        q1: quartile(1),
        q3: quartile(3),
    }
}

/// Median alone.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([2, 4, 4, 5, 9, 11, 12], n=4) -> [4.0, 5.0, 11.0]
        let s = summarize(&[2.0, 4.0, 4.0, 5.0, 9.0, 11.0, 12.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 5.0, 11.0));
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = summarize(&[4.2]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.2, 4.2, 4.2));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
