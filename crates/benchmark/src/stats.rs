//! Order statistics for repetition samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so a spread computed here matches
//! one computed from the same values in Python.

use crate::json::Json;

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarise `values` (any order).
    ///
    /// # Panics
    /// If `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles_sorted(&v);
        Summary {
            median: median_sorted(&v),
            q1,
            q3,
            n: v.len(),
        }
    }

    /// Quartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    /// `{"median", "q1", "q3", "n"}`.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("median", self.median)
            .with("q1", self.q1)
            .with("q3", self.q3)
            .with("n", self.n)
    }

    /// Inverse of [`Summary::to_json`].
    pub fn from_json(j: &Json) -> Option<Summary> {
        Some(Summary {
            median: j.get("median")?.as_f64()?,
            q1: j.get("q1")?.as_f64()?,
            q3: j.get("q3")?.as_f64()?,
            n: j.get("n")?.as_f64()? as usize,
        })
    }
}

/// Median of an ascending slice.
fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `statistics.quantiles(v, n=4)` on an ascending slice; a single
/// sample is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `p`-th percentile (nearest rank) of `values`, or `None` when
/// fewer than ten samples lie beyond it — a tail percentile is only
/// reported where it rests on at least ten observations.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let beyond = (n as f64 * (1.0 - p / 100.0)).floor() as usize;
    if beyond < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(v[rank.clamp(1, n) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4, 7, 6], n=4) == [2.0, 4.0, 6.0]
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0, 7.0, 6.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        let s = Summary::of(&[5.0]);
        assert_eq!((s.q1, s.median, s.q3), (5.0, 5.0, 5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
    }
}
