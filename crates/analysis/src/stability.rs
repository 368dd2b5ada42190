//! Empirical stability classification.
//!
//! A system is *stable* when buffer sizes stay bounded as time grows
//! (Section 1 of the paper). An experiment produces a backlog series;
//! this module classifies it by fitting a trend to the second half of
//! the series (the first half is treated as warm-up).

use crate::stats::{linear_fit, mean};

/// The verdict on a backlog series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Clear sustained growth.
    Diverging,
    /// No sustained growth; backlog fluctuates around a level.
    Bounded,
    /// Too little data to say.
    Inconclusive,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Verdict::Diverging => "DIVERGING",
            Verdict::Bounded => "bounded",
            Verdict::Inconclusive => "inconclusive",
        };
        write!(f, "{s}")
    }
}

/// Classify a backlog series sampled at uniform intervals.
///
/// Heuristic: drop the first half (warm-up); call the rest diverging if
/// a linear fit has meaningfully positive slope with decent fit quality
/// **and** the final level is well above the early level. Designed for
/// the clear-cut regimes the paper's results create (exponential blowup
/// vs. hard `⌈wr⌉`-bounded), not for marginal cases.
pub fn classify_series(backlog: &[u64]) -> Verdict {
    if backlog.len() < 8 {
        return Verdict::Inconclusive;
    }
    let tail = &backlog[backlog.len() / 2..];
    let xs: Vec<f64> = (0..tail.len()).map(|i| i as f64).collect();
    let ys: Vec<f64> = tail.iter().map(|&b| b as f64).collect();
    let head_mean = mean(
        &backlog[..backlog.len() / 2]
            .iter()
            .map(|&b| b as f64)
            .collect::<Vec<_>>(),
    );
    let tail_mean = mean(&ys);
    let Some(fit) = linear_fit(&xs, &ys) else {
        return Verdict::Inconclusive;
    };
    // Normalized slope: growth per sample relative to the tail level.
    let level = tail_mean.max(1.0);
    let norm_slope = fit.slope / level;
    let grew = tail_mean > 1.5 * head_mean.max(1.0);
    if norm_slope > 0.002 && fit.r2 > 0.5 && grew {
        Verdict::Diverging
    } else {
        Verdict::Bounded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_growth_diverges() {
        let series: Vec<u64> = (0..64).map(|i| (1.1f64.powi(i) * 10.0) as u64).collect();
        assert_eq!(classify_series(&series), Verdict::Diverging);
    }

    #[test]
    fn linear_growth_diverges() {
        let series: Vec<u64> = (0..64).map(|i| 10 + 5 * i).collect();
        assert_eq!(classify_series(&series), Verdict::Diverging);
    }

    #[test]
    fn flat_series_bounded() {
        let series = vec![12u64; 64];
        assert_eq!(classify_series(&series), Verdict::Bounded);
    }

    #[test]
    fn noisy_flat_bounded() {
        let series: Vec<u64> = (0..64).map(|i| 20 + (i * 7919 % 11)).collect();
        assert_eq!(classify_series(&series), Verdict::Bounded);
    }

    #[test]
    fn decaying_bounded() {
        let series: Vec<u64> = (0..64).map(|i| 1000 / (i + 1)).collect();
        assert_eq!(classify_series(&series), Verdict::Bounded);
    }

    #[test]
    fn short_series_inconclusive() {
        assert_eq!(classify_series(&[1, 2, 3]), Verdict::Inconclusive);
        assert_eq!(classify_series(&[]), Verdict::Inconclusive);
    }

    #[test]
    fn display() {
        assert_eq!(Verdict::Diverging.to_string(), "DIVERGING");
        assert_eq!(Verdict::Bounded.to_string(), "bounded");
    }
}
