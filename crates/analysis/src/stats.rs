//! Summary statistics and regression.

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Ordinary least squares fit `y = a + b·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Intercept.
    pub intercept: f64,
    /// Slope.
    pub slope: f64,
    /// Coefficient of determination `R²` (1 for a perfect fit, and for
    /// a constant `y`, which the flat fit matches exactly; 0 when the fit
    /// explains nothing).
    pub r2: f64,
}

/// Least-squares regression of `ys` on `xs`. Returns `None` for fewer
/// than two points or degenerate `xs`.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let r2 = if syy == 0.0 {
        1.0
    } else {
        let ss_res: f64 = xs
            .iter()
            .zip(ys)
            .map(|(x, y)| {
                let e = y - (intercept + slope * x);
                e * e
            })
            .sum();
        1.0 - ss_res / syy
    };
    Some(LinearFit {
        intercept,
        slope,
        r2,
    })
}

/// Geometric-mean per-step growth factor of a positive series:
/// `(last/first)^(1/(len-1))`. Returns `None` for series shorter than 2
/// or with a non-positive first element.
pub fn geometric_growth(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 || xs[0] <= 0.0 || *xs.last()? <= 0.0 {
        return None;
    }
    Some((xs.last()? / xs[0]).powf(1.0 / (xs.len() - 1) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_slices() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn perfect_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series() {
        let xs: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let ys = vec![7.0; 5];
        let f = linear_fit(&xs, &ys).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    fn degenerate_fits() {
        assert!(linear_fit(&[1.0], &[1.0]).is_none());
        assert!(linear_fit(&[2.0, 2.0], &[1.0, 3.0]).is_none());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_none());
    }

    #[test]
    fn growth_factors() {
        assert!((geometric_growth(&[1.0, 2.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geometric_growth(&[8.0, 4.0, 2.0]).unwrap() - 0.5).abs() < 1e-12);
        assert!(geometric_growth(&[1.0]).is_none());
        assert!(geometric_growth(&[0.0, 5.0]).is_none());
    }
}
