//! Tail-index estimation.
//!
//! Fig 17 of the paper reads *two* tail exponents off the transfer
//! interarrival CCDF: α ≈ 2.8 for interarrivals up to 100 s and α ≈ 1
//! beyond. [`two_regime_tail`] reproduces that measurement.

use super::{linear_regression, FitError};
use serde::{Deserialize, Serialize};

/// Result of the Fig 17 two-regime CCDF tail analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoRegimeTail {
    /// Tail exponent fitted on CCDF points with `x <= boundary`.
    pub alpha_short: f64,
    /// Tail exponent fitted on CCDF points with `x > boundary`.
    pub alpha_long: f64,
    /// The regime boundary used.
    pub boundary: f64,
    /// R² of the short-regime log-log fit.
    pub r2_short: f64,
    /// R² of the long-regime log-log fit.
    pub r2_long: f64,
}

/// Fits separate power-law exponents to the CCDF below and above `boundary`.
///
/// `ccdf_points` are `(x, P[X >= x])` pairs, e.g. from
/// [`crate::empirical::Ecdf::ccdf_points`]. Only points with positive `x`
/// and probability enter the log-log regressions. `min_x` discards the
/// distribution body below it (the paper reads its exponents off the tail
/// region, not the body near 1 second).
pub fn two_regime_tail(
    ccdf_points: &[(f64, f64)],
    boundary: f64,
    min_x: f64,
) -> Result<TwoRegimeTail, FitError> {
    let short: Vec<(f64, f64)> = ccdf_points
        .iter()
        .filter(|&&(x, p)| x >= min_x && x <= boundary && p > 0.0)
        .map(|&(x, p)| (x.ln(), p.ln()))
        .collect();
    let long: Vec<(f64, f64)> = ccdf_points
        .iter()
        .filter(|&&(x, p)| x > boundary && p > 0.0)
        .map(|&(x, p)| (x.ln(), p.ln()))
        .collect();
    if short.len() < 2 || long.len() < 2 {
        return Err(FitError::new(format!(
            "two-regime tail needs >= 2 points per regime, got {} and {}",
            short.len(),
            long.len()
        )));
    }
    let (ms, _, r2s) = linear_regression(&short)?;
    let (ml, _, r2l) = linear_regression(&long)?;
    Ok(TwoRegimeTail {
        alpha_short: -ms,
        alpha_long: -ml,
        boundary,
        r2_short: r2s,
        r2_long: r2l,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_regimes_from_synthetic_ccdf() {
        // Construct a CCDF with a kink at x = 100: slope -2.8 before,
        // -1.0 after (the paper's Fig 17 shape).
        let mut pts = Vec::new();
        for i in 1..=200 {
            let x = 1.0 + (i as f64) * 0.5; // 1.5 .. 101
            if x <= 100.0 {
                pts.push((x, x.powf(-2.8)));
            }
        }
        let c = 100f64.powf(-2.8) / 100f64.powf(-1.0); // continuity constant
        for i in 1..=100 {
            let x = 100.0 * 1.05f64.powi(i);
            pts.push((x, c * x.powf(-1.0)));
        }
        let t = two_regime_tail(&pts, 100.0, 1.0).unwrap();
        assert!(
            (t.alpha_short - 2.8).abs() < 0.01,
            "short {}",
            t.alpha_short
        );
        assert!((t.alpha_long - 1.0).abs() < 0.01, "long {}", t.alpha_long);
        assert!(t.r2_short > 0.999 && t.r2_long > 0.999);
    }

    /// A Fig 17-shaped CCDF (slope -2.8 on [1, 100], -1 beyond) with a
    /// flat body (slope -0.2) on [0.1, 1).
    fn kinked_ccdf_with_body() -> Vec<(f64, f64)> {
        let body = (1..10).map(|i| 0.1 * i as f64).map(|x| (x, x.powf(-0.2)));
        let short = (0..=40)
            .map(|i| 10f64.powf(i as f64 / 20.0))
            .map(|x| (x, x.powf(-2.8)));
        let c = 100f64.powf(-1.8);
        let long = (1..=40).map(|i| 100.0 * 1.1f64.powi(i)).map(|x| (x, c / x));
        body.chain(short).chain(long).collect()
    }

    #[test]
    fn min_x_drops_the_body_from_the_short_regime() {
        let pts = kinked_ccdf_with_body();
        let t = two_regime_tail(&pts, 100.0, 1.0).unwrap();
        assert!(
            (t.alpha_short - 2.8).abs() < 1e-9,
            "short {}",
            t.alpha_short
        );
        assert!((t.alpha_long - 1.0).abs() < 1e-9, "long {}", t.alpha_long);
        let with_body = two_regime_tail(&pts, 100.0, 0.0).unwrap();
        assert!(
            with_body.alpha_short < 2.7,
            "body kept: {}",
            with_body.alpha_short
        );
    }

    #[test]
    fn zero_probability_points_are_skipped() {
        let pts = kinked_ccdf_with_body();
        let mut padded = pts.clone();
        padded.extend([(50.0, 0.0), (5e3, 0.0), (-1.0, 0.5)]);
        let t = two_regime_tail(&pts, 100.0, 1.0).unwrap();
        assert_eq!(two_regime_tail(&padded, 100.0, 1.0).unwrap(), t);
    }

    #[test]
    fn two_regimes_need_points_on_both_sides() {
        let pts = vec![(1.0, 0.9), (2.0, 0.5), (3.0, 0.2)];
        assert!(two_regime_tail(&pts, 100.0, 0.0).is_err());
    }
}
