//! Zipf (power-law) fits on rank-frequency data.
//!
//! The paper fits `Zipf(x) = C · x^{-α}` to log-log rank-frequency plots
//! with gnuplot least squares (Fig 7: α = 0.7194 and α = 0.4704; Fig 13:
//! α = 2.7042). We reproduce that estimator: ordinary least squares on
//! `(ln rank, ln frequency)`.

use super::{linear_regression, FitError};
use crate::empirical::RankFrequency;
use serde::{Deserialize, Serialize};

/// A fitted Zipf law `f(k) = C · k^{-alpha}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZipfFit {
    /// Tail exponent α (positive for decaying popularity).
    pub alpha: f64,
    /// Prefactor C (the paper quotes these too, e.g. 0.00600482).
    pub prefactor: f64,
    /// Coefficient of determination of the log-log regression.
    pub r2: f64,
    /// Number of (rank, frequency) points used.
    pub n_points: usize,
}

impl ZipfFit {}

/// Fits a Zipf law to explicit `(rank, frequency)` points.
///
/// Points with non-positive rank or frequency are skipped (zeros are
/// unplottable on the paper's log-log axes too). `max_rank`, when given,
/// restricts the fit to ranks `<= max_rank` — useful because empirical
/// rank-frequency tails flatten into ties at count 1, which the paper's
/// visual fits effectively ignore.
pub fn fit_zipf_points(points: &[(f64, f64)], max_rank: Option<f64>) -> Result<ZipfFit, FitError> {
    let logpts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(k, f)| k > 0.0 && f > 0.0 && max_rank.map_or(true, |m| k <= m))
        .map(|&(k, f)| (k.ln(), f.ln()))
        .collect();
    if logpts.len() < 2 {
        return Err(FitError::new("Zipf fit needs >= 2 usable points"));
    }
    let (slope, intercept, r2) = linear_regression(&logpts)?;
    Ok(ZipfFit {
        alpha: -slope,
        prefactor: intercept.exp(),
        r2,
        n_points: logpts.len(),
    })
}

/// Fits a Zipf law to a [`RankFrequency`] table (relative frequencies).
pub fn fit_zipf_rank_frequency(
    rf: &RankFrequency,
    max_rank: Option<f64>,
) -> Result<ZipfFit, FitError> {
    fit_zipf_points(&rf.points(), max_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Discrete, ZipfTable};
    use crate::rng::SeedStream;

    #[test]
    fn exact_power_law_recovered() {
        let pts: Vec<(f64, f64)> = (1..=1_000)
            .map(|k| (k as f64, 0.006 * (k as f64).powf(-0.7194)))
            .collect();
        let f = fit_zipf_points(&pts, None).unwrap();
        assert!((f.alpha - 0.7194).abs() < 1e-9);
        assert!((f.prefactor - 0.006).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_frequencies_skipped() {
        let pts = vec![(1.0, 0.5), (2.0, 0.0), (3.0, 0.1), (4.0, 0.05)];
        let f = fit_zipf_points(&pts, None).unwrap();
        assert_eq!(f.n_points, 3);
    }

    #[test]
    fn needs_two_points() {
        assert!(fit_zipf_points(&[(1.0, 0.5)], None).is_err());
        assert!(fit_zipf_points(&[], None).is_err());
    }

    #[test]
    fn max_rank_restricts_fit() {
        // Power law body + a flattened tail: restricting the fit recovers
        // the body exponent.
        let mut pts: Vec<(f64, f64)> = (1..=100)
            .map(|k| (k as f64, (k as f64).powf(-1.0)))
            .collect();
        for k in 101..=200 {
            pts.push((k as f64, 0.01)); // flat tail
        }
        let full = fit_zipf_points(&pts, None).unwrap();
        let body = fit_zipf_points(&pts, Some(100.0)).unwrap();
        assert!((body.alpha - 1.0).abs() < 1e-9);
        assert!(full.alpha < body.alpha);
    }

    #[test]
    fn recovers_exponent_from_sampled_ranks() {
        // Sample clients from a bounded Zipf, count sessions per client,
        // rank, and fit — a miniature of the paper's Fig 7 pipeline.
        let n_clients = 2_000u64;
        let z = ZipfTable::new(n_clients, 0.7).unwrap();
        let mut rng = SeedStream::new(401).rng("zipf-fit");
        let mut counts = vec![0u64; n_clients as usize];
        for _ in 0..300_000 {
            counts[(z.sample_k(&mut rng) - 1) as usize] += 1;
        }
        let rf = RankFrequency::from_counts(counts);
        // Fit the body (top ~10% of ranks) to dodge the count-1 tail ties.
        let f = fit_zipf_rank_frequency(&rf, Some(200.0)).unwrap();
        assert!(
            (f.alpha - 0.7).abs() < 0.05,
            "recovered alpha {} from sampled ranks",
            f.alpha
        );
    }
}
