//! Parameter estimation: the inverse of the generator.
//!
//! The paper fits lognormal, exponential and Zipf curves to empirical
//! marginals (Figs 7, 11–14, 19) and reads two tail exponents off a CCDF
//! (Fig 17). This module provides those estimators plus goodness-of-fit
//! model selection, so the closed-loop experiments can recover Table 2
//! from a synthetic trace.

mod continuous;
mod tail;
mod zipf;

pub use continuous::{fit_exponential, fit_lognormal, ExponentialFit, LogNormalFit};
pub(crate) use continuous::{fit_gamma, fit_pareto, fit_weibull};
pub use tail::{two_regime_tail, TwoRegimeTail};
pub use zipf::{fit_zipf_points, fit_zipf_rank_frequency, ZipfFit};

use serde::{Deserialize, Serialize};

/// Error from a fitting routine (insufficient or invalid data).
#[derive(Debug, Clone, PartialEq)]
pub struct FitError {
    /// Human-readable description.
    pub message: String,
}

impl FitError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fit error: {}", self.message)
    }
}

impl std::error::Error for FitError {}

/// Ordinary least squares on `(x, y)` pairs.
///
/// Returns `(slope, intercept, r²)`. This is the backbone of the log-log
/// Zipf fits (the paper's gnuplot `fit` lines).
pub fn linear_regression(points: &[(f64, f64)]) -> Result<(f64, f64, f64), FitError> {
    if points.len() < 2 {
        return Err(FitError::new(format!(
            "linear regression needs >= 2 points, got {}",
            points.len()
        )));
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let mx = sx / n;
    let my = sy / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 {
        return Err(FitError::new("linear regression: zero x-variance"));
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Ok((slope, intercept, r2))
}

/// Which distribution family best matches a positive-valued sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Family {
    /// Lognormal (the paper's duration family).
    LogNormal,
    /// Exponential (the paper's OFF-time family).
    Exponential,
    /// Pareto (heavy tail).
    Pareto,
    /// Weibull.
    Weibull,
    /// Gamma (the Padhye–Kurose stored-media alternative).
    Gamma,
}

/// Result of model selection across candidate families.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelChoice {
    /// Winning family (smallest KS distance).
    pub family: Family,
    /// KS distance of each family that could be fitted, in [`Family`]
    /// declaration order.
    pub ks_distances: Vec<(Family, f64)>,
}

impl Family {
    /// Number of free parameters the family's fit estimates.
    pub(crate) fn n_params(self) -> usize {
        match self {
            Family::Exponential => 1,
            Family::LogNormal | Family::Pareto | Family::Weibull | Family::Gamma => 2,
        }
    }
}

/// Fits all candidate families to positive data and picks the one with the
/// smallest Kolmogorov–Smirnov distance, breaking statistical ties toward
/// parsimony.
///
/// The paper's §4.2 claim "lognormal, not as heavy as Pareto" is exactly a
/// model-selection statement; this function lets the experiments make it
/// quantitative.
///
/// Tie-break: KS distances closer than half the KS sampling scale
/// `1/√n` are statistically indistinguishable (a two-parameter family
/// that *nests* a one-parameter one, like Weibull ⊃ Exponential, always
/// wins such a coin flip on finite samples). Among candidates within that
/// band of the minimum, the family with the fewest parameters is chosen —
/// the one-standard-error rule applied to KS model selection.
pub fn select_model(data: &[f64]) -> Result<ModelChoice, FitError> {
    use crate::dist::Continuous;
    use crate::hypothesis::ks_distance;

    if data.len() < 10 {
        return Err(FitError::new("model selection needs >= 10 observations"));
    }
    let mut sorted = data.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);

    let mut ks: Vec<(Family, f64)> = Vec::new();
    if let Ok(f) = fit_lognormal(data) {
        // A fit on degenerate data can return out-of-domain parameters
        // (e.g. sigma = 0); skip the family instead of panicking.
        if let Ok(d) = crate::dist::LogNormal::new(f.mu, f.sigma) {
            ks.push((Family::LogNormal, ks_distance(&sorted, |x| d.cdf(x))));
        }
    }
    if let Ok(f) = fit_exponential(data) {
        // A fit on degenerate data can return out-of-domain parameters
        // (e.g. sigma = 0); skip the family instead of panicking.
        if let Ok(d) = crate::dist::Exponential::new(f.lambda) {
            ks.push((Family::Exponential, ks_distance(&sorted, |x| d.cdf(x))));
        }
    }
    if let Ok(f) = fit_pareto(data) {
        // A fit on degenerate data can return out-of-domain parameters
        // (e.g. sigma = 0); skip the family instead of panicking.
        if let Ok(d) = crate::dist::Pareto::new(f.xm, f.alpha) {
            ks.push((Family::Pareto, ks_distance(&sorted, |x| d.cdf(x))));
        }
    }
    if let Ok(f) = fit_weibull(data) {
        // A fit on degenerate data can return out-of-domain parameters
        // (e.g. sigma = 0); skip the family instead of panicking.
        if let Ok(d) = crate::dist::Weibull::new(f.lambda, f.k) {
            ks.push((Family::Weibull, ks_distance(&sorted, |x| d.cdf(x))));
        }
    }
    if let Ok(f) = fit_gamma(data) {
        // A fit on degenerate data can return out-of-domain parameters
        // (e.g. sigma = 0); skip the family instead of panicking.
        if let Ok(d) = crate::dist::Gamma::new(f.k, f.theta) {
            ks.push((Family::Gamma, ks_distance(&sorted, |x| d.cdf(x))));
        }
    }
    let best = ks
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or_else(|| FitError::new("no family could be fitted"))?;
    // Parsimony band: candidates this close to the minimum are within KS
    // sampling noise of each other on an n-sized sample.
    let tolerance = 0.5 / (data.len() as f64).sqrt();
    let winner = ks
        .iter()
        .filter(|(_, d)| d - best.1 <= tolerance)
        .min_by(|a, b| {
            a.0.n_params()
                .cmp(&b.0.n_params())
                .then_with(|| a.1.total_cmp(&b.1))
        })
        .unwrap_or(best); // the band always contains the minimum itself
    Ok(ModelChoice {
        family: winner.0,
        ks_distances: ks.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{LogNormal, Sample};
    use crate::rng::SeedStream;

    #[test]
    fn regression_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let (m, b, r2) = linear_regression(&pts).unwrap();
        assert!((m - 3.0).abs() < 1e-12);
        assert!((b + 2.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_rejects_degenerate() {
        assert!(linear_regression(&[(1.0, 2.0)]).is_err());
        assert!(linear_regression(&[(1.0, 2.0), (1.0, 3.0)]).is_err());
    }

    #[test]
    fn model_selection_prefers_lognormal_for_lognormal_data() {
        let d = LogNormal::new(5.23553, 1.54432).unwrap(); // paper's session ON
        let mut rng = SeedStream::new(201).rng("select");
        let xs = d.sample_n(&mut rng, 20_000);
        let choice = select_model(&xs).unwrap();
        assert_eq!(
            choice.family,
            Family::LogNormal,
            "{:?}",
            choice.ks_distances
        );
    }

    #[test]
    fn model_selection_needs_ten_observations() {
        let xs: Vec<f64> = (1..10).map(f64::from).collect();
        let err = select_model(&xs).unwrap_err();
        assert!(err.to_string().starts_with("fit error: "), "{err}");
        assert!(select_model(&[xs.as_slice(), &[10.0]].concat()).is_ok());
    }

    #[test]
    fn model_selection_scores_every_family_in_declaration_order() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        let mut rng = SeedStream::new(203).rng("select3");
        let xs = d.sample_n(&mut rng, 2_000);
        let choice = select_model(&xs).unwrap();
        let families: Vec<Family> = choice.ks_distances.iter().map(|f| f.0).collect();
        let declared = [
            Family::LogNormal,
            Family::Exponential,
            Family::Pareto,
            Family::Weibull,
            Family::Gamma,
        ];
        assert_eq!(families, declared);
        let best = choice
            .ks_distances
            .iter()
            .map(|f| f.1)
            .fold(f64::INFINITY, f64::min);
        let won = choice
            .ks_distances
            .iter()
            .find(|f| f.0 == choice.family)
            .unwrap();
        assert!(won.1 - best <= 0.5 / (xs.len() as f64).sqrt());
    }

    #[test]
    fn model_selection_prefers_pareto_for_pareto_data() {
        let d = crate::dist::Pareto::new(1.0, 1.2).unwrap();
        let mut rng = SeedStream::new(204).rng("select4");
        let xs = d.sample_n(&mut rng, 20_000);
        let choice = select_model(&xs).unwrap();
        assert_eq!(choice.family, Family::Pareto, "{:?}", choice.ks_distances);
    }

    #[test]
    fn model_selection_prefers_exponential_for_exponential_data() {
        let d = crate::dist::Exponential::with_mean(203_150.0).unwrap();
        let mut rng = SeedStream::new(202).rng("select2");
        let xs = d.sample_n(&mut rng, 20_000);
        let choice = select_model(&xs).unwrap();
        assert_eq!(
            choice.family,
            Family::Exponential,
            "{:?}",
            choice.ks_distances
        );
    }
}
