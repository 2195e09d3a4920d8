//! Poisson distribution over counts.
//!
//! Used for per-window arrival counts in the piecewise-stationary Poisson
//! process experiments (§3.4) and the chi-square Poisson-ness test.

use super::{Discrete, ParamError, Sample};
use crate::rng::{u01, u01_open0};
use crate::special::ln_gamma;
use rand::Rng;

/// Poisson distribution with mean `lambda > 0`.
///
/// Sampling uses Knuth's product method for small means and Atkinson's
/// logistic-envelope rejection ("PA") for `lambda >= 30`, so cost stays
/// `O(1)` for the large per-bin rates seen at the diurnal peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson with mean `lambda > 0`.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if !(lambda > 0.0) || !lambda.is_finite() {
            return Err(ParamError::new(format!(
                "Poisson requires lambda > 0, got {lambda}"
            )));
        }
        Ok(Self { lambda })
    }

    fn sample_knuth<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let l = (-self.lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= u01(rng);
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    fn sample_atkinson<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Atkinson (1979): rejection from a logistic envelope.
        let lam = self.lambda;
        let beta = std::f64::consts::PI / (3.0 * lam).sqrt();
        let alpha = beta * lam;
        let k = (0.767 - 3.36 / lam).ln() - lam - beta.ln();
        loop {
            let u = u01_open0(rng);
            if u >= 1.0 {
                continue;
            }
            let x = (alpha - ((1.0 - u) / u).ln()) / beta;
            let n = (x + 0.5).floor();
            if n < 0.0 {
                continue;
            }
            let v = u01_open0(rng);
            let y = alpha - beta * x;
            let denom = 1.0 + y.exp();
            let lhs = y + (v / (denom * denom)).ln();
            let rhs = k + n * lam.ln() - ln_gamma(n + 1.0);
            if lhs <= rhs {
                return n as u64;
            }
        }
    }
}

impl Discrete for Poisson {
    fn sample_k<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            self.sample_knuth(rng)
        } else {
            self.sample_atkinson(rng)
        }
    }

    fn pmf(&self, k: u64) -> f64 {
        ((k as f64) * self.lambda.ln() - self.lambda - ln_gamma(k as f64 + 1.0)).exp()
    }
}

impl Sample for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_k(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;

    #[test]
    fn rejects_bad_params() {
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(-2.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
    }

    #[test]
    fn pmf_matches_closed_form_small_k() {
        let d = Poisson::new(3.0).unwrap();
        // P[K = 0] = e^-3; P[K = 2] = 9 e^-3 / 2.
        assert!((d.pmf(0) - (-3.0f64).exp()).abs() < 1e-12);
        assert!((d.pmf(2) - 4.5 * (-3.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_pmf_partial_sum() {
        // P[K <= k] = Q(k + 1, lambda), the regularized upper incomplete
        // gamma function.
        let d = Poisson::new(7.3).unwrap();
        let direct: f64 = (0..=10).map(|k| d.pmf(k)).sum();
        assert!((crate::special::gamma_q(11.0, 7.3) - direct).abs() < 1e-9);
    }

    fn check_moments(lambda: f64, seed: u64, tol: f64) {
        let d = Poisson::new(lambda).unwrap();
        let mut rng = SeedStream::new(seed).rng("pois");
        const N: usize = 100_000;
        let xs: Vec<u64> = (0..N).map(|_| d.sample_k(&mut rng)).collect();
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / N as f64;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / N as f64;
        assert!(
            (mean / lambda - 1.0).abs() < tol,
            "lambda {lambda}: mean {mean}"
        );
        assert!(
            (var / lambda - 1.0).abs() < 3.0 * tol,
            "lambda {lambda}: var {var}"
        );
    }

    #[test]
    fn knuth_regime_moments() {
        check_moments(0.5, 81, 0.02);
        check_moments(4.0, 82, 0.02);
        check_moments(25.0, 83, 0.02);
    }

    #[test]
    fn atkinson_regime_moments() {
        check_moments(30.0, 84, 0.02);
        check_moments(120.0, 85, 0.02);
        check_moments(2_500.0, 86, 0.02);
    }

    #[test]
    fn regime_boundary_continuity() {
        // The two samplers should agree distributionally at the switch point;
        // compare empirical CDF at the median-ish point for λ=29.9 vs 30.1.
        let lo = Poisson::new(29.9).unwrap();
        let hi = Poisson::new(30.1).unwrap();
        let mut rng = SeedStream::new(87).rng("pois-b");
        const N: usize = 60_000;
        let f_lo = (0..N).filter(|_| lo.sample_k(&mut rng) <= 30).count() as f64 / N as f64;
        let f_hi = (0..N).filter(|_| hi.sample_k(&mut rng) <= 30).count() as f64 / N as f64;
        let cdf = |d: &Poisson| (0..=30).map(|k| d.pmf(k)).sum::<f64>();
        assert!((f_lo - cdf(&lo)).abs() < 0.01, "knuth cdf {f_lo}");
        assert!((f_hi - cdf(&hi)).abs() < 0.01, "atkinson cdf {f_hi}");
    }
}
