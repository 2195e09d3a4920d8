//! Normal (Gaussian) distribution.

use super::{Continuous, ParamError, Sample};
use crate::rng::{u01, u01_open0};
use crate::special::{inv_norm_cdf, norm_cdf, norm_pdf};
use rand::Rng;

/// Normal distribution `N(mu, sigma²)`.
///
/// Sampling uses the Box–Muller transform (the cosine branch only, so the
/// sampler is stateless and deterministic per draw).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates `N(mu, sigma²)`; requires finite `mu` and `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        if !mu.is_finite() || !(sigma > 0.0) || !sigma.is_finite() {
            return Err(ParamError::new(format!(
                "Normal requires finite mu and sigma > 0, got mu={mu}, sigma={sigma}"
            )));
        }
        Ok(Self { mu, sigma })
    }

    /// Draws one standard-normal variate via Box–Muller.
    pub(crate) fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let u1 = u01_open0(rng); // (0, 1]: safe for ln
        let u2 = u01(rng);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Sample for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mu + self.sigma * Self::sample_standard(rng)
    }
}

impl Continuous for Normal {
    fn pdf(&self, x: f64) -> f64 {
        norm_pdf((x - self.mu) / self.sigma) / self.sigma
    }

    fn cdf(&self, x: f64) -> f64 {
        norm_cdf((x - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * inv_norm_cdf(p)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;

    #[test]
    fn rejects_bad_params() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn sample_moments() {
        let d = Normal::new(5.0, 2.0).unwrap();
        let mut rng = SeedStream::new(11).rng("norm");
        let xs = d.sample_n(&mut rng, 200_000);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((mean - 5.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let d = Normal::new(-1.0, 3.0).unwrap();
        for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-7);
        }
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        // Trapezoid integration of the pdf should match the CDF difference.
        let d = Normal::new(0.0, 1.0).unwrap();
        let (a, b) = (-1.5, 2.0);
        let n = 20_000;
        let h = (b - a) / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let x0 = a + i as f64 * h;
            acc += 0.5 * (d.pdf(x0) + d.pdf(x0 + h)) * h;
        }
        assert!((acc - (d.cdf(b) - d.cdf(a))).abs() < 1e-6);
    }

    #[test]
    fn standard_normal_tail_fractions() {
        let mut rng = SeedStream::new(12).rng("norm-tail");
        let n = 100_000;
        let beyond2 = (0..n)
            .filter(|_| Normal::sample_standard(&mut rng).abs() > 2.0)
            .count() as f64
            / n as f64;
        // P(|Z| > 2) ≈ 0.0455.
        assert!((beyond2 - 0.0455).abs() < 0.004, "got {beyond2}");
    }
}
