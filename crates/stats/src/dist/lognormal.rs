//! Lognormal distribution — the paper's workhorse.
//!
//! Session ON times (Fig 11), intra-session transfer interarrivals (Fig 14)
//! and transfer lengths (Fig 19) are all lognormal in Veloso et al.; the
//! parameters quoted in Table 2 are `(mu, sigma)` of the underlying normal.

use super::{Continuous, Normal, ParamError, Sample};
use crate::special::{inv_norm_cdf, norm_cdf, norm_pdf};
use rand::Rng;

/// Lognormal distribution: `ln X ~ N(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal with log-location `mu` and log-scale `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        if !mu.is_finite() || !(sigma > 0.0) || !sigma.is_finite() {
            return Err(ParamError::new(format!(
                "LogNormal requires finite mu and sigma > 0, got mu={mu}, sigma={sigma}"
            )));
        }
        Ok(Self { mu, sigma })
    }
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Normal::sample_standard(rng)).exp()
    }
}

impl Continuous for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        norm_pdf((x.ln() - self.mu) / self.sigma) / (x * self.sigma)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        norm_cdf((x.ln() - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * inv_norm_cdf(p)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        ((s2).exp_m1()) * (2.0 * self.mu + s2).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::rng::SeedStream;

    #[test]
    fn rejects_bad_params() {
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(0.0, -2.0).is_err());
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn log_of_samples_is_normal() {
        let d = LogNormal::new(2.0, 0.5).unwrap();
        let mut rng = SeedStream::new(21).rng("lnorm");
        let xs = d.sample_n(&mut rng, 100_000);
        let logs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
        let n = logs.len() as f64;
        let mean = logs.iter().sum::<f64>() / n;
        let var = logs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((mean - 2.0).abs() < 0.01, "log-mean {mean}");
        assert!((var - 0.25).abs() < 0.01, "log-var {var}");
    }

    #[test]
    fn positive_support() {
        let d = LogNormal::new(-3.0, 2.0).unwrap();
        let mut rng = SeedStream::new(22).rng("lnorm2");
        assert!(d.sample_n(&mut rng, 10_000).iter().all(|&x| x > 0.0));
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
    }

    #[test]
    fn closed_form_moments() {
        let d = LogNormal::new(1.0, 0.75).unwrap();
        // mean = exp(mu + sigma^2/2)
        assert!((d.mean() - (1.0 + 0.5 * 0.5625f64).exp()).abs() < 1e-12);
        // median = e^mu
        assert!((d.cdf(1.0f64.exp()) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let d = LogNormal::new(4.383921, 1.427247).unwrap(); // paper's transfer length
        for &p in &[0.001, 0.1, 0.5, 0.9, 0.999] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-7, "p={p}");
        }
    }

    #[test]
    fn paper_transfer_length_statistics() {
        // Sanity numbers for the Table 2 transfer-length distribution:
        // median e^4.383921 ≈ 80 s, mean ≈ e^{mu + sigma^2/2} ≈ 222 s.
        let d = LogNormal::new(paper::TRANSFER_LENGTH_MU, paper::TRANSFER_LENGTH_SIGMA).unwrap();
        assert!((d.quantile(0.5) - 80.15).abs() < 0.5);
        assert!((d.mean() - 221.9).abs() < 2.0);
    }
}
