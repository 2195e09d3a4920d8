//! Lognormal distribution — the paper's workhorse.
//!
//! Session ON times (Fig 11), intra-session transfer interarrivals (Fig 14)
//! and transfer lengths (Fig 19) are all lognormal in Veloso et al.; the
//! parameters quoted in Table 2 are `(mu, sigma)` of the underlying normal.

use super::{Continuous, ParamError, Sample};
use crate::rng::{u01, u01_open0};
use crate::special::{norm_cdf, norm_pdf};
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

/// Draws one standard-normal variate via the Box–Muller transform (the
/// cosine branch only, so the sampler is stateless and deterministic per
/// draw).
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = u01_open0(rng); // (0, 1]: safe for ln
    let u2 = u01(rng);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
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
    fn cdf_known_values() {
        // Phi((ln x - mu) / sigma) at the paper's transfer length,
        // evaluated to 30 digits outside this crate. The tolerance is the
        // documented absolute error of `erfc`.
        let d = LogNormal::new(4.383921, 1.427247).unwrap();
        for (x, p) in [
            (10.0, 0.072_380_710_435_105_838),
            (80.0, 0.499_470_489_550_009_23),
            (1000.0, 0.961_496_573_592_934_24),
        ] {
            assert!((d.cdf(x) - p).abs() < 1.2e-7, "x={x}");
        }
    }

    #[test]
    fn paper_transfer_length_statistics() {
        // Sanity numbers for the Table 2 transfer-length distribution:
        // median e^4.383921 ≈ 80.15 s, mean ≈ e^{mu + sigma^2/2} ≈ 222 s.
        let d = LogNormal::new(paper::TRANSFER_LENGTH_MU, paper::TRANSFER_LENGTH_SIGMA).unwrap();
        assert!(d.cdf(79.65) < 0.5 && d.cdf(80.65) > 0.5);
        assert!((d.mean() - 221.9).abs() < 2.0);
    }

    #[test]
    fn standard_normal_tail_fractions() {
        let mut rng = SeedStream::new(12).rng("norm-tail");
        let n = 100_000;
        let beyond2 = (0..n)
            .filter(|_| sample_standard_normal(&mut rng).abs() > 2.0)
            .count() as f64
            / n as f64;
        // P(|Z| > 2) ≈ 0.0455.
        assert!((beyond2 - 0.0455).abs() < 0.004, "got {beyond2}");
    }

    #[test]
    fn draws_are_pinned() {
        // The first draws for a fixed seed, as bits: the generator's
        // transfer lengths, ON times and interarrivals all come from here,
        // so any change to the standard-normal draw shows up first.
        let d = LogNormal::new(4.383921, 1.427247).unwrap();
        let mut rng = SeedStream::new(7).rng("pin");
        let bits: Vec<u64> = (0..4).map(|_| d.sample(&mut rng).to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x4072_f298_fd5a_2209, // 303.16235099037345
                0x4058_f6c8_b78d_1d48, // 99.85600079327298
                0x402b_c01d_31a0_dba1, // 13.87522273148153
                0x403e_4f40_ebaf_ca90, // 30.309584360521114
            ]
        );
    }
}
