//! Weibull distribution — an alternative ON/OFF-time family offered by the
//! generator for sensitivity studies (the paper's related work fits gamma /
//! Weibull shapes to stored-media session times).

use super::{Continuous, ParamError, Sample};
use crate::rng::u01_open0;
use crate::special::ln_gamma;
use rand::Rng;

/// Weibull distribution with scale `lambda > 0` and shape `k > 0`:
/// `P[X > x] = exp(-(x/lambda)^k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    lambda: f64,
    k: f64,
}

impl Weibull {
    /// Creates a Weibull with scale `lambda > 0` and shape `k > 0`.
    pub fn new(lambda: f64, k: f64) -> Result<Self, ParamError> {
        if !(lambda > 0.0) || !lambda.is_finite() || !(k > 0.0) || !k.is_finite() {
            return Err(ParamError::new(format!(
                "Weibull requires lambda > 0 and k > 0, got lambda={lambda}, k={k}"
            )));
        }
        Ok(Self { lambda, k })
    }
}

impl Sample for Weibull {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lambda * (-u01_open0(rng).ln()).powf(1.0 / self.k)
    }
}

impl Continuous for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        let z = x / self.lambda;
        (self.k / self.lambda) * z.powf(self.k - 1.0) * (-z.powf(self.k)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            -(-(x / self.lambda).powf(self.k)).exp_m1()
        }
    }

    fn mean(&self) -> f64 {
        self.lambda * (ln_gamma(1.0 + 1.0 / self.k)).exp()
    }

    fn variance(&self) -> f64 {
        let g2 = (ln_gamma(1.0 + 2.0 / self.k)).exp();
        let g1 = (ln_gamma(1.0 + 1.0 / self.k)).exp();
        self.lambda * self.lambda * (g2 - g1 * g1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;

    #[test]
    fn rejects_bad_params() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        // Weibull(lambda, 1) == Exponential(rate 1/lambda).
        let w = Weibull::new(5.0, 1.0).unwrap();
        assert!((w.mean() - 5.0).abs() < 1e-9);
        assert!((w.cdf(5.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn sample_mean_converges() {
        let d = Weibull::new(100.0, 0.7).unwrap();
        let mut rng = SeedStream::new(51).rng("weib");
        let xs = d.sample_n(&mut rng, 200_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            (mean / d.mean() - 1.0).abs() < 0.02,
            "mean {mean} vs {}",
            d.mean()
        );
    }

    #[test]
    fn cdf_known_values() {
        // 1 - exp(-(x/10)^2.5), evaluated to 30 digits outside this crate.
        let d = Weibull::new(10.0, 2.5).unwrap();
        for (x, p) in [
            (5.0, 0.162_033_114_421_244_21),
            (10.0, 0.632_120_558_828_557_68),
            (20.0, 0.996_506_510_723_353_8),
        ] {
            assert!((d.cdf(x) - p).abs() < 1e-12, "x={x}");
        }
    }
}
