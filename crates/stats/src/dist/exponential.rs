//! Exponential distribution.
//!
//! Session OFF times fit an exponential with mean 203,150 s in the paper
//! (Fig 12); exponential gaps also drive every Poisson arrival process.

use super::{Continuous, ParamError, Sample};
use crate::rng::u01_open0;
use rand::Rng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential with rate `lambda > 0`.
    pub(crate) fn new(lambda: f64) -> Result<Self, ParamError> {
        if !(lambda > 0.0) || !lambda.is_finite() {
            return Err(ParamError::new(format!(
                "Exponential requires lambda > 0, got {lambda}"
            )));
        }
        Ok(Self { lambda })
    }

    /// Creates an exponential with the given mean (`1/lambda`).
    pub fn with_mean(mean: f64) -> Result<Self, ParamError> {
        if !(mean > 0.0) || !mean.is_finite() {
            return Err(ParamError::new(format!(
                "Exponential requires mean > 0, got {mean}"
            )));
        }
        Ok(Self { lambda: 1.0 / mean })
    }
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -u01_open0(rng).ln() / self.lambda
    }
}

impl Continuous for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.lambda * (-self.lambda * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            -(-self.lambda * x).exp_m1()
        }
    }

    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    fn variance(&self) -> f64 {
        1.0 / (self.lambda * self.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;

    #[test]
    fn rejects_bad_params() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::with_mean(0.0).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn with_mean_matches_rate() {
        let d = Exponential::with_mean(203_150.0).unwrap();
        assert!((d.mean() - 203_150.0).abs() < 1e-6);
    }

    #[test]
    fn sample_mean_converges() {
        let d = Exponential::new(0.25).unwrap();
        let mut rng = SeedStream::new(31).rng("exp");
        let xs = d.sample_n(&mut rng, 200_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 4.0).abs() < 0.05, "mean {mean}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn memorylessness() {
        // P(X > s + t | X > s) == P(X > t), verified via the CDF.
        let d = Exponential::new(0.1).unwrap();
        let (s, t) = (7.0, 3.0);
        let lhs = d.ccdf(s + t) / d.ccdf(s);
        let rhs = d.ccdf(t);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn cdf_known_values() {
        // 1 - e^{-2x}, evaluated to 30 digits outside this crate.
        let d = Exponential::new(2.0).unwrap();
        for (x, p) in [
            (0.1, 0.181_269_246_922_018_14),
            (1.0, 0.864_664_716_763_387_31),
            (3.0, 0.997_521_247_823_333_64),
        ] {
            assert!((d.cdf(x) - p).abs() < 1e-12, "x={x}");
        }
        assert_eq!(d.cdf(0.0), 0.0);
    }
}
