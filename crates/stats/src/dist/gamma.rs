//! Gamma distribution.
//!
//! Padhye & Kurose \[26\] (the paper's related work) fit stored-media ON/OFF
//! periods with "lognormal or gamma" shapes; including gamma completes the
//! model-selection candidate set so the §4.2 "lognormal wins" claim is
//! tested against the full family the literature considered.

use super::{Continuous, ParamError, Sample};
use crate::rng::{u01, u01_open0};
use crate::special::{gamma_p, ln_gamma};
use rand::Rng;

/// Gamma distribution with shape `k > 0` and scale `theta > 0`.
///
/// Sampling uses Marsaglia & Tsang's squeeze method (with the standard
/// boost for `k < 1`), costing ~1.05 normal draws per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    k: f64,
    theta: f64,
}

impl Gamma {
    /// Creates a gamma with shape `k > 0` and scale `theta > 0`.
    pub(crate) fn new(k: f64, theta: f64) -> Result<Self, ParamError> {
        if !(k > 0.0) || !k.is_finite() || !(theta > 0.0) || !theta.is_finite() {
            return Err(ParamError::new(format!(
                "Gamma requires k > 0 and theta > 0, got k={k}, theta={theta}"
            )));
        }
        Ok(Self { k, theta })
    }

    /// Marsaglia–Tsang sampler for shape >= 1 (standard scale).
    fn sample_mt<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
        debug_assert!(shape >= 1.0);
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            // One standard normal via Box–Muller.
            let u1 = u01_open0(rng);
            let u2 = u01(rng);
            let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = u01_open0(rng);
            // Squeeze, then full acceptance test.
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Sample for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.k >= 1.0 {
            self.theta * Self::sample_mt(self.k, rng)
        } else {
            // Boost: Gamma(k) = Gamma(k+1) · U^{1/k}.
            let g = Self::sample_mt(self.k + 1.0, rng);
            self.theta * g * u01_open0(rng).powf(1.0 / self.k)
        }
    }
}

impl Continuous for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            return if self.k < 1.0 {
                f64::INFINITY
            } else if self.k == 1.0 {
                1.0 / self.theta
            } else {
                0.0
            };
        }
        ((self.k - 1.0) * (x / self.theta).ln()
            - x / self.theta
            - ln_gamma(self.k)
            - self.theta.ln())
        .exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.k, x / self.theta)
        }
    }

    fn mean(&self) -> f64 {
        self.k * self.theta
    }

    fn variance(&self) -> f64 {
        self.k * self.theta * self.theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;

    #[test]
    fn rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-1.0, 1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        let g = Gamma::new(1.0, 5.0).unwrap();
        // CDF of Exp(mean 5): 1 - e^{-x/5}.
        for &x in &[0.5, 2.0, 5.0, 20.0] {
            let expect = 1.0 - (-x / 5.0f64).exp();
            assert!((g.cdf(x) - expect).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn sample_moments_large_shape() {
        let g = Gamma::new(4.5, 2.0).unwrap();
        let mut rng = SeedStream::new(121).rng("gamma");
        let xs = g.sample_n(&mut rng, 200_000);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((mean - 9.0).abs() < 0.05, "mean {mean}");
        assert!((var - 18.0).abs() < 0.5, "var {var}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn sample_moments_small_shape() {
        // The boosted (k < 1) path.
        let g = Gamma::new(0.4, 3.0).unwrap();
        let mut rng = SeedStream::new(122).rng("gamma2");
        let xs = g.sample_n(&mut rng, 200_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 1.2).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn cdf_known_values() {
        // Regularized lower incomplete gamma P(2.5, x/100), evaluated to
        // 30 digits outside this crate.
        let g = Gamma::new(2.5, 100.0).unwrap();
        for (x, p) in [
            (50.0, 0.037_434_226_752_703_631),
            (250.0, 0.584_119_813_004_492_08),
            (600.0, 0.965_212_219_493_758_15),
        ] {
            assert!((g.cdf(x) - p).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let g = Gamma::new(3.0, 2.0).unwrap();
        let (a, b) = (1.0, 12.0);
        let n = 20_000;
        let h = (b - a) / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let x0 = a + i as f64 * h;
            acc += 0.5 * (g.pdf(x0) + g.pdf(x0 + h)) * h;
        }
        assert!((acc - (g.cdf(b) - g.cdf(a))).abs() < 1e-6);
    }
}
