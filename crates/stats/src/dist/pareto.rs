//! Pareto distribution (type I), used for heavy-tail modeling and as the
//! comparison family in the lognormal-vs-Pareto debate the paper cites
//! (Downey 2001, Mitzenmacher 2002).

use super::{Continuous, ParamError, Sample};
use crate::rng::u01_open0;
use rand::Rng;

/// Pareto (type I) distribution with scale `xm > 0` and shape `alpha > 0`:
/// `P[X > x] = (xm / x)^alpha` for `x >= xm`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto with scale `xm > 0` and shape `alpha > 0`.
    pub fn new(xm: f64, alpha: f64) -> Result<Self, ParamError> {
        if !(xm > 0.0) || !xm.is_finite() || !(alpha > 0.0) || !alpha.is_finite() {
            return Err(ParamError::new(format!(
                "Pareto requires xm > 0 and alpha > 0, got xm={xm}, alpha={alpha}"
            )));
        }
        Ok(Self { xm, alpha })
    }
}

impl Sample for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse transform on the CCDF: x = xm * u^{-1/alpha}, u ∈ (0, 1].
        self.xm * u01_open0(rng).powf(-1.0 / self.alpha)
    }
}

impl Continuous for Pareto {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.xm {
            0.0
        } else {
            self.alpha * self.xm.powf(self.alpha) / x.powf(self.alpha + 1.0)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.xm {
            0.0
        } else {
            1.0 - (self.xm / x).powf(self.alpha)
        }
    }

    fn ccdf(&self, x: f64) -> f64 {
        if x < self.xm {
            1.0
        } else {
            (self.xm / x).powf(self.alpha)
        }
    }

    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.xm / (self.alpha - 1.0)
        }
    }

    fn variance(&self) -> f64 {
        if self.alpha <= 2.0 {
            f64::INFINITY
        } else {
            let a = self.alpha;
            self.xm * self.xm * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;

    #[test]
    fn rejects_bad_params() {
        assert!(Pareto::new(0.0, 1.0).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
        assert!(Pareto::new(-1.0, 2.0).is_err());
    }

    #[test]
    fn support_and_tail() {
        let d = Pareto::new(2.0, 1.5).unwrap();
        let mut rng = SeedStream::new(41).rng("pareto");
        let xs = d.sample_n(&mut rng, 50_000);
        assert!(xs.iter().all(|&x| x >= 2.0));
        // Empirical CCDF at x = 8 should be (2/8)^1.5 = 0.125^... = 0.0442.
        let frac = xs.iter().filter(|&&x| x > 8.0).count() as f64 / xs.len() as f64;
        assert!((frac - 0.25f64.powf(1.5)).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn infinite_moments_flagged() {
        assert!(Pareto::new(1.0, 1.0).unwrap().mean().is_infinite());
        assert!(Pareto::new(1.0, 1.5).unwrap().mean().is_finite());
        assert!(Pareto::new(1.0, 2.0).unwrap().variance().is_infinite());
        assert!(Pareto::new(1.0, 2.5).unwrap().variance().is_finite());
    }

    #[test]
    fn cdf_known_values() {
        // 1 - x^{-2.8}, evaluated to 30 digits outside this crate.
        let d = Pareto::new(1.0, 2.8).unwrap(); // paper's short-range IAT tail exponent
        for (x, p) in [
            (1.5, 0.678_675_030_756_237_45),
            (2.0, 0.856_412_705_625_370_62),
            (10.0, 0.998_415_106_807_538_89),
        ] {
            assert!((d.cdf(x) - p).abs() < 1e-12, "x={x}");
        }
        assert_eq!(d.cdf(1.0), 0.0);
    }

    #[test]
    fn mean_formula() {
        let d = Pareto::new(3.0, 3.0).unwrap();
        assert!((d.mean() - 4.5).abs() < 1e-12);
        let mut rng = SeedStream::new(42).rng("pareto-mean");
        let xs = d.sample_n(&mut rng, 300_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 4.5).abs() < 0.05, "mean {mean}");
    }
}
