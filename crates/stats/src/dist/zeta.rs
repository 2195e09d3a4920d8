//! Zeta (unbounded Zipf) distribution over `k = 1, 2, 3, …`.
//!
//! The paper models *transfers per session* as "Zipf with α = 2.70417"
//! (Fig 13) with no upper bound — that is the zeta distribution
//! `P[K = k] = k^{-α} / ζ(α)`, valid for α > 1. Sampling uses Devroye's
//! rejection algorithm (constant expected cost, no tables).

use super::{Discrete, ParamError, Sample};
use crate::rng::u01_open0;
use crate::special::riemann_zeta;
use rand::Rng;

/// Zeta distribution: `P[K = k] = k^{-alpha} / ζ(alpha)`, `k >= 1`,
/// `alpha > 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zeta {
    alpha: f64,
    zeta_alpha: f64,
}

impl Zeta {
    /// Creates a zeta distribution with exponent `alpha > 1`.
    pub fn new(alpha: f64) -> Result<Self, ParamError> {
        if !(alpha > 1.0) || !alpha.is_finite() {
            return Err(ParamError::new(format!(
                "Zeta requires alpha > 1, got {alpha}"
            )));
        }
        Ok(Self {
            alpha,
            zeta_alpha: riemann_zeta(alpha),
        })
    }
}

impl Discrete for Zeta {
    fn sample_k<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Devroye (1986), "Non-Uniform Random Variate Generation", ch. X.6.1.
        let am1 = self.alpha - 1.0;
        let b = 2f64.powf(am1);
        loop {
            let u = u01_open0(rng);
            let v = u01_open0(rng);
            let x = u.powf(-1.0 / am1).floor();
            // Guard against astronomically large proposals overflowing u64
            // (possible only in the extreme tail for alpha close to 1).
            if !(1.0..9e18).contains(&x) {
                continue;
            }
            let t = (1.0 + 1.0 / x).powf(am1);
            if v * x * (t - 1.0) / (b - 1.0) <= t / b {
                return x as u64;
            }
        }
    }

    fn pmf(&self, k: u64) -> f64 {
        if k == 0 {
            0.0
        } else {
            (k as f64).powf(-self.alpha) / self.zeta_alpha
        }
    }
}

impl Sample for Zeta {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_k(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::rng::SeedStream;

    #[test]
    fn rejects_bad_params() {
        assert!(Zeta::new(1.0).is_err());
        assert!(Zeta::new(0.5).is_err());
        assert!(Zeta::new(f64::INFINITY).is_err());
    }

    #[test]
    fn pmf_normalizes() {
        let d = Zeta::new(2.70417).unwrap();
        // The mass up to a large k should approach 1.
        assert!((1..=100_000).map(|k| d.pmf(k)).sum::<f64>() > 0.99999);
        assert!((d.pmf(1) - 1.0 / riemann_zeta(2.70417)).abs() < 1e-12);
    }

    #[test]
    fn mean_finite_iff_alpha_above_two() {
        let partial_mean = |d: &Zeta, n: u64| (1..=n).map(|k| k as f64 * d.pmf(k)).sum::<f64>();
        // mean = ζ(2)/ζ(3) ≈ 1.3684 at α = 3.
        let d = Zeta::new(3.0).unwrap();
        assert!((partial_mean(&d, 100_000) - 1.36843).abs() < 1e-3);
        // At α = 1.5 the partial means grow like √n without bound.
        let d = Zeta::new(1.5).unwrap();
        assert!(partial_mean(&d, 10_000) > 8.0 * partial_mean(&d, 100));
    }

    #[test]
    fn sample_frequencies_match_pmf() {
        let d = Zeta::new(paper::TRANSFERS_PER_SESSION_ALPHA).unwrap();
        let mut rng = SeedStream::new(71).rng("zeta");
        const N: usize = 200_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..N {
            *counts.entry(d.sample_k(&mut rng)).or_insert(0u32) += 1;
        }
        for k in [1u64, 2, 3, 5, 10] {
            let emp = *counts.get(&k).unwrap_or(&0) as f64 / N as f64;
            let theo = d.pmf(k);
            assert!(
                (emp - theo).abs() < 0.01,
                "k={k}: empirical {emp} vs pmf {theo}"
            );
        }
        // Support starts at 1.
        assert!(!counts.contains_key(&0));
    }

    #[test]
    fn paper_transfers_per_session_mean() {
        // With α = 2.70417 the mean is ζ(1.70417)/ζ(2.70417) ≈ 1.6. (The
        // trace's empirical mean is ≈ 3.7 transfers/session — the pure Zipf
        // fit understates the body, which EXPERIMENTS.md discusses.)
        let alpha = paper::TRANSFERS_PER_SESSION_ALPHA;
        let d = Zeta::new(alpha).unwrap();
        let m = riemann_zeta(alpha - 1.0) / riemann_zeta(alpha);
        assert!(m > 1.3 && m < 2.0, "mean {m}");
        let mut rng = SeedStream::new(72).rng("zeta-mean");
        const N: usize = 300_000;
        let emp: f64 = (0..N).map(|_| d.sample_k(&mut rng) as f64).sum::<f64>() / N as f64;
        // Slow convergence (infinite variance is close by); loose tolerance.
        assert!((emp / m - 1.0).abs() < 0.15, "empirical {emp} vs {m}");
    }
}
