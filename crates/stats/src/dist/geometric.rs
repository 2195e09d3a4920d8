//! Geometric distribution over `k = 1, 2, 3, …` (number of trials until
//! first success).
//!
//! Offered as the light-tailed alternative to [`super::Zeta`] for
//! transfers-per-session in ablation studies: geometric matches a target
//! mean but has none of the Zipf tail, which makes the effect of the
//! heavy tail on concurrency visible.

use super::{Discrete, ParamError, Sample};
use crate::rng::u01_open0;
use rand::Rng;

/// Geometric distribution: `P[K = k] = (1-p)^{k-1} p`, `k >= 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates a geometric with success probability `0 < p <= 1`.
    pub(crate) fn new(p: f64) -> Result<Self, ParamError> {
        if !(p > 0.0 && p <= 1.0) {
            return Err(ParamError::new(format!(
                "Geometric requires 0 < p <= 1, got {p}"
            )));
        }
        Ok(Self { p })
    }

    /// Creates a geometric with the given mean `1/p >= 1`.
    pub fn with_mean(mean: f64) -> Result<Self, ParamError> {
        if !(mean >= 1.0) || !mean.is_finite() {
            return Err(ParamError::new(format!(
                "Geometric requires mean >= 1, got {mean}"
            )));
        }
        Self::new(1.0 / mean)
    }
}

impl Discrete for Geometric {
    fn sample_k<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        // Inverse transform: k = ceil(ln u / ln(1-p)), u ∈ (0, 1].
        let u = u01_open0(rng);
        let k = (u.ln() / (1.0 - self.p).ln()).ceil();
        (k as u64).max(1)
    }

    fn pmf(&self, k: u64) -> f64 {
        if k == 0 {
            0.0
        } else {
            (1.0 - self.p).powi((k - 1) as i32) * self.p
        }
    }
}

impl Sample for Geometric {
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
        assert!(Geometric::new(0.0).is_err());
        assert!(Geometric::new(1.5).is_err());
        assert!(Geometric::with_mean(0.5).is_err());
    }

    #[test]
    fn degenerate_p_one() {
        let d = Geometric::new(1.0).unwrap();
        let mut rng = SeedStream::new(111).rng("geo");
        for _ in 0..100 {
            assert_eq!(d.sample_k(&mut rng), 1);
        }
        assert_eq!(d.pmf(1), 1.0);
    }

    #[test]
    fn sample_mean_converges() {
        let d = Geometric::with_mean(3.7).unwrap();
        let mut rng = SeedStream::new(112).rng("geo2");
        const N: usize = 200_000;
        let mean: f64 = (0..N).map(|_| d.sample_k(&mut rng) as f64).sum::<f64>() / N as f64;
        assert!((mean - 3.7).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn pmf_sums_via_cdf() {
        let d = Geometric::new(0.3).unwrap();
        // P[K <= k] = 1 - (1-p)^k.
        let partial: f64 = (1..=10).map(|k| d.pmf(k)).sum();
        assert!((1.0 - 0.7f64.powi(10) - partial).abs() < 1e-12);
    }

    #[test]
    fn support_starts_at_one() {
        let d = Geometric::new(0.9).unwrap();
        let mut rng = SeedStream::new(113).rng("geo3");
        for _ in 0..10_000 {
            assert!(d.sample_k(&mut rng) >= 1);
        }
    }
}
