//! Bounded Zipf distribution over ranks `1..=n`.
//!
//! The paper's *client interest profile* (Fig 7) is Zipf-like with exponent
//! α = 0.4704 — below 1, so an unbounded zeta law would not normalize; the
//! population is finite (~692k clients) and a *bounded* Zipf is the right
//! object. [`ZipfTable`] precomputes the cumulative weights once; a draw
//! is one uniform and a binary search on that table (`O(log n)`).

use super::{Discrete, ParamError, Sample};
use crate::rng::u01;
use rand::Rng;

/// Bounded Zipf distribution: `P[K = k] ∝ k^{-s}` for `k ∈ 1..=n`.
///
/// Supports any exponent `s >= 0` (including the paper's sub-unit interest
/// exponents, where the distribution is only mildly skewed).
#[derive(Debug, Clone)]
pub struct ZipfTable {
    n: u64,
    s: f64,
    /// `cum[i]` = P[K <= i+1]; length `n`, last element is 1.0.
    cum: Vec<f64>,
    norm: f64,
}

impl ZipfTable {
    /// Creates a bounded Zipf over `1..=n` with exponent `s >= 0`.
    ///
    /// Cost: `O(n)` time and memory. For the paper's populations
    /// (n ≈ 7×10⁵) this is a few megabytes built once per generator.
    pub fn new(n: u64, s: f64) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::new("ZipfTable requires n >= 1"));
        }
        if !(s >= 0.0) || !s.is_finite() {
            return Err(ParamError::new(format!(
                "ZipfTable requires s >= 0, got {s}"
            )));
        }
        let mut cum = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cum.push(acc);
        }
        let norm = acc;
        for c in &mut cum {
            *c /= norm;
        }
        // Guard against floating point drift at the end of the table.
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        Ok(Self { n, s, cum, norm })
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exponent.
    pub fn s(&self) -> f64 {
        self.s
    }
}

impl Discrete for ZipfTable {
    #[inline]
    fn sample_k<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u = u01(rng);
        // First index whose cumulative mass reaches u.
        let idx = self.cum.partition_point(|&c| c < u);
        (idx as u64 + 1).min(self.n)
    }

    fn pmf(&self, k: u64) -> f64 {
        if k == 0 || k > self.n {
            0.0
        } else {
            (k as f64).powf(-self.s) / self.norm
        }
    }
}

impl Sample for ZipfTable {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_k(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypothesis::chi_square_test;
    use crate::rng::SeedStream;

    #[test]
    fn rejects_bad_params() {
        assert!(ZipfTable::new(0, 1.0).is_err());
        assert!(ZipfTable::new(10, -0.5).is_err());
        assert!(ZipfTable::new(10, f64::NAN).is_err());
    }

    #[test]
    fn uniform_special_case() {
        // s = 0 is uniform over 1..=n.
        let d = ZipfTable::new(4, 0.0).unwrap();
        for k in 1..=4 {
            assert!((d.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = ZipfTable::new(1_000, 0.4704).unwrap();
        let total: f64 = (1..=1_000).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(d.cum.last(), Some(&1.0));
    }

    #[test]
    fn rank_one_most_likely() {
        let d = ZipfTable::new(100, 0.7194).unwrap();
        assert!(d.pmf(1) > d.pmf(2));
        assert!(d.pmf(2) > d.pmf(50));
        // Ratio of masses follows the power law exactly.
        let ratio = d.pmf(1) / d.pmf(8);
        assert!((ratio - 8f64.powf(0.7194)).abs() < 1e-9);
    }

    #[test]
    fn sample_frequencies_match_pmf() {
        let d = ZipfTable::new(50, 1.0).unwrap();
        let mut rng = SeedStream::new(61).rng("zipf");
        let mut counts = [0u32; 51];
        const N: usize = 200_000;
        for _ in 0..N {
            let k = d.sample_k(&mut rng);
            assert!((1..=50).contains(&k));
            counts[k as usize] += 1;
        }
        for k in [1u64, 2, 5, 10, 25] {
            let emp = counts[k as usize] as f64 / N as f64;
            let theo = d.pmf(k);
            assert!(
                (emp - theo).abs() < 0.01,
                "rank {k}: empirical {emp} vs pmf {theo}"
            );
        }
    }

    #[test]
    fn sample_frequencies_pass_chi_square() {
        // Full-support goodness of fit against the exact pmf must accept
        // at the 1% level.
        let d = ZipfTable::new(50, 1.0).unwrap();
        let mut rng = SeedStream::new(63).rng("zipf-chi2");
        let mut counts = [0u32; 51];
        const N: usize = 200_000;
        for _ in 0..N {
            counts[d.sample_k(&mut rng) as usize] += 1;
        }
        let observed: Vec<f64> = (1..=50).map(|k| f64::from(counts[k as usize])).collect();
        let expected: Vec<f64> = (1..=50).map(|k| d.pmf(k) * N as f64).collect();
        let r = chi_square_test(&observed, &expected, 0).unwrap();
        assert!(r.accepts(0.01), "chi-square p = {}", r.p_value);
    }

    #[test]
    fn sample_inverts_the_cdf() {
        // A draw is the first rank whose cumulative mass reaches the one
        // uniform it consumed.
        let d = ZipfTable::new(200, 0.7).unwrap();
        let seeds = SeedStream::new(64);
        let mut a = seeds.rng("zipf-inverse");
        let mut b = seeds.rng("zipf-inverse");
        // P[K <= k].
        let cdf = |k: u64| if k == 0 { 0.0 } else { d.cum[(k - 1) as usize] };
        for _ in 0..5_000 {
            let k = d.sample_k(&mut a);
            let u = u01(&mut b);
            assert!(u <= cdf(k), "rank {k}: u {u} above cdf {}", cdf(k));
            assert!(
                k == 1 || cdf(k - 1) < u,
                "rank {k}: u {u} already reached at rank {}",
                k - 1
            );
        }
    }

    #[test]
    fn consumes_exactly_one_draw_per_sample() {
        // Interleaving samples with raw draws must line up exactly with a
        // hand-advanced twin stream: the generator's substreams rely on it.
        let d = ZipfTable::new(1_000, 0.4704).unwrap();
        let seeds = SeedStream::new(65);
        let mut a = seeds.rng("zipf-one");
        let mut b = seeds.rng("zipf-one");
        for _ in 0..500 {
            let _ = d.sample_k(&mut a);
            b.next_u64();
            assert_eq!(a.next_u64(), b.next_u64(), "streams diverged");
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let t1 = ZipfTable::new(1_000, 0.7).unwrap();
        let t2 = ZipfTable::new(1_000, 0.7).unwrap();
        assert_eq!(t1.cum, t2.cum);
        assert_eq!(t1.norm, t2.norm);
    }

    #[test]
    fn sample_never_escapes_support() {
        let d = ZipfTable::new(3, 2.0).unwrap();
        let mut rng = SeedStream::new(62).rng("zipf-bounds");
        for _ in 0..10_000 {
            let k = d.sample_k(&mut rng);
            assert!((1..=3).contains(&k));
        }
    }

    #[test]
    fn normalization_is_harmonic_number() {
        let d = ZipfTable::new(100, 1.0).unwrap();
        let h100: f64 = (1..=100).map(|k| 1.0 / k as f64).sum();
        assert!((d.pmf(1) - 1.0 / h100).abs() < 1e-12);
    }
}
