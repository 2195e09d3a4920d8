//! Probability distributions: sampling, densities, CDFs, quantiles, moments.
//!
//! All distributions are implemented from scratch on top of a raw uniform
//! source. Continuous distributions implement [`Continuous`] (and therefore
//! [`Sample`]); discrete distributions implement [`Discrete`]. The sampling
//! methods are generic over the RNG (`R: Rng + ?Sized`) so hot loops
//! monomorphize down to direct calls; heterogeneous collections (e.g.
//! [`Mixture`]) use the object-safe [`DynSample`] / [`DynContinuous`]
//! views, which every distribution gets through blanket impls.
//!
//! The set is exactly what the paper's generative model and the fitting
//! machinery need:
//!
//! | Distribution | Used for |
//! |---|---|
//! | [`LogNormal`] | session ON times, transfer lengths, intra-session interarrivals |
//! | [`Exponential`] | session OFF times, Poisson interarrival gaps |
//! | [`ZipfTable`] | client interest profile (bounded, α < 1 allowed) |
//! | [`Zeta`] | transfers per session (unbounded Zipf, α > 1) |
//! | [`Pareto`] | heavy-tail comparisons / two-regime tail modeling |
//! | [`Normal`], [`Uniform`], [`Weibull`], [`Geometric`], [`Poisson`] | fitting alternatives, workload knobs |
//! | [`Mixture`] | bimodal transfer bandwidth (Fig 20) |
//! | [`Empirical`] | replaying measured marginals |
//! | [`Truncated`] | bounding sampled durations to the trace horizon |

mod empirical;
mod exponential;
mod gamma;
mod geometric;
mod lognormal;
mod mixture;
mod normal;
mod pareto;
mod poisson;
mod uniform;
mod weibull;
mod zeta;
mod zipf;

pub use empirical::Empirical;
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use geometric::Geometric;
pub use lognormal::LogNormal;
pub use mixture::Mixture;
pub use normal::Normal;
pub use pareto::Pareto;
pub use poisson::Poisson;
pub use uniform::Uniform;
pub use weibull::Weibull;
pub use zeta::Zeta;
pub use zipf::ZipfTable;

use rand::Rng;

/// Error produced by distribution constructors on invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    /// Human-readable description of the violated constraint.
    pub message: String,
}

impl ParamError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.message)
    }
}

impl std::error::Error for ParamError {}

/// Anything that can produce a real-valued sample from an RNG.
///
/// The RNG parameter is generic so that a concrete distribution sampled
/// with a concrete RNG monomorphizes to a direct (inlinable) call — the
/// generator's hot loop pays no virtual dispatch per draw. Code that needs
/// runtime polymorphism uses the object-safe [`DynSample`] view instead.
pub trait Sample {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws `n` samples into a fresh vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Object-safe view of [`Sample`], for heterogeneous collections and
/// `&dyn`-typed fields. Every `Sample` type implements it via a blanket
/// impl; `sample_dyn` draws exactly the same value `sample` would.
pub trait DynSample {
    /// Draws one sample through a type-erased RNG.
    fn sample_dyn(&self, rng: &mut dyn Rng) -> f64;
}

impl<S: Sample> DynSample for S {
    fn sample_dyn(&self, rng: &mut dyn Rng) -> f64 {
        self.sample(rng)
    }
}

/// A continuous real-valued distribution.
pub trait Continuous: Sample {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `P[X <= x]`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile (inverse CDF). `p` must lie in `[0, 1]`.
    fn quantile(&self, p: f64) -> f64;

    /// Complementary CDF `P[X > x]`.
    fn ccdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Distribution mean (may be `INFINITY` for very heavy tails).
    fn mean(&self) -> f64;

    /// Distribution variance (may be `INFINITY`).
    fn variance(&self) -> f64;
}

/// Object-safe view of [`Continuous`] (whose sampling method is generic
/// and therefore not dyn-compatible). The density/CDF methods carry a
/// `_dyn` suffix so concrete types implementing both traits never produce
/// ambiguous method calls. Implemented for every `Continuous` type via a
/// blanket impl.
pub trait DynContinuous: DynSample {
    /// Probability density at `x`.
    fn pdf_dyn(&self, x: f64) -> f64;

    /// Cumulative distribution function `P[X <= x]`.
    fn cdf_dyn(&self, x: f64) -> f64;

    /// Quantile (inverse CDF). `p` must lie in `[0, 1]`.
    fn quantile_dyn(&self, p: f64) -> f64;

    /// Distribution mean (may be `INFINITY`).
    fn mean_dyn(&self) -> f64;

    /// Distribution variance (may be `INFINITY`).
    fn variance_dyn(&self) -> f64;
}

impl<C: Continuous> DynContinuous for C {
    fn pdf_dyn(&self, x: f64) -> f64 {
        self.pdf(x)
    }

    fn cdf_dyn(&self, x: f64) -> f64 {
        self.cdf(x)
    }

    fn quantile_dyn(&self, p: f64) -> f64 {
        self.quantile(p)
    }

    fn mean_dyn(&self) -> f64 {
        Continuous::mean(self)
    }

    fn variance_dyn(&self) -> f64 {
        Continuous::variance(self)
    }
}

/// A discrete distribution over non-negative integers.
pub trait Discrete {
    /// Draws one integer sample.
    fn sample_k<R: Rng + ?Sized>(&self, rng: &mut R) -> u64;

    /// Probability mass at `k`.
    fn pmf(&self, k: u64) -> f64;

    /// Cumulative mass `P[K <= k]`.
    fn cdf_k(&self, k: u64) -> f64;

    /// Distribution mean (may be `INFINITY`).
    fn mean(&self) -> f64;

    /// Distribution variance (may be `INFINITY`).
    fn variance(&self) -> f64;
}

// NOTE: each discrete distribution also implements `Sample` (returning the
// integer draw as f64) in its own module; a blanket `impl<D: Discrete>
// Sample for D` would collide with the continuous impls under E0119's
// conservative overlap rules.

/// Restriction of a continuous distribution to an interval `[lo, hi]`.
///
/// Sampling uses the inverse-CDF transform restricted to
/// `[F(lo), F(hi)]`, so no rejection loop is needed and the cost is one
/// quantile evaluation per draw. Used to bound sampled durations to the
/// trace horizon without distorting the body of the distribution.
#[derive(Debug, Clone)]
pub struct Truncated<D: Continuous> {
    inner: D,
    lo: f64,
    hi: f64,
    f_lo: f64,
    f_hi: f64,
}

impl<D: Continuous> Truncated<D> {
    /// Restricts `inner` to `[lo, hi]`.
    ///
    /// Returns an error when the interval is empty or carries (numerically)
    /// zero probability mass.
    pub fn new(inner: D, lo: f64, hi: f64) -> Result<Self, ParamError> {
        if !(lo < hi) {
            return Err(ParamError::new(format!(
                "truncation interval [{lo}, {hi}] is empty"
            )));
        }
        let f_lo = inner.cdf(lo);
        let f_hi = inner.cdf(hi);
        if !(f_hi - f_lo > 0.0) {
            return Err(ParamError::new(format!(
                "truncation interval [{lo}, {hi}] has zero probability mass"
            )));
        }
        Ok(Self {
            inner,
            lo,
            hi,
            f_lo,
            f_hi,
        })
    }

    /// The underlying (untruncated) distribution.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Lower bound of the support.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the support.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl<D: Continuous> Sample for Truncated<D> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = crate::rng::u01(rng);
        let p = self.f_lo + u * (self.f_hi - self.f_lo);
        self.inner.quantile(p).clamp(self.lo, self.hi)
    }
}

impl<D: Continuous> Continuous for Truncated<D> {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            self.inner.pdf(x) / (self.f_hi - self.f_lo)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (self.inner.cdf(x) - self.f_lo) / (self.f_hi - self.f_lo)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        self.inner
            .quantile(self.f_lo + p * (self.f_hi - self.f_lo))
            .clamp(self.lo, self.hi)
    }

    fn mean(&self) -> f64 {
        // No closed form in general; numerically integrate the quantile
        // function (mean = ∫₀¹ Q(p) dp), which is smooth and bounded here.
        let n = 2_048;
        let mut acc = 0.0;
        for i in 0..n {
            let p = (i as f64 + 0.5) / n as f64;
            acc += self.quantile(p);
        }
        acc / n as f64
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        let n = 2_048;
        let mut acc = 0.0;
        for i in 0..n {
            let p = (i as f64 + 0.5) / n as f64;
            let d = self.quantile(p) - m;
            acc += d * d;
        }
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;

    #[test]
    fn truncated_respects_bounds() {
        let d = Truncated::new(Exponential::new(0.01).unwrap(), 10.0, 500.0).unwrap();
        let mut rng = SeedStream::new(1).rng("trunc");
        for _ in 0..5_000 {
            let x = d.sample(&mut rng);
            assert!((10.0..=500.0).contains(&x), "sample {x} escaped bounds");
        }
    }

    #[test]
    fn truncated_cdf_endpoints() {
        let d = Truncated::new(Exponential::new(0.01).unwrap(), 10.0, 500.0).unwrap();
        assert_eq!(d.cdf(5.0), 0.0);
        assert_eq!(d.cdf(1_000.0), 1.0);
        assert!((d.cdf(d.quantile(0.5)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn truncated_rejects_empty_interval() {
        assert!(Truncated::new(Exponential::new(1.0).unwrap(), 5.0, 5.0).is_err());
        assert!(Truncated::new(Exponential::new(1.0).unwrap(), 9.0, 2.0).is_err());
    }

    #[test]
    fn truncated_mean_between_bounds() {
        let d = Truncated::new(LogNormal::new(4.4, 1.4).unwrap(), 1.0, 10_000.0).unwrap();
        let m = d.mean();
        assert!(m > 1.0 && m < 10_000.0);
        // Truncation removes the upper tail, so the mean must not exceed the
        // untruncated mean.
        assert!(m < d.inner().mean());
    }

    #[test]
    fn discrete_sample_adapter() {
        let p = Poisson::new(4.0).unwrap();
        let mut rng = SeedStream::new(2).rng("poisson");
        let x = Sample::sample(&p, &mut rng);
        assert_eq!(x, x.trunc());
        assert!(x >= 0.0);
    }
}
