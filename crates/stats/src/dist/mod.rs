//! Probability distributions: sampling, CDFs and probability masses.
//!
//! All distributions are implemented from scratch on top of a raw uniform
//! source. Continuous distributions implement [`Continuous`] (and therefore
//! [`Sample`]); discrete distributions implement [`Discrete`]. The sampling
//! methods are generic over the RNG (`R: Rng + ?Sized`) so hot loops
//! monomorphize down to direct calls.
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
//! | [`Weibull`], `Gamma` | Fig 12 model-selection alternatives |
//! | [`Geometric`] | body of the hybrid transfers-per-session model |
//! | [`Poisson`] | per-window counts of the piecewise-stationary process |

mod exponential;
mod gamma;
mod geometric;
mod lognormal;
mod pareto;
mod poisson;
mod weibull;
mod zeta;
mod zipf;

pub use exponential::Exponential;
pub(crate) use gamma::Gamma;
pub use geometric::Geometric;
pub use lognormal::LogNormal;
pub use pareto::Pareto;
pub use poisson::Poisson;
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
/// generator's hot loop pays no virtual dispatch per draw.
pub trait Sample {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws `n` samples into a fresh vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// A continuous real-valued distribution.
pub trait Continuous: Sample {
    /// Cumulative distribution function `P[X <= x]`.
    fn cdf(&self, x: f64) -> f64;
}

/// A discrete distribution over non-negative integers.
pub trait Discrete {
    /// Draws one integer sample.
    fn sample_k<R: Rng + ?Sized>(&self, rng: &mut R) -> u64;

    /// Probability mass at `k`.
    fn pmf(&self, k: u64) -> f64;
}

// NOTE: each discrete distribution also implements `Sample` (returning the
// integer draw as f64) in its own module; a blanket `impl<D: Discrete>
// Sample for D` would collide with the continuous impls under E0119's
// conservative overlap rules.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedStream;

    #[test]
    fn discrete_sample_adapter() {
        let p = Poisson::new(4.0).unwrap();
        let mut rng = SeedStream::new(2).rng("poisson");
        let x = Sample::sample(&p, &mut rng);
        assert_eq!(x, x.trunc());
        assert!(x >= 0.0);
    }
}
