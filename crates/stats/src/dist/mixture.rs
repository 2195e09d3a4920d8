//! Finite mixtures of continuous distributions.
//!
//! The paper's transfer-bandwidth marginal (Fig 20) is *bimodal*: spikes at
//! client connection speeds (modem tiers, DSL, cable) plus a low
//! congestion-bound mode covering ~10% of transfers. [`Mixture`] models
//! exactly this: weighted components sampled by first drawing a component,
//! then drawing from it.
//!
//! Components are stored behind the object-safe [`DynContinuous`] view
//! (the generic [`Continuous`] trait is not dyn-compatible); the mixture
//! itself still implements the generic traits, so it composes — e.g.
//! inside [`super::Truncated`]. The component pick is a cumulative-weight
//! search (one uniform).

use super::{Continuous, DynContinuous, ParamError, Sample};
use crate::rng::u01;
use rand::Rng;

/// Weighted mixture of continuous distributions.
pub struct Mixture {
    components: Vec<Box<dyn DynContinuous + Send + Sync>>,
    /// Cumulative, normalized weights; same length as `components`.
    cum_weights: Vec<f64>,
    weights: Vec<f64>,
}

impl std::fmt::Debug for Mixture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mixture")
            .field("k", &self.components.len())
            .field("weights", &self.weights)
            .finish()
    }
}

impl Mixture {
    /// Creates a mixture from `(weight, component)` pairs.
    ///
    /// Weights must be positive; they are normalized internally.
    pub fn new(
        parts: Vec<(f64, Box<dyn DynContinuous + Send + Sync>)>,
    ) -> Result<Self, ParamError> {
        if parts.is_empty() {
            return Err(ParamError::new("Mixture requires at least one component"));
        }
        if parts.iter().any(|(w, _)| !(*w > 0.0) || !w.is_finite()) {
            return Err(ParamError::new(
                "Mixture weights must be positive and finite",
            ));
        }
        let total: f64 = parts.iter().map(|(w, _)| w).sum();
        let mut cum = Vec::with_capacity(parts.len());
        let mut weights = Vec::with_capacity(parts.len());
        let mut acc = 0.0;
        let mut components = Vec::with_capacity(parts.len());
        for (w, c) in parts {
            acc += w / total;
            cum.push(acc);
            weights.push(w / total);
            components.push(c);
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        Ok(Self {
            components,
            cum_weights: cum,
            weights,
        })
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.len()
    }

    /// Normalized component weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Samples and also reports which component produced the draw.
    pub fn sample_labeled<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, f64) {
        let u = u01(rng);
        let idx = self
            .cum_weights
            .partition_point(|&c| c < u)
            .min(self.components.len() - 1);
        // `&mut R` (sized) implements `Rng`, so a double reborrow erases
        // the generic parameter for the dyn-typed component.
        (idx, self.components[idx].sample_dyn(&mut &mut *rng))
    }
}

impl Sample for Mixture {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_labeled(rng).1
    }
}

impl Continuous for Mixture {
    fn pdf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.pdf_dyn(x))
            .sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.cdf_dyn(x))
            .sum()
    }

    fn quantile(&self, p: f64) -> f64 {
        // No closed form: bisection on the (monotone) mixture CDF.
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 || p == 1.0 {
            // Delegate the extremes to the widest component bounds.
            let mut q = f64::NAN;
            for c in &self.components {
                let cq = c.quantile_dyn(p);
                q = if q.is_nan() {
                    cq
                } else if p == 0.0 {
                    q.min(cq)
                } else {
                    q.max(cq)
                };
            }
            return q;
        }
        // Bracket using component quantiles.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in &self.components {
            lo = lo.min(c.quantile_dyn(0.000_1));
            hi = hi.max(c.quantile_dyn(0.999_9));
        }
        if !lo.is_finite() {
            lo = -1e300;
        }
        if !hi.is_finite() {
            hi = 1e300;
        }
        // Expand the bracket if needed, then bisect.
        while self.cdf(lo) > p {
            lo = if lo > 0.0 { lo / 2.0 } else { lo * 2.0 - 1.0 };
        }
        while self.cdf(hi) < p {
            hi = if hi > 0.0 { hi * 2.0 + 1.0 } else { hi / 2.0 };
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo) <= 1e-12 * (1.0 + hi.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    fn mean(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.mean_dyn())
            .sum()
    }

    fn variance(&self) -> f64 {
        // Var = Σ w (σ² + μ²) − (Σ w μ)².
        let m = self.mean();
        let e2: f64 = self
            .weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * (c.variance_dyn() + c.mean_dyn() * c.mean_dyn()))
            .sum();
        e2 - m * m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{LogNormal, Normal};
    use crate::rng::SeedStream;

    fn bimodal() -> Mixture {
        Mixture::new(vec![
            (0.9, Box::new(Normal::new(56_000.0, 3_000.0).unwrap()) as _),
            (0.1, Box::new(LogNormal::new(8.0, 1.0).unwrap()) as _),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(Mixture::new(vec![]).is_err());
        assert!(Mixture::new(vec![(0.0, Box::new(Normal::standard()) as _),]).is_err());
        assert!(Mixture::new(vec![(-1.0, Box::new(Normal::standard()) as _),]).is_err());
    }

    #[test]
    fn weights_normalized() {
        let m = Mixture::new(vec![
            (3.0, Box::new(Normal::standard()) as _),
            (1.0, Box::new(Normal::new(10.0, 1.0).unwrap()) as _),
        ])
        .unwrap();
        assert!((m.weights()[0] - 0.75).abs() < 1e-12);
        assert!((m.weights()[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn component_frequencies() {
        let m = bimodal();
        let mut rng = SeedStream::new(91).rng("mix");
        const N: usize = 50_000;
        let low = (0..N).filter(|_| m.sample_labeled(&mut rng).0 == 1).count() as f64 / N as f64;
        assert!((low - 0.1).abs() < 0.01, "congestion fraction {low}");
    }

    #[test]
    fn single_component_always_wins() {
        let m = Mixture::new(vec![(42.0, Box::new(Normal::standard()) as _)]).unwrap();
        let mut rng = SeedStream::new(92).rng("mix-one");
        for _ in 0..100 {
            assert_eq!(m.sample_labeled(&mut rng).0, 0);
        }
    }

    #[test]
    fn pick_is_one_uniform_then_the_component_draw() {
        // The component pick consumes exactly one uniform, and the chosen
        // component draws from the stream right after it.
        let m = bimodal();
        let high = Normal::new(56_000.0, 3_000.0).unwrap();
        let low = LogNormal::new(8.0, 1.0).unwrap();
        let seeds = SeedStream::new(93);
        let mut a = seeds.rng("mix-pick");
        let mut b = seeds.rng("mix-pick");
        let mut picked = [0u32; 2];
        for _ in 0..2_000 {
            let (idx, x) = m.sample_labeled(&mut a);
            let u = u01(&mut b);
            assert_eq!(idx, usize::from(u > m.weights()[0]), "u {u} picked {idx}");
            let twin = if idx == 0 {
                high.sample(&mut b)
            } else {
                low.sample(&mut b)
            };
            assert_eq!(x, twin);
            picked[idx] += 1;
        }
        assert!(picked.iter().all(|&c| c > 0), "one component never drawn");
    }

    #[test]
    fn sample_is_the_labeled_draw() {
        let m = bimodal();
        let seeds = SeedStream::new(94);
        let mut a = seeds.rng("mix-same");
        let mut b = seeds.rng("mix-same");
        for _ in 0..1_000 {
            assert_eq!(m.sample(&mut a), m.sample_labeled(&mut b).1);
        }
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let m = Mixture::new(vec![
            (0.5, Box::new(Normal::new(0.0, 1.0).unwrap()) as _),
            (0.5, Box::new(Normal::new(10.0, 1.0).unwrap()) as _),
        ])
        .unwrap();
        assert!((m.mean() - 5.0).abs() < 1e-12);
        // Var = 1 + 25 (between-component) = 26.
        assert!((m.variance() - 26.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let m = bimodal();
        for &p in &[0.05, 0.2, 0.5, 0.8, 0.95] {
            let x = m.quantile(p);
            assert!((m.cdf(x) - p).abs() < 1e-6, "p={p}, x={x}");
        }
    }

    #[test]
    fn pdf_is_weighted_sum() {
        let m = bimodal();
        let x = 56_000.0;
        let direct = 0.9 * Normal::new(56_000.0, 3_000.0).unwrap().pdf(x)
            + 0.1 * LogNormal::new(8.0, 1.0).unwrap().pdf(x);
        assert!((m.pdf(x) - direct).abs() < 1e-15);
    }
}
