//! Deterministic fixed-point accumulation.
//!
//! Floating-point addition is not associative, so summing `f64`s in shard
//! order and summing them in merged order can differ in the last bits —
//! enough to break the workspace's byte-identical-at-any-shard-count
//! contract. Every running sum in `lsw-stream` therefore quantizes each
//! observation once (a per-item operation, identical no matter which shard
//! sees the item) and accumulates the quantized values in `i128`, whose
//! addition *is* associative and commutative. Merging shards becomes
//! integer addition and cannot depend on grouping.
//!
//! The scale is 2^32: observations here are bounded (log-values, CPU
//! fractions, seconds), so 95 bits of headroom above the scale comfortably
//! holds sums over billions of entries.

use lsw_stats::fit::LogNormalFit;

/// Fixed-point scale: each unit of the accumulator is 2^-32.
const SCALE: f64 = 4_294_967_296.0;

/// An order-insensitive sum of `f64` observations.
///
/// Each observation is rounded once to a multiple of 2^-32 and added into
/// an `i128`. Two `FixedSum`s built from the same multiset of observations
/// are bit-identical regardless of insertion or merge order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedSum {
    raw: i128,
}

impl FixedSum {
    /// Adds one observation (quantized to 2^-32).
    pub(crate) fn add(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "FixedSum observations must be finite");
        self.raw += (v * SCALE).round() as i128;
    }

    /// Adds another sum; exact integer addition, grouping-independent.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.raw += other.raw;
    }

    /// The accumulated sum as `f64`.
    pub(crate) fn value(&self) -> f64 {
        self.raw as f64 / SCALE
    }
}

/// Streaming first and second log-moments for lognormal fitting.
///
/// Keeps `n`, `Σ ln x`, and `Σ (ln x)^2` in fixed point; the lognormal
/// `mu`/`sigma` fall out as the sample mean and standard deviation of
/// `ln x`. Equivalent to the batch fitter up to the fixed-point quantum
/// (2^-32 per observation) and the one-pass variance formula.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LogMoments {
    n: u64,
    sum: FixedSum,
    sum_sq: FixedSum,
}

impl LogMoments {
    /// The empty accumulator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Observes one strictly positive value; non-positive values are
    /// ignored (the batch fitter rejects them wholesale, the stream skips
    /// them — callers feed display-transformed values that are >= 1).
    pub(crate) fn insert(&mut self, x: f64) {
        if x <= 0.0 || !x.is_finite() {
            return;
        }
        let l = x.ln();
        self.n += 1;
        self.sum.add(l);
        self.sum_sq.add(l * l);
    }

    /// Merges another accumulator (integer addition; order-free).
    pub(crate) fn merge(&mut self, other: &Self) {
        self.n += other.n;
        self.sum.merge(&other.sum);
        self.sum_sq.merge(&other.sum_sq);
    }

    /// The fitted lognormal, mirroring `lsw_stats::fit::fit_lognormal`:
    /// needs >= 2 observations and strictly positive log-variance.
    pub(crate) fn lognormal(&self) -> Option<LogNormalFit> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let mu = self.sum.value() / n;
        // Population (MLE) variance via the one-pass identity — the batch
        // fitter divides by n, not n - 1.
        let var = (self.sum_sq.value() - n * mu * mu) / n;
        if !var.is_finite() || var <= 0.0 {
            return None;
        }
        Some(LogNormalFit {
            mu,
            sigma: var.sqrt(),
            n: self.n as usize,
        })
    }

    /// Resident bytes (for memory accounting).
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_sum_is_grouping_independent() {
        let vals = [0.1, 0.7, 13.25, 1e-9, 100.5, 3.3333];
        let mut all = FixedSum::default();
        for v in vals {
            all.add(v);
        }
        for split in 1..vals.len() {
            let (a, b) = vals.split_at(split);
            let mut left = FixedSum::default();
            let mut right = FixedSum::default();
            for &v in a {
                left.add(v);
            }
            for &v in b {
                right.add(v);
            }
            left.merge(&right);
            assert_eq!(left, all);
        }
    }

    #[test]
    fn log_moments_match_batch_fit() {
        let data: Vec<f64> = (1..200).map(|i| f64::from(i) * 1.5).collect();
        let batch = lsw_stats::fit::fit_lognormal(&data).unwrap();
        let mut lm = LogMoments::new();
        for &x in &data {
            lm.insert(x);
        }
        let fit = lm.lognormal().unwrap();
        assert!(
            (fit.mu - batch.mu).abs() < 1e-7,
            "{} vs {}",
            fit.mu,
            batch.mu
        );
        assert!(
            (fit.sigma - batch.sigma).abs() < 1e-7,
            "{} vs {}",
            fit.sigma,
            batch.sigma
        );
        assert_eq!(fit.n, data.len());
    }

    #[test]
    fn fixed_sum_rounds_each_observation_to_the_quantum() {
        let quantum = 1.0 / SCALE;
        let mut s = FixedSum::default();
        s.add(0.25 * quantum); // rounds to zero
        assert_eq!(s, FixedSum::default());
        s.add(0.75 * quantum); // rounds to one quantum
        assert_eq!(s.value(), quantum);
        s.add(1.5);
        assert_eq!(s.value(), 1.5 + quantum);
    }

    #[test]
    fn fixed_sum_cancels_exactly() {
        let mut s = FixedSum::default();
        for v in [0.1, 2.7, -0.1, 1e-3, -2.7, -1e-3] {
            s.add(v);
        }
        assert_eq!(s, FixedSum::default());
        assert_eq!(s.value(), 0.0);
    }

    #[test]
    fn log_moments_merge_equals_one_pass() {
        let data: Vec<f64> = (1..100).map(|i| f64::from(i).powf(1.3)).collect();
        let mut all = LogMoments::new();
        for &x in &data {
            all.insert(x);
        }
        let (a, b) = data.split_at(37);
        let (mut left, mut right) = (LogMoments::new(), LogMoments::new());
        a.iter().for_each(|&x| left.insert(x));
        b.iter().for_each(|&x| right.insert(x));
        right.merge(&left);
        assert_eq!(right, all);
        assert_eq!(right.lognormal(), all.lognormal());
    }

    #[test]
    fn log_moments_skip_nan_and_non_positive() {
        let mut lm = LogMoments::new();
        lm.insert(f64::NAN);
        lm.insert(0.0);
        lm.insert(-3.0);
        assert_eq!(lm, LogMoments::new());
    }

    #[test]
    fn log_moments_reject_degenerate() {
        let mut lm = LogMoments::new();
        lm.insert(5.0);
        assert!(lm.lognormal().is_none(), "one point is not a fit");
        lm.insert(5.0);
        assert!(lm.lognormal().is_none(), "zero variance is not a fit");
    }
}
