//! HyperLogLog distinct counting (Flajolet et al. 2007).
//!
//! Counts unique clients and unique IPs in the client layer (Table 1's
//! "total # of users" / "# of client IPs") in 2^p bytes. At the default
//! precision p = 14 the standard error is `1.04 / sqrt(2^14)` ≈ 0.81%,
//! inside the ≤ 2% bound the acceptance tests assert. Small cardinalities
//! (the bias-dominated regime below ~2.5·m) fall back to linear counting
//! on the empty-register count, which is near-exact there.
//!
//! The merge is a register-wise `max` — idempotent, commutative and
//! associative — so any shard split of the input stream merges to the
//! same registers, bit for bit.

use crate::sketch::{hash64, Sketch};

/// HyperLogLog over `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates a sketch with `2^precision` one-byte registers.
    /// Precision is clamped to `[4, 18]`.
    pub fn new(precision: u8) -> Self {
        let precision = precision.clamp(4, 18);
        Self {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// Observes a raw key (hashed internally).
    pub fn insert_key(&mut self, key: u64) {
        self.insert_hash(hash64(key));
    }

    /// Observes a pre-hashed key (`hash64` of the raw key) — for callers
    /// that already computed the hash for another per-entry structure.
    pub(crate) fn insert_hash(&mut self, h: u64) {
        let idx = (h >> (64 - self.precision)) as usize;
        // Rank of the first set bit in the remaining 64-p bits, in 1..=64-p+1.
        let rest = h << self.precision;
        let rho = (rest.leading_zeros() as u8).min(64 - self.precision) + 1;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// Cardinality estimate with linear-counting small-range correction.
    pub(crate) fn count(&self) -> f64 {
        let m = self.registers.len() as f64;
        let mut sum = 0.0;
        let mut zeros = 0u64;
        for &r in &self.registers {
            sum += f64::powi(2.0, -i32::from(r));
            zeros += u64::from(r == 0);
        }
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            // Linear counting: near-exact in the bias-dominated regime.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

impl Sketch for HyperLogLog {
    type Item = u64;
    type Estimate = f64;

    fn insert(&mut self, item: &u64) {
        self.insert_key(*item);
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge HyperLogLogs of different precision"
        );
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }

    fn estimate(&self) -> f64 {
        self.count()
    }

    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.registers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_range_is_near_exact() {
        let mut h = HyperLogLog::new(14);
        for k in 0..5_000u64 {
            h.insert_key(k);
        }
        let est = h.count();
        let err = (est - 5_000.0).abs() / 5_000.0;
        assert!(err < 0.01, "estimate {est} off by {err}");
    }

    #[test]
    fn large_range_within_published_bound() {
        let mut h = HyperLogLog::new(14);
        for k in 0..700_000u64 {
            h.insert_key(k);
        }
        let est = h.count();
        let err = (est - 700_000.0).abs() / 700_000.0;
        assert!(err < 0.02, "estimate {est} off by {err}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::new(12);
        for _ in 0..100 {
            for k in 0..1_000u64 {
                h.insert_key(k);
            }
        }
        let est = h.count();
        assert!((est - 1_000.0).abs() / 1_000.0 < 0.02, "estimate {est}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(12);
        let mut b = HyperLogLog::new(12);
        let mut union = HyperLogLog::new(12);
        for k in 0..10_000u64 {
            union.insert_key(k);
            if k % 2 == 0 {
                a.insert_key(k);
            } else {
                b.insert_key(k);
            }
        }
        a.merge(&b);
        assert_eq!(a, union, "merge must equal the single-stream sketch");
    }

    #[test]
    fn precision_is_clamped_to_4_through_18() {
        for (p, registers) in [
            (0, 16),
            (4, 16),
            (14, 1 << 14),
            (18, 1 << 18),
            (30, 1 << 18),
        ] {
            assert_eq!(HyperLogLog::new(p).registers.len(), registers, "p={p}");
        }
    }
}
