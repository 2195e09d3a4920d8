//! Deterministic randomness plumbing.
//!
//! Every stochastic component in the workspace draws from an explicitly
//! seeded RNG so that traces, experiments and tests are reproducible
//! bit-for-bit. A single master seed fans out into independent *named
//! substreams*: the substream seed is derived by hashing the master seed
//! with a label (and optionally an index), so adding a new consumer never
//! perturbs the draws seen by existing ones.
//!
//! ```
//! use lsw_stats::rng::SeedStream;
//! use rand::RngExt;
//!
//! let seeds = SeedStream::new(7);
//! let mut a = seeds.rng("arrivals");
//! let mut b = seeds.rng("lengths");
//! // Independent streams: interleaving draws from one never affects the other.
//! let x: f64 = a.random();
//! let y: f64 = b.random();
//! assert_ne!(x, y);
//!
//! // Same label ⇒ same stream.
//! let mut a2 = seeds.rng("arrivals");
//! assert_eq!(a2.random::<f64>(), x);
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The concrete RNG used throughout the workspace.
///
/// ChaCha8 is deterministic across platforms and rust versions, fast enough
/// for tens of millions of draws per second, and has no detectable
/// statistical defects at this round count.
pub type LswRng = ChaCha8Rng;

/// Derives independent named RNG substreams from a master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    master: u64,
}

impl SeedStream {
    /// Creates a seed stream from a master seed.
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// Derives the substream seed for `label`.
    pub fn seed(&self, label: &str) -> u64 {
        fnv1a_with(self.master, label.as_bytes())
    }

    /// Derives the substream seed for `label` and an index (e.g. per-client
    /// or per-day streams).
    pub fn seed_indexed(&self, label: &str, index: u64) -> u64 {
        let base = self.seed(label);
        // Mix in the index with splitmix64 so consecutive indices are far apart.
        splitmix64(base ^ splitmix64(index))
    }

    /// Creates an RNG for the named substream.
    pub fn rng(&self, label: &str) -> LswRng {
        LswRng::seed_from_u64(self.seed(label))
    }

    /// Creates an RNG for the named, indexed substream.
    pub fn rng_indexed(&self, label: &str, index: u64) -> LswRng {
        LswRng::seed_from_u64(self.seed_indexed(label, index))
    }

    /// Derives a child `SeedStream` namespaced under `label`, for components
    /// that themselves own multiple substreams.
    pub fn child(&self, label: &str) -> SeedStream {
        SeedStream::new(self.seed(label))
    }
}

/// FNV-1a over `bytes`, keyed by folding `key` into the initial state.
fn fnv1a_with(key: u64, bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET ^ splitmix64(key);
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    // Final avalanche so short labels still produce well-mixed seeds.
    splitmix64(h)
}

/// splitmix64 finalizer — a full-avalanche 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws a uniform `f64` in `[0, 1)` with 53 bits of precision.
#[inline]
pub fn u01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Take the top 53 bits of a u64; 2^-53 scaling gives [0, 1).
    (rng.next_u64() >> 11) as f64 * (1.0 / 9007199254740992.0)
}

/// Draws a uniform `f64` in `(0, 1]` — safe to pass to `ln()`.
#[inline]
pub(crate) fn u01_open0<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    1.0 - u01(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let s = SeedStream::new(123);
        let mut a = s.rng("x");
        let mut b = s.rng("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let s = SeedStream::new(123);
        let mut a = s.rng("x");
        let mut b = s.rng("y");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = SeedStream::new(1).seed("x");
        let b = SeedStream::new(2).seed("x");
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_differ() {
        let s = SeedStream::new(9);
        let s0 = s.seed_indexed("client", 0);
        let s1 = s.seed_indexed("client", 1);
        assert_ne!(s0, s1);
        // And they are reproducible.
        assert_eq!(s0, s.seed_indexed("client", 0));
    }

    #[test]
    fn child_namespacing() {
        let s = SeedStream::new(9);
        let c = s.child("sub");
        assert_ne!(c.seed("x"), s.seed("x"));
        assert_eq!(c.seed("x"), s.child("sub").seed("x"));
    }

    #[test]
    fn u01_in_range() {
        let mut r = SeedStream::new(5).rng("u");
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        let mut sum = 0.0;
        const N: usize = 100_000;
        for _ in 0..N {
            let x = u01(&mut r);
            assert!((0.0..1.0).contains(&x));
            min = min.min(x);
            max = max.max(x);
            sum += x;
        }
        // Mean of U[0,1) is 0.5 with sd ~ 0.000913 at N = 1e5.
        assert!((sum / N as f64 - 0.5).abs() < 0.005);
        assert!(min < 0.01 && max > 0.99);
    }

    #[test]
    fn u01_open0_never_zero() {
        let mut r = SeedStream::new(5).rng("u");
        for _ in 0..10_000 {
            let x = u01_open0(&mut r);
            assert!(x > 0.0 && x <= 1.0);
            assert!(x.ln().is_finite());
        }
    }
}
