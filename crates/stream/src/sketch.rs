//! The common sketch contract: insert, merge, estimate.
//!
//! Every streaming summary in this crate — HyperLogLog, the log-bucketed
//! quantile histogram, SpaceSaving, the bottom-k distinct sample, the
//! fixed-point log-moments — implements [`Sketch`] so the ingest engine
//! can treat per-shard state uniformly: shards insert independently, the
//! coordinator merges them in shard-index order, and estimates are read
//! only from the merged sketch.
//!
//! Merge discipline: for every sketch in this crate, merging is
//! commutative and associative over the *multiset of inserted items*
//! within its documented exactness envelope (see each type's docs), so the
//! merged state — and therefore every downstream byte of the report — is
//! independent of how items were split across shards. The proptests in
//! `tests/sketch_props.rs` pin this down for 1/2/8-way splits.

/// A mergeable one-pass summary.
pub trait Sketch {
    /// What the sketch consumes.
    type Item;
    /// What the sketch reports.
    type Estimate;

    /// Observes one item.
    fn insert(&mut self, item: &Self::Item);

    /// Folds another sketch (built from a disjoint item stream) into this
    /// one. Both sketches must have been created with the same parameters.
    fn merge(&mut self, other: &Self);

    /// The current estimate.
    fn estimate(&self) -> Self::Estimate;

    /// Resident size in bytes, for memory accounting.
    fn bytes(&self) -> usize;
}

/// SplitMix64 finalizer: the crate-wide deterministic 64-bit hash.
///
/// A bijection on `u64`, so distinct 32-bit ids never collide; the
/// avalanche constants are the reference SplitMix64/Murmur3 finalizer.
/// Seed-free by design — determinism across runs and processes is a
/// feature here, not a DoS surface (inputs are trusted logs).
pub fn hash64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_is_deterministic_and_spreads() {
        assert_eq!(hash64(0), hash64(0));
        assert_ne!(hash64(0), hash64(1));
        // Bijectivity smoke check: no collisions over a small dense range.
        let mut seen: Vec<u64> = (0..10_000u64).map(hash64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn hash64_matches_the_reference_splitmix64() {
        // Outputs of an independent SplitMix64 finalizer, written outside
        // this crate: every client-keyed structure depends on these bits.
        for (x, want) in [
            (0, 0xe220_a839_7b1d_cdaf),
            (1, 0x910a_2dec_8902_5cc1),
            (42, 0xbdd7_3226_2feb_6e95),
            (u64::from(u32::MAX), 0x73b1_3ba2_aff1_81c0),
            (u64::MAX, 0xe4d9_7177_1b65_2c20),
        ] {
            assert_eq!(hash64(x), want, "hash64({x})");
        }
    }
}
