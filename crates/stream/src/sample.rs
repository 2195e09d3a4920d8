//! Bottom-k distinct sampling over clients, with exact per-client tallies.
//!
//! Client-interest Zipf slopes (Figs 4–5) and OFF-time means need
//! *per-client* statistics, but the client population is the one key space
//! that genuinely does not fit a fixed budget (692k users in the paper's
//! trace). A KMV/bottom-k sample keeps the `k` clients whose deterministic
//! 64-bit hash is smallest — a uniform random subset of the *distinct*
//! client set, with a threshold that adapts as new clients appear.
//!
//! The property that makes per-key tallies sound is monotonicity: the
//! hash of a client never changes, so a client inside the final bottom-k
//! was inside the bottom-k from its very first appearance (prefixes have
//! fewer distinct keys, hence a looser threshold). Every sampled client's
//! transfer count, session count and OFF-time total is therefore
//! *complete*, not clipped — the sample is a full-resolution sub-trace of
//! a random client subset. A Zipf slope fitted on the sampled
//! rank-frequency equals the population slope in expectation because
//! uniform client sampling scales ranks by the sampling fraction, and
//! `log(rank) → log(rank) - log(f)` only shifts the regression intercept.
//!
//! Storage is an open-addressing table keyed by the client hash (this is
//! the ingest coordinator's hottest per-entry lookup, so membership must
//! be O(1), not a tree descent) plus a max-heap holding exactly the live
//! hashes — the heap top *is* the bottom-k threshold, and an eviction
//! always removes the top, so heap and table never disagree. Since
//! SplitMix64 is a bijection on `u64`, distinct 32-bit client ids never
//! collide and hash equality is key equality. Every observable (fits,
//! estimates, merges, equality) reads the *sorted* contents, so the slot
//! layout — which depends on insertion order — never leaks into results.

use crate::sketch::{hash64, Sketch};
use lsw_stats::fit::{fit_zipf_points, ZipfFit};
use std::collections::BinaryHeap;

/// Complete per-sampled-client tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTally {
    /// Transfers observed for this client.
    pub transfers: u64,
    /// Sessions closed for this client.
    pub sessions: u64,
    /// Sum of OFF gaps (seconds between consecutive sessions).
    pub off_sum: u64,
    /// Number of OFF gaps observed.
    pub off_n: u64,
    /// End of the most recently closed session, for the next OFF gap.
    pub last_end: Option<u32>,
}

/// One occupied table slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    hash: u64,
    client: u32,
    tally: ClientTally,
}

/// Bottom-k distinct sample keyed by hashed client id.
#[derive(Debug, Clone)]
pub struct ClientSample {
    k: usize,
    /// Linear-probe slots; capacity is a power of two kept at load <= 1/2.
    slots: Vec<Option<Entry>>,
    len: usize,
    /// Max-heap of exactly the live hashes; the top is the k-th smallest
    /// hash once the sample is full (the KMV threshold).
    max_hashes: BinaryHeap<u64>,
}

impl ClientSample {
    /// Creates a sample of at most `k` clients (min 16).
    ///
    /// The slot table is allocated at its full k-determined capacity up
    /// front: the sample can never exceed `k` live entries, so sizing by
    /// `k` (not by data) keeps the footprint constant over the whole
    /// stream — the memory a sample uses is decided by configuration, not
    /// by how many distinct clients the trace happens to contain.
    pub fn new(k: usize) -> Self {
        let k = k.max(16);
        Self {
            k,
            slots: vec![None; (2 * k).next_power_of_two()],
            len: 0,
            max_hashes: BinaryHeap::new(),
        }
    }

    /// Number of sampled clients.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slot index of `hash` if present.
    fn find(&self, hash: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while let Some(e) = &self.slots[i] {
            if e.hash == hash {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Inserts a new entry (hash must be absent). The preallocated table
    /// holds `k` entries at load <= 1/2, so growth never triggers in
    /// practice; the guard keeps the structure sound regardless.
    fn insert_entry(&mut self, entry: Entry) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (entry.hash as usize) & mask;
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some(entry);
        self.len += 1;
        self.max_hashes.push(entry.hash);
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; new_cap]);
        let mask = new_cap - 1;
        for e in old.into_iter().flatten() {
            let mut i = (e.hash as usize) & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(e);
        }
    }

    /// Removes `hash` (which must be present) with backward-shift deletion
    /// so linear probing stays sound without tombstones.
    fn remove_hash(&mut self, hash: u64) {
        let Some(mut i) = self.find(hash) else {
            return;
        };
        let mask = self.slots.len() - 1;
        self.slots[i] = None;
        self.len -= 1;
        let mut j = (i + 1) & mask;
        while let Some(e) = self.slots[j] {
            let home = (e.hash as usize) & mask;
            // Shift back unless the entry already sits in its probe run
            // between its home and the hole.
            let between = if i < j {
                i < home && home <= j
            } else {
                home <= j || home > i
            };
            if !between {
                self.slots[i] = Some(e);
                self.slots[j] = None;
                i = j;
            }
            j = (j + 1) & mask;
        }
    }

    /// Whether the sample is full and `h` lies above its threshold: such a
    /// client is not sampled and, by monotonicity, never will be, so the
    /// caller skips the table probe.
    fn above_threshold(&self, h: u64) -> bool {
        self.len >= self.k && self.max_hashes.peek().is_some_and(|&max_h| h > max_h)
    }

    /// Observes one transfer by `client`; tallies it if sampled.
    pub fn observe_transfer(&mut self, client: u32) {
        self.observe_transfer_hashed(hash64(u64::from(client)), client);
    }

    /// [`observe_transfer`](Self::observe_transfer) with the client hash
    /// already computed (the coordinator shares one hash per entry across
    /// every client-keyed structure).
    pub(crate) fn observe_transfer_hashed(&mut self, h: u64, client: u32) {
        if self.above_threshold(h) {
            return;
        }
        if let Some(i) = self.find(h) {
            // find() only returns occupied slot indices.
            if let Some(slot) = self.slots[i].as_mut() {
                slot.tally.transfers += 1;
            }
            return;
        }
        if self.len >= self.k {
            match self.max_hashes.peek() {
                Some(&max_h) if h < max_h => {
                    self.max_hashes.pop();
                    self.remove_hash(max_h);
                }
                _ => return,
            }
        }
        self.insert_entry(Entry {
            hash: h,
            client,
            tally: ClientTally {
                transfers: 1,
                ..ClientTally::default()
            },
        });
    }

    /// Records a closed session `[start, end]` for `client` (no-op when
    /// the client is not sampled). Sessions must arrive in per-client
    /// chronological order, which the sessionizer guarantees.
    pub(crate) fn observe_session(&mut self, client: u32, start: u32, end: u32) {
        let h = hash64(u64::from(client));
        if self.above_threshold(h) {
            return;
        }
        if let Some(i) = self.find(h) {
            // lsw::allow(L005): find() returned an occupied slot index
            let t = &mut self.slots[i].as_mut().expect("occupied slot").tally;
            t.sessions += 1;
            if let Some(prev_end) = t.last_end {
                t.off_sum += u64::from(start.saturating_sub(prev_end));
                t.off_n += 1;
            }
            t.last_end = Some(end);
        }
    }

    /// Live entries in ascending hash order (the canonical view every
    /// estimate and comparison reads, independent of slot layout).
    fn sorted_entries(&self) -> Vec<Entry> {
        let mut v: Vec<Entry> = self.slots.iter().flatten().copied().collect();
        v.sort_unstable_by_key(|e| e.hash);
        v
    }

    /// KMV estimate of the number of distinct clients seen.
    pub(crate) fn distinct_estimate(&self) -> f64 {
        if self.len < self.k {
            return self.len as f64; // exhaustive: exact
        }
        let Some(&kth) = self.max_hashes.peek() else {
            return self.len as f64; // unreachable: len() >= k >= 1
        };
        // P(hash < kth) ≈ kth / 2^64; (k-1)/U is the unbiased KMV estimator.
        let u = kth as f64 / 18_446_744_073_709_551_616.0;
        (self.k as f64 - 1.0) / u
    }

    /// Fraction of distinct clients present in the sample.
    pub(crate) fn sample_fraction(&self) -> f64 {
        let d = self.distinct_estimate();
        if d <= 0.0 {
            1.0
        } else {
            (self.len as f64 / d).min(1.0)
        }
    }

    /// Mean OFF time over sampled clients' gaps, with the gap count.
    pub(crate) fn off_mean(&self) -> Option<(f64, u64)> {
        let (sum, n) = self.slots.iter().flatten().fold((0u64, 0u64), |(s, n), e| {
            (s + e.tally.off_sum, n + e.tally.off_n)
        });
        (n > 0).then(|| (sum as f64 / n as f64, n))
    }

    /// Zipf fit of the sampled transfers-per-client rank-frequency, using
    /// the same fit-body rule as the batch client layer (ranks while the
    /// count stays >= 10, at least 20 ranks). Slope is invariant under the
    /// rank scaling induced by uniform client sampling.
    pub(crate) fn transfers_zipf(&self) -> Option<ZipfFit> {
        self.zipf_of(|t| t.transfers)
    }

    /// Zipf fit of the sampled sessions-per-client rank-frequency.
    pub(crate) fn sessions_zipf(&self) -> Option<ZipfFit> {
        self.zipf_of(|t| t.sessions)
    }

    fn zipf_of(&self, field: impl Fn(&ClientTally) -> u64) -> Option<ZipfFit> {
        // Fit body: ranks while the raw count stays >= 10 (mirrors the
        // batch layer's cut), floor 20 ranks, cap at what exists. The
        // fit reads only ranks `<= body`, so rank just the top of the
        // distribution (select + sort of the body prefix) instead of
        // sorting every sampled client: ties across the cut carry equal
        // counts, so the fitted points — and the resulting slope and
        // r² — are bit-identical to the full descending sort.
        let mut counts: Vec<u64> = self
            .slots
            .iter()
            .flatten()
            .map(|e| field(&e.tally))
            .filter(|&c| c > 0)
            .collect();
        let n = counts.len();
        if n < 2 {
            return None;
        }
        let total: u64 = counts.iter().sum();
        let k = counts.iter().filter(|&&c| c >= 10).count();
        let body = k.max(20).min(n);
        if body < n {
            counts.select_nth_unstable_by(body, |a, b| b.cmp(a));
            counts.truncate(body);
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let points: Vec<(f64, f64)> = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| ((i + 1) as f64, c as f64 / total as f64))
            .collect();
        fit_zipf_points(&points, Some(body as f64)).ok()
    }
}

// Equality is over the sampled *contents*, not the slot layout: two
// samples built from different insertion orders (e.g. merged vs single
// stream) must compare equal when they hold the same clients and tallies.
impl PartialEq for ClientSample {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.sorted_entries() == other.sorted_entries()
    }
}

impl Eq for ClientSample {}

impl Sketch for ClientSample {
    type Item = u32;
    type Estimate = f64;

    fn insert(&mut self, item: &u32) {
        self.observe_transfer(*item);
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "cannot merge samples of different k");
        for oe in other.sorted_entries() {
            if let Some(i) = self.find(oe.hash) {
                // lsw::allow(L005): find() returned an occupied slot index
                let t = &mut self.slots[i].as_mut().expect("occupied slot").tally;
                t.transfers += oe.tally.transfers;
                t.sessions += oe.tally.sessions;
                t.off_sum += oe.tally.off_sum;
                t.off_n += oe.tally.off_n;
                t.last_end = t.last_end.max(oe.tally.last_end);
            } else {
                self.insert_entry(oe);
            }
        }
        while self.len > self.k {
            if let Some(max_h) = self.max_hashes.pop() {
                self.remove_hash(max_h);
            } else {
                break; // unreachable: heap tracks every live hash
            }
        }
    }

    fn estimate(&self) -> f64 {
        self.distinct_estimate()
    }

    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slots.len() * std::mem::size_of::<Option<Entry>>()
            + self.max_hashes.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_sample_is_exact() {
        let mut s = ClientSample::new(1024);
        for c in 0..500u32 {
            for _ in 0..=(c % 7) {
                s.observe_transfer(c);
            }
        }
        assert_eq!(s.len(), 500);
        assert_eq!(s.distinct_estimate(), 500.0);
        assert_eq!(s.sample_fraction(), 1.0);
    }

    #[test]
    fn kmv_estimate_within_bounds() {
        let mut s = ClientSample::new(4096);
        for c in 0..100_000u32 {
            s.observe_transfer(c);
        }
        let est = s.distinct_estimate();
        let err = (est - 100_000.0).abs() / 100_000.0;
        assert!(err < 0.05, "KMV estimate {est} off by {err}");
    }

    #[test]
    fn sampled_tallies_are_complete() {
        // Interleave two passes; every sampled client must have both.
        let mut s = ClientSample::new(64);
        for pass in 0..2 {
            let _ = pass;
            for c in 0..10_000u32 {
                s.observe_transfer(c);
            }
        }
        for e in s.slots.iter().flatten() {
            assert_eq!(e.tally.transfers, 2, "sampled tallies must be complete");
        }
    }

    #[test]
    fn off_gaps_accumulate() {
        let mut s = ClientSample::new(64);
        s.observe_transfer(7);
        s.observe_session(7, 100, 200);
        s.observe_session(7, 1000, 1100);
        s.observe_session(7, 5000, 5200);
        let (mean, n) = s.off_mean().unwrap();
        assert_eq!(n, 2);
        assert!((mean - (800.0 + 3900.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut whole = ClientSample::new(128);
        let mut a = ClientSample::new(128);
        let mut b = ClientSample::new(128);
        for i in 0..30_000u32 {
            let c = i % 4_000;
            whole.observe_transfer(c);
            if i % 2 == 0 {
                a.observe_transfer(c);
            } else {
                b.observe_transfer(c);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn eviction_keeps_exactly_the_bottom_k() {
        let mut s = ClientSample::new(16);
        for c in 0..5_000u32 {
            s.observe_transfer(c);
        }
        assert_eq!(s.len(), 16);
        // The kept hashes must be exactly the 16 smallest over all clients.
        let mut all: Vec<u64> = (0..5_000u32).map(|c| hash64(u64::from(c))).collect();
        all.sort_unstable();
        let kept: Vec<u64> = s.sorted_entries().iter().map(|e| e.hash).collect();
        assert_eq!(kept, all[..16].to_vec());
        // And the heap top is the threshold (largest kept hash).
        assert_eq!(s.max_hashes.peek().copied(), Some(all[15]));
    }

    #[test]
    fn a_full_sample_tallies_like_one_that_keeps_everyone() {
        // Clients above a full sample's threshold skip the table probe;
        // the bottom-k clients' tallies must still match a sample large
        // enough to keep every client.
        let mut small = ClientSample::new(16);
        let mut all = ClientSample::new(4096);
        for i in 0..20_000u32 {
            let c = i.wrapping_mul(7919) % 2_000;
            for s in [&mut small, &mut all] {
                s.observe_transfer(c);
                s.observe_session(c, i * 10, i * 10 + 5);
            }
        }
        assert_eq!(all.len(), 2_000);
        assert_eq!(small.sorted_entries(), all.sorted_entries()[..16].to_vec());
    }

    #[test]
    fn removal_keeps_probe_chains_sound() {
        // Force collisions and deletions, then verify every survivor is
        // still findable (backward-shift must not orphan entries).
        let mut s = ClientSample::new(16);
        for c in 0..200u32 {
            s.observe_transfer(c);
        }
        for e in s.sorted_entries() {
            assert!(s.find(e.hash).is_some(), "entry lost after evictions");
        }
        assert_eq!(s.len(), 16);
    }
}
