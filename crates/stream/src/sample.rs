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
//! always removes the top, so heap and table never disagree. The table
//! starts small and doubles as distinct clients arrive, up to the cap
//! `(2k).next_power_of_two()` that holds `k` entries at load 1/2: a sample
//! costs what it has seen, and `k` only bounds it. Since
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
    /// Slots a new sample starts with.
    const INITIAL_SLOTS: usize = 32;

    /// Creates a sample of at most `k` clients (min 16).
    ///
    /// The slot table starts at 32 slots and doubles as clients arrive.
    /// The sample never holds more than `k` live entries, so the table
    /// never outgrows `(2k).next_power_of_two()` slots: `k` caps the
    /// footprint, and a tap that sees few clients pays only for those.
    pub fn new(k: usize) -> Self {
        let k = k.max(16);
        Self {
            k,
            slots: vec![None; Self::INITIAL_SLOTS],
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

    /// Inserts a new entry (hash must be absent), doubling the table first
    /// when the entry would lift the load above 1/2. Callers evict before
    /// inserting into a full sample, so `len <= k` and the table stops at
    /// `(2k).next_power_of_two()` slots. Returns the entry's slot index.
    fn insert_entry(&mut self, entry: Entry) -> usize {
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
        i
    }

    /// Doubles the table in place and re-places every entry for the new
    /// mask. Growing the allocation (a `realloc`, which moves a mapped
    /// table by remapping its pages) instead of freeing the old table
    /// keeps glibc's dynamic mmap threshold where it was: freeing a mapped
    /// block raises the threshold to its size, and every later allocation
    /// below that size then comes from the heap, where freed blocks stay
    /// resident.
    ///
    /// Re-placement is an in-place rehash: every old entry starts
    /// *pending*, and a pending entry moves to the first slot on its new
    /// probe path that is empty or pending, trading places with a pending
    /// occupant, which is placed next. A placed entry's path crosses only
    /// placed slots, and those never change again, so every entry stays
    /// reachable from its home.
    fn grow(&mut self) {
        let old_cap = self.slots.len();
        let new_cap = old_cap * 2;
        self.slots.resize(new_cap, None);
        let mask = new_cap - 1;
        let mut pending = vec![0u64; old_cap.div_ceil(64)];
        for (i, slot) in self.slots[..old_cap].iter().enumerate() {
            if slot.is_some() {
                pending[i / 64] |= 1 << (i % 64);
            }
        }
        let is_pending =
            |pending: &[u64], j: usize| j < old_cap && pending[j / 64] >> (j % 64) & 1 == 1;
        for i in 0..old_cap {
            while is_pending(&pending, i) {
                let Some(e) = self.slots[i] else {
                    break; // unreachable: pending slots are occupied
                };
                let mut j = (e.hash as usize) & mask;
                while j != i && self.slots[j].is_some() && !is_pending(&pending, j) {
                    j = (j + 1) & mask;
                }
                if j == i {
                    pending[i / 64] &= !(1 << (i % 64));
                } else if self.slots[j].is_none() {
                    self.slots[j] = self.slots[i].take();
                    pending[i / 64] &= !(1 << (i % 64));
                } else {
                    // `e` is placed at `j`; the pending entry it displaced
                    // now sits at `i` and goes next.
                    self.slots.swap(i, j);
                    pending[j / 64] &= !(1 << (j % 64));
                }
            }
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
        if let Some(t) = self.admit(h, client) {
            t.transfers += 1;
        }
    }

    /// The tally of the client hashed `h`, which enters with an empty tally
    /// if absent: a full sample evicts its top first, which lies above `h`
    /// since `h` is neither above the threshold nor present. `None` when
    /// the sample is full and `h` lies above its threshold.
    fn admit(&mut self, h: u64, client: u32) -> Option<&mut ClientTally> {
        if self.above_threshold(h) {
            return None;
        }
        let i = match self.find(h) {
            Some(i) => i,
            None => {
                if self.len >= self.k {
                    if let Some(max_h) = self.max_hashes.pop() {
                        self.remove_hash(max_h);
                    }
                }
                self.insert_entry(Entry {
                    hash: h,
                    client,
                    tally: ClientTally::default(),
                })
            }
        };
        // find() and insert_entry() return occupied slot indices.
        self.slots[i].as_mut().map(|e| &mut e.tally)
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
            // find() only returns occupied slot indices.
            if let Some(slot) = self.slots[i].as_mut() {
                let t = &mut slot.tally;
                t.sessions += 1;
                if let Some(prev_end) = t.last_end {
                    t.off_sum += u64::from(start.saturating_sub(prev_end));
                    t.off_n += 1;
                }
                t.last_end = Some(end);
            }
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

    /// Unions `other` into `self` and keeps the bottom k, evicting as it
    /// goes so the table never outgrows its cap. `other` is walked in
    /// ascending hash order: an entry evicted here is above `k` smaller
    /// hashes already held, and once a full sample's threshold is below
    /// the next hash, every later hash of `other` is too. The result
    /// equals inserting all of `other` and then trimming to k.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "cannot merge samples of different k");
        for oe in other.sorted_entries() {
            let Some(t) = self.admit(oe.hash, oe.client) else {
                break;
            };
            t.transfers += oe.tally.transfers;
            t.sessions += oe.tally.sessions;
            t.off_sum += oe.tally.off_sum;
            t.off_n += oe.tally.off_n;
            t.last_end = t.last_end.max(oe.tally.last_end);
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

    /// Table slots a sample of `k` may hold at most.
    fn cap_slots(k: usize) -> usize {
        (2 * k.max(16)).next_power_of_two()
    }

    /// Table bytes of a sample whose table has `slots` slots and `live`
    /// entries, as `bytes()` counts them.
    fn table_bytes(slots: usize, live: usize) -> usize {
        std::mem::size_of::<ClientSample>()
            + slots * std::mem::size_of::<Option<Entry>>()
            + live * 8
    }

    #[test]
    fn a_growing_sample_keeps_the_bottom_k_of_an_oracle() {
        // The oracle tallies every client in a BTreeMap keyed by hash; the
        // sample must hold exactly its first k, with the same tallies, at
        // every checkpoint of a stream whose table doubles 32 -> 2048.
        use std::collections::BTreeMap;
        let k = 1024;
        let mut s = ClientSample::new(k);
        let mut oracle: BTreeMap<u64, (u32, ClientTally)> = BTreeMap::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut doublings = 0;
        for i in 0..60_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Early clients come from a small range so the table fills by
            // doubling before distinct clients pass k and evictions start.
            let range = 64 + i / 8;
            let c = (state >> 33) as u32 % range;
            let slots_before = s.slots.len();
            s.observe_transfer(c);
            if s.slots.len() > slots_before {
                doublings += 1;
            }
            let t = &mut oracle
                .entry(hash64(u64::from(c)))
                .or_insert((c, ClientTally::default()))
                .1;
            t.transfers += 1;
            if state >> 61 == 0 {
                let (start, end) = (i * 10, i * 10 + 5);
                s.observe_session(c, start, end);
                t.sessions += 1;
                if let Some(prev_end) = t.last_end {
                    t.off_sum += u64::from(start - prev_end);
                    t.off_n += 1;
                }
                t.last_end = Some(end);
            }
            if i % 1_000 == 999 {
                let want: Vec<Entry> = oracle
                    .iter()
                    .take(k)
                    .map(|(&hash, &(client, tally))| Entry {
                        hash,
                        client,
                        tally,
                    })
                    .collect();
                assert_eq!(s.sorted_entries(), want, "after {} observations", i + 1);
                assert!(
                    want.iter().all(|e| s.find(e.hash).is_some()),
                    "an entry is lost"
                );
                let top = want.last().map(|e| e.hash);
                assert_eq!(s.max_hashes.peek().copied(), top);
                let estimate = if oracle.len() < k {
                    oracle.len() as f64
                } else {
                    (k as f64 - 1.0) / (top.unwrap() as f64 / 18_446_744_073_709_551_616.0)
                };
                assert_eq!(s.distinct_estimate().to_bits(), estimate.to_bits());
            }
        }
        assert!(oracle.len() > 4 * k, "the stream must evict");
        assert_eq!(doublings, 6);
        assert_eq!(s.slots.len(), cap_slots(k));
    }

    #[test]
    fn growth_keeps_wrapping_clusters_reachable() {
        // Every client's home is the last slot of the 32-slot table, so
        // each table's probe runs wrap past its end, and each doubling
        // re-places runs that wrap from the new upper half into the lower.
        let clients: Vec<u32> = (0..)
            .filter(|&c| hash64(u64::from(c)) & 31 == 31)
            .take(300)
            .collect();
        let mut s = ClientSample::new(1024);
        for (n, &c) in clients.iter().enumerate() {
            s.observe_transfer(c);
            for &seen in &clients[..=n] {
                assert!(
                    s.find(hash64(u64::from(seen))).is_some(),
                    "client {seen} lost"
                );
            }
        }
        assert_eq!(s.slots.len(), 1024);
        for &c in &clients {
            s.observe_transfer(c);
        }
        assert_eq!(s.len(), clients.len());
        assert!(s.sorted_entries().iter().all(|e| e.tally.transfers == 2));
    }

    #[test]
    fn bytes_follow_the_clients_seen() {
        let k = 1 << 15;
        for n in [0usize, 1, 15, 16, 17, 100, 1_000, 5_000] {
            let mut s = ClientSample::new(k);
            for c in 0..n as u32 {
                s.observe_transfer(c);
                s.observe_transfer(c);
            }
            let slots = (2 * n).next_power_of_two().max(ClientSample::INITIAL_SLOTS);
            assert!(
                s.bytes() <= table_bytes(slots, n),
                "{n} clients: {} B",
                s.bytes()
            );
        }
        assert!(ClientSample::new(k).bytes() < table_bytes(cap_slots(k), 0) / 1_000);
    }

    #[test]
    fn no_sample_outgrows_its_cap() {
        for k in [16usize, 100, 128] {
            let cap = cap_slots(k);
            let mut whole = ClientSample::new(k);
            let mut a = ClientSample::new(k);
            let mut b = ClientSample::new(k);
            for c in 0..20_000u32 {
                whole.observe_transfer(c);
                let half = if c % 2 == 0 { &mut a } else { &mut b };
                half.observe_transfer(c);
                half.observe_session(c, c, c + 1);
                whole.observe_session(c, c, c + 1);
                assert!(half.slots.len() <= cap);
            }
            assert_eq!((a.len(), b.len()), (k, k));
            // Two full samples: the union holds 2k entries, which an
            // insert-then-trim merge would double the table for.
            a.merge(&b);
            assert!(a.slots.len() <= cap, "k={k}: {} slots", a.slots.len());
            assert_eq!(a, whole);
            assert_eq!(a.max_hashes.len(), k);
            assert_eq!(a.max_hashes.peek(), whole.max_hashes.peek());
        }
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
