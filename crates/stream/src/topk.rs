//! SpaceSaving heavy-hitter counting (Metwally et al. 2005).
//!
//! Tracks the most frequent keys — autonomous systems, countries, objects
//! — in a fixed number of counters. Within the paper's workload every one
//! of those key spaces is small (1 010 ASes, 11 countries, a handful of
//! cameras), so with the default capacity the sketch never evicts and is
//! *exact*; the SpaceSaving eviction rule only engages on adversarial key
//! spaces, where each reported count overestimates by at most the
//! counter's recorded `error`.
//!
//! Counters live in an open-addressing table keyed by the deterministic
//! SplitMix64 hash of the key, so the per-entry hit path — the ingest hot
//! loop runs three of these per kept record — is one probe chain instead
//! of a B-tree descent. Slot *layout* depends on insertion history, so
//! nothing reads it directly: every eviction or truncation picks its
//! victim by the total order `(count, error, key)` (a unique minimum no
//! matter the iteration order), [`SpaceSaving::top`] sorts by `(count
//! desc, key asc)`, and equality compares sorted contents. Identical
//! input multisets therefore produce identical observable state. Merging
//! is exact (count and error add per key) while the union fits in
//! `capacity`; beyond that the merged sketch keeps the top `capacity`
//! counters by `(count desc, key asc)` — still deterministic, with the
//! dropped mass bounded by the smallest kept count. The shard-invariance
//! guarantee of this crate therefore holds unconditionally in the exact
//! regime and the proptests exercise exactly that envelope.

use crate::sketch::{hash64, Sketch};

/// One SpaceSaving counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Estimated occurrences (an overestimate by at most `error`).
    pub count: u64,
    /// Maximum overestimation inherited from evicted keys.
    pub error: u64,
}

/// Keys the sketch can count: ordered (for deterministic reporting) and
/// embeddable into `u64` (for slot placement via `hash64`). The embedding
/// must be injective so distinct keys never share a hash input.
pub trait TopKey: Ord + Clone {
    /// Injective `u64` image of the key.
    fn key64(&self) -> u64;
}

impl TopKey for u16 {
    #[inline]
    fn key64(&self) -> u64 {
        u64::from(*self)
    }
}

impl TopKey for u32 {
    #[inline]
    fn key64(&self) -> u64 {
        u64::from(*self)
    }
}

impl TopKey for [u8; 2] {
    #[inline]
    fn key64(&self) -> u64 {
        u64::from(u16::from_le_bytes(*self))
    }
}

#[derive(Debug, Clone)]
struct Slot<K> {
    hash: u64,
    key: K,
    counter: Counter,
}

/// SpaceSaving top-k sketch over ordered keys.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K: TopKey> {
    capacity: usize,
    /// Linear-probe slots; length is a power of two kept at load <= 1/2.
    slots: Vec<Option<Slot<K>>>,
    len: usize,
    /// True once any key has been evicted or truncated away; while false,
    /// every reported count is exact.
    saturated: bool,
}

impl<K: TopKey> SpaceSaving<K> {
    /// Creates a sketch holding at most `capacity` counters (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            slots: (0..16).map(|_| None).collect(),
            len: 0,
            saturated: false,
        }
    }

    /// Observes one key occurrence.
    pub fn insert_key(&mut self, key: &K) {
        let h = hash64(key.key64());
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        while let Some(s) = &mut self.slots[i] {
            if s.hash == h && s.key == *key {
                s.counter.count += 1;
                return;
            }
            i = (i + 1) & mask;
        }
        if self.len < self.capacity {
            self.insert_slot(Slot {
                hash: h,
                key: key.clone(),
                counter: Counter { count: 1, error: 0 },
            });
            return;
        }
        // Evict the deterministic minimum by (count, error, key) — the
        // total order has a unique minimum, so slot iteration order is
        // immaterial. Removal rebuilds the table (evictions are rare and
        // the old B-tree victim scan was O(len) here too).
        self.saturated = true;
        let Some(victim) = self
            .slots
            .iter()
            .flatten()
            .min_by(|a, b| {
                (a.counter.count, a.counter.error, &a.key).cmp(&(
                    b.counter.count,
                    b.counter.error,
                    &b.key,
                ))
            })
            .map(|s| (s.key.clone(), s.counter))
        else {
            // Unreachable: capacity >= 1 and the table is full here.
            self.insert_slot(Slot {
                hash: h,
                key: key.clone(),
                counter: Counter { count: 1, error: 0 },
            });
            return;
        };
        self.remove_key(&victim.0);
        self.insert_slot(Slot {
            hash: h,
            key: key.clone(),
            counter: Counter {
                count: victim.1.count + 1,
                error: victim.1.count,
            },
        });
    }

    /// Inserts a slot whose key is absent, growing the table at load 1/2.
    fn insert_slot(&mut self, slot: Slot<K>) {
        if (self.len + 1) * 2 > self.slots.len() {
            let new_cap = self.slots.len() * 2;
            let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
            for s in old.into_iter().flatten() {
                self.place(s);
            }
        }
        self.place(slot);
        self.len += 1;
    }

    fn place(&mut self, slot: Slot<K>) {
        let mask = self.slots.len() - 1;
        let mut i = (slot.hash as usize) & mask;
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some(slot);
    }

    /// Removes a present key by re-placing the survivors (no tombstones;
    /// only the rare eviction/truncation paths call this).
    fn remove_key(&mut self, key: &K) {
        let cap = self.slots.len();
        let old = std::mem::replace(&mut self.slots, (0..cap).map(|_| None).collect());
        self.len = 0;
        for s in old.into_iter().flatten() {
            if s.key != *key {
                self.place(s);
                self.len += 1;
            }
        }
    }

    /// Number of live counters.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Counters sorted by `(count desc, key asc)`.
    pub fn top(&self) -> Vec<(K, Counter)> {
        let mut v: Vec<(K, Counter)> = self
            .slots
            .iter()
            .flatten()
            .map(|s| (s.key.clone(), s.counter))
            .collect();
        v.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Total of all live counts.
    pub(crate) fn total(&self) -> u64 {
        self.slots.iter().flatten().map(|s| s.counter.count).sum()
    }

    /// Live counters in ascending key order (canonical content view).
    fn sorted_by_key(&self) -> Vec<(K, Counter)> {
        let mut v: Vec<(K, Counter)> = self
            .slots
            .iter()
            .flatten()
            .map(|s| (s.key.clone(), s.counter))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

/// Content equality: slot layout depends on insertion history, so compare
/// the canonical (key-sorted) counter list instead.
impl<K: TopKey> PartialEq for SpaceSaving<K> {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.saturated == other.saturated
            && self.sorted_by_key() == other.sorted_by_key()
    }
}

impl<K: TopKey> Eq for SpaceSaving<K> {}

impl<K: TopKey> Sketch for SpaceSaving<K> {
    type Item = K;
    type Estimate = Vec<(K, u64)>;

    fn insert(&mut self, item: &K) {
        self.insert_key(item);
    }

    fn merge(&mut self, other: &Self) {
        self.saturated |= other.saturated;
        for s in other.slots.iter().flatten() {
            let mask = self.slots.len() - 1;
            let mut i = (s.hash as usize) & mask;
            let mut found = false;
            while let Some(mine) = &mut self.slots[i] {
                if mine.hash == s.hash && mine.key == s.key {
                    mine.counter.count += s.counter.count;
                    mine.counter.error += s.counter.error;
                    found = true;
                    break;
                }
                i = (i + 1) & mask;
            }
            if !found {
                self.insert_slot(s.clone());
            }
        }
        if self.len > self.capacity {
            self.saturated = true;
            let keep = self.top();
            let mut cap = 16usize;
            while cap < (self.capacity + 1) * 2 {
                cap *= 2;
            }
            self.slots = (0..cap).map(|_| None).collect();
            self.len = 0;
            for (key, counter) in keep.into_iter().take(self.capacity) {
                self.insert_slot(Slot {
                    hash: hash64(key.key64()),
                    key,
                    counter,
                });
            }
        }
    }

    fn estimate(&self) -> Vec<(K, u64)> {
        self.top().into_iter().map(|(k, c)| (k, c.count)).collect()
    }

    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.slots.len() * std::mem::size_of::<Option<Slot<K>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut ss = SpaceSaving::<u16>::new(16);
        for k in 0..8u16 {
            for _ in 0..=k {
                ss.insert_key(&k);
            }
        }
        assert!(!ss.saturated);
        let top = ss.top();
        assert_eq!(top[0], (7, Counter { count: 8, error: 0 }));
        assert_eq!(top.last().unwrap().0, 0);
    }

    #[test]
    fn eviction_preserves_heavy_hitter() {
        let mut ss = SpaceSaving::<u32>::new(4);
        for _ in 0..100 {
            ss.insert_key(&1);
        }
        for k in 10..30u32 {
            ss.insert_key(&k);
        }
        assert!(ss.saturated);
        let top = ss.top();
        assert_eq!(top[0].0, 1, "heavy hitter must survive eviction");
        assert!(top[0].1.count >= 100);
    }

    #[test]
    fn merge_exact_regime_equals_single_stream() {
        let keys: Vec<u16> = (0..200).map(|i| i % 13).collect();
        let mut whole = SpaceSaving::<u16>::new(64);
        let mut a = SpaceSaving::<u16>::new(64);
        let mut b = SpaceSaving::<u16>::new(64);
        for (i, k) in keys.iter().enumerate() {
            whole.insert_key(k);
            if i < 71 {
                a.insert_key(k);
            } else {
                b.insert_key(k);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn eviction_matches_reference_semantics() {
        // Mirror the rule on a naive ordered map: same counts, same
        // errors, same victim choice, insert by insert.
        use std::collections::BTreeMap;
        let mut reference: BTreeMap<u16, Counter> = BTreeMap::new();
        let capacity = 8usize;
        let mut ss = SpaceSaving::<u16>::new(capacity);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..5_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) as u16 % 37;
            ss.insert_key(&key);
            if let Some(c) = reference.get_mut(&key) {
                c.count += 1;
            } else if reference.len() < capacity {
                reference.insert(key, Counter { count: 1, error: 0 });
            } else {
                let victim = reference
                    .iter()
                    .min_by(|a, b| (a.1.count, a.1.error, a.0).cmp(&(b.1.count, b.1.error, b.0)))
                    .map(|(k, c)| (*k, *c))
                    .expect("full map");
                reference.remove(&victim.0);
                reference.insert(
                    key,
                    Counter {
                        count: victim.1.count + 1,
                        error: victim.1.count,
                    },
                );
            }
        }
        let mut got = ss.top();
        got.sort_by_key(|a| a.0);
        let want: Vec<(u16, Counter)> = reference.into_iter().collect();
        assert_eq!(got, want);
    }
}
