//! A generational slab: O(1) insert/remove/lookup for reactor
//! connections, with stale-handle detection.
//!
//! Epoll events and reactor deadlines both carry a [`Key`] rather
//! than a reference. A key packs `(index, generation)` into one `u64`
//! (it rides through `epoll_data` verbatim); the generation is bumped
//! on every removal, so an event or timer that outlives its connection
//! resolves to `None` instead of to whatever reused the slot. That is
//! why a closing connection need not touch the reactor's deadline heap:
//! its pending deadline pops once into a stale key and fires nothing.

/// A slot handle: index plus the generation it was issued under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    index: u32,
    gen: u32,
}

impl Key {
    /// Packs the key for transport through `epoll_data`/usize tokens.
    pub(crate) fn to_usize(self) -> usize {
        ((self.gen as usize) << 32) | self.index as usize
    }

    /// Recovers a key packed by [`Key::to_usize`].
    pub(crate) fn from_usize(v: usize) -> Self {
        Self {
            index: (v & 0xFFFF_FFFF) as u32,
            gen: (v >> 32) as u32,
        }
    }
}

#[derive(Debug)]
enum Slot<T> {
    /// Free slot, linking to the next free index (`u32::MAX` = none).
    Vacant {
        next_free: u32,
    },
    Occupied {
        gen: u32,
        value: T,
    },
}

/// The slab proper.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Head of the intrusive free list (`u32::MAX` = none).
    free_head: u32,
    len: usize,
    /// Generation to stamp on the next insert, bumped per removal so
    /// a reused slot never validates an old key.
    next_gen: u32,
}

const NO_FREE: u32 = u32::MAX;

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free_head: NO_FREE,
            len: 0,
            next_gen: 0,
        }
    }

    /// True when no entries are live.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, reusing a vacated slot when one exists.
    pub(crate) fn insert(&mut self, value: T) -> Key {
        let gen = self.next_gen;
        self.len += 1;
        if self.free_head != NO_FREE {
            let index = self.free_head;
            match self.slots[index as usize] {
                Slot::Vacant { next_free } => self.free_head = next_free,
                Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            }
            self.slots[index as usize] = Slot::Occupied { gen, value };
            return Key { index, gen };
        }
        // A u32 index bounds the slab at 4.3 billion concurrent
        // connections — beyond any fd table this harness can open.
        debug_assert!(self.slots.len() < NO_FREE as usize);
        let index = self.slots.len() as u32;
        // Grows to peak concurrent connections, then recycles via the free list.
        self.slots.push(Slot::Occupied { gen, value });
        Key { index, gen }
    }

    /// Looks up a live entry; `None` for vacated or stale keys.
    pub fn get(&self, key: Key) -> Option<&T> {
        match self.slots.get(key.index as usize) {
            Some(Slot::Occupied { gen, value }) if *gen == key.gen => Some(value),
            _ => None,
        }
    }

    /// Looks up a live entry mutably; `None` for vacated or stale keys.
    pub fn get_mut(&mut self, key: Key) -> Option<&mut T> {
        match self.slots.get_mut(key.index as usize) {
            Some(Slot::Occupied { gen, value }) if *gen == key.gen => Some(value),
            _ => None,
        }
    }

    /// Removes and returns an entry; `None` if the key is stale. Bumps
    /// the generation so outstanding copies of the key go stale.
    pub fn remove(&mut self, key: Key) -> Option<T> {
        match self.slots.get(key.index as usize) {
            Some(Slot::Occupied { gen, .. }) if *gen == key.gen => {}
            _ => return None,
        }
        let slot = std::mem::replace(
            &mut self.slots[key.index as usize],
            Slot::Vacant {
                next_free: self.free_head,
            },
        );
        self.free_head = key.index;
        self.len -= 1;
        self.next_gen = self.next_gen.wrapping_add(1);
        match slot {
            Slot::Occupied { value, .. } => Some(value),
            Slot::Vacant { .. } => None,
        }
    }

    /// Iterates live `(key, &mut value)` pairs (drain paths only — the
    /// hot path is key lookup, never a scan).
    pub fn iter_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Occupied { gen, .. } => Some(Key {
                index: i as u32,
                gen: *gen,
            }),
            Slot::Vacant { .. } => None,
        })
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len, 2);
        assert_eq!(s.get_mut(a), Some(&mut "a"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get_mut(a), None, "removed key is dead");
        assert_eq!(s.remove(a), None, "double remove is safe");
        assert_eq!(s.get_mut(b), Some(&mut "b"));
        assert_eq!(s.len, 1);
    }

    #[test]
    fn reused_slot_invalidates_the_old_key() {
        let mut s = Slab::new();
        let a = s.insert(1u32);
        s.remove(a);
        let b = s.insert(2u32);
        // Same physical slot, different generation.
        assert_eq!(s.get_mut(a), None, "stale key misses");
        assert_eq!(s.get_mut(b), Some(&mut 2));
        assert_eq!(s.slots.len(), 1, "slot was recycled, not grown");
    }

    #[test]
    fn get_resolves_live_keys_only() {
        let mut s = Slab::new();
        let a = s.insert(7u32);
        assert_eq!(s.get(a), Some(&7));
        *s.get_mut(a).expect("live") = 8;
        assert_eq!(s.get(a), Some(&8));
        s.remove(a);
        let b = s.insert(9);
        assert_eq!(s.get(a), None, "a stale key misses the reused slot");
        assert_eq!(s.get(b), Some(&9));
    }

    #[test]
    fn keys_survive_usize_packing() {
        let mut s = Slab::new();
        for i in 0..100u32 {
            let k = s.insert(i);
            assert_eq!(Key::from_usize(k.to_usize()), k);
        }
        let k = s.iter_keys().nth(42).expect("live key");
        assert_eq!(s.get_mut(Key::from_usize(k.to_usize())), Some(&mut 42));
    }

    #[test]
    fn free_list_is_lifo_and_complete() {
        let mut s = Slab::new();
        let keys: Vec<Key> = (0..10).map(|i| s.insert(i)).collect();
        for &k in &keys {
            s.remove(k);
        }
        assert!(s.is_empty());
        for i in 0..10 {
            s.insert(100 + i);
        }
        assert_eq!(s.slots.len(), 10, "all ten slots recycled");
        assert_eq!(s.len, 10);
    }

    #[test]
    fn is_empty_follows_the_live_entries() {
        let mut s = Slab::new();
        assert!(s.is_empty());
        let a = s.insert(());
        assert!(!s.is_empty());
        s.remove(a);
        assert!(s.is_empty());
        s.remove(a); // a stale remove must not count twice
        assert!(s.is_empty());
        s.insert(());
        assert!(!s.is_empty(), "a recycled slot is live again");
    }
}
