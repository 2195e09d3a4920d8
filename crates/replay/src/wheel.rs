//! A hierarchical timing wheel: the nanosecond-scale sibling of the
//! DES calendar queue, sized for per-connection pacing deadlines.
//!
//! Six levels of 64 slots each; level `l` spans `64^l` ticks per slot,
//! so the wheel covers `64^6 ≈ 6.9 × 10^10` ticks (~100 days at the
//! reactor's default 2^17 ns ≈ 131 µs resolution) before the overflow
//! policy kicks in. Deadlines beyond the horizon park in the top level and
//! re-cascade each time their slot comes around — past-horizon entries
//! can fire late, never early.
//!
//! **Determinism contract.** A deadline quantizes to tick
//! `deadline >> shift`, clamped to the tick after `now` (nothing fires
//! in the past). [`TimingWheel::advance`] delivers every pending entry
//! with `tick <= now_tick` in the total order `(tick, insertion seq)`,
//! independent of cascade timing — the property the reactor's pacing and
//! the proptest oracle rely on.
//!
//! **Placement invariant.** An entry lands at the *smallest* level
//! whose parent slot fields of `tick` and `now` agree (the
//! Varghese–Lauck rule), which guarantees its slot's next boundary is
//! at or before its tick: a pending entry never hides in the slot `now`
//! currently occupies, so the next-boundary bitmap scan is exact.

use crate::clock::Nanos;
use std::collections::BTreeSet;

/// log2(slots per level).
const SLOT_BITS: u32 = 6;
/// Slots per level; one `u64` occupancy bitmap covers a level exactly.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; the in-range horizon is `SLOTS^LEVELS` ticks.
pub(crate) const LEVELS: usize = 6;

/// Handle for cancelling a scheduled entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(u64);

#[derive(Debug)]
struct Entry<T> {
    /// Quantized fire tick (absolute, after clamping).
    tick: u64,
    /// Original deadline in nanoseconds, reported back on fire.
    deadline: Nanos,
    seq: u64,
    item: T,
}

/// The wheel. `T` is the per-timer payload (the reactor schedules slab
/// keys).
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Resolution exponent: one tick is `1 << shift` nanoseconds.
    shift: u32,
    /// Current tick; every entry at or before it has been delivered.
    now: u64,
    seq: u64,
    /// Seqs that are scheduled and neither fired nor cancelled.
    pending: BTreeSet<u64>,
    /// `LEVELS * SLOTS` buckets, flattened level-major.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level slot-occupancy bitmaps for O(1) next-slot scans.
    occupied: [u64; LEVELS],
    /// Scratch for in-tick seq sorting, reused across advances.
    batch: Vec<Entry<T>>,
}

impl<T> TimingWheel<T> {
    /// A wheel whose tick is `resolution` nanoseconds rounded up to a
    /// power of two (minimum 1 ns).
    pub fn with_resolution(resolution: Nanos) -> Self {
        let shift = resolution.max(1).next_power_of_two().trailing_zeros();
        Self {
            shift,
            now: 0,
            seq: 0,
            pending: BTreeSet::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            batch: Vec::new(),
        }
    }

    /// Live entries (scheduled and not yet fired or cancelled).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Level-major bucket index for `tick` as seen from `self.now`:
    /// the smallest level whose parent fields agree (see the placement
    /// invariant in the module docs), else the top level.
    fn bucket(&self, tick: u64) -> usize {
        debug_assert!(tick > self.now);
        let mut level = LEVELS - 1;
        for l in 0..LEVELS - 1 {
            let parent_bits = SLOT_BITS * (l as u32 + 1);
            if tick >> parent_bits == self.now >> parent_bits {
                level = l;
                break;
            }
        }
        let slot = (tick >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1);
        level * SLOTS + slot
    }

    fn insert(&mut self, e: Entry<T>) {
        let bucket = self.bucket(e.tick);
        // One slot entry per live timer; bounded by live connections.
        self.slots[bucket].push(e);
        self.occupied[bucket / SLOTS] |= 1 << (bucket % SLOTS);
    }

    /// Schedules `item` for `deadline`; returns a cancellation handle.
    /// A deadline at or before the current tick fires on the next
    /// [`advance`](Self::advance) past `now`.
    pub fn schedule(&mut self, deadline: Nanos, item: T) -> TimerId {
        let seq = self.seq;
        self.seq += 1;
        let tick = (deadline >> self.shift).max(self.now + 1);
        self.pending.insert(seq);
        self.insert(Entry {
            tick,
            deadline,
            seq,
            item,
        });
        TimerId(seq)
    }

    /// Cancels a pending entry; its slot residue is dropped lazily at
    /// fire time. Returns false if it already fired or was cancelled.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.pending.remove(&id.0)
    }

    /// Earliest possible pending deadline, as a conservative lower
    /// bound in nanoseconds: exact for level-0 entries, the slot-start
    /// bound for coarser levels. Sleeping until this bound never
    /// oversleeps a deadline; a wake that fires nothing re-arms at a
    /// refined bound (at most `LEVELS` spurious wakes per deadline).
    pub fn next_deadline(&self) -> Option<Nanos> {
        if self.pending.is_empty() {
            return None;
        }
        self.next_boundary().map(|tick| tick << self.shift)
    }

    /// The next tick at which something fires or cascades.
    fn next_boundary(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let span_bits = SLOT_BITS * level as u32;
            let base = self.now >> span_bits;
            // Rotate the bitmap so bit 0 is the slot after `base`;
            // the first set bit's distance is then the slot delta (a
            // set bit on `base`'s own slot reads as a full revolution,
            // which the placement invariant reserves for wrapped
            // past-horizon entries).
            let idx = ((base + 1) % SLOTS as u64) as u32;
            let rotated = self.occupied[level].rotate_right(idx);
            let step = u64::from(rotated.trailing_zeros());
            let boundary = (base + 1 + step) << span_bits;
            best = Some(best.map_or(boundary, |b| b.min(boundary)));
        }
        best
    }

    /// Advances the wheel to `now` nanoseconds, appending every fired
    /// `(deadline, item)` to `fired` in `(tick, seq)` order, skipping
    /// cancelled entries. Never fires an entry whose tick is after
    /// `now`'s; a non-monotone `now` is a no-op.
    pub fn advance(&mut self, now: Nanos, fired: &mut Vec<(Nanos, T)>) {
        let target = now >> self.shift;
        while self.now < target {
            let Some(boundary) = self.next_boundary() else {
                self.now = target;
                return;
            };
            if boundary > target {
                self.now = target;
                return;
            }
            self.now = boundary;
            self.collect_at_now();
            self.drain_batch(fired);
        }
    }

    /// Pulls everything due (or cascading) at `self.now` into `batch`,
    /// re-inserting not-yet-due entries at finer levels.
    fn collect_at_now(&mut self) {
        for level in 0..LEVELS {
            let span_bits = SLOT_BITS * level as u32;
            // A level participates only when `now` sits on one of its
            // slot boundaries (level 0 always does); misalignment at
            // one level implies misalignment above it.
            if self.now & ((1 << span_bits) - 1) != 0 {
                break;
            }
            let slot = (self.now >> span_bits) as usize & (SLOTS - 1);
            let bucket = level * SLOTS + slot;
            if self.slots[bucket].is_empty() {
                continue;
            }
            let mut drained = std::mem::take(&mut self.slots[bucket]);
            self.occupied[level] &= !(1 << slot);
            for e in drained.drain(..) {
                if e.tick <= self.now {
                    // lsw::allow(L009): per-boundary scratch, flushed by drain_batch
                    self.batch.push(e);
                } else {
                    // Cascades to a finer level, or re-parks in the top
                    // level if still past the horizon.
                    self.insert(e);
                }
            }
            // Hand the emptied Vec back so its capacity is reused —
            // unless a past-horizon entry just re-parked in this very
            // slot (a wrap a whole revolution out).
            if self.slots[bucket].is_empty() {
                self.slots[bucket] = drained;
            }
        }
    }

    /// Flushes `batch` into `fired` in seq order, dropping tombstones.
    fn drain_batch(&mut self, fired: &mut Vec<(Nanos, T)>) {
        if self.batch.is_empty() {
            return;
        }
        self.batch.sort_unstable_by_key(|e| e.seq);
        for e in self.batch.drain(..) {
            if !self.pending.remove(&e.seq) {
                continue; // cancelled
            }
            fired.push((e.deadline, e.item));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u32>, now: Nanos) -> Vec<(Nanos, u32)> {
        let mut fired = Vec::new();
        w.advance(now, &mut fired);
        fired
    }

    #[test]
    fn fires_in_deadline_then_seq_order() {
        let mut w = TimingWheel::with_resolution(1 << 10);
        w.schedule(5_000_000, 3);
        w.schedule(1_000_000, 1);
        w.schedule(1_000_000, 2); // same tick as 1: seq breaks the tie
        w.schedule(9_000_000, 4);
        assert_eq!(w.len(), 4);
        let fired = drain(&mut w, 10_000_000);
        let order: Vec<u32> = fired.iter().map(|&(_, v)| v).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert_eq!(fired[1].0, 1_000_000, "original deadline is reported");
        assert!(w.is_empty());
    }

    #[test]
    fn partial_advance_fires_only_whats_due() {
        let mut w = TimingWheel::with_resolution(1 << 17);
        w.schedule(1 << 20, 1);
        w.schedule(1 << 25, 2);
        let fired = drain(&mut w, 1 << 22);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, 1);
        assert_eq!(w.len(), 1);
        let fired = drain(&mut w, 1 << 26);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, 2);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_advance() {
        let mut w = TimingWheel::with_resolution(1 << 17);
        drain(&mut w, 1 << 30); // move now forward
        w.schedule(0, 7); // already past: clamps to the next tick
        let fired = drain(&mut w, (1 << 30) + (2 << 17));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, 7);
    }

    #[test]
    fn cancel_suppresses_fire_exactly_once() {
        let mut w = TimingWheel::with_resolution(1 << 17);
        let a = w.schedule(1 << 20, 1);
        let b = w.schedule(1 << 21, 2);
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double-cancel reports false");
        assert_eq!(w.len(), 1);
        let fired = drain(&mut w, 1 << 24);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, 2);
        assert!(!w.cancel(b), "cancelling a fired id reports false");
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn straddling_a_parent_boundary_still_fires_on_time() {
        // now = 63, deadline 2 ticks out: the naive log2-of-delta
        // placement would collide with the current level-1 slot and
        // fire a revolution late; the parent-field rule must not.
        let mut w = TimingWheel::with_resolution(1);
        drain(&mut w, 63);
        w.schedule(65, 1);
        assert_eq!(drain(&mut w, 64), vec![]);
        assert_eq!(drain(&mut w, 65), vec![(65, 1)]);
    }

    #[test]
    fn far_deadlines_cascade_through_levels() {
        let mut w = TimingWheel::with_resolution(1);
        // Spread across every level, including one past the 64^6
        // horizon (may fire late via top-level re-parks, never early).
        let deadlines = [
            1u64,
            100,
            5_000,
            1 << 20,
            1 << 30,
            1 << 35,
            (1 << 36) + 12345,
        ];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(d, i as u32);
        }
        let mut fired = Vec::new();
        w.advance(1 << 37, &mut fired);
        let order: Vec<u32> = fired.iter().map(|&(_, v)| v).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
        for (i, &(d, _)) in fired.iter().enumerate() {
            assert_eq!(d, deadlines[i]);
        }
    }

    #[test]
    fn next_deadline_is_a_sound_sleep_bound() {
        let mut w = TimingWheel::with_resolution(1 << 17);
        assert_eq!(w.next_deadline(), None);
        w.schedule(123 << 17, 1);
        let bound = w.next_deadline().expect("pending");
        assert!(bound <= 123 << 17, "never oversleeps the deadline");
        // Following the bound repeatedly reaches the deadline quickly.
        let mut fired = Vec::new();
        let mut hops = 0;
        while !w.is_empty() {
            let b = w.next_deadline().expect("pending");
            w.advance(b, &mut fired);
            hops += 1;
            assert!(hops <= LEVELS as u32 * 2, "bound refines, not spins");
        }
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn virtual_day_advance_is_cheap_and_exact() {
        // 86 400 virtual seconds at 2^17 ns ticks: the advance
        // must jump occupied slots, not iterate ~6.6e8 empty ticks.
        let mut w = TimingWheel::with_resolution(1 << 17);
        let day = 86_400u64 * 1_000_000_000;
        for i in 0..1000u32 {
            w.schedule(u64::from(i) * (day / 1000) + 1, i);
        }
        // The claim under test is wall-clock cost, so only a wall clock
        // can check it.
        #[allow(clippy::disallowed_methods)]
        let t0 = std::time::Instant::now();
        let fired = drain(&mut w, day);
        assert_eq!(fired.len(), 1000);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "advance is O(occupied), not O(ticks)"
        );
        let seqs: Vec<u32> = fired.iter().map(|&(_, v)| v).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn event_driven_fires_land_within_one_tick_of_their_deadlines() {
        // Driven the reactor's way — advance to `next_deadline`, re-arm
        // each fired pacing cursor further out — every entry fires less
        // than one tick from its deadline, from whichever level it
        // cascades.
        let res = 1 << 17;
        let mut w = TimingWheel::with_resolution(res);
        for i in 0..200u64 {
            w.schedule(1_000_000 + i * 7_919_993 + (i % 7) * (1 << 30), (i, 0u32));
        }
        let mut fired = Vec::new();
        let mut fires = 0;
        while let Some(bound) = w.next_deadline() {
            w.advance(bound, &mut fired);
            for (deadline, (i, n)) in fired.drain(..) {
                assert!(
                    bound.abs_diff(deadline) < res,
                    "cursor {i} fired at {bound} for deadline {deadline}"
                );
                fires += 1;
                if n < 5 {
                    // More than two ticks out, so never in the past.
                    w.schedule(deadline + (i + 1) * 3_000_017, (i, n + 1));
                }
            }
        }
        assert_eq!(fires, 200 * 6);
    }
}
