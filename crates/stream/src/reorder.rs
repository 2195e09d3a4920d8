//! The second-bucket reorder queue: a min-queue over `(second, item)`
//! for keys that are whole trace seconds.
//!
//! Three loops share it. The streaming engine buffers log entries (which
//! arrive in roughly stop order) by start second and releases every
//! entry below a look-ahead watermark in `(start, timestamp, line)`
//! order. Both virtual-time executors (`lsw_replay::virt` and
//! `lsw_edge::virt`) queue completions by stop second and, before each
//! arrival, release every completion due at or before the arrival's
//! second in `(stop, admission index)` order.
//!
//! Items live in a slab (with a free list), and each second owns a
//! bucket: an intrusive `next` list whose head sits in a power-of-two
//! ring of `u32` slab indices, addressed by second mod the ring length.
//! The ring grows on demand, like `OnlineConcurrency`'s wheel, until the
//! span of buffered seconds fits, up to `RING_CAP` slots (fewer for a
//! queue built [`with_span`](ReorderBuffer::with_span)). A push is an
//! O(1) link; a release walks a cursor from the lowest buffered second
//! up to the watermark, sorts each non-empty bucket by the item order
//! `T: Ord` and hands it out. Each second is walked once, so a release
//! costs O(seconds walked + items released) instead of a heap sift per
//! item.
//!
//! Pushes the ring cannot take — a second below one already walked (a
//! look-ahead miss in the engine; a zero-duration completion in an
//! executor, due at the second just released) or one that would stretch
//! the span past the cap — go to a small `BinaryHeap` spill, normally
//! empty, which every release merges by `(second, item)`. The released
//! sequence is therefore exactly what a min-heap over `(second, item)`
//! would pop at every watermark, including watermarks that move
//! backwards.

use lsw_trace::event::LogEntry;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slot cap of the bucket ring (seconds, ~12 days). A second that would
/// stretch the buffered span to the cap goes to the spill heap, bounding
/// ring memory at 4 MiB.
const RING_CAP: usize = 1 << 20;

/// End-of-list / empty-bucket marker for slab indices.
const NIL: u32 = u32::MAX;

/// One log entry the streaming engine buffers, ordered by `(start,
/// timestamp, line)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    pub(crate) start: u32,
    pub(crate) timestamp: u32,
    pub(crate) line: u64,
    pub(crate) entry: LogEntry,
}

impl Pending {
    /// `entry`, read at `line` (a text line number or an `ltc` record
    /// ordinal).
    pub(crate) fn new(line: u64, entry: LogEntry) -> Self {
        Self {
            start: entry.start,
            timestamp: entry.timestamp,
            line,
            entry,
        }
    }
}

// The line number is unique, so the key triple is a total order; the
// payload entry never participates in comparisons.
impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.timestamp, self.line) == (other.start, other.timestamp, other.line)
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.start, self.timestamp, self.line).cmp(&(other.start, other.timestamp, other.line))
    }
}

/// A slab slot: the item plus its bucket (or free-list) successor.
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    item: T,
    next: u32,
}

/// Which store holds the smallest releasable item.
enum Head {
    Staged,
    Spill,
}

/// Items keyed by whole second, released in `(second, item)` order (see
/// the module docs).
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    slab: Vec<Node<T>>,
    /// Head of the free-slot list threaded through `Node::next`.
    free: u32,
    /// Slab slots holding an item (bucketed or staged).
    live: usize,
    /// Bucket heads, indexed by second mod the ring length.
    ring: Vec<u32>,
    /// Ring length limit (a power of two).
    cap: usize,
    /// Every second below it has been walked, so a push below it goes
    /// to the spill. Only moves forward.
    floor: u64,
    /// Lowest and highest second in the ring (meaningful while
    /// `in_ring > 0`); `lo` is also the release cursor. `hi − lo` stays
    /// below the ring length, so distinct buffered seconds never share a
    /// bucket.
    lo: u64,
    hi: u64,
    /// Items linked into ring buckets.
    in_ring: usize,
    /// The bucket being released (second `floor − 1`), sorted
    /// descending so the smallest item pops off the end.
    staged: Vec<u32>,
    /// Items outside the ring's window, merged into every release.
    spill: BinaryHeap<Reverse<(u32, T)>>,
}

impl<T: Ord + Copy> ReorderBuffer<T> {
    /// The empty queue, with the full `RING_CAP` ring.
    pub(crate) fn new() -> Self {
        Self::with_span(u32::MAX)
    }

    /// The empty queue whose ring covers a span of `span` seconds
    /// (rounded up to a power of two, at most `RING_CAP`); an item
    /// further than that from the lowest buffered second spills. The
    /// executors pass the longest transfer, so every client completion
    /// fits the ring and only longer relay feeds spill; tests pass small
    /// spans to reach the spill paths.
    pub fn with_span(span: u32) -> Self {
        Self {
            slab: Vec::new(),
            free: NIL,
            live: 0,
            ring: Vec::new(),
            cap: ((span as usize).min(RING_CAP - 1) + 1).next_power_of_two(),
            floor: 0,
            lo: 0,
            hi: 0,
            in_ring: 0,
            staged: Vec::new(),
            spill: BinaryHeap::new(),
        }
    }

    /// Items buffered.
    pub(crate) fn len(&self) -> usize {
        self.live + self.spill.len()
    }

    /// Whether nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes room for `additional` more items in one allocation.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.slab.reserve(additional);
    }

    /// Buffers `item` at `second`.
    pub fn push(&mut self, second: u32, item: T) {
        let sec = u64::from(second);
        let (lo, hi) = if self.in_ring == 0 {
            (sec, sec)
        } else {
            (self.lo.min(sec), self.hi.max(sec))
        };
        let fits = sec >= self.floor && hi - lo < self.cap as u64;
        let slot = if fits { self.alloc(item) } else { None };
        let Some(idx) = slot else {
            // Bounded by the workload, not the ring: pushes below the
            // cursor and seconds `cap` or more from the buffered span.
            self.spill.push(Reverse((second, item)));
            return;
        };
        if hi - lo >= self.ring.len() as u64 {
            self.grow_ring(hi - lo);
        }
        self.lo = lo;
        self.hi = hi;
        let bucket = second as usize & (self.ring.len() - 1);
        self.slab[idx as usize].next = self.ring[bucket];
        self.ring[bucket] = idx;
        self.in_ring += 1;
    }

    /// Stores `item` in a slab slot, or `None` once the `u32` index space
    /// is exhausted (the caller spills).
    fn alloc(&mut self, item: T) -> Option<u32> {
        let node = Node { item, next: NIL };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.slab.len()).ok().filter(|&i| i != NIL)?;
            self.slab.push(node);
            idx
        };
        self.live += 1;
        Some(idx)
    }

    /// Doubles the ring until a span of `span` seconds fits, re-placing
    /// every bucket head.
    ///
    /// Bucketed seconds all lie in `[lo, lo + old_len)`, so each old slot
    /// maps to exactly one second of that window and the re-placement is
    /// a bijection.
    fn grow_ring(&mut self, span: u64) {
        let mut new_len = self.ring.len().max(16);
        while new_len as u64 <= span {
            new_len *= 2;
        }
        let old = std::mem::replace(&mut self.ring, vec![NIL; new_len]);
        if self.in_ring > 0 {
            for sec in self.lo..self.lo + old.len() as u64 {
                let head = old[sec as usize & (old.len() - 1)];
                if head != NIL {
                    self.ring[sec as usize & (new_len - 1)] = head;
                }
            }
        }
    }

    /// Walks the cursor toward `limit` and stages the first non-empty
    /// bucket below it, sorted. Called only with nothing staged.
    fn stage(&mut self, limit: u64) {
        while self.in_ring > 0 && self.lo < limit {
            let bucket = self.lo as usize & (self.ring.len() - 1);
            self.lo += 1;
            self.floor = self.lo;
            let mut idx = std::mem::replace(&mut self.ring[bucket], NIL);
            if idx == NIL {
                continue;
            }
            while idx != NIL {
                self.staged.push(idx);
                idx = self.slab[idx as usize].next;
            }
            self.in_ring -= self.staged.len();
            let slab = &self.slab;
            self.staged
                .sort_unstable_by(|&a, &b| slab[b as usize].item.cmp(&slab[a as usize].item));
            return;
        }
    }

    /// Locates the smallest buffered item whose second is below `limit`.
    fn head(&mut self, limit: u64) -> Option<Head> {
        if self.staged.is_empty() {
            self.stage(limit);
        }
        // Every ring item sorts after every staged one, and with nothing
        // staged `stage` left no ring bucket below `limit`, so the minimum
        // is the smaller of the staged head and the spill head.
        let staged = self
            .staged
            .last()
            .map(|&i| (self.floor - 1, &self.slab[i as usize].item));
        let spill = self.spill.peek().map(|Reverse((s, t))| (u64::from(*s), t));
        let (head, (second, _)) = match (staged, spill) {
            (Some(b), Some(s)) if s < b => (Head::Spill, s),
            (Some(b), _) => (Head::Staged, b),
            (None, Some(s)) => (Head::Spill, s),
            (None, None) => return None,
        };
        (second < limit).then_some(head)
    }

    /// The smallest buffered item whose second is below `watermark`.
    pub(crate) fn peek_below(&mut self, watermark: u32) -> Option<&T> {
        match self.head(u64::from(watermark))? {
            Head::Staged => self.staged.last().map(|&i| &self.slab[i as usize].item),
            Head::Spill => self.spill.peek().map(|Reverse((_, t))| t),
        }
    }

    /// Removes and returns the smallest buffered item whose second is
    /// below `watermark`.
    pub(crate) fn pop_below(&mut self, watermark: u32) -> Option<T> {
        self.pop_before(u64::from(watermark))
    }

    /// Removes and returns the smallest buffered item whose second is at
    /// or below `second`.
    pub fn pop_through(&mut self, second: u32) -> Option<T> {
        self.pop_before(u64::from(second) + 1)
    }

    /// Removes and returns the smallest buffered item.
    pub fn pop(&mut self) -> Option<T> {
        self.pop_before(1 << 32)
    }

    fn pop_before(&mut self, limit: u64) -> Option<T> {
        match self.head(limit)? {
            Head::Staged => {
                let idx = self.staged.pop()?;
                let node = &mut self.slab[idx as usize];
                node.next = self.free;
                self.free = idx;
                self.live -= 1;
                Some(node.item)
            }
            Head::Spill => self.spill.pop().map(|Reverse((_, t))| t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pending(start: u32, timestamp: u32, line: u64) -> Pending {
        Pending {
            start,
            timestamp,
            line,
            entry: lsw_trace::event::LogEntryBuilder::new()
                .span(start, timestamp.saturating_sub(start))
                .build(),
        }
    }

    /// The engine's item for a push at `(start, ts)` with line `line`.
    fn engine_item(start: u32, ts: u32, line: u64) -> Pending {
        pending(start, start.saturating_add(ts), line)
    }

    /// An executor's `u32` item for the same push: timestamp offset over
    /// the line's low bits, so item order opposes push order within a
    /// timestamp, as it does for the engine's.
    fn executor_item(_start: u32, ts: u32, line: u64) -> u32 {
        (ts << 24) | (line as u32 & 0x00ff_ffff)
    }

    /// Seconds cluster around ring-boundary anchors (relative to the test
    /// cap) and the ends of the `u32` range, so bucket collisions, ring
    /// growth, beyond-cap spills and equal seconds split between the ring
    /// and the spill all occur.
    fn second(cap: u32) -> impl Strategy<Value = u32> {
        let anchors = [
            0,
            1,
            cap / 2,
            cap - 1,
            cap,
            cap + 1,
            2 * cap,
            3 * cap + 7,
            u32::MAX - 3,
        ];
        (0..anchors.len(), 0u32..4).prop_map(move |(k, d)| anchors[k].saturating_add(d))
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Buffer an item at `start` with timestamp offset `ts`.
        Push { start: u32, ts: u32 },
        /// Release everything below the watermark.
        Release(u32),
        /// Release everything at or below the second (the executors'
        /// release before an arrival).
        ReleaseThrough(u32),
        /// Release below the watermark only what sorts before `(start,
        /// ts)` (the merge against a sorted chunk prefix).
        ReleaseBefore { watermark: u32, start: u32, ts: u32 },
    }

    fn op(cap: u32) -> impl Strategy<Value = Op> {
        let push = || (second(cap), 0u32..3).prop_map(|(start, ts)| Op::Push { start, ts });
        prop_oneof![
            push(),
            push(),
            push(),
            second(cap).prop_map(Op::Release),
            second(cap).prop_map(Op::ReleaseThrough),
            (second(cap), second(cap), 0u32..3).prop_map(|(watermark, start, ts)| {
                Op::ReleaseBefore {
                    watermark,
                    start,
                    ts,
                }
            }),
        ]
    }

    /// Runs `ops` against the queue and a min-heap oracle over `(second,
    /// item)`, with `item(start, ts, line)` building each pushed item,
    /// comparing every released item and the length after every step,
    /// then drains both completely.
    fn check_against_heap<T: Ord + Copy + std::fmt::Debug>(
        cap: usize,
        ops: &[Op],
        item: impl Fn(u32, u32, u64) -> T,
    ) {
        let mut buf = ReorderBuffer::with_span(cap as u32 - 1);
        let mut heap: BinaryHeap<Reverse<(u32, T)>> = BinaryHeap::new();
        let mut line = 0u64;
        let top = |heap: &BinaryHeap<Reverse<(u32, T)>>| heap.peek().map(|&Reverse(k)| k);
        for op in ops {
            match *op {
                Op::Push { start, ts } => {
                    // Lines count down so line order opposes push order.
                    line += 1;
                    let t = item(start, ts, u64::MAX - line);
                    buf.push(start, t);
                    heap.push(Reverse((start, t)));
                }
                Op::Release(w) => {
                    while top(&heap).is_some_and(|(s, _)| s < w) {
                        let want = heap.pop().map(|Reverse((_, t))| t);
                        prop_assert_eq!(buf.pop_below(w), want);
                    }
                    prop_assert!(buf.pop_below(w).is_none());
                }
                Op::ReleaseThrough(s) => {
                    while top(&heap).is_some_and(|(t, _)| t <= s) {
                        let want = heap.pop().map(|Reverse((_, t))| t);
                        prop_assert_eq!(buf.pop_through(s), want);
                    }
                    prop_assert!(buf.pop_through(s).is_none());
                }
                Op::ReleaseBefore {
                    watermark,
                    start,
                    ts,
                } => {
                    let bound = (start, item(start, ts, 0));
                    loop {
                        let below = top(&heap).filter(|&(s, _)| s < watermark);
                        prop_assert_eq!(buf.peek_below(watermark).copied(), below.map(|k| k.1));
                        if !below.is_some_and(|k| k < bound) {
                            break;
                        }
                        heap.pop();
                        prop_assert_eq!(buf.pop_below(watermark), below.map(|k| k.1));
                    }
                }
            }
            prop_assert_eq!(buf.len(), heap.len());
            prop_assert_eq!(buf.is_empty(), heap.is_empty());
        }
        while let Some(Reverse((_, t))) = heap.pop() {
            prop_assert_eq!(buf.pop(), Some(t));
            prop_assert_eq!(buf.len(), heap.len());
        }
        prop_assert!(buf.pop().is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn releases_match_a_heap_with_a_small_ring(
            ops in prop::collection::vec(op(64), 1..120),
        ) {
            check_against_heap(64, &ops, engine_item);
            check_against_heap(64, &ops, executor_item);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn releases_match_a_heap_with_the_full_ring(
            ops in prop::collection::vec(op(RING_CAP as u32), 1..80),
        ) {
            check_against_heap(RING_CAP, &ops, engine_item);
            check_against_heap(RING_CAP, &ops, executor_item);
        }
    }

    #[test]
    fn late_pushes_spill_and_release_in_order() {
        let mut buf = ReorderBuffer::with_span(63);
        buf.push(10, pending(10, 12, 1));
        buf.push(20, pending(20, 21, 2));
        assert_eq!(buf.pop_below(15).map(|p| p.line), Some(1));
        assert!(buf.pop_below(15).is_none());
        // Below a walked second, into a non-empty buffer.
        buf.push(5, pending(5, 30, 3));
        // Equal start to a ring entry, with a smaller timestamp.
        buf.push(20, pending(20, 20, 4));
        assert_eq!(buf.len(), 3);
        let order: Vec<u64> = std::iter::from_fn(|| buf.pop_below(25))
            .map(|p| p.line)
            .collect();
        assert_eq!(order, [3, 4, 2]);
        // Below a walked second, into an empty buffer.
        buf.push(0, pending(0, 0, 5));
        assert_eq!(buf.pop().map(|p| p.line), Some(5));
        assert!(buf.is_empty());
    }
}
