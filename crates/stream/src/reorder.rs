//! The start-second reorder buffer behind the streaming engine.
//!
//! Log lines arrive in (roughly) stop order; the coordinator wants them in
//! `(start, timestamp, line)` order. The buffer holds pending entries and
//! releases, on request, every entry whose start lies below a watermark,
//! in exactly that key order.
//!
//! Entries live in a slab (with a free list), and each start second owns
//! a bucket: an intrusive `next` list whose head sits in a power-of-two
//! ring of `u32` slab indices, addressed by start second mod the ring
//! length. The ring grows on demand, like `OnlineConcurrency`'s wheel,
//! until the span of buffered starts fits, up to [`RING_CAP`] slots. A
//! push is an O(1) link; a release walks a cursor from the lowest
//! buffered second up to the watermark, sorts each non-empty bucket by
//! `(timestamp, line)` and hands it out. Each second is walked once, so a
//! release costs O(seconds walked + entries released) instead of a heap
//! sift per entry.
//!
//! Entries the ring cannot take — a start below a second already walked
//! (an entry that arrives after its second was released: a look-ahead
//! miss) or one that would stretch the span past the cap — go to a small
//! `BinaryHeap` spill, normally empty, which every release merges by the
//! full key. The released sequence is therefore exactly what a min-heap
//! over `(start, timestamp, line)` would pop at every watermark, including
//! watermarks that move backwards.

use lsw_trace::event::LogEntry;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slot cap of the bucket ring (start seconds, ~12 days). A start that
/// would stretch the buffered span to the cap goes to the spill heap,
/// bounding ring memory at 4 MiB.
const RING_CAP: usize = 1 << 20;

/// End-of-list / empty-bucket marker for slab indices.
const NIL: u32 = u32::MAX;

/// One buffered entry, ordered by `(start, timestamp, line)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    pub(crate) start: u32,
    pub(crate) timestamp: u32,
    pub(crate) line: u64,
    pub(crate) entry: LogEntry,
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

/// A slab slot: the entry plus its bucket (or free-list) successor.
#[derive(Debug, Clone, Copy)]
struct Node {
    pending: Pending,
    next: u32,
}

/// Which store holds the smallest releasable entry.
enum Head {
    Staged,
    Spill,
}

/// Pending entries keyed by start second (see the module docs).
#[derive(Debug)]
pub(crate) struct ReorderBuffer {
    slab: Vec<Node>,
    /// Head of the free-slot list threaded through `Node::next`.
    free: u32,
    /// Slab slots holding an entry (bucketed or staged).
    live: usize,
    /// Bucket heads, indexed by start second mod the ring length.
    ring: Vec<u32>,
    /// Ring length limit (a power of two).
    cap: usize,
    /// Every second below it has been walked, so a start below it goes
    /// to the spill. Only moves forward.
    floor: u64,
    /// Lowest and highest start in the ring (meaningful while `in_ring >
    /// 0`); `lo` is also the release cursor. `hi − lo` stays below the
    /// ring length, so distinct buffered seconds never share a bucket.
    lo: u64,
    hi: u64,
    /// Entries linked into ring buckets.
    in_ring: usize,
    /// The bucket being released (start `floor − 1`), sorted descending
    /// by `(timestamp, line)` so the smallest pops off the end.
    staged: Vec<u32>,
    /// Entries outside the ring's window, merged into every release.
    spill: BinaryHeap<Reverse<Pending>>,
}

impl ReorderBuffer {
    /// The empty buffer.
    pub(crate) fn new() -> Self {
        Self::with_ring_cap(RING_CAP)
    }

    /// The empty buffer with a ring of at most `cap` slots (a power of
    /// two); tests use small caps to reach the spill paths.
    fn with_ring_cap(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        Self {
            slab: Vec::new(),
            free: NIL,
            live: 0,
            ring: Vec::new(),
            cap,
            floor: 0,
            lo: 0,
            hi: 0,
            in_ring: 0,
            staged: Vec::new(),
            spill: BinaryHeap::new(),
        }
    }

    /// Entries buffered.
    pub(crate) fn len(&self) -> usize {
        self.live + self.spill.len()
    }

    /// Whether nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes room for `additional` more entries in one allocation.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.slab.reserve(additional);
    }

    /// Buffers one entry.
    pub(crate) fn push(&mut self, p: Pending) {
        let start = u64::from(p.start);
        let (lo, hi) = if self.in_ring == 0 {
            (start, start)
        } else {
            (self.lo.min(start), self.hi.max(start))
        };
        let fits = start >= self.floor && hi - lo < self.cap as u64;
        let slot = if fits { self.alloc(p) } else { None };
        let Some(idx) = slot else {
            // Bounded by the workload, not the ring: look-ahead misses and
            // starts `cap` or more seconds from the buffered span.
            self.spill.push(Reverse(p));
            return;
        };
        if hi - lo >= self.ring.len() as u64 {
            self.grow_ring(hi - lo);
        }
        self.lo = lo;
        self.hi = hi;
        let bucket = p.start as usize & (self.ring.len() - 1);
        self.slab[idx as usize].next = self.ring[bucket];
        self.ring[bucket] = idx;
        self.in_ring += 1;
    }

    /// Stores `p` in a slab slot, or `None` once the `u32` index space is
    /// exhausted (the caller spills).
    fn alloc(&mut self, p: Pending) -> Option<u32> {
        let node = Node {
            pending: p,
            next: NIL,
        };
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
    /// Bucketed starts all lie in `[lo, lo + old_len)`, so each old slot
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
            self.staged.sort_unstable_by_key(|&i| {
                let p = &slab[i as usize].pending;
                Reverse((p.timestamp, p.line))
            });
            return;
        }
    }

    /// Locates the smallest buffered entry whose start is below `limit`.
    fn head(&mut self, limit: u64) -> Option<Head> {
        if self.staged.is_empty() {
            self.stage(limit);
        }
        // Every ring entry sorts after every staged one, and with nothing
        // staged `stage` left no ring bucket below `limit`, so the minimum
        // is the smaller of the staged head and the spill head.
        let staged = self.staged.last().map(|&i| &self.slab[i as usize].pending);
        let spill = self.spill.peek().map(|Reverse(p)| p);
        let (head, first) = match (staged, spill) {
            (Some(b), Some(s)) if s < b => (Head::Spill, s),
            (Some(b), _) => (Head::Staged, b),
            (None, Some(s)) => (Head::Spill, s),
            (None, None) => return None,
        };
        (u64::from(first.start) < limit).then_some(head)
    }

    /// The smallest buffered entry whose start is below `watermark`.
    pub(crate) fn peek_below(&mut self, watermark: u32) -> Option<&Pending> {
        match self.head(u64::from(watermark))? {
            Head::Staged => self.staged.last().map(|&i| &self.slab[i as usize].pending),
            Head::Spill => self.spill.peek().map(|Reverse(p)| p),
        }
    }

    /// Removes and returns the smallest buffered entry whose start is
    /// below `watermark`.
    pub(crate) fn pop_below(&mut self, watermark: u32) -> Option<Pending> {
        self.pop_before(u64::from(watermark))
    }

    /// Removes and returns the smallest buffered entry.
    pub(crate) fn pop(&mut self) -> Option<Pending> {
        self.pop_before(1 << 32)
    }

    fn pop_before(&mut self, limit: u64) -> Option<Pending> {
        match self.head(limit)? {
            Head::Staged => {
                let idx = self.staged.pop()?;
                let node = &mut self.slab[idx as usize];
                node.next = self.free;
                self.free = idx;
                self.live -= 1;
                Some(node.pending)
            }
            Head::Spill => self.spill.pop().map(|Reverse(p)| p),
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

    /// Starts cluster around ring-boundary anchors (relative to the test
    /// cap) and the ends of the `u32` range, so bucket collisions, ring
    /// growth, beyond-cap spills and equal starts split between the ring
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
        /// Buffer an entry at `start` with timestamp `start + ts`.
        Push { start: u32, ts: u32 },
        /// Release everything below the watermark.
        Release(u32),
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
            (second(cap), second(cap), 0u32..3).prop_map(|(watermark, start, ts)| {
                Op::ReleaseBefore {
                    watermark,
                    start,
                    ts,
                }
            }),
        ]
    }

    /// Runs `ops` against the buffer and a min-heap oracle, comparing
    /// every released entry and the length after every step, then drains
    /// both completely.
    fn check_against_heap(cap: usize, ops: &[Op]) {
        let mut buf = ReorderBuffer::with_ring_cap(cap);
        let mut heap: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
        let mut line = 0u64;
        let key = |p: &Pending| (p.start, p.timestamp, p.line);
        for op in ops {
            match *op {
                Op::Push { start, ts } => {
                    // Lines count down so line order opposes timestamp
                    // order among equal starts.
                    line += 1;
                    let p = pending(start, start.saturating_add(ts), u64::MAX - line);
                    buf.push(p);
                    heap.push(Reverse(p));
                }
                Op::Release(w) => {
                    while heap.peek().is_some_and(|Reverse(p)| p.start < w) {
                        let want = heap.pop().map(|Reverse(p)| key(&p));
                        prop_assert_eq!(buf.pop_below(w).map(|p| key(&p)), want);
                    }
                    prop_assert!(buf.pop_below(w).is_none());
                }
                Op::ReleaseBefore {
                    watermark,
                    start,
                    ts,
                } => {
                    let bound = pending(start, start.saturating_add(ts), 0);
                    while heap
                        .peek()
                        .is_some_and(|Reverse(p)| p.start < watermark && *p < bound)
                    {
                        let want = heap.pop().map(|Reverse(p)| key(&p));
                        prop_assert_eq!(buf.peek_below(watermark).map(key), want);
                        prop_assert_eq!(buf.pop_below(watermark).map(|p| key(&p)), want);
                    }
                    prop_assert!(!buf.peek_below(watermark).is_some_and(|p| *p < bound));
                }
            }
            prop_assert_eq!(buf.len(), heap.len());
            prop_assert_eq!(buf.is_empty(), heap.is_empty());
        }
        while let Some(Reverse(p)) = heap.pop() {
            prop_assert_eq!(buf.pop().map(|p| key(&p)), Some(key(&p)));
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
            check_against_heap(64, &ops);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn releases_match_a_heap_with_the_full_ring(
            ops in prop::collection::vec(op(RING_CAP as u32), 1..80),
        ) {
            check_against_heap(RING_CAP, &ops);
        }
    }

    #[test]
    fn late_pushes_spill_and_release_in_order() {
        let mut buf = ReorderBuffer::with_ring_cap(64);
        buf.push(pending(10, 12, 1));
        buf.push(pending(20, 21, 2));
        assert_eq!(buf.pop_below(15).map(|p| p.line), Some(1));
        assert!(buf.pop_below(15).is_none());
        // Below a walked second, into a non-empty buffer.
        buf.push(pending(5, 30, 3));
        // Equal start to a ring entry, with a smaller timestamp.
        buf.push(pending(20, 20, 4));
        assert_eq!(buf.len(), 3);
        let order: Vec<u64> = std::iter::from_fn(|| buf.pop_below(25))
            .map(|p| p.line)
            .collect();
        assert_eq!(order, [3, 4, 2]);
        // Below a walked second, into an empty buffer.
        buf.push(pending(0, 0, 5));
        assert_eq!(buf.pop().map(|p| p.line), Some(5));
        assert!(buf.is_empty());
    }
}
