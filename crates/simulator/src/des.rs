//! Minimal discrete-event simulation core.
//!
//! A time-ordered queue of opaque events: a binary min-heap keyed by
//! `(time, seq)`, where `seq` is the insertion sequence number, so events
//! at the same instant pop in the order they were scheduled and
//! simulation runs are deterministic. The payload is a type parameter and
//! never takes part in the ordering.
//!
//! The driver in [`crate::sim`] does not queue transfer starts: it merges
//! them in from the workload's start-sorted list, so the queue holds only
//! in-flight stops and pending retries — a set bounded by concurrency, not
//! by trace length.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in seconds. A newtype over `f64` with total ordering
/// (`NaN` is rejected at insertion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(pub f64);

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A deterministic, time-ordered event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventBox<E>)>>,
    seq: u64,
}

/// Wrapper so the payload never participates in ordering.
#[derive(Debug)]
struct EventBox<E>(E);

impl<E> PartialEq for EventBox<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventBox<E> {}
impl<E> PartialOrd for EventBox<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventBox<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue sized for `n` pending events.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
            seq: 0,
        }
    }

    /// Schedules an event at time `t`.
    ///
    /// # Panics
    /// Panics when `t` is NaN.
    pub fn schedule(&mut self, t: f64, event: E) {
        assert!(!t.is_nan(), "cannot schedule an event at NaN");
        self.heap
            .push(Reverse((SimTime(t), self.seq, EventBox(event))));
        self.seq += 1;
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|Reverse((t, _, e))| (t.0, e.0))
    }

    /// Time of the earliest pending event, in O(1).
    pub(crate) fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse((t, _, _))| t.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "c");
        q.schedule(1.0, "a");
        q.schedule(3.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((3.0, "b")));
        assert_eq!(q.pop(), Some((5.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 1);
        q.schedule(2.0, 2);
        q.schedule(2.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn sub_day_ties_order_by_time_then_seq() {
        // Several distinct fractional times within one second plus exact
        // ties: the order is (time, seq).
        let mut q = EventQueue::new();
        q.schedule(0.75, "d");
        q.schedule(0.25, "a");
        q.schedule(0.5, "b");
        q.schedule(0.5, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(7.0, ());
        assert_eq!(q.peek_time(), Some(7.0));
        assert_eq!(q.heap.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(10.0, "late");
        q.schedule(1.0, "early");
        assert_eq!(q.pop(), Some((1.0, "early")));
        q.schedule(5.0, "mid");
        assert_eq!(q.pop(), Some((5.0, "mid")));
        assert_eq!(q.pop(), Some((10.0, "late")));
    }

    #[test]
    fn schedule_into_the_past_pulls_the_cursor_back() {
        let mut q = EventQueue::new();
        q.schedule(1_000.0, "far");
        assert_eq!(q.pop(), Some((1_000.0, "far")));
        // An event earlier than the last one popped must still come out
        // first.
        q.schedule(3.0, "early");
        q.schedule(2_000.0, "later");
        assert_eq!(q.pop(), Some((3.0, "early")));
        assert_eq!(q.pop(), Some((2_000.0, "later")));
    }

    #[test]
    fn sparse_days_use_the_direct_jump() {
        // Widely spaced times still pop in time order.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.schedule(1e6 * i as f64, i);
        }
        for i in 0..8u64 {
            assert_eq!(q.pop(), Some((1e6 * i as f64, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn negative_and_extreme_times_are_totally_ordered() {
        let mut q = EventQueue::new();
        q.schedule(f64::INFINITY, "inf");
        q.schedule(-3.5, "neg");
        q.schedule(0.0, "zero");
        q.schedule(-10.0, "most-negative");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["most-negative", "neg", "zero", "inf"]);
    }

    #[test]
    fn grows_and_shrinks_without_reordering() {
        // Deterministic pseudo-random times, enough volume to grow the
        // heap well past its first allocation; pop order must match a sort
        // by (time, insertion seq).
        let mut state = 0x0123_4567_89ab_cdefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut q = EventQueue::new();
        let mut expect: Vec<(f64, u64)> = Vec::new();
        for i in 0..5_000u64 {
            // Cluster times so exact ties are common.
            let t = f64::from((next() % 700) as u32) / 3.0;
            q.schedule(t, i);
            expect.push((t, i));
        }
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let got: Vec<(f64, u64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn matches_reference_heap_under_interleaving() {
        // Differential test against a plain BinaryHeap reference, with
        // interleaved schedules and pops (including schedules earlier than
        // the last time popped).
        let mut state = 0xfeed_f00d_dead_beefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        for (seq, round) in (0u64..2_000).zip(0..) {
            let t = f64::from((next() % 100_000) as u32) / 7.0;
            q.schedule(t, seq);
            reference.push(Reverse((SimTime(t), seq)));
            if round % 3 == 0 {
                let got = q.pop();
                let want = reference.pop().map(|Reverse((t, s))| (t.0, s));
                assert_eq!(got, want);
            }
        }
        loop {
            let got = q.pop();
            let want = reference.pop().map(|Reverse((t, s))| (t.0, s));
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
