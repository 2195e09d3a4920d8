//! Single-producer multi-consumer broadcast ring: one live object's
//! chunk stream, fanned out to any number of subscriber cursors.
//!
//! A relay receives each live object **once** from the origin and
//! re-serves it to every local client, so the per-object distribution
//! state must be a broadcast structure, not a per-client copy. The ring
//! records the object's byte stream as a bounded window of *chunk
//! descriptors* — `(seq, offset, len)` triples over the logical stream —
//! never the payload itself: the LSW1 payload is the position-independent
//! staged pattern (`lsw_replay::payload`), so any retained range can be
//! rematerialized from the shared arena at write time. Memory is
//! therefore O(descriptor window), independent of fan-out and of how far
//! the slowest subscriber lags.
//!
//! ## Invariants (pinned by the proptest at the bottom)
//!
//! * **Append-only producer.** `push` assigns the next sequence number
//!   and extends the live edge (`head`) by the chunk length; offsets are
//!   contiguous — chunk `n+1` begins where chunk `n` ended.
//! * **Whole-chunk eviction.** The retention window drops only whole
//!   chunks from the tail end (oldest first), so `base` — the oldest
//!   readable offset — is always a chunk boundary: a lagging cursor can
//!   be *lapped*, never handed a torn chunk.
//! * **Suffix delivery.** A cursor joined at offset `j` observes exactly
//!   the byte range `[j', head)` for some chunk-boundary `j' >= j`
//!   (`j' > j` only after a lap, which the subscriber is told about),
//!   each byte exactly once, in order. No duplication, no reordering,
//!   no gaps other than explicit laps.
//! * **Live-edge join.** `join` starts a cursor at `head`: mid-stream
//!   subscribers see the feed from *now*, the live-streaming semantics
//!   the paper's transfers exhibit (viewers join an ongoing broadcast).

use std::collections::VecDeque;

/// Hard cap on retained chunk descriptors, independent of the byte
/// capacity: a stream of tiny chunks must not grow the descriptor deque
/// past a fixed footprint (24 B each → ≤ 96 KiB per ring).
pub const MAX_CHUNKS: usize = 4096;

/// One appended chunk: `len` bytes at logical stream offset `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Producer-assigned sequence number, dense from 0.
    pub seq: u64,
    /// Logical stream offset of the chunk's first byte.
    pub offset: u64,
    /// Chunk length in bytes (never zero).
    pub len: u64,
}

/// One subscriber's read position in the logical stream.
///
/// Cursors are plain values owned by the subscriber; the ring never
/// tracks them, so dropping a subscriber needs no unregistration and a
/// stalled one costs the ring nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cursor {
    offset: u64,
}

impl Cursor {
    /// Logical stream offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

/// What a cursor sees when it polls the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// `len` bytes are readable at logical offset `offset`. The caller
    /// consumes any prefix of them with [`Broadcast::commit`].
    Ready {
        /// Logical stream offset of the readable range.
        offset: u64,
        /// Readable bytes (clamped to the caller's `max`).
        len: u64,
    },
    /// The cursor is at the live edge; the producer may append more.
    Pending,
    /// The cursor is at the live edge and the feed has ended.
    End,
    /// The cursor fell out of the retention window. It has been snapped
    /// forward to `resume` (a chunk boundary), skipping `skipped` bytes
    /// it will never observe. Policy — truncate the subscriber (Drop) or
    /// backfill the skipped range from the pattern arena (Backpressure)
    /// — is the caller's.
    Lapped {
        /// New cursor offset: the oldest retained chunk boundary.
        resume: u64,
        /// Bytes the cursor skipped over.
        skipped: u64,
    },
}

/// The single-producer multi-consumer broadcast ring for one live
/// object. See the module docs for the invariants.
#[derive(Debug)]
pub struct Broadcast {
    /// Retained chunk descriptors, oldest first; offsets contiguous.
    chunks: VecDeque<Chunk>,
    /// Retention capacity in bytes (newest chunk always retained).
    capacity: u64,
    /// Bytes currently described by `chunks`.
    retained: u64,
    /// Next sequence number `push` will assign.
    next_seq: u64,
    /// Logical stream offset of the live edge (total bytes appended).
    head: u64,
    /// Oldest readable offset (front chunk's offset; `head` when empty).
    base: u64,
    /// Producer closed the feed (upstream transfer completed).
    closed: bool,
}

impl Broadcast {
    /// An empty open ring retaining up to `capacity` bytes of chunk
    /// descriptors (at least one chunk is always retained regardless).
    pub fn new(capacity: u64) -> Self {
        Self {
            chunks: VecDeque::new(),
            capacity,
            retained: 0,
            next_seq: 0,
            head: 0,
            base: 0,
            closed: false,
        }
    }

    /// Appends a `len`-byte chunk at the live edge and returns its
    /// descriptor. Whole chunks are evicted from the tail first, while the
    /// window counting the new chunk is over either retention bound; the
    /// new chunk itself always stays. Zero-length pushes are ignored
    /// (`None`).
    pub fn push(&mut self, len: u64) -> Option<Chunk> {
        if len == 0 || self.closed {
            return None;
        }
        let chunk = Chunk {
            seq: self.next_seq,
            offset: self.head,
            len,
        };
        self.next_seq += 1;
        self.head += len;
        self.retained += len;
        while self.retained > self.capacity || self.chunks.len() >= MAX_CHUNKS {
            let Some(evicted) = self.chunks.pop_front() else {
                break;
            };
            self.retained -= evicted.len;
            self.base = evicted.offset + evicted.len;
        }
        self.chunks.push_back(chunk);
        Some(chunk)
    }

    /// Marks the feed ended: no more chunks will arrive, and cursors at
    /// the live edge poll [`Poll::End`] instead of [`Poll::Pending`].
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// A new cursor at the live edge: the mid-stream join point.
    pub fn join(&self) -> Cursor {
        Cursor { offset: self.head }
    }

    /// Logical stream offset of the live edge (total bytes appended).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Oldest offset still inside the retention window.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// How far `cur` lags the live edge, in bytes.
    pub fn lag(&self, cur: &Cursor) -> u64 {
        self.head - cur.offset
    }

    /// Polls the ring at `cur`, offering at most `max` bytes.
    pub fn poll(&self, cur: &mut Cursor, max: u64) -> Poll {
        if cur.offset < self.base {
            let resume = self.base;
            let skipped = resume - cur.offset;
            cur.offset = resume;
            return Poll::Lapped { resume, skipped };
        }
        let avail = self.head - cur.offset;
        if avail == 0 {
            return if self.closed {
                Poll::End
            } else {
                Poll::Pending
            };
        }
        Poll::Ready {
            offset: cur.offset,
            len: avail.min(max),
        }
    }

    /// Consumes `n` bytes at `cur` (any prefix of the last
    /// [`Poll::Ready`] range). Saturates at the live edge and never
    /// rewinds, so a stale `n` cannot corrupt the cursor.
    pub fn commit(&self, cur: &mut Cursor, n: u64) {
        debug_assert!(cur.offset + n <= self.head, "commit past the live edge");
        cur.offset = (cur.offset + n).min(self.head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Observed (offset, len) ranges from a drain, plus any laps.
    type Drained = (Vec<(u64, u64)>, Vec<(u64, u64)>);

    /// Reads everything currently available at `cur` in `step`-byte
    /// commits, returning observed (offset, len) ranges and any laps.
    fn drain(ring: &Broadcast, cur: &mut Cursor, step: u64) -> Drained {
        let mut ranges = Vec::new();
        let mut laps = Vec::new();
        loop {
            match ring.poll(cur, step) {
                Poll::Ready { offset, len } => {
                    ring.commit(cur, len);
                    ranges.push((offset, len));
                }
                Poll::Lapped { resume, skipped } => laps.push((resume, skipped)),
                Poll::Pending | Poll::End => break,
            }
        }
        (ranges, laps)
    }

    #[test]
    fn live_edge_join_sees_only_the_future() {
        let mut ring = Broadcast::new(1 << 20);
        ring.push(100);
        let mut cur = ring.join();
        assert_eq!(ring.poll(&mut cur, 64), Poll::Pending);
        ring.push(40);
        assert_eq!(
            ring.poll(&mut cur, 64),
            Poll::Ready {
                offset: 100,
                len: 40
            }
        );
        ring.commit(&mut cur, 40);
        ring.close();
        assert_eq!(ring.poll(&mut cur, 64), Poll::End);
    }

    #[test]
    fn eviction_is_whole_chunk_and_laps_snap_to_a_boundary() {
        let mut ring = Broadcast::new(100);
        let mut cur = ring.join();
        ring.push(60);
        ring.push(60); // retained 120 > 100: first chunk evicted
        assert_eq!(ring.base(), 60);
        match ring.poll(&mut cur, u64::MAX) {
            Poll::Lapped { resume, skipped } => {
                assert_eq!(resume, 60);
                assert_eq!(skipped, 60);
            }
            other => panic!("expected lap, got {other:?}"),
        }
        // After the lap the cursor reads the retained suffix normally.
        assert_eq!(
            ring.poll(&mut cur, u64::MAX),
            Poll::Ready {
                offset: 60,
                len: 60
            }
        );
    }

    #[test]
    fn newest_chunk_survives_even_when_oversized() {
        let mut ring = Broadcast::new(16);
        ring.push(1000);
        assert_eq!(ring.base(), 0);
        ring.push(8);
        assert_eq!(ring.base(), 1000); // oversized chunk evicted whole
        assert_eq!(ring.head(), 1008);
    }

    #[test]
    fn descriptor_count_is_bounded() {
        let mut ring = Broadcast::new(u64::MAX);
        for _ in 0..(MAX_CHUNKS * 3) {
            ring.push(1);
        }
        assert!(ring.chunks.len() <= MAX_CHUNKS);
    }

    #[test]
    fn zero_len_push_and_closed_push_are_ignored() {
        let mut ring = Broadcast::new(1 << 20);
        assert_eq!(ring.push(0), None);
        ring.push(10);
        ring.close();
        assert_eq!(ring.push(10), None);
        assert_eq!(ring.head(), 10);
    }

    #[test]
    fn push_assigns_dense_seqs_and_contiguous_offsets() {
        let mut ring = Broadcast::new(1 << 20);
        let chunks: Vec<Chunk> = [10, 20, 5].iter().filter_map(|&n| ring.push(n)).collect();
        let expect = [(0, 0, 10), (1, 10, 20), (2, 30, 5)];
        for (c, &(seq, offset, len)) in chunks.iter().zip(&expect) {
            assert_eq!(*c, Chunk { seq, offset, len });
        }
        assert_eq!(ring.head(), 35);
    }

    #[test]
    fn ready_range_is_clamped_and_partial_commits_resume() {
        let mut ring = Broadcast::new(1 << 20);
        let mut cur = ring.join();
        ring.push(100);
        assert_eq!(ring.poll(&mut cur, 30), Poll::Ready { offset: 0, len: 30 });
        ring.commit(&mut cur, 12);
        assert_eq!(cur.offset(), 12);
        assert_eq!(ring.lag(&cur), 88);
        assert_eq!(
            ring.poll(&mut cur, 500),
            Poll::Ready {
                offset: 12,
                len: 88
            }
        );
    }

    #[test]
    fn retained_bytes_always_span_base_to_head() {
        let mut ring = Broadcast::new(50);
        for len in [7, 30, 1, 44, 90, 3, 3, 12] {
            ring.push(len);
            assert_eq!(ring.retained, ring.head() - ring.base());
            assert_eq!(
                ring.chunks.front().map_or(ring.head(), |c| c.offset),
                ring.base()
            );
        }
    }

    #[test]
    fn descriptor_cap_evicts_the_oldest_chunk_first() {
        let mut ring = Broadcast::new(u64::MAX);
        for _ in 0..=MAX_CHUNKS {
            ring.push(1);
        }
        assert_eq!(ring.chunks.len(), MAX_CHUNKS);
        assert_eq!(ring.base(), 1);
        assert_eq!(ring.head(), MAX_CHUNKS as u64 + 1);
    }

    #[test]
    fn closed_ring_still_serves_the_retained_suffix() {
        let mut ring = Broadcast::new(1 << 20);
        let mut cur = ring.join();
        ring.push(25);
        ring.close();
        assert_eq!(ring.poll(&mut cur, 64), Poll::Ready { offset: 0, len: 25 });
        ring.commit(&mut cur, 25);
        assert_eq!(ring.poll(&mut cur, 64), Poll::End);
        assert_eq!(ring.poll(&mut ring.join(), 64), Poll::End);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite #3: mid-stream joins never observe torn, duplicated,
        /// or out-of-order chunks at any cursor lag, pinned against a
        /// Vec-replay oracle of every chunk ever pushed.
        #[test]
        fn subscribers_observe_a_contiguous_suffix(
            capacity in 1u64..5_000,
            pushes in proptest::collection::vec(1u64..700, 1..200),
            // (join after push #j, drain every k pushes, commit step)
            subs in proptest::collection::vec(
                (0usize..200, 1usize..8, 1u64..2_000), 1..6),
        ) {
            let mut ring = Broadcast::new(capacity);
            let mut oracle: Vec<Chunk> = Vec::new();
            struct Sub {
                cur: Cursor,
                join: u64,
                cadence: usize,
                step: u64,
                seen: Vec<(u64, u64)>,
                laps: Vec<(u64, u64)>,
            }
            let mut live: Vec<Sub> = Vec::new();
            let mut pending = subs.clone();

            for (i, &len) in pushes.iter().enumerate() {
                pending.retain(|&(j, cadence, step)| {
                    if j <= i {
                        live.push(Sub {
                            cur: ring.join(),
                            join: ring.head(),
                            cadence,
                            step,
                            seen: Vec::new(),
                            laps: Vec::new(),
                        });
                        false
                    } else {
                        true
                    }
                });
                let chunk = ring.push(len).expect("open ring accepts pushes");
                oracle.push(chunk);
                for s in &mut live {
                    if i % s.cadence == 0 {
                        let (r, l) = drain(&ring, &mut s.cur, s.step);
                        s.seen.extend(r);
                        s.laps.extend(l);
                    }
                }
            }
            ring.close();
            // Anyone who never joined joins at the closed live edge.
            for &(_, cadence, step) in &pending {
                live.push(Sub {
                    cur: ring.join(),
                    join: ring.head(),
                    cadence,
                    step,
                    seen: Vec::new(),
                    laps: Vec::new(),
                });
            }
            for s in &mut live {
                let (r, l) = drain(&ring, &mut s.cur, s.step);
                s.seen.extend(r);
                s.laps.extend(l);
                prop_assert_eq!(ring.poll(&mut s.cur, s.step), Poll::End);
            }

            // Oracle self-check: dense seqs, contiguous offsets.
            let mut expect_off = 0;
            for (i, c) in oracle.iter().enumerate() {
                prop_assert_eq!(c.seq, i as u64);
                prop_assert_eq!(c.offset, expect_off);
                expect_off += c.len;
            }
            let boundaries: std::collections::BTreeSet<u64> =
                oracle.iter().map(|c| c.offset).collect();

            for s in &live {
                // The observed ranges tile [join', head) contiguously:
                // in-order, no duplication, no holes except declared laps.
                let mut pos = s.join;
                let mut lap_iter = s.laps.iter();
                for &(off, len) in &s.seen {
                    if off != pos {
                        // A gap must be exactly one declared lap landing
                        // on an oracle chunk boundary (never torn).
                        let &(resume, skipped) =
                            lap_iter.next().expect("gap without a declared lap");
                        prop_assert_eq!(off, resume);
                        prop_assert_eq!(resume - skipped, pos);
                        prop_assert!(
                            boundaries.contains(&resume),
                            "lap resumed mid-chunk at {}", resume
                        );
                        pos = resume;
                    }
                    prop_assert_eq!(off, pos);
                    pos += len;
                }
                // Trailing laps (lap observed, nothing readable after).
                for &(resume, skipped) in lap_iter {
                    prop_assert_eq!(resume - skipped, pos);
                    prop_assert!(boundaries.contains(&resume));
                    pos = resume;
                }
                // Every subscriber ends exactly at the live edge.
                prop_assert_eq!(pos, ring.head());
                // And never observed a byte from before its join.
                prop_assert!(s.seen.iter().all(|&(off, _)| off >= s.join));
            }
        }
    }
}
