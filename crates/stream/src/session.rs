//! Online sessionization with the paper's timeout rule.
//!
//! The batch sessionizer sorts all transfers per client and splits at idle
//! gaps above the timeout (1500 s, §4). Streaming gets the same result in
//! one pass because the ingest coordinator feeds entries in `(start,
//! timestamp, line)` order: for each client that is a prefix-preserving
//! subsequence of the batch engine's canonical order, so applying the
//! identical gap rule yields the identical session set.
//!
//! Memory is bounded by the number of clients *active within one timeout
//! window*: once the released-stream watermark passes `session end +
//! timeout`, no future entry can extend that session (future starts are >=
//! the watermark, so their gap already exceeds the timeout) and it is
//! closed eagerly by [`StreamSessionizer::prune_before`].
//!
//! The active map is an open-addressing table keyed by the deterministic
//! SplitMix64 client hash: [`StreamSessionizer::observe_hashed`] runs once
//! per released entry, so membership must be O(1). Close *order* (slot
//! order for prunes, which depends on insertion history) is deterministic
//! for a given released stream but not canonical — every consumer of closed
//! sessions is an order-insensitive accumulator (integer sums, count
//! maps, per-client state), which the chunked-vs-whole ingest test pins:
//! chunk boundaries already shuffle prune timing, so no downstream result
//! may depend on the order sessions close.

/// A completed session, emitted exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedSession {
    /// Owning client id.
    pub client: u32,
    /// First transfer start (seconds).
    pub start: u32,
    /// Latest transfer stop (seconds).
    pub end: u32,
    /// Transfers in the session.
    pub transfers: u32,
}

impl ClosedSession {
    /// ON time in seconds (`end - start`), as the batch layer defines it.
    pub(crate) fn on_time(&self) -> u32 {
        self.end - self.start
    }
}

#[derive(Debug, Clone, Copy)]
struct Active {
    client: u32,
    hash: u64,
    start: u32,
    end: u32,
    last_start: u32,
    transfers: u32,
}

/// One-pass sessionizer over the re-ordered entry stream.
#[derive(Debug)]
pub struct StreamSessionizer {
    timeout: f64,
    /// Linear-probe slots; capacity is a power of two kept at load <= 1/2.
    slots: Vec<Option<Active>>,
    len: usize,
    peak_active: usize,
}

impl StreamSessionizer {
    /// Creates a sessionizer with the given idle timeout (seconds).
    pub(crate) fn new(timeout: f64) -> Self {
        Self {
            timeout,
            slots: vec![None; 64],
            len: 0,
            peak_active: 0,
        }
    }

    /// Observes one transfer `[start, stop]` by `client`, whose 64-bit
    /// hash is `hash` (the coordinator shares one hash per entry across
    /// every client-keyed structure), in released (start-ordered)
    /// sequence. Any session this closes is pushed onto `closed`; the
    /// return value is the intra-session interarrival gap (start minus
    /// previous transfer start) when the transfer continues an existing
    /// session.
    pub(crate) fn observe_hashed(
        &mut self,
        hash: u64,
        client: u32,
        start: u32,
        stop: u32,
        closed: &mut Vec<ClosedSession>,
    ) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while let Some(a) = &mut self.slots[i] {
            if a.hash == hash {
                let gap = f64::from(start) - f64::from(a.end);
                if gap > self.timeout {
                    closed.push(ClosedSession {
                        client,
                        start: a.start,
                        end: a.end,
                        transfers: a.transfers,
                    });
                    a.start = start;
                    a.end = stop;
                    a.last_start = start;
                    a.transfers = 1;
                    return None;
                }
                // Released order guarantees start >= last_start.
                let iat = start.saturating_sub(a.last_start);
                a.last_start = start;
                a.end = a.end.max(stop);
                a.transfers += 1;
                return Some(iat);
            }
            i = (i + 1) & mask;
        }
        self.insert(Active {
            client,
            hash,
            start,
            end: stop,
            last_start: start,
            transfers: 1,
        });
        self.peak_active = self.peak_active.max(self.len);
        None
    }

    /// Inserts a new active session, growing the table at load 1/2.
    fn insert(&mut self, a: Active) {
        if (self.len + 1) * 2 > self.slots.len() {
            let new_cap = self.slots.len() * 2;
            let old = std::mem::replace(&mut self.slots, vec![None; new_cap]);
            for e in old.into_iter().flatten() {
                self.place(e);
            }
        }
        self.place(a);
        self.len += 1;
    }

    fn place(&mut self, a: Active) {
        let mask = self.slots.len() - 1;
        let mut i = (a.hash as usize) & mask;
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some(a);
    }

    /// Eagerly closes sessions no future entry can extend: every upcoming
    /// released entry has `start >= watermark`, so a session whose idle
    /// gap to the watermark already exceeds the timeout is final.
    ///
    /// Runs as a full table rebuild (it is called once every few thousand
    /// entries, not per entry): survivors re-place into a fresh table, so
    /// probe chains never need tombstones.
    pub(crate) fn prune_before(&mut self, watermark: u32, closed: &mut Vec<ClosedSession>) {
        let old = std::mem::take(&mut self.slots);
        let mut survivors = Vec::with_capacity(self.len);
        for a in old.into_iter().flatten() {
            if f64::from(watermark) - f64::from(a.end) > self.timeout {
                closed.push(ClosedSession {
                    client: a.client,
                    start: a.start,
                    end: a.end,
                    transfers: a.transfers,
                });
            } else {
                survivors.push(a);
            }
        }
        self.len = survivors.len();
        // Shrink toward the live set (floor 64, load <= 1/2) so a long
        // stream's memory tracks the active window, not its high-water.
        let mut cap = 64usize;
        while cap < (self.len + 1) * 2 {
            cap *= 2;
        }
        self.slots = vec![None; cap];
        for a in survivors {
            self.place(a);
        }
    }

    /// Closes every remaining session (end of stream).
    pub(crate) fn finish(&mut self, closed: &mut Vec<ClosedSession>) {
        for a in self.slots.iter().flatten() {
            closed.push(ClosedSession {
                client: a.client,
                start: a.start,
                end: a.end,
                transfers: a.transfers,
            });
        }
        self.slots.iter_mut().for_each(|s| *s = None);
        self.len = 0;
    }

    /// High-water mark of simultaneously open sessions.
    pub(crate) fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Approximate resident bytes of the active-session table.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.slots.len() * std::mem::size_of::<Option<Active>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe(
        s: &mut StreamSessionizer,
        client: u32,
        start: u32,
        stop: u32,
        closed: &mut Vec<ClosedSession>,
    ) -> Option<u32> {
        let hash = crate::sketch::hash64(u64::from(client));
        s.observe_hashed(hash, client, start, stop, closed)
    }

    fn run(entries: &[(u32, u32, u32)], timeout: f64) -> Vec<ClosedSession> {
        let mut s = StreamSessionizer::new(timeout);
        let mut closed = Vec::new();
        for &(client, start, stop) in entries {
            observe(&mut s, client, start, stop, &mut closed);
        }
        s.finish(&mut closed);
        closed.sort_by_key(|c| (c.start, c.end, c.client));
        closed
    }

    #[test]
    fn splits_on_timeout_gap() {
        // Gap of exactly `timeout` does NOT split (rule is strictly >).
        let sessions = run(&[(1, 0, 10), (1, 1510, 1520), (1, 4000, 4010)], 1500.0);
        assert_eq!(sessions.len(), 2);
        assert_eq!(
            sessions[0],
            ClosedSession {
                client: 1,
                start: 0,
                end: 1520,
                transfers: 2,
            }
        );
        assert_eq!(sessions[1].start, 4000);
    }

    #[test]
    fn overlapping_transfers_extend() {
        let sessions = run(&[(1, 0, 100), (1, 10, 20), (1, 50, 300)], 1500.0);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].end, 300);
        assert_eq!(sessions[0].transfers, 3);
    }

    #[test]
    fn prune_shrinks_the_table() {
        let mut s = StreamSessionizer::new(10.0);
        let mut closed = Vec::new();
        for c in 0..10_000u32 {
            observe(&mut s, c, 100, 110, &mut closed);
        }
        assert_eq!(s.peak_active(), 10_000);
        let bytes_full = s.bytes();
        s.prune_before(100_000, &mut closed);
        assert_eq!(closed.len(), 10_000);
        assert!(s.bytes() < bytes_full / 16, "table must shrink after prune");
        s.finish(&mut closed);
        assert_eq!(closed.len(), 10_000, "prune left no session open");
    }

    #[test]
    fn matches_batch_sessionizer() {
        use lsw_trace::event::LogEntryBuilder;
        use lsw_trace::ids::ClientId;
        use lsw_trace::session::{SessionConfig, Sessions};
        use lsw_trace::trace::Trace;

        // Deterministic pseudo-random entries across a few clients.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut entries = Vec::new();
        for _ in 0..2_000 {
            let client = (next() % 37) as u32;
            let start = (next() % 200_000) as u32;
            let dur = (next() % 900) as u32;
            entries.push(
                LogEntryBuilder::new()
                    .span(start, dur)
                    .client(ClientId(client))
                    .build(),
            );
        }
        let trace = Trace::from_entries(entries, 300_000);
        let batch = Sessions::identify(&trace, SessionConfig { timeout: 1500.0 });

        // Stream in the trace's canonical (start-sorted) order, with
        // periodic pruning to exercise eager closes.
        let mut s = StreamSessionizer::new(1500.0);
        let mut closed = Vec::new();
        for (i, e) in trace.entries().iter().enumerate() {
            observe(&mut s, e.client.0, e.start, e.stop(), &mut closed);
            if i % 97 == 0 {
                s.prune_before(e.start, &mut closed);
            }
        }
        s.finish(&mut closed);
        closed.sort_by_key(|c| (c.start, c.end, c.client));

        let batch_keys: Vec<(u32, u32, u32, u32)> = batch
            .all()
            .iter()
            .map(|b| (b.start, b.end, b.client.0, b.transfers))
            .collect();
        let stream_keys: Vec<(u32, u32, u32, u32)> = closed
            .iter()
            .map(|c| (c.start, c.end, c.client, c.transfers))
            .collect();
        assert_eq!(stream_keys, batch_keys);
    }

    #[test]
    fn observe_returns_the_intra_session_gap() {
        let mut s = StreamSessionizer::new(100.0);
        let mut closed = Vec::new();
        assert_eq!(observe(&mut s, 1, 0, 10, &mut closed), None, "opens");
        assert_eq!(observe(&mut s, 1, 40, 50, &mut closed), Some(40));
        // The gap runs from the previous *start*, and an overlapping
        // transfer still continues the session.
        assert_eq!(observe(&mut s, 1, 45, 200, &mut closed), Some(5));
        // 301 - 200 > 100: a new session, and the old one closes.
        assert_eq!(observe(&mut s, 1, 301, 310, &mut closed), None);
        assert_eq!(
            closed,
            [ClosedSession {
                client: 1,
                start: 0,
                end: 200,
                transfers: 3,
            }]
        );
    }
}
