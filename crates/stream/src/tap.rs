//! Multi-tap merge: per-tier characterization over one logged stream,
//! and the release rule of a live tap.
//!
//! A hierarchical replay logs completions at several tiers — the origin
//! sees relay subscriptions, each relay sees its own clients — and the
//! closed loop needs both views: per-tier reports for the operator, and
//! one *edge-aggregated* report to diff against the trace's own
//! characterization.
//!
//! Per-tier reports cannot be merged after the fact: the coordinator
//! layer under [`StreamAnalyzer`] (sessionization, online concurrency,
//! the CPU audit) folds over the released entry stream in order, and
//! order across tiers is exactly what per-tier analyzers discard. So the
//! merge happens at ingest: a [`MultiTap`] holds one analyzer per tier
//! *plus* one merged analyzer, and every entry is ingested into its
//! tier's analyzer and the merged one. The merged analyzer observes the
//! identical entry stream a single-tier tap would have, so its report
//! inherits every determinism and accuracy guarantee the single tap has
//! — the differential test in `crates/edge` pins byte-equality against
//! a direct single-tier ingest.
//!
//! **Live release.** A virtual executor decides each transfer's fate
//! (completed, rejected or truncated) when it arrives, and logs it then,
//! in start order, so [`MultiTap::ingest_start_ordered`] releases below
//! each arrival's start and every tap holds one start cohort. A serving
//! node over real sockets learns a transfer's fate only when it ends,
//! and its completion moves with its connect time, so even the
//! engine's stop-order watermark (`max stop − max duration`) would
//! clamp a transfer that lasts the maximum duration and reaches the tap
//! a few trace seconds late. A server does know which admitted
//! transfers it still has open, though, and none of them can log a
//! start below its own. [`InFlight`] holds that set, and
//! a live node reports to the tap through [`MultiTap::admit`] and
//! [`MultiTap::log`], which never release at or above
//! [`InFlight::bound`]: exact in any completion order. They stop at the
//! stop-order watermark too when it is lower, which keeps that rule's
//! slack for the one case the bound cannot see: a request overtaken on
//! its way in by a later-starting one that was admitted and closed while
//! nothing was open.

use crate::ingest::{StreamAnalyzer, StreamConfig};
use crate::report::StreamReport;
use lsw_trace::LogEntry;
use std::collections::BTreeMap;

/// The starts of the transfers a live node has admitted and not yet
/// logged: the release bound of a live tap.
#[derive(Debug, Default)]
pub struct InFlight {
    /// Start second → transfers admitted at it and still open.
    open: BTreeMap<u32, u32>,
    /// Largest start admitted so far.
    max_admitted: u32,
}

impl InFlight {
    /// Records an admitted transfer that started at `start`.
    pub fn admit(&mut self, start: u32) {
        *self.open.entry(start).or_insert(0) += 1;
        self.max_admitted = self.max_admitted.max(start);
    }

    /// Records the close of an admitted transfer that started at `start`.
    pub fn close(&mut self, start: u32) {
        if let Some(n) = self.open.get_mut(&start) {
            *n -= 1;
            if *n == 0 {
                self.open.remove(&start);
            }
        }
    }

    /// The smallest start still in flight, or, with nothing in flight,
    /// the largest start admitted so far. An open transfer logs its own
    /// start, and the driver connects in start order, so no entry still
    /// to come starts below it unless its request was overtaken on the
    /// way in.
    pub fn bound(&self) -> u32 {
        self.open
            .keys()
            .next()
            .copied()
            .unwrap_or(self.max_admitted)
    }
}

/// Per-tier characterization taps plus the merged edge-aggregate tap.
#[derive(Debug)]
pub struct MultiTap {
    tiers: Vec<StreamAnalyzer>,
    merged: StreamAnalyzer,
    /// What the live nodes logging here still have open.
    in_flight: InFlight,
}

impl MultiTap {
    /// One analyzer per tier plus the merged aggregate, all under the
    /// same configuration. A node with one view of its traffic takes
    /// zero tiers: the merged tap alone.
    pub fn new(cfg: StreamConfig, tiers: usize) -> Self {
        Self {
            tiers: (0..tiers)
                .map(|_| StreamAnalyzer::new(cfg.clone()))
                .collect(),
            merged: StreamAnalyzer::new(cfg),
            in_flight: InFlight::default(),
        }
    }

    /// Ingests one transfer logged in start order (a virtual executor,
    /// at arrival) into tier `tier`'s tap and the merged aggregate (see
    /// [`StreamAnalyzer::ingest_start_ordered`]). Out-of-range tiers feed
    /// only the aggregate, so a misrouted entry can skew a per-tier view
    /// but never the closed-loop diff.
    pub fn ingest_start_ordered(&mut self, tier: usize, e: &LogEntry) {
        if let Some(t) = self.tiers.get_mut(tier) {
            t.ingest_start_ordered(e);
        }
        self.merged.ingest_start_ordered(e);
    }

    /// A live node admitted a transfer that started at `start`: nothing
    /// at or above it is released until that transfer is logged.
    pub fn admit(&mut self, start: u32) {
        self.in_flight.admit(start);
    }

    /// Logs one transfer a live node finished, into tier `tier`'s tap and
    /// the merged aggregate (out-of-range tiers as in
    /// [`ingest_start_ordered`](Self::ingest_start_ordered)), releasing no
    /// further than the in-flight bound ([`StreamAnalyzer::ingest_below`]).
    /// `admitted` says whether the transfer went through
    /// [`admit`](Self::admit); a refused one was never in flight.
    pub fn log(&mut self, tier: usize, e: &LogEntry, admitted: bool) {
        if admitted {
            self.in_flight.close(e.start);
        }
        let bound = self.in_flight.bound();
        if let Some(t) = self.tiers.get_mut(tier) {
            t.ingest_below(e, bound);
        }
        self.merged.ingest_below(e, bound);
    }

    /// Finalizes every tap: per-tier reports in tier order, then the
    /// merged edge-aggregate report.
    pub fn finalize(self) -> (Vec<StreamReport>, StreamReport) {
        (
            self.tiers
                .into_iter()
                .map(StreamAnalyzer::finalize)
                .collect(),
            self.merged.finalize(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_trace::event::LogEntryBuilder;
    use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};

    fn entries() -> Vec<LogEntry> {
        (0..400u32)
            .map(|i| {
                LogEntryBuilder::new()
                    .span((i / 4) * 7, (i % 13) + 1)
                    .client(ClientId(i % 37))
                    .origin(
                        Ipv4Addr(0x0a00_0000 + (i % 19)),
                        AsId((i % 5) as u16),
                        CountryCode(*b"BR"),
                    )
                    .object(ObjectId((i % 3) as u16), 0)
                    .transfer_stats(u64::from(i) * 311 + 64, 64_000, 0.0)
                    .build()
            })
            .collect()
    }

    /// The merged aggregate is byte-identical to a direct single-tier
    /// ingest of the same entry stream, however entries are spread
    /// across tiers.
    #[test]
    fn merged_tap_equals_direct_single_tier_ingest() {
        let es = entries();
        let mut direct = StreamAnalyzer::new(StreamConfig::default());
        let mut multi = MultiTap::new(StreamConfig::default(), 3);
        for (i, e) in es.iter().enumerate() {
            direct.ingest_start_ordered(e);
            multi.ingest_start_ordered(i % 3, e);
        }
        let (tiers, merged) = multi.finalize();
        assert_eq!(tiers.len(), 3);
        assert_eq!(merged.to_json(), direct.finalize().to_json());
    }

    /// Tier reports partition the kept transfers; the aggregate sees all.
    #[test]
    fn tier_reports_partition_the_stream() {
        let es = entries();
        let mut multi = MultiTap::new(StreamConfig::default(), 2);
        for (i, e) in es.iter().enumerate() {
            multi.ingest_start_ordered(i % 2, e);
        }
        let (tiers, merged) = multi.finalize();
        let kept: u64 = tiers.iter().map(|t| t.accounting.kept).sum();
        assert_eq!(kept, merged.accounting.kept);
        assert_eq!(merged.accounting.kept, es.len() as u64);
    }

    #[test]
    fn in_flight_bound_is_the_oldest_open_start_else_the_newest_admitted() {
        let mut f = InFlight::default();
        assert_eq!(f.bound(), 0, "nothing admitted: release nothing");
        f.admit(10);
        f.admit(10);
        f.admit(25);
        assert_eq!(f.bound(), 10);
        f.close(10);
        assert_eq!(f.bound(), 10, "one transfer at 10 is still open");
        f.close(10);
        assert_eq!(f.bound(), 25);
        f.close(25);
        assert_eq!(f.bound(), 25, "nothing open: the newest admitted start");
        f.close(25);
        assert_eq!(f.bound(), 25, "a stray close changes nothing");
    }

    /// Transfers that all last the longest duration, admitted in start
    /// order and logged in a jittered stop order, as completions reach a
    /// server over real sockets; every seventh is refused at admission.
    /// Each has zero slack against the stop-order watermark, so a late
    /// completion would be clamped under it; the in-flight bound releases
    /// them exactly as the start-ordered stream.
    #[test]
    fn live_release_is_exact_in_jittered_completion_order() {
        const MAX_DURATION: u32 = 300;
        let es: Vec<LogEntry> = (0..3000u32)
            .map(|i| {
                LogEntryBuilder::new()
                    .span(i / 3, MAX_DURATION)
                    .client(ClientId(i % 211))
                    .origin(
                        Ipv4Addr(0x0a00_0000 + (i % 97)),
                        AsId((i % 5) as u16),
                        CountryCode(*b"BR"),
                    )
                    .object(ObjectId((i % 3) as u16), 0)
                    .transfer_stats(u64::from(i) * 311 + 64, 64_000, 0.0)
                    .build()
            })
            .collect();
        // (second, admits before logs, index): a refused request is
        // logged the moment it arrives; an admitted one up to 15 s after
        // its stop.
        let mut events: Vec<(u32, bool, usize)> = Vec::new();
        for (i, e) in es.iter().enumerate() {
            if i % 7 == 0 {
                events.push((e.start, false, i));
            } else {
                let jitter = (i as u32).wrapping_mul(2_654_435_761) >> 28;
                events.push((e.start, false, i));
                events.push((e.stop() + jitter, true, i));
            }
        }
        events.sort_unstable();
        let mut live = MultiTap::new(StreamConfig::default(), 0);
        for (_, logs, i) in events {
            let refused = i % 7 == 0;
            if refused {
                live.log(0, &es[i], false);
            } else if logs {
                live.log(0, &es[i], true);
            } else {
                live.admit(es[i].start);
            }
        }
        let mut reference = StreamAnalyzer::new(StreamConfig::default());
        for e in &es {
            reference.ingest_start_ordered(e);
        }
        let neutral = |mut r: StreamReport| {
            r.memory.peak_heap_entries = 0;
            r.to_json()
        };
        let (_, served) = live.finalize();
        assert_eq!(served.accounting.late_entries, 0);
        assert_eq!(neutral(served), neutral(reference.finalize()));
    }

    #[test]
    fn a_refused_transfer_never_holds_the_release() {
        let mut multi = MultiTap::new(StreamConfig::default(), 0);
        multi.admit(10);
        let refused = LogEntryBuilder::new().span(10, 5).build();
        multi.log(0, &refused, false);
        assert_eq!(multi.in_flight.bound(), 10, "the admitted 10 is still open");
        multi.log(0, &LogEntryBuilder::new().span(10, 30).build(), true);
        assert!(multi.in_flight.open.is_empty());
    }

    /// A request at 30 reaches the node only after 40 was admitted and
    /// everything before it closed, so the in-flight bound alone would
    /// release 35 and clamp 30. The stop-order watermark (the longest
    /// duration seen, 30, behind the latest stop, 50) holds 35 back.
    #[test]
    fn a_request_overtaken_on_its_way_in_is_not_clamped() {
        let e = |start, duration| LogEntryBuilder::new().span(start, duration).build();
        let (m, n, late, last) = (e(20, 30), e(35, 1), e(30, 5), e(40, 1));
        let mut multi = MultiTap::new(StreamConfig::default(), 0);
        for x in [m, n, last] {
            multi.admit(x.start);
        }
        for x in [n, last, m] {
            multi.log(0, &x, true);
        }
        multi.admit(late.start);
        multi.log(0, &late, true);
        assert_eq!(multi.finalize().1.accounting.late_entries, 0);
    }

    /// The live entry points keep the tier partition: tier reports split
    /// the kept transfers, and the aggregate equals a direct ingest.
    #[test]
    fn live_tiers_partition_the_stream() {
        let es = entries();
        let mut multi = MultiTap::new(StreamConfig::default(), 2);
        let mut direct = StreamAnalyzer::new(StreamConfig::default());
        for e in &es {
            direct.ingest_start_ordered(e);
        }
        for e in &es {
            multi.admit(e.start);
        }
        for (i, e) in es.iter().enumerate().rev() {
            multi.log(i % 2, e, true);
        }
        let (tiers, merged) = multi.finalize();
        let kept: u64 = tiers.iter().map(|t| t.accounting.kept).sum();
        assert_eq!(kept, merged.accounting.kept);
        assert_eq!(merged.accounting.late_entries, 0);
        // Logged in reverse, the live tap holds the whole stream until the
        // last close; the start-ordered one holds a start cohort.
        assert_eq!(merged.memory.peak_heap_entries, es.len() as u64);
        let mut direct = direct.finalize();
        assert_eq!(direct.memory.peak_heap_entries, 4);
        direct.memory.peak_heap_entries = merged.memory.peak_heap_entries;
        assert_eq!(merged.to_json(), direct.to_json());
    }

    /// An out-of-range tier index still reaches the aggregate.
    #[test]
    fn misrouted_entries_never_skew_the_aggregate() {
        let es = entries();
        let mut multi = MultiTap::new(StreamConfig::default(), 1);
        for e in &es {
            multi.ingest_start_ordered(9, e);
        }
        let (tiers, merged) = multi.finalize();
        assert_eq!(tiers[0].accounting.kept, 0);
        assert_eq!(merged.accounting.kept, es.len() as u64);
    }
}
