//! The deterministic virtual-time executor.
//!
//! `--virtual-time` replaces sockets, threads, and the wall clock with a
//! single-threaded event simulation over the schedule. The *semantics*
//! are the wall harness's: transfers arrive in start order, pass the same
//! admission model, are paced by an encoded rate that provably covers
//! their byte budget within their duration (so every admitted transfer
//! completes exactly on time with exactly its trace bytes). A transfer's
//! fate is therefore decided the moment it arrives, and it is logged to
//! the tap then, completed or rejected, in start order
//! ([`StreamAnalyzer::ingest_start_ordered`]): the tap buffers one
//! start-second cohort, not a look-ahead window of completions.
//!
//! The simulation runs on the log's own clock: whole trace seconds. An
//! admitted transfer holds its admission slot until its stop: it waits
//! on the second-bucket [`ReorderBuffer`] the streaming engine reorders
//! its input with, keyed by stop second. Before each arrival the
//! executor frees the slot of every transfer due at or before the
//! arrival's second. A zero-duration transfer is pushed
//! at the second just released (into the queue's spill once the cursor
//! has walked it) and leaves before the next arrival, even one in the
//! same second: the DES convention that a slot freed at `t` is available
//! to a transfer starting at `t`.
//!
//! Determinism contract: the executor touches no ambient time, no RNG,
//! and no I/O; the tap sees the schedule's own order; all arithmetic is
//! integer. Two runs over the same schedule
//! and [`StreamConfig`] produce byte-identical JSON reports, at any shard
//! count (the tap's own determinism guarantee).

use crate::metrics::Registry;
use crate::STATUS_REJECTED;
use lsw_sim::server::{AdmissionPolicy, MediaServer, ServerConfig, ServerStats};
use lsw_stream::reorder::ReorderBuffer;
use lsw_stream::{StreamAnalyzer, StreamConfig, StreamReport};
use lsw_trace::schedule::Schedule;

/// What a virtual replay produced.
#[derive(Debug)]
pub struct VirtualOutcome {
    /// The tap's characterization of the (virtually) served traffic.
    pub tap: StreamReport,
    /// Admission accounting.
    pub admission: ServerStats,
    /// Transfers served to completion.
    pub completed: u64,
    /// Transfers refused by admission.
    pub rejected: u64,
    /// Trace bytes served.
    pub bytes_served: u64,
}

/// Runs the whole replay deterministically in virtual time.
pub fn run_virtual(
    schedule: &Schedule,
    admission: AdmissionPolicy,
    stream: StreamConfig,
    registry: &Registry,
) -> VirtualOutcome {
    let completed_c = registry.counter("srv.completed");
    let rejected_c = registry.counter("srv.rejected");
    let bytes_c = registry.counter("srv.bytes_sent");
    let mut server = MediaServer::new(ServerConfig {
        admission,
        ..ServerConfig::default()
    });
    let mut tap = StreamAnalyzer::new(stream);
    // One item per admitted transfer still holding its slot.
    let mut due: ReorderBuffer<()> = ReorderBuffer::with_span(schedule.max_duration());
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut bytes_served = 0u64;

    for t in &schedule.transfers {
        // Releases before arrivals at the same second: a slot freed at
        // `t` is available to a transfer starting at `t` (the DES
        // convention).
        while due.pop_through(t.start).is_some() {
            server.release();
        }
        let mut e = t.to_entry();
        if server.request(t.display_duration()) {
            // The encoded rate covers the budget within the duration
            // (`Schedule::object_rates`), so the transfer completes at
            // its scheduled stop with exactly its trace bytes.
            bytes_served += t.bytes;
            completed += 1;
            due.push(t.stop(), ());
        } else {
            e.status = STATUS_REJECTED;
            rejected += 1;
        }
        tap.ingest_start_ordered(&e);
    }

    completed_c.add(completed);
    rejected_c.add(rejected);
    bytes_c.add(bytes_served);
    VirtualOutcome {
        tap: tap.finalize(),
        admission: server.stats().clone(),
        completed,
        rejected,
        bytes_served,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_trace::event::LogEntryBuilder;
    use lsw_trace::ids::{ClientId, ObjectId};
    use lsw_trace::LogEntry;

    fn schedule() -> Schedule {
        let entries: Vec<LogEntry> = (0..300u32)
            .map(|i| {
                LogEntryBuilder::new()
                    .span((i / 3) * 10, (i % 11) + 5)
                    .client(ClientId(i % 23))
                    .object(ObjectId((i % 4) as u16), 0)
                    .transfer_stats(u64::from(i) * 777 + 64, 64_000, 0.0)
                    .build()
            })
            .collect();
        Schedule::from_entries(&entries)
    }

    #[test]
    fn accept_all_serves_everything() {
        let s = schedule();
        let out = run_virtual(
            &s,
            AdmissionPolicy::AcceptAll,
            StreamConfig::default(),
            &Registry::new(),
        );
        assert_eq!(out.completed, 300);
        assert_eq!(out.rejected, 0);
        assert_eq!(out.bytes_served, s.total_bytes());
        assert_eq!(out.tap.accounting.kept, 300);
        assert_eq!(out.admission.accepted, 300);
    }

    /// The most transfers that share one start second.
    fn largest_start_cohort(s: &Schedule) -> u64 {
        let mut counts = std::collections::BTreeMap::new();
        for t in &s.transfers {
            *counts.entry(t.start).or_insert(0u64) += 1;
        }
        counts.into_values().max().unwrap_or(0)
    }

    #[test]
    fn the_reference_and_the_tap_buffer_one_start_cohort() {
        // Three transfers share each start and each lasts up to 15 s, so
        // a look-ahead window would hold several cohorts; a start-ordered
        // feed holds one, whatever the durations.
        let s = schedule();
        let cohort = largest_start_cohort(&s);
        assert_eq!(cohort, 3);
        let r = crate::diff::reference_report(&s, StreamConfig::default());
        assert_eq!(r.accounting.kept, 300);
        assert_eq!(r.accounting.late_entries, 0);
        assert!(
            r.memory.peak_heap_entries <= cohort,
            "reference peak {}",
            r.memory.peak_heap_entries
        );
        for admission in [
            AdmissionPolicy::AcceptAll,
            AdmissionPolicy::RejectAbove { max_concurrent: 4 },
        ] {
            let out = run_virtual(&s, admission, StreamConfig::default(), &Registry::new());
            assert_eq!(out.tap.accounting.late_entries, 0);
            assert!(
                out.tap.memory.peak_heap_entries <= cohort,
                "{admission:?}: tap peak {}",
                out.tap.memory.peak_heap_entries
            );
        }
    }

    #[test]
    fn virtual_runs_are_bit_reproducible() {
        let s = schedule();
        let a = run_virtual(
            &s,
            AdmissionPolicy::RejectAbove { max_concurrent: 4 },
            StreamConfig::default(),
            &Registry::new(),
        );
        let b = run_virtual(
            &s,
            AdmissionPolicy::RejectAbove { max_concurrent: 4 },
            StreamConfig::default(),
            &Registry::new(),
        );
        assert_eq!(a.tap.to_json(), b.tap.to_json());
        assert_eq!(a.admission, b.admission);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn rejections_are_charged_and_logged_failed() {
        let s = schedule();
        let out = run_virtual(
            &s,
            AdmissionPolicy::RejectAbove { max_concurrent: 1 },
            StreamConfig::default(),
            &Registry::new(),
        );
        assert!(out.rejected > 0);
        assert_eq!(out.completed + out.rejected, 300);
        assert_eq!(out.admission.rejected, out.rejected);
        assert!(out.admission.denied_viewer_seconds > 0.0);
        // Rejected transfers reach the tap as failed-status records: they
        // show up in accounting, never in the kept characterization.
        assert_eq!(out.tap.accounting.kept, out.completed);
        let failed: u64 = out.tap.accounting.rejects.iter().map(|&(_, n)| n).sum();
        assert_eq!(failed, out.rejected);
    }

    #[test]
    fn zero_duration_transfers_release_before_same_second_arrivals() {
        // Two zero-duration transfers at the same second under a
        // one-slot cap: the first must free its slot for the second,
        // the DES convention a strictly-future timer cannot express.
        let entries: Vec<LogEntry> = (0..2)
            .map(|i| {
                LogEntryBuilder::new()
                    .span(10, 0)
                    .client(ClientId(i))
                    .object(ObjectId(0), 0)
                    .transfer_stats(64, 64_000, 0.0)
                    .build()
            })
            .collect();
        let s = Schedule::from_entries(&entries);
        let out = run_virtual(
            &s,
            AdmissionPolicy::RejectAbove { max_concurrent: 1 },
            StreamConfig::default(),
            &Registry::new(),
        );
        assert_eq!(out.completed, 2);
        assert_eq!(out.rejected, 0);
    }
}
