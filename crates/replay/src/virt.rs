//! The deterministic virtual-time executor.
//!
//! `--virtual-time` replaces sockets, threads, and the wall clock with a
//! single-threaded event simulation over the schedule. The *semantics*
//! are the wall harness's: transfers arrive in start order, pass the same
//! admission model, are paced by an encoded rate that provably covers
//! their byte budget within their duration (so every admitted transfer
//! completes exactly on time with exactly its trace bytes), and are
//! logged to the tap at completion time — rejections immediately, like
//! the socket server.
//!
//! The simulation runs on the log's own clock: whole trace seconds.
//! Completions wait on the second-bucket [`ReorderBuffer`] the streaming
//! engine reorders its input with, keyed by stop second, each item a
//! `u32` index into `schedule.transfers` (the log entry is built when
//! the completion is released). Before each arrival the executor
//! releases every completion due at or before the arrival's second, in
//! `(stop, admission index)` order. A zero-duration transfer is pushed
//! at the second just released (into the queue's spill once the cursor
//! has walked it) and leaves before the next arrival, even one in the
//! same second: the DES convention that a slot freed at `t` is available
//! to a transfer starting at `t`.
//!
//! Determinism contract: the executor touches no ambient time, no RNG,
//! and no I/O; completion order is the total order `(stop, admission
//! index)`; all arithmetic is integer. Two runs over the same schedule
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
    // Completions reach the tap in stop order; knowing the longest
    // duration upfront makes the reorder-window release exact.
    let longest = schedule.max_duration();
    tap.preset_lookahead(longest);
    // Completions carry `u32` indices into `schedule.transfers`. Transfers
    // past index `u32::MAX` are never served, so `completed + rejected`
    // falls short of the schedule and the closed-loop diff's transfer row
    // fails.
    let mut due: ReorderBuffer<u32> = ReorderBuffer::with_span(longest);
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut bytes_served = 0u64;
    let mut complete = |index: u32, server: &mut MediaServer, tap: &mut StreamAnalyzer| {
        server.release();
        tap.ingest_entry(&schedule.transfers[index as usize].to_entry());
        completed += 1;
    };

    for (index, t) in (0u32..).zip(&schedule.transfers) {
        // Releases before arrivals at the same second: a slot freed at
        // `t` is available to a transfer starting at `t` (the DES
        // convention).
        while let Some(i) = due.pop_through(t.start) {
            complete(i, &mut server, &mut tap);
        }
        if server.request(t.display_duration()) {
            // The encoded rate covers the budget within the duration
            // (`Schedule::object_rates`), so the transfer completes at
            // its scheduled stop with exactly its trace bytes.
            bytes_served += t.bytes;
            due.push(t.stop(), index);
        } else {
            let mut e = t.to_entry();
            e.status = STATUS_REJECTED;
            tap.ingest_entry(&e);
            rejected += 1;
        }
    }
    while let Some(i) = due.pop() {
        complete(i, &mut server, &mut tap);
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
