//! The streamed characterization report.
//!
//! [`StreamReport`] mirrors the batch `CharacterizationReport` layer by
//! layer — client interest, session dynamics, transfer marginals,
//! concurrency — but every figure comes out of a bounded-memory sketch
//! rather than an in-RAM trace. Fields that are *estimates* (HLL counts,
//! sampled OFF times) are documented as such; fields that are *exact under
//! streaming* (session count, ON-time fit, transfers-per-session fit)
//! match the batch pipeline to floating-point round-off.

use crate::quantile::QuantileSummary;
use lsw_stats::fit::{LogNormalFit, TwoRegimeTail, ZipfFit};
use lsw_stats::paper;
use lsw_trace::sanitize::RejectReason;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Ingest accounting: what the engine read, kept and discarded.
///
/// Carries the same per-reason reject breakdown as the batch sanitizer's
/// `SanitizeReport`, so batch and stream ingest can be reconciled line for
/// line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamAccounting {
    /// Log lines read (including blanks, comments and malformed lines).
    pub lines_total: u64,
    /// Lines that failed to parse (counted, never fatal).
    pub malformed_lines: u64,
    /// First parse error observed, with its line number.
    pub first_malformed: Option<String>,
    /// Entries that arrived below the released watermark and were clamped
    /// into the ordered stream (look-ahead misses).
    pub late_entries: u64,
    /// Binary (`ltc`) blocks rejected by CRC or decode checks — the
    /// container analogue of `malformed_lines`: counted, never fatal.
    pub corrupt_blocks: u64,
    /// Records lost inside rejected blocks, per the container index.
    pub corrupt_records: u64,
    /// First block corruption observed, for diagnostics.
    pub first_corrupt: Option<String>,
    /// Entries parsed successfully (the batch sanitizer's `examined`).
    pub examined: u64,
    /// Entries kept after the §2.4 sanitization rules.
    pub kept: u64,
    /// Per-reason §2.4 reject counts, descending.
    pub rejects: Vec<(RejectReason, u64)>,
    /// Fraction of 1-second bins with mean CPU below the 10% threshold.
    pub underload_time_fraction: f64,
    /// Fraction of transfers logged while CPU was below the threshold.
    pub underload_transfer_fraction: f64,
}

impl StreamAccounting {
    /// Total entries rejected by the sanitization rules.
    pub fn rejected(&self) -> u64 {
        self.rejects.iter().map(|&(_, n)| n).sum()
    }
}

/// Table 1 style workload totals (client layer).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamSummary {
    /// Collection horizon in seconds (explicit or inferred `max stop + 1`).
    pub horizon: u32,
    /// Horizon in days.
    pub days: f64,
    /// Distinct users (player ids) — HyperLogLog estimate, ≤ 2% error at
    /// the default 2^14 registers.
    pub users: f64,
    /// Distinct client IP addresses — HyperLogLog estimate.
    pub client_ips: f64,
    /// Distinct client autonomous systems (exact while the AS space fits
    /// the SpaceSaving capacity; the paper's workload has 1 010).
    pub client_ases: u64,
    /// Distinct client countries (exact: the paper has 11).
    pub countries: u64,
    /// Distinct live objects (exact: the paper has 2).
    pub objects: u64,
    /// Transfers kept (exact count).
    pub transfers: u64,
    /// Bytes served, in TB (exact sum).
    pub terabytes: f64,
}

/// The online concurrency profile (Fig 14/15 analogue).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcurrencySummary {
    /// Peak simultaneous transfers.
    pub peak: u32,
    /// Time-averaged concurrency over the horizon.
    pub mean: f64,
    /// Seconds spent at each concurrency level, ascending by level.
    pub marginal: Vec<(u32, u64)>,
    /// Mean concurrency folded into 96 fifteen-minute bins of the day.
    pub daily_fold: Vec<f64>,
}

/// Resident-memory audit of the streaming engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryFootprint {
    /// Bytes held by all sketches (shards + coordinator) at finalize.
    pub sketch_bytes: u64,
    /// High-water mark of entries held in the reorder buffer.
    pub peak_heap_entries: u64,
    /// High-water mark of simultaneously open sessions.
    pub peak_active_sessions: u64,
}

/// Everything the one-pass engine can say about a trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamReport {
    /// Session idle timeout used (seconds).
    pub session_timeout: f64,
    /// Parse shard count (affects wall-clock only, never the numbers).
    pub shards: usize,
    /// Workload totals.
    pub summary: StreamSummary,
    /// Ingest accounting.
    pub accounting: StreamAccounting,
    /// Sessions identified by the online timeout rule (exact).
    pub n_sessions: u64,
    /// Zipf fit of per-client transfer counts (Fig 7), from the bottom-k
    /// client sample — slope invariant under uniform rank scaling.
    pub interest_transfers: Option<ZipfFit>,
    /// Zipf fit of per-client session counts (Fig 7).
    pub interest_sessions: Option<ZipfFit>,
    /// Clients in the bottom-k sample.
    pub sample_clients: u64,
    /// Estimated fraction of the client population sampled.
    pub sample_fraction: f64,
    /// Lognormal fit of session ON times (Fig 9) — exact multiset, matches
    /// batch to round-off.
    pub on_fit: Option<LogNormalFit>,
    /// ON-time quantiles from the log-bucket sketch (≤ 1% rank error).
    pub on_quantiles: Option<QuantileSummary>,
    /// Mean OFF time in seconds, from sampled clients' complete gap lists.
    pub off_mean: Option<f64>,
    /// OFF gaps behind `off_mean`.
    pub off_gaps: u64,
    /// Zipf fit of the transfers-per-session frequency plot (Fig 13) —
    /// exact histogram, matches batch.
    pub tps_fit: Option<ZipfFit>,
    /// Lognormal fit of intra-session transfer interarrivals (Fig 16).
    pub intra_iat_fit: Option<LogNormalFit>,
    /// Lognormal fit of transfer lengths (Fig 12 / Table 2).
    pub transfer_length_fit: Option<LogNormalFit>,
    /// Transfer-length quantiles from the log-bucket sketch.
    pub transfer_length_quantiles: Option<QuantileSummary>,
    /// Two-regime power-law tail of transfer interarrivals (Fig 17),
    /// fitted on the quantile sketch's CCDF.
    pub iat_tail: Option<TwoRegimeTail>,
    /// Fraction of transfers whose average bandwidth sat under the
    /// 20 kbit/s congestion bound (§5, ~10%).
    pub congestion_bound_fraction: f64,
    /// Busiest client ASes by transfer count.
    pub top_ases: Vec<(u16, u64)>,
    /// Client countries by transfer share.
    pub top_countries: Vec<(String, f64)>,
    /// Online concurrency profile.
    pub concurrency: ConcurrencySummary,
    /// Memory audit.
    pub memory: MemoryFootprint,
}

impl StreamReport {
    /// Pretty JSON, stable across shard counts byte for byte.
    pub fn to_json(&self) -> String {
        // lsw::allow(L005): plain struct of numbers/strings always serializes
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// The value tree [`to_json`](Self::to_json) renders, for embedding
    /// the report in a larger JSON document.
    pub fn to_json_value(&self) -> serde_json::Value {
        serde::Serialize::to_value(self)
    }

    /// Human-readable digest with the paper's Table 2 reference values.
    pub fn headline(&self) -> String {
        let mut out = String::new();
        let s = &self.summary;
        let a = &self.accounting;
        let _ = writeln!(out, "streamed characterization ({} shards)", self.shards);
        let _ = writeln!(
            out,
            "  trace: {:.1} days, {} transfers kept / {} examined ({} rejected, {} malformed lines, {} late)",
            s.days,
            s.transfers,
            a.examined,
            a.rejected(),
            a.malformed_lines,
            a.late_entries
        );
        if a.corrupt_blocks > 0 {
            let _ = writeln!(
                out,
                "  corrupt ltc blocks: {} ({} records lost; first: {})",
                a.corrupt_blocks,
                a.corrupt_records,
                a.first_corrupt.as_deref().unwrap_or("?")
            );
        }
        let _ = writeln!(
            out,
            "  clients: ~{:.0} users, ~{:.0} IPs, {} ASes, {} countries, {} objects, {:.2} TB",
            s.users, s.client_ips, s.client_ases, s.countries, s.objects, s.terabytes
        );
        if let Some(z) = &self.interest_transfers {
            let _ = writeln!(
                out,
                "  interest (transfers/client): alpha {:.4}  [paper {:.4}]  (sample of {} clients)",
                z.alpha,
                paper::INTEREST_TRANSFERS_ALPHA,
                self.sample_clients
            );
        }
        if let Some(z) = &self.interest_sessions {
            let _ = writeln!(
                out,
                "  interest (sessions/client): alpha {:.4}  [paper {:.4}]",
                z.alpha,
                paper::INTEREST_SESSIONS_ALPHA
            );
        }
        let _ = writeln!(
            out,
            "  sessions: {} (timeout {} s)",
            self.n_sessions, self.session_timeout
        );
        if let Some(f) = &self.on_fit {
            let _ = writeln!(
                out,
                "  ON time lognormal: mu {:.4} sigma {:.4}  [paper {:.4} / {:.4}]",
                f.mu,
                f.sigma,
                paper::SESSION_ON_MU,
                paper::SESSION_ON_SIGMA
            );
        }
        if let Some(m) = self.off_mean {
            let _ = writeln!(
                out,
                "  OFF time mean: {:.0} s over {} gaps  [paper {:.0}]",
                m,
                self.off_gaps,
                paper::SESSION_OFF_MEAN
            );
        }
        if let Some(z) = &self.tps_fit {
            let _ = writeln!(
                out,
                "  transfers/session Zipf: alpha {:.4}  [paper {:.4}]",
                z.alpha,
                paper::TRANSFERS_PER_SESSION_ALPHA
            );
        }
        if let Some(f) = &self.intra_iat_fit {
            let _ = writeln!(
                out,
                "  intra-session IAT lognormal: mu {:.4} sigma {:.4}  [paper {:.4} / {:.4}]",
                f.mu,
                f.sigma,
                paper::INTRA_SESSION_IAT_MU,
                paper::INTRA_SESSION_IAT_SIGMA
            );
        }
        if let Some(f) = &self.transfer_length_fit {
            let _ = writeln!(
                out,
                "  transfer length lognormal: mu {:.4} sigma {:.4}  [paper {:.4} / {:.4}]",
                f.mu,
                f.sigma,
                paper::TRANSFER_LENGTH_MU,
                paper::TRANSFER_LENGTH_SIGMA
            );
        }
        if let Some(t) = &self.iat_tail {
            let _ = writeln!(
                out,
                "  transfer IAT tail: alpha_short {:.2} alpha_long {:.2} @ {:.0} s  [paper {:.1} / {:.1}]",
                t.alpha_short,
                t.alpha_long,
                t.boundary,
                paper::TRANSFER_IAT_TAIL_ALPHA_SHORT,
                paper::TRANSFER_IAT_TAIL_ALPHA_LONG
            );
        }
        let _ = writeln!(
            out,
            "  congestion-bounded transfers: {:.1}%  [paper ~{:.0}%]",
            100.0 * self.congestion_bound_fraction,
            100.0 * paper::CONGESTION_BOUND_FRACTION
        );
        let _ = writeln!(
            out,
            "  server underload: {:.4} of time, {:.4} of transfers below the {:.0}% CPU bound",
            a.underload_time_fraction,
            a.underload_transfer_fraction,
            100.0 * paper::SERVER_LOAD_THRESHOLD
        );
        let c = &self.concurrency;
        let _ = writeln!(
            out,
            "  concurrency: peak {} mean {:.2} ({} levels observed)",
            c.peak,
            c.mean,
            c.marginal.len()
        );
        let m = &self.memory;
        let _ = writeln!(
            out,
            "  memory: {} sketch bytes, peak {} heap entries, peak {} open sessions",
            m.sketch_bytes, m.peak_heap_entries, m.peak_active_sessions
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let report = StreamReport {
            session_timeout: 1500.0,
            shards: 2,
            summary: StreamSummary {
                horizon: 86_400,
                days: 1.0,
                users: 100.0,
                client_ips: 90.0,
                client_ases: 5,
                countries: 3,
                objects: 2,
                transfers: 1_000,
                terabytes: 0.001,
            },
            accounting: StreamAccounting {
                lines_total: 1_010,
                malformed_lines: 2,
                first_malformed: Some("line 7: bad field".into()),
                late_entries: 0,
                corrupt_blocks: 0,
                corrupt_records: 0,
                first_corrupt: None,
                examined: 1_008,
                kept: 1_000,
                rejects: vec![(RejectReason::FailedStatus, 8)],
                underload_time_fraction: 1.0,
                underload_transfer_fraction: 1.0,
            },
            n_sessions: 400,
            interest_transfers: None,
            interest_sessions: None,
            sample_clients: 100,
            sample_fraction: 1.0,
            on_fit: None,
            on_quantiles: None,
            off_mean: Some(1234.0),
            off_gaps: 300,
            tps_fit: None,
            intra_iat_fit: None,
            transfer_length_fit: None,
            transfer_length_quantiles: None,
            iat_tail: None,
            congestion_bound_fraction: 0.1,
            top_ases: vec![(7, 500)],
            top_countries: vec![("BR".into(), 0.9)],
            concurrency: ConcurrencySummary {
                peak: 10,
                mean: 2.5,
                marginal: vec![(0, 100), (1, 50)],
                daily_fold: vec![0.0; 4],
            },
            memory: MemoryFootprint {
                sketch_bytes: 1 << 20,
                peak_heap_entries: 12,
                peak_active_sessions: 9,
            },
        };
        let json = report.to_json();
        let back: StreamReport = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.to_json(), json);
        assert_eq!(report.accounting.rejected(), 8);
        let text = report.headline();
        assert!(text.contains("sessions: 400"));
        assert!(text.contains("OFF time mean"));
    }
}
