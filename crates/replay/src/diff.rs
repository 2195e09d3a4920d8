//! The closed-loop check: does the traffic we served re-characterize to
//! the trace we replayed?
//!
//! [`reference_report`] characterizes the *schedule itself* (every
//! transfer fed straight into a fresh `lsw-stream` analyzer), and
//! [`closed_loop`] compares a replay tap against it, headline by
//! headline, each with the error bound its sketch documents — uniques
//! come from HyperLogLog (≤2% per side), quantiles from log-bucket
//! sketches (≤1% per side), counts and byte totals from exact counters.
//! Using the schedule as the reference isolates replay fidelity from
//! sanitization differences: both sides saw exactly the same candidate
//! transfers.

use lsw_stream::{StreamAnalyzer, StreamConfig, StreamReport};
use lsw_trace::schedule::Schedule;

/// Characterizes a schedule directly — the reference end of the loop.
pub fn reference_report(schedule: &Schedule, cfg: StreamConfig) -> StreamReport {
    let mut analyzer = StreamAnalyzer::new(cfg);
    analyzer.preset_lookahead(schedule.max_duration());
    analyzer.ingest_entries(schedule.transfers.iter().map(|t| t.to_entry()));
    analyzer.finalize()
}

/// One compared headline metric.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Metric name.
    pub name: &'static str,
    /// Reference (input trace) value.
    pub reference: f64,
    /// Observed (replay tap) value.
    pub observed: f64,
    /// `|observed - reference| / max(|reference|, 1e-12)`.
    pub rel_err: f64,
    /// Documented sketch error bound for this metric (two-sided).
    pub bound: f64,
}

/// The closed-loop comparison.
#[derive(Debug, Clone, Default)]
pub struct LoopDiff {
    /// All compared rows.
    pub rows: Vec<DiffRow>,
    /// Entries the observed tap clamped as late
    /// (`accounting.late_entries`). Information only, with no bound: an
    /// order-sensitive row that fails beside a nonzero count points at
    /// the tap's release, not at what was served.
    pub late_entries: u64,
}

impl LoopDiff {
    /// True when every metric is within its documented bound.
    pub fn within_bounds(&self) -> bool {
        self.rows.iter().all(|r| r.rel_err <= r.bound)
    }

    /// Rows exceeding their bound.
    pub fn violations(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.rel_err > r.bound).collect()
    }

    /// Aligned text table, with the observed tap's late entries under it.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "metric                     reference      observed       rel-err   bound\n",
        );
        for r in &self.rows {
            let flag = if r.rel_err > r.bound { "  EXCEEDS" } else { "" };
            out.push_str(&format!(
                "{:<25} {:>13.4} {:>13.4}  {:>8.4}  {:>6.3}{}\n",
                r.name, r.reference, r.observed, r.rel_err, r.bound, flag
            ));
        }
        out.push_str(&format!(
            "observed tap late entries: {}\n",
            self.late_entries
        ));
        out
    }

    /// JSON rendering of the table plus the verdict.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("metric".to_string(), Value::Str(r.name.to_string())),
                    ("reference".to_string(), Value::F64(r.reference)),
                    ("observed".to_string(), Value::F64(r.observed)),
                    ("rel_err".to_string(), Value::F64(r.rel_err)),
                    ("bound".to_string(), Value::F64(r.bound)),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "within_bounds".to_string(),
                Value::Bool(self.within_bounds()),
            ),
            ("rows".to_string(), Value::Array(rows)),
        ])
    }
}

fn row(name: &'static str, reference: f64, observed: f64, bound: f64) -> DiffRow {
    let rel_err = (observed - reference).abs() / reference.abs().max(1e-12);
    DiffRow {
        name,
        reference,
        observed,
        rel_err,
        bound,
    }
}

/// Bound for a HyperLogLog-vs-HyperLogLog comparison: ≤2% standard error
/// per side at the default precision, with headroom for both sides
/// erring in opposite directions.
const UNIQUES_BOUND: f64 = 0.05;
/// Bound for log-bucket quantile comparisons: ≤1% bucket width per side.
const QUANTILE_BOUND: f64 = 0.03;
/// Bound for exact counters: a perfect replay matches exactly; any slack
/// here is lost transfers, which the caller wants to see.
const EXACT_BOUND: f64 = 1e-9;
/// Bound for order-sensitive accumulations (sessionization, concurrency
/// sweep): identical entries, but tap arrival order may differ slightly
/// around the look-ahead watermark.
const ORDER_BOUND: f64 = 0.01;

/// Compares a replay tap report against the reference characterization.
pub fn closed_loop(reference: &StreamReport, observed: &StreamReport) -> LoopDiff {
    let mut rows = vec![
        row(
            "users (hll)",
            reference.summary.users,
            observed.summary.users,
            UNIQUES_BOUND,
        ),
        row(
            "client_ips (hll)",
            reference.summary.client_ips,
            observed.summary.client_ips,
            UNIQUES_BOUND,
        ),
        row(
            "objects",
            reference.summary.objects as f64,
            observed.summary.objects as f64,
            EXACT_BOUND,
        ),
        row(
            "transfers",
            reference.summary.transfers as f64,
            observed.summary.transfers as f64,
            EXACT_BOUND,
        ),
        row(
            "terabytes",
            reference.summary.terabytes,
            observed.summary.terabytes,
            EXACT_BOUND,
        ),
        row(
            "sessions",
            reference.n_sessions as f64,
            observed.n_sessions as f64,
            ORDER_BOUND,
        ),
        row(
            "concurrency peak",
            f64::from(reference.concurrency.peak),
            f64::from(observed.concurrency.peak),
            ORDER_BOUND,
        ),
        row(
            "concurrency mean",
            reference.concurrency.mean,
            observed.concurrency.mean,
            ORDER_BOUND,
        ),
    ];
    if let (Some(r), Some(o)) = (&reference.on_quantiles, &observed.on_quantiles) {
        rows.push(row("session ON p50", r.p50, o.p50, QUANTILE_BOUND));
        rows.push(row("session ON p95", r.p95, o.p95, QUANTILE_BOUND));
    }
    if let (Some(r), Some(o)) = (
        &reference.transfer_length_quantiles,
        &observed.transfer_length_quantiles,
    ) {
        rows.push(row("transfer len p50", r.p50, o.p50, QUANTILE_BOUND));
        rows.push(row("transfer len p95", r.p95, o.p95, QUANTILE_BOUND));
    }
    // Top-k overlap: the heaviest AS must appear on both sides with a
    // consistent count (SpaceSaving is exact for heavy hitters at this
    // capacity).
    if let (Some(&(r_as, r_n)), Some(&(o_as, o_n))) =
        (reference.top_ases.first(), observed.top_ases.first())
    {
        rows.push(row(
            "top AS id",
            f64::from(r_as),
            f64::from(o_as),
            EXACT_BOUND,
        ));
        rows.push(row("top AS count", r_n as f64, o_n as f64, ORDER_BOUND));
    }
    LoopDiff {
        rows,
        late_entries: observed.accounting.late_entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virt::run_virtual;
    use lsw_sim::server::AdmissionPolicy;
    use lsw_trace::event::LogEntryBuilder;
    use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
    use lsw_trace::LogEntry;

    fn schedule() -> Schedule {
        let entries: Vec<LogEntry> = (0..500u32)
            .map(|i| {
                LogEntryBuilder::new()
                    .span((i / 2) * 7, (i % 13) + 3)
                    .client(ClientId(i % 31))
                    .origin(
                        Ipv4Addr(i % 31 + 1),
                        AsId((i % 5) as u16),
                        CountryCode(*b"BR"),
                    )
                    .object(ObjectId((i % 3) as u16), 0)
                    .transfer_stats(u64::from(i) * 321 + 10, 48_000, 0.0)
                    .build()
            })
            .collect();
        Schedule::from_entries(&entries)
    }

    #[test]
    fn perfect_replay_closes_the_loop() {
        let s = schedule();
        let reference = reference_report(&s, StreamConfig::default());
        let out = run_virtual(
            &s,
            AdmissionPolicy::AcceptAll,
            StreamConfig::default(),
            &crate::metrics::Registry::new(),
        );
        let diff = closed_loop(&reference, &out.tap);
        assert!(
            diff.within_bounds(),
            "closed-loop diff exceeded bounds:\n{}",
            diff.render()
        );
        assert_eq!(
            diff.to_json().field("within_bounds").ok(),
            Some(&serde_json::Value::Bool(true))
        );
        assert!(diff.render().ends_with("observed tap late entries: 0\n"));
    }

    #[test]
    fn render_names_the_taps_late_entries_without_gating_them() {
        let diff = LoopDiff {
            rows: Vec::new(),
            late_entries: 7,
        };
        assert!(diff.within_bounds());
        assert!(diff.render().contains("observed tap late entries: 7"));
    }

    #[test]
    fn the_diff_carries_the_observed_taps_late_entries() {
        let s = schedule();
        let reference = reference_report(&s, StreamConfig::default());
        // A start of 10 that arrives after 100 was released is clamped.
        let mut tap = StreamAnalyzer::new(StreamConfig::default());
        for start in [100, 200, 10] {
            tap.ingest_entry(&LogEntryBuilder::new().span(start, 1).build());
        }
        let diff = closed_loop(&reference, &tap.finalize());
        assert_eq!(diff.late_entries, 1);
        assert!(diff.render().contains("observed tap late entries: 1"));
    }

    #[test]
    fn lost_transfers_break_the_loop() {
        let s = schedule();
        let reference = reference_report(&s, StreamConfig::default());
        // An admission policy that turns traffic away must be visible as
        // a closed-loop violation — that is the point of the check.
        let out = run_virtual(
            &s,
            AdmissionPolicy::RejectAbove { max_concurrent: 2 },
            StreamConfig::default(),
            &crate::metrics::Registry::new(),
        );
        let diff = closed_loop(&reference, &out.tap);
        assert!(!diff.within_bounds());
        assert!(!diff.violations().is_empty());
        assert!(diff.render().contains("EXCEEDS"));
    }
}
