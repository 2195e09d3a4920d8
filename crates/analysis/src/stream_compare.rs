//! Side-by-side comparison of the exact (batch) and streamed reports.
//!
//! The streaming engine trades the in-RAM trace for sketches with
//! published error bounds; this module renders the two reports next to
//! each other with a per-estimator relative-error column, so a reader can
//! see exactly what the bounded-memory pass gave up — and that the
//! order-exact statistics (session count, ON-time fit, transfers per
//! session) gave up nothing.

use crate::report::CharacterizationReport;
use lsw_stream::StreamReport;
use std::fmt::Write as _;

/// One compared estimator: exact value, streamed value, relative error.
#[derive(Debug, Clone)]
pub struct ComparedValue {
    /// Estimator label, e.g. `"users"` or `"ON-time mu"`.
    pub name: &'static str,
    /// The batch pipeline's exact value.
    pub exact: Option<f64>,
    /// The streaming engine's estimate.
    pub streamed: Option<f64>,
}

impl ComparedValue {
    /// `|streamed - exact| / |exact|`, when both sides exist and the
    /// exact value is non-zero.
    pub(crate) fn relative_error(&self) -> Option<f64> {
        match (self.exact, self.streamed) {
            (Some(e), Some(s)) if e != 0.0 => Some((s - e).abs() / e.abs()),
            _ => None,
        }
    }
}

/// Collects every estimator both pipelines produce.
pub(crate) fn compare(batch: &CharacterizationReport, stream: &StreamReport) -> Vec<ComparedValue> {
    let mut rows = Vec::new();
    let mut push = |name: &'static str, exact: Option<f64>, streamed: Option<f64>| {
        rows.push(ComparedValue {
            name,
            exact,
            streamed,
        });
    };

    let bs = &batch.summary;
    let ss = &stream.summary;
    push("users", Some(bs.users as f64), Some(ss.users));
    push(
        "client IPs",
        Some(bs.client_ips as f64),
        Some(ss.client_ips),
    );
    push(
        "client ASes",
        Some(bs.client_ases as f64),
        Some(ss.client_ases as f64),
    );
    push(
        "countries",
        Some(bs.countries as f64),
        Some(ss.countries as f64),
    );
    push("objects", Some(bs.objects as f64), Some(ss.objects as f64));
    push(
        "transfers",
        Some(bs.transfers as f64),
        Some(ss.transfers as f64),
    );
    push("terabytes", Some(bs.terabytes()), Some(ss.terabytes));
    push(
        "sessions",
        Some(batch.session.n_sessions as f64),
        Some(stream.n_sessions as f64),
    );
    push(
        "interest transfers alpha",
        batch.client.interest.transfers_fit.map(|f| f.alpha),
        stream.interest_transfers.map(|f| f.alpha),
    );
    push(
        "interest sessions alpha",
        batch.client.interest.sessions_fit.map(|f| f.alpha),
        stream.interest_sessions.map(|f| f.alpha),
    );
    push(
        "ON-time mu",
        batch.session.on_fit.map(|f| f.mu),
        stream.on_fit.map(|f| f.mu),
    );
    push(
        "ON-time sigma",
        batch.session.on_fit.map(|f| f.sigma),
        stream.on_fit.map(|f| f.sigma),
    );
    push(
        "OFF-time mean",
        batch.session.off_fit.map(|f| f.mean),
        stream.off_mean,
    );
    push(
        "transfers/session alpha",
        batch.session.tps_fit.map(|f| f.alpha),
        stream.tps_fit.map(|f| f.alpha),
    );
    push(
        "intra-session IAT mu",
        batch.session.intra_iat_fit.map(|f| f.mu),
        stream.intra_iat_fit.map(|f| f.mu),
    );
    push(
        "intra-session IAT sigma",
        batch.session.intra_iat_fit.map(|f| f.sigma),
        stream.intra_iat_fit.map(|f| f.sigma),
    );
    push(
        "transfer length mu",
        batch.transfer.lengths.fit.map(|f| f.mu),
        stream.transfer_length_fit.map(|f| f.mu),
    );
    push(
        "transfer length sigma",
        batch.transfer.lengths.fit.map(|f| f.sigma),
        stream.transfer_length_fit.map(|f| f.sigma),
    );
    push(
        "IAT tail alpha (short)",
        batch.transfer.arrivals.tail.map(|t| t.alpha_short),
        stream.iat_tail.map(|t| t.alpha_short),
    );
    push(
        "IAT tail alpha (long)",
        batch.transfer.arrivals.tail.map(|t| t.alpha_long),
        stream.iat_tail.map(|t| t.alpha_long),
    );
    push(
        "congestion-bound fraction",
        Some(batch.transfer.bandwidth.congestion_bound_fraction),
        Some(stream.congestion_bound_fraction),
    );
    push(
        "peak concurrent transfers",
        Some(f64::from(batch.transfer.concurrency.peak)),
        Some(f64::from(stream.concurrency.peak)),
    );
    rows
}

/// Renders the comparison as an aligned text table.
pub fn render(batch: &CharacterizationReport, stream: &StreamReport) -> String {
    let rows = compare(batch, stream);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Exact vs streamed (relative error per estimator) ==="
    );
    let _ = writeln!(
        out,
        "{:<28} {:>16} {:>16} {:>10}",
        "estimator", "exact", "streamed", "rel err"
    );
    for row in &rows {
        let fmt = |v: Option<f64>| match v {
            Some(v) if v.abs() >= 1e6 => format!("{v:.3e}"),
            Some(v) => format!("{v:.4}"),
            None => "-".to_string(),
        };
        let err = match row.relative_error() {
            Some(e) => format!("{:.3}%", 100.0 * e),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<28} {:>16} {:>16} {:>10}",
            row.name,
            fmt(row.exact),
            fmt(row.streamed),
            err
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_core::config::WorkloadConfig;
    use lsw_core::generator::Generator;
    use lsw_stream::{StreamAnalyzer, StreamConfig};
    use lsw_trace::wms;

    #[test]
    fn compare_covers_the_table_2_estimators() {
        let config = WorkloadConfig::paper().scaled(1_500, 86_400, 6_000);
        let trace = Generator::new(config, 91).unwrap().generate().render();
        let batch = crate::report::characterize(&trace, 1);

        let text = String::from_utf8(wms::format_log(trace.entries()).to_vec()).unwrap();
        let mut engine = StreamAnalyzer::new(StreamConfig {
            horizon: Some(trace.horizon()),
            ..StreamConfig::default()
        });
        engine.ingest_str(&text);
        let stream = engine.finalize();

        let rows = compare(&batch, &stream);
        assert!(rows.len() >= 15);
        // The exact-under-streaming estimators must agree very tightly.
        for name in ["sessions", "transfers", "ON-time mu"] {
            let row = rows.iter().find(|r| r.name == name).unwrap();
            let err = row.relative_error().unwrap();
            assert!(err < 1e-6, "{name}: relative error {err}");
        }
        let rendered = render(&batch, &stream);
        assert!(rendered.contains("rel err"));
        assert!(rendered.contains("transfer length mu"));
    }
}
