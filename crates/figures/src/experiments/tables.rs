//! Table 1, Table 2 and the §2.4 sanitization audit.

use crate::context::{ReproContext, Scale};
use crate::result::{Comparison, FigureResult, Series};
use lsw_stats::paper;

/// Table 1 — basic trace statistics.
///
/// At `Scale::Paper` the absolute counts are compared against the paper's
/// Table 1 (clients, IPs, ASes, countries, sessions, transfers, bytes); at
/// smaller scales the comparison is against the scaled configuration
/// (the shape claim is "the pipeline hits its targets").
pub(crate) fn table1(ctx: &ReproContext) -> FigureResult {
    let s = &ctx.report.summary;
    let cfg = ctx.workload.config();
    let mut comparisons = vec![
        Comparison::quantitative(
            "log period (days)",
            cfg.horizon_secs as f64 / 86_400.0,
            s.days,
            0.01,
        ),
        Comparison::quantitative(
            "live objects",
            paper::NUM_LIVE_OBJECTS as f64,
            s.objects as f64,
            0.0,
        ),
    ];
    if ctx.scale == Scale::Paper {
        comparisons.push(Comparison::quantitative(
            "client ASes",
            paper::NUM_CLIENT_AS as f64,
            s.client_ases as f64,
            0.05,
        ));
        comparisons.push(Comparison::quantitative(
            "countries",
            paper::NUM_COUNTRIES as f64,
            s.countries as f64,
            0.0,
        ));
        comparisons.push(Comparison::quantitative(
            "users observed (player IDs)",
            paper::NUM_USERS as f64,
            s.users as f64,
            0.10,
        ));
        comparisons.push(Comparison::quantitative(
            "client IPs",
            paper::NUM_CLIENT_IPS as f64,
            s.client_ips as f64,
            0.15,
        ));
        comparisons.push(Comparison::qualitative(
            "sessions > 1.5M",
            ctx.sessions.len() as f64,
            ctx.sessions.len() >= paper::MIN_SESSIONS,
            "Table 1 lower bound",
        ));
        comparisons.push(Comparison::qualitative(
            "transfers (paper > 5.5M)",
            s.transfers as f64,
            s.transfers as f64 >= 0.4 * paper::MIN_TRANSFERS as f64,
            "pure-Zipf Fig 13 model understates the per-session mean (see notes)",
        ));
    } else {
        comparisons.push(Comparison::quantitative(
            "sessions vs target",
            cfg.target_sessions as f64,
            ctx.sessions.len() as f64,
            0.10,
        ));
    }
    FigureResult {
        id: "table1".into(),
        title: "Basic statistics of the trace".into(),
        series: vec![],
        comparisons,
        notes: format!(
            "scale={}; {:.2} TB served; transfers/session = {:.2} (paper ≈ 3.7). The faithful \
             pure-Zipf(2.704) transfers-per-session model has mean ≈ 1.6, so absolute transfer \
             and byte totals undershoot Table 1; WorkloadConfig::paper_scale_matched() closes \
             the gap while keeping the Fig 13 tail exponent.",
            ctx.scale,
            s.terabytes(),
            s.transfers as f64 / ctx.sessions.len().max(1) as f64
        ),
    }
}

/// §2.4 — sanitization and the server-overload audit.
pub(crate) fn sanity(ctx: &ReproContext) -> FigureResult {
    let r = &ctx.sanitize_report;
    let spanning = r
        .rejects
        .iter()
        .find(|(reason, _)| matches!(reason, lsw_trace::sanitize::RejectReason::SpansTracePeriod))
        .map(|&(_, n)| n)
        .unwrap_or(0);
    let comparisons = vec![
        Comparison::qualitative(
            "harvest-spanning entries removed",
            spanning as f64,
            // The simulator injects them at a small rate; sanitization must
            // catch every one (kept trace has none).
            ctx.trace
                .entries()
                .iter()
                .all(|e| e.duration <= ctx.trace.horizon()),
            "no entry in the sanitized trace spans the trace period",
        ),
        Comparison::quantitative(
            "time fraction below 10% CPU",
            paper::SERVER_UNDERLOAD_TIME_FRACTION,
            r.underload_time_fraction,
            0.01,
        ),
        Comparison::qualitative(
            "transfer fraction below 10% CPU",
            r.underload_transfer_fraction,
            r.underload_transfer_fraction > 0.99,
            "paper: >99% of transfers",
        ),
    ];
    FigureResult {
        id: "sanity".into(),
        title: "§2.4 log sanitization and overload audit".into(),
        series: vec![],
        comparisons,
        notes: format!(
            "{} of {} entries rejected ({} harvest-spanning)",
            r.rejected(),
            r.examined,
            spanning
        ),
    }
}

/// Table 2 — closed-loop recovery of the generative-model parameters.
///
/// The trace was *generated* from Table 2; characterizing it must hand the
/// parameters back. This is the headline experiment.
pub(crate) fn table2(ctx: &ReproContext) -> FigureResult {
    let rep = &ctx.report;
    let mut comparisons = Vec::new();
    if ctx.scale != Scale::Small {
        if let Some(f) = &rep.client.interest.sessions_fit {
            comparisons.push(Comparison::quantitative(
                "client interest alpha (sessions)",
                paper::INTEREST_SESSIONS_ALPHA,
                f.alpha,
                0.35,
            ));
        }
        if let Some(f) = &rep.client.interest.transfers_fit {
            comparisons.push(Comparison::quantitative(
                "client interest alpha (transfers)",
                paper::INTEREST_TRANSFERS_ALPHA,
                f.alpha,
                0.40,
            ));
        }
    }
    if let Some(f) = &rep.session.tps_fit {
        comparisons.push(Comparison::quantitative(
            "transfers-per-session alpha",
            paper::TRANSFERS_PER_SESSION_ALPHA,
            f.alpha,
            0.20,
        ));
    }
    if let Some(f) = &rep.session.intra_iat_fit {
        comparisons.push(Comparison::quantitative(
            "intra-session IAT mu",
            paper::INTRA_SESSION_IAT_MU,
            f.mu,
            0.06,
        ));
        comparisons.push(Comparison::quantitative(
            "intra-session IAT sigma",
            paper::INTRA_SESSION_IAT_SIGMA,
            f.sigma,
            0.15,
        ));
    }
    if let Some(f) = &rep.transfer.lengths.fit {
        comparisons.push(Comparison::quantitative(
            "transfer length mu",
            paper::TRANSFER_LENGTH_MU,
            f.mu,
            0.05,
        ));
        comparisons.push(Comparison::quantitative(
            "transfer length sigma",
            paper::TRANSFER_LENGTH_SIGMA,
            f.sigma,
            0.05,
        ));
    }
    FigureResult {
        id: "table2".into(),
        title: "Closed-loop recovery of the Table 2 generative model".into(),
        series: vec![],
        comparisons,
        notes: "parameters sampled by the generator, pushed through simulator + \
                1-second log quantization + sanitization + sessionization, then re-fitted"
            .into(),
    }
}

/// Helper for experiments: wraps a binned series for plotting.
pub(crate) fn binned_series(name: &str, series: &lsw_stats::timeseries::BinnedSeries) -> Series {
    Series::new(
        name,
        series
            .points()
            .into_iter()
            .filter(|(_, v)| !v.is_nan())
            .collect(),
    )
}
