//! Session-layer figures: Fig 9 through Fig 14.

use crate::context::ReproContext;
use crate::result::{Comparison, FigureResult, Series};
use lsw_stats::paper;

/// Fig 9 — number of sessions identified vs the timeout `T_o`.
pub(crate) fn fig09(ctx: &ReproContext) -> FigureResult {
    let sweep = &ctx.report.session.timeout_sweep;
    let series = vec![Series::new(
        "sessions vs T_o",
        sweep.points.iter().map(|&(t, n)| (t, n as f64)).collect(),
    )];
    let monotone = sweep.points.windows(2).all(|w| w[0].1 >= w[1].1);
    let flat = sweep.tail_flatness(5);
    let comparisons = vec![
        Comparison::qualitative(
            "session count monotone in T_o",
            sweep.points.first().map(|&(_, n)| n as f64).unwrap_or(0.0),
            monotone,
            "structural property of sessionization",
        ),
        Comparison::qualitative(
            "count flattens past T_o = 1500 s (relative change 1500→4000)",
            flat,
            flat < 0.12,
            "paper: 'does not change drastically for To > 1,500'",
        ),
    ];
    FigureResult {
        id: "fig09".into(),
        title: "Number of sessions identified vs timeout T_o".into(),
        series,
        comparisons,
        notes: String::new(),
    }
}

/// Fig 10 — session ON time vs session starting hour.
pub(crate) fn fig10(ctx: &ReproContext) -> FigureResult {
    let b = &ctx.report.session.on_by_hour;
    let series = vec![Series::new(
        "mean ON time by start hour",
        b.points
            .iter()
            .copied()
            .filter(|(_, v)| !v.is_nan())
            .collect(),
    )];
    let comparisons = vec![Comparison::qualitative(
        "weak correlation with time of day (max relative deviation)",
        b.max_relative_deviation,
        b.max_relative_deviation < 0.8,
        "paper: variability in ON time is not a temporal effect",
    )];
    FigureResult {
        id: "fig10".into(),
        title: "Session ON time versus session starting time".into(),
        series,
        comparisons,
        notes: "ON-time variability is fundamental to live interaction, not diurnal".into(),
    }
}

/// Fig 11 — marginal distribution of session ON times, lognormal fit.
pub(crate) fn fig11(ctx: &ReproContext) -> FigureResult {
    let s = &ctx.report.session;
    let m = &s.on_times;
    let series = vec![
        Series::new("frequency", m.frequency.clone()),
        Series::new("CDF", m.cdf.clone()),
        Series::new("CCDF", m.ccdf.clone()),
    ];
    let mut comparisons = Vec::new();
    if let Some(f) = &s.on_fit {
        // Session ON time is *emergent* in the generative model (it is one
        // of the redundant variables §6.1 drops), so the criterion is the
        // paper's qualitative finding: lognormal with high variability,
        // parameters in the same regime.
        comparisons.push(Comparison::quantitative(
            "lognormal mu",
            paper::SESSION_ON_MU,
            f.mu,
            0.40,
        ));
        comparisons.push(Comparison::qualitative(
            "highly variable (sigma > 1)",
            f.sigma,
            f.sigma > 1.0,
            "paper: sigma = 1.544; lognormal, 'not as heavy as Pareto'",
        ));
    }
    // Model selection: lognormal must beat Pareto (§8's explicit claim).
    let on_disp: Vec<f64> = {
        let raw = ctx.sessions.on_times();
        raw.iter().map(|&t| paper::log_display_time(t)).collect()
    };
    if let Ok(choice) = lsw_stats::fit::select_model(&on_disp) {
        let ks_ln = choice
            .ks_distances
            .iter()
            .find(|(f, _)| *f == lsw_stats::fit::Family::LogNormal)
            .map(|&(_, d)| d)
            .unwrap_or(f64::NAN);
        let ks_pareto = choice
            .ks_distances
            .iter()
            .find(|(f, _)| *f == lsw_stats::fit::Family::Pareto)
            .map(|&(_, d)| d)
            .unwrap_or(f64::NAN);
        comparisons.push(Comparison::qualitative(
            "lognormal fits better than Pareto (KS_ln - KS_pareto)",
            ks_ln - ks_pareto,
            ks_ln < ks_pareto,
            "§8: 'does not appear to be as heavy as Pareto'",
        ));
    }
    FigureResult {
        id: "fig11".into(),
        title: "Marginal distribution of session ON times".into(),
        series,
        comparisons,
        notes: "ON time is emergent (transfers/session × intra-session gaps × lengths)".into(),
    }
}

/// Fig 12 — marginal distribution of session OFF times, exponential fit.
pub(crate) fn fig12(ctx: &ReproContext) -> FigureResult {
    let s = &ctx.report.session;
    let m = &s.off_times;
    let series = vec![
        Series::new("frequency", m.frequency.clone()),
        Series::new("CDF", m.cdf.clone()),
        Series::new("CCDF", m.ccdf.clone()),
    ];
    let mut comparisons = Vec::new();
    if let Some(f) = &s.off_fit {
        // OFF time too is emergent (client re-selection under Poisson
        // arrivals). The paper's mean is 203,150 s on a 28-day horizon;
        // shorter horizons censor long OFF times, so compare only at the
        // scale where the horizon matches.
        if ctx.scale == crate::context::Scale::Paper {
            // OFF time is emergent: Table 2 retains no OFF variable, and
            // independent Zipf client re-selection under-determines it.
            // The honest criterion is days-scale agreement (factor ~3);
            // EXPERIMENTS.md discusses the residual gap (real audiences
            // show revisit locality the model drops).
            comparisons.push(Comparison::qualitative(
                "emergent OFF mean within 3x of paper's 203,150 s",
                f.mean,
                f.mean > paper::SESSION_OFF_MEAN / 3.0 && f.mean < paper::SESSION_OFF_MEAN * 3.0,
                "Table 2 retains no OFF-time variable; see EXPERIMENTS.md",
            ));
            // The shape claim is exact: exponential beats the lognormal /
            // Pareto alternatives on the OFF-time body.
            let off_raw = ctx.sessions.off_times();
            if let Ok(choice) = lsw_stats::fit::select_model(&off_raw) {
                comparisons.push(Comparison::qualitative(
                    "exponential-like family fits best",
                    f.mean,
                    matches!(
                        choice.family,
                        lsw_stats::fit::Family::Exponential
                            | lsw_stats::fit::Family::Weibull
                            | lsw_stats::fit::Family::Gamma
                    ),
                    "Fig 12 right: exponential CCDF (Weibull/gamma with shape ≈ 1 accepted)",
                ));
            }
        } else {
            comparisons.push(Comparison::qualitative(
                "OFF mean far above T_o",
                f.mean,
                f.mean > 10.0 * paper::SESSION_TIMEOUT_SECS,
                "OFF times are log-off gaps, not think times",
            ));
        }
    }
    if f64::from(ctx.trace.horizon()) >= 3.0 * 86_400.0 {
        comparisons.push(Comparison::qualitative(
            "daily revisit ripple at 1 day",
            s.off_ripple_days.first().copied().unwrap_or(f64::NAN),
            s.off_ripple_days.contains(&1.0),
            "Fig 12: ripples at ~1, 2, 3 days",
        ));
    } else {
        comparisons.push(Comparison::qualitative(
            "OFF times observed",
            s.off_times.summary.n as f64,
            s.off_times.summary.n > 0,
            "ripple detection needs >= 3 trace days; run medium/paper",
        ));
    }
    FigureResult {
        id: "fig12".into(),
        title: "Marginal distribution of session OFF times".into(),
        series,
        comparisons,
        notes: "the 1,500–3,000 s anomaly the paper attributes to OFF-time \
                misclassification reproduces here: intra-session gaps above T_o are \
                split into session boundaries"
            .into(),
    }
}

/// Fig 13 — transfers per session, Zipf fit.
pub(crate) fn fig13(ctx: &ReproContext) -> FigureResult {
    let s = &ctx.report.session;
    let series = vec![Series::new(
        "P[K = k] vs k",
        s.transfers_per_session.clone(),
    )];
    let mut comparisons = Vec::new();
    if let Some(f) = &s.tps_fit {
        comparisons.push(Comparison::quantitative(
            "Zipf alpha",
            paper::TRANSFERS_PER_SESSION_ALPHA,
            f.alpha,
            0.20,
        ));
        comparisons.push(Comparison::qualitative(
            "heavy tail (alpha implies infinite 3rd moment)",
            f.alpha,
            f.alpha < 4.0,
            "Fig 13 CCDF: heavy-tailed behavior",
        ));
    }
    FigureResult {
        id: "fig13".into(),
        title: "Transfers per session".into(),
        series,
        comparisons,
        notes: String::new(),
    }
}

/// Fig 14 — intra-session transfer interarrivals, lognormal fit.
pub(crate) fn fig14(ctx: &ReproContext) -> FigureResult {
    let s = &ctx.report.session;
    let m = &s.intra_iat;
    let series = vec![
        Series::new("frequency", m.frequency.clone()),
        Series::new("CDF", m.cdf.clone()),
        Series::new("CCDF", m.ccdf.clone()),
    ];
    let mut comparisons = Vec::new();
    if let Some(f) = &s.intra_iat_fit {
        comparisons.push(Comparison::quantitative(
            "lognormal mu",
            paper::INTRA_SESSION_IAT_MU,
            f.mu,
            0.06,
        ));
        comparisons.push(Comparison::quantitative(
            "lognormal sigma",
            paper::INTRA_SESSION_IAT_SIGMA,
            f.sigma,
            0.15,
        ));
    }
    FigureResult {
        id: "fig14".into(),
        title: "Intra-session transfer interarrivals".into(),
        series,
        comparisons,
        notes: String::new(),
    }
}
