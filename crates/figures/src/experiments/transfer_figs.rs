//! Transfer-layer figures: Fig 15 through Fig 20.

use super::tables::binned_series;
use crate::context::{ReproContext, Scale};
use crate::result::{Comparison, FigureResult, Series};
use lsw_stats::paper;

/// Fig 15 — marginal distribution of concurrent transfers.
pub(crate) fn fig15(ctx: &ReproContext) -> FigureResult {
    let c = &ctx.report.transfer.concurrency;
    let m = &c.marginal;
    let series = vec![
        Series::new("frequency", m.frequency.clone()),
        Series::new("CDF", m.cdf.clone()),
        Series::new("CCDF", m.ccdf.clone()),
    ];
    // "Fairly similar to the client concurrency" — compare normalized
    // shapes via correlation of the daily folds.
    let client_daily = &ctx.report.client.concurrency.daily.values;
    let transfer_daily = &c.daily.values;
    let corr = pearson(client_daily, transfer_daily);
    let comparisons = vec![
        Comparison::qualitative(
            "transfer concurrency variability (CV)",
            m.summary.cv,
            m.summary.cv > 0.5,
            "Fig 15 mirrors Fig 3's spread",
        ),
        Comparison::qualitative(
            "shape tracks client concurrency (daily-fold correlation)",
            corr,
            corr > 0.9,
            "paper: 'fairly similar to the number of concurrent clients'",
        ),
    ];
    FigureResult {
        id: "fig15".into(),
        title: "Marginal distribution of concurrent transfers".into(),
        series,
        comparisons,
        notes: String::new(),
    }
}

/// Fig 16 — temporal behavior of concurrent transfers.
pub(crate) fn fig16(ctx: &ReproContext) -> FigureResult {
    let c = &ctx.report.transfer.concurrency;
    let series = vec![
        binned_series("over trace (900 s bins)", &c.over_trace),
        binned_series("mod one week", &c.weekly),
        binned_series("mod 24 hours", &c.daily),
    ];
    let daily = &c.daily.values;
    let nbin = daily.len().max(1);
    let avg = |lo_h: f64, hi_h: f64| {
        let lo = ((lo_h / 24.0) * nbin as f64) as usize;
        let hi = (((hi_h / 24.0) * nbin as f64) as usize).min(nbin);
        let vals: Vec<f64> = daily[lo..hi]
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let trough = avg(4.0, 11.0);
    let peak = avg(19.0, 24.0);
    let comparisons = vec![Comparison::qualitative(
        "diurnal structure (evening peak / morning trough)",
        peak / trough.max(1e-9),
        peak > 2.0 * trough,
        "Fig 16 right mirrors Fig 4 right",
    )];
    FigureResult {
        id: "fig16".into(),
        title: "Temporal behavior of concurrent transfers".into(),
        series,
        comparisons,
        notes: String::new(),
    }
}

/// Fig 17 — marginal distribution of transfer interarrivals with the
/// two-regime tail.
pub(crate) fn fig17(ctx: &ReproContext) -> FigureResult {
    let a = &ctx.report.transfer.arrivals;
    let m = &a.interarrivals;
    let series = vec![
        Series::new("frequency", m.frequency.clone()),
        Series::new("CDF", m.cdf.clone()),
        Series::new("CCDF", m.ccdf.clone()),
    ];
    let mut comparisons = Vec::new();
    match (&a.tail, ctx.scale) {
        (Some(t), Scale::Paper) => {
            comparisons.push(Comparison::quantitative(
                "tail exponent below 100 s",
                paper::TRANSFER_IAT_TAIL_ALPHA_SHORT,
                t.alpha_short,
                0.5,
            ));
            // The >100 s regime is a handful of near-dead-service gaps;
            // its exponent is order-1 in the paper and compared here at
            // order-of-magnitude strength (EXPERIMENTS.md discusses why).
            comparisons.push(Comparison::qualitative(
                "long-regime exponent order ~1 (paper: 1.0)",
                t.alpha_long,
                t.alpha_long > 0.3 && t.alpha_long < 2.5,
                "paper reads alpha ~= 1 off ~a dozen extreme gaps",
            ));
            comparisons.push(Comparison::qualitative(
                "two distinct regimes (short steeper than long)",
                t.alpha_short - t.alpha_long,
                t.alpha_short > t.alpha_long,
                "§5.2: popular-interval vs unpopular-interval generative processes",
            ));
        }
        (Some(t), _) => {
            comparisons.push(Comparison::qualitative(
                "two-regime structure measurable (short-regime slope)",
                t.alpha_short,
                t.alpha_short > 0.0,
                "the >100 s regime needs paper-scale dead-of-night gaps; see notes",
            ));
        }
        (None, Scale::Paper) => {
            comparisons.push(Comparison::qualitative(
                "two-regime tail fit available",
                f64::NAN,
                false,
                "paper scale must populate the >100 s regime",
            ));
        }
        (None, _) => {
            comparisons.push(Comparison::qualitative(
                "long regime empty (expected below paper scale)",
                f64::NAN,
                true,
                "no >100 s gaps occur at this arrival rate; run --scale paper",
            ));
        }
    }
    FigureResult {
        id: "fig17".into(),
        title: "Marginal distribution of transfer interarrival times".into(),
        series,
        comparisons,
        notes: "the >100 s regime is populated by a handful of extreme dead-of-night \
                gaps; below paper scale those gaps do not occur, so the long-regime \
                exponent is only compared at --scale paper"
            .into(),
    }
}

/// Fig 18 — temporal behavior of transfer interarrival times.
pub(crate) fn fig18(ctx: &ReproContext) -> FigureResult {
    let a = &ctx.report.transfer.arrivals;
    let series = vec![
        binned_series("over trace (900 s bins)", &a.over_trace),
        binned_series("mod one week", &a.weekly),
        binned_series("mod 24 hours", &a.daily),
    ];
    let daily = &a.daily.values;
    let nbin = daily.len().max(1);
    let avg = |lo_h: f64, hi_h: f64| {
        let lo = ((lo_h / 24.0) * nbin as f64) as usize;
        let hi = (((hi_h / 24.0) * nbin as f64) as usize).min(nbin);
        let vals: Vec<f64> = daily[lo..hi]
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    // The inversion of Fig 4: interarrivals LONG 5–11am, SHORT at peak.
    let morning = avg(5.0, 11.0);
    let evening = avg(19.0, 24.0);
    let comparisons = vec![Comparison::qualitative(
        "morning interarrivals longer than evening (ratio)",
        morning / evening.max(1e-9),
        morning > 2.0 * evening,
        "Fig 18 right: 5–11am shows considerably longer interarrivals",
    )];
    FigureResult {
        id: "fig18".into(),
        title: "Temporal behavior of transfer interarrival times".into(),
        series,
        comparisons,
        notes: String::new(),
    }
}

/// Fig 19 — marginal distribution of transfer lengths, lognormal fit,
/// and the stickiness argument.
pub(crate) fn fig19(ctx: &ReproContext) -> FigureResult {
    let l = &ctx.report.transfer.lengths;
    let m = &l.marginal;
    let series = vec![
        Series::new("frequency", m.frequency.clone()),
        Series::new("CDF", m.cdf.clone()),
        Series::new("CCDF", m.ccdf.clone()),
    ];
    let mut comparisons = Vec::new();
    if let Some(f) = &l.fit {
        comparisons.push(Comparison::quantitative(
            "lognormal mu",
            paper::TRANSFER_LENGTH_MU,
            f.mu,
            0.05,
        ));
        comparisons.push(Comparison::quantitative(
            "lognormal sigma",
            paper::TRANSFER_LENGTH_SIGMA,
            f.sigma,
            0.06,
        ));
    }
    comparisons.push(Comparison::qualitative(
        "length variance is within-object (client stickiness)",
        l.within_object_variance_ratio,
        l.within_object_variance_ratio > 0.95,
        "§5.3: variability traces to clients, not object sizes",
    ));
    FigureResult {
        id: "fig19".into(),
        title: "Marginal distribution of transfer lengths".into(),
        series,
        comparisons,
        notes: "contrast with the stored baseline, where object sizes carry the \
                variance (see the live_vs_stored example and ablation bench)"
            .into(),
    }
}

/// Fig 20 — transfer bandwidth: bimodal marginal.
pub(crate) fn fig20(ctx: &ReproContext) -> FigureResult {
    let b = &ctx.report.transfer.bandwidth;
    let m = &b.marginal;
    let series = vec![
        Series::new("frequency", m.frequency.clone()),
        Series::new("CDF", m.cdf.clone()),
    ];
    let comparisons = vec![
        Comparison::quantitative(
            "congestion-bound fraction",
            paper::CONGESTION_BOUND_FRACTION,
            b.congestion_bound_fraction,
            0.6,
        ),
        Comparison::qualitative(
            "client-speed spikes detected",
            b.spike_positions.len() as f64,
            !b.spike_positions.is_empty(),
            "Fig 20: spikes at modem/DSL/cable speeds",
        ),
        Comparison::qualitative(
            "dominant spike near a modem speed",
            b.spike_positions
                .iter()
                .copied()
                .fold(f64::NAN, |acc, x| if acc.is_nan() { x } else { acc }),
            b.spike_positions
                .iter()
                .any(|&p| (20_000.0..70_000.0).contains(&p)),
            "2002 population: 56k modem dominates",
        ),
    ];
    FigureResult {
        id: "fig20".into(),
        title: "Transfer bandwidth (bimodal)".into(),
        series,
        comparisons,
        notes: format!(
            "congestion-bound = below {} bit/s; spikes at {:?}",
            lsw_analysis::transfer_layer::CONGESTION_THRESHOLD_BPS,
            b.spike_positions
        ),
    }
}

/// Pearson correlation of two equal-length series (NaNs pairwise-dropped).
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .zip(b)
        .filter(|(x, y)| !x.is_nan() && !y.is_nan())
        .map(|(&x, &y)| (x, y))
        .collect();
    if pairs.len() < 2 {
        return f64::NAN;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    sxy / (sxx.sqrt() * syy.sqrt()).max(1e-12)
}
