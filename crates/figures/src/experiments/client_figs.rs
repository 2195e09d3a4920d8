//! Client-layer figures: Fig 2 through Fig 8.

use super::tables::binned_series;
use crate::context::{ReproContext, Scale};
use crate::result::{Comparison, FigureResult, Series};
use lsw_stats::paper;

/// Fig 2 — client diversity: transfers/AS, IPs/AS, transfers/country.
pub(crate) fn fig02(ctx: &ReproContext) -> FigureResult {
    let geo = &ctx.report.client.geo;
    let series = vec![
        Series::new("% of transfers vs AS rank", geo.as_by_transfers.clone()),
        Series::new("% of IPs vs AS rank", geo.as_by_ips.clone()),
        Series::new(
            "% of transfers vs country rank",
            geo.country_transfers
                .iter()
                .enumerate()
                .map(|(i, (_, share))| ((i + 1) as f64, *share))
                .collect(),
        ),
    ];
    let top_as = geo.as_by_transfers.first().map(|&(_, s)| s).unwrap_or(0.0);
    let br = geo
        .country_transfers
        .iter()
        .find(|(c, _)| c == "BR")
        .map(|&(_, s)| s)
        .unwrap_or(0.0);
    let span = geo
        .country_transfers
        .last()
        .map(|&(_, s)| br / s.max(1e-12))
        .unwrap_or(0.0);
    let mut comparisons = vec![
        Comparison::qualitative(
            "AS popularity is heavy-tailed (top AS share)",
            top_as,
            top_as > 0.05 && top_as < 0.8,
            "one AS commands a large but not total share",
        ),
        Comparison::qualitative(
            "Brazil dominates transfers",
            br,
            br > 0.9,
            "Fig 2 right: BR first by several orders",
        ),
        Comparison::qualitative(
            "country span covers orders of magnitude",
            span.log10(),
            span > 1e3,
            "Fig 2 right spans ~7 decades at paper scale",
        ),
    ];
    if ctx.scale == Scale::Paper {
        comparisons.push(Comparison::quantitative(
            "number of client ASes",
            paper::NUM_CLIENT_AS as f64,
            geo.n_ases as f64,
            0.05,
        ));
    }
    FigureResult {
        id: "fig02".into(),
        title: "Client diversity over ASes and countries".into(),
        series,
        comparisons,
        notes: "synthetic topology substitutes the proprietary AS mapping; only the \
                rank-share shape is comparable"
            .into(),
    }
}

/// Fig 3 — marginal distribution of the number of active clients.
pub(crate) fn fig03(ctx: &ReproContext) -> FigureResult {
    let c = &ctx.report.client.concurrency;
    let m = &c.marginal;
    let series = vec![
        Series::new("frequency", m.frequency.clone()),
        Series::new("CDF", m.cdf.clone()),
        Series::new("CCDF", m.ccdf.clone()),
    ];
    let cv = m.summary.cv;
    let comparisons = vec![
        Comparison::qualitative(
            "wide variability in active clients (CV)",
            cv,
            cv > 0.5,
            "Fig 3: counts spread over the full 0..peak range",
        ),
        Comparison::qualitative(
            "peak concurrency well above mean",
            c.peak as f64 / m.summary.mean.max(1e-9),
            c.peak as f64 > 2.0 * m.summary.mean,
            "heavy upper range as in Fig 3's CCDF",
        ),
    ];
    FigureResult {
        id: "fig03".into(),
        title: "Marginal distribution of number of active clients".into(),
        series,
        comparisons,
        notes: String::new(),
    }
}

/// Fig 4 — temporal behavior of the number of active clients.
pub(crate) fn fig04(ctx: &ReproContext) -> FigureResult {
    let c = &ctx.report.client.concurrency;
    let series = vec![
        binned_series("over trace (900 s bins)", &c.over_trace),
        binned_series("mod one week", &c.weekly),
        binned_series("mod 24 hours", &c.daily),
    ];
    // Diurnal claim: 4am–11am trough vs evening peak.
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
    // Weekend uplift: weekly fold, Sunday (day 0 per config) + Saturday.
    let weekly = &c.weekly.values;
    let day_mean = |d: usize| {
        let per_day = weekly.len() / 7;
        let vals: Vec<f64> = weekly[d * per_day..(d + 1) * per_day]
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let weekend = (day_mean(0) + day_mean(6)) / 2.0;
    let weekday = (1..6).map(day_mean).sum::<f64>() / 5.0;
    let comparisons = vec![
        Comparison::qualitative(
            "diurnal trough 4am-11am (peak/trough ratio)",
            peak / trough.max(1e-9),
            peak > 2.0 * trough,
            "Fig 4 right: considerably fewer clients 4–11h",
        ),
        Comparison::qualitative(
            "weekends slightly higher than weekdays",
            weekend / weekday.max(1e-9),
            weekend > weekday,
            "Fig 4 center: weekend uplift",
        ),
    ];
    FigureResult {
        id: "fig04".into(),
        title: "Temporal behavior of number of active clients".into(),
        series,
        comparisons,
        notes: String::new(),
    }
}

/// Fig 5 — marginal distribution of client interarrival times.
pub(crate) fn fig05(ctx: &ReproContext) -> FigureResult {
    let a = &ctx.report.client.arrivals;
    let m = &a.interarrivals;
    let series = vec![
        Series::new("frequency", m.frequency.clone()),
        Series::new("CDF", m.cdf.clone()),
        Series::new("CCDF", m.ccdf.clone()),
    ];
    // "Appears heavy tailed": CCDF reaches well beyond the mean.
    let p99_over_mean = m.summary.p99 / m.summary.mean.max(1e-9);
    let comparisons = vec![
        Comparison::qualitative(
            "interarrival marginal appears heavy (p99/mean)",
            p99_over_mean,
            p99_over_mean > 3.0,
            "Fig 5: apparent heavy tail, later explained by non-stationarity",
        ),
        Comparison::qualitative(
            "interarrivals span decades",
            m.summary.max / m.summary.median.max(1e-9),
            m.summary.max > 30.0 * m.summary.median,
            "Fig 5 x-axis spans ~3 decades",
        ),
    ];
    FigureResult {
        id: "fig05".into(),
        title: "Marginal distribution of client interarrival times".into(),
        series,
        comparisons,
        notes: String::new(),
    }
}

/// Fig 6 — interarrivals from the fitted piecewise-stationary Poisson
/// process, compared against Fig 5.
pub(crate) fn fig06(ctx: &ReproContext) -> FigureResult {
    let a = &ctx.report.client.arrivals;
    let m = &a.synthetic_interarrivals;
    let series = vec![
        Series::new("synthetic frequency", m.frequency.clone()),
        Series::new("synthetic CDF", m.cdf.clone()),
        Series::new("synthetic CCDF", m.ccdf.clone()),
    ];
    let comparisons = vec![
        Comparison::qualitative(
            "actual vs synthetic KS distance",
            a.ks_actual_vs_synthetic.statistic,
            a.ks_actual_vs_synthetic.statistic < 0.1,
            "the paper calls the two marginals 'surprisingly similar'",
        ),
        Comparison::qualitative(
            "within-window Poisson pass fraction",
            a.poisson_window_pass_fraction,
            a.poisson_window_pass_fraction > 0.9,
            "§3.4: short intervals are consistent with Poisson",
        ),
    ];
    FigureResult {
        id: "fig06".into(),
        title: "Interarrivals from a piecewise-stationary Poisson process".into(),
        series,
        comparisons,
        notes: format!("{} windows dispersion-tested", a.poisson_windows_tested),
    }
}

/// Fig 7 — the client interest profile.
pub(crate) fn fig07(ctx: &ReproContext) -> FigureResult {
    let i = &ctx.report.client.interest;
    let series = vec![
        Series::new("transfers per client vs rank", i.transfers_rank.clone()),
        Series::new("sessions per client vs rank", i.sessions_rank.clone()),
    ];
    let mut comparisons = Vec::new();
    let quantitative = ctx.scale != Scale::Small;
    if let Some(f) = &i.sessions_fit {
        if quantitative {
            comparisons.push(Comparison::quantitative(
                "Zipf alpha (sessions)",
                paper::INTEREST_SESSIONS_ALPHA,
                f.alpha,
                0.35,
            ));
        } else {
            // At small scale the per-client session density is far above
            // the paper's, so T_o merging flattens the top ranks; only the
            // existence of the skew is checked.
            comparisons.push(Comparison::qualitative(
                "session profile Zipf-skewed (alpha)",
                f.alpha,
                f.alpha > 0.1,
                "quantitative comparison at --scale medium/paper",
            ));
        }
    }
    if let Some(f) = &i.transfers_fit {
        if quantitative {
            comparisons.push(Comparison::quantitative(
                "Zipf alpha (transfers)",
                paper::INTEREST_TRANSFERS_ALPHA,
                f.alpha,
                0.40,
            ));
        } else {
            comparisons.push(Comparison::qualitative(
                "transfer profile Zipf-skewed (alpha)",
                f.alpha,
                f.alpha > 0.2,
                "quantitative comparison at --scale medium/paper",
            ));
        }
    }
    if let (Some(t), Some(s)) = (&i.transfers_fit, &i.sessions_fit) {
        comparisons.push(Comparison::qualitative(
            "transfer profile steeper than session profile",
            t.alpha - s.alpha,
            t.alpha > s.alpha,
            "paper: 0.7194 vs 0.4704",
        ));
    }
    FigureResult {
        id: "fig07".into(),
        title: "Client interest profile (role-reversed popularity)".into(),
        series,
        comparisons,
        notes: "fits restricted to the low-noise body, as the paper's fitted lines \
                visibly are"
            .into(),
    }
}

/// Fig 8 — autocorrelation of the number of clients over time.
pub(crate) fn fig08(ctx: &ReproContext) -> FigureResult {
    let c = &ctx.report.client.concurrency;
    let acf: Vec<(f64, f64)> = c
        .acf_minutes
        .iter()
        .enumerate()
        .map(|(lag, &r)| (lag as f64, r))
        .collect();
    let series = vec![Series::new("ACF of c(t), per-minute lags", acf)];
    let days = f64::from(ctx.trace.horizon()) / 86_400.0;
    let mut comparisons = Vec::new();
    if days >= 2.0 {
        let day_peak = c.acf_minutes.get(1_440).copied().unwrap_or(f64::NAN);
        let has_daily_peak = c.acf_peaks.iter().any(|&p| (p as i64 - 1_440).abs() < 120);
        comparisons.push(Comparison::qualitative(
            "ACF at one-day lag",
            day_peak,
            day_peak > 0.3,
            "Fig 8: strong daily periodicity",
        ));
        comparisons.push(Comparison::qualitative(
            "peak detected near 1,440 minutes",
            c.acf_peaks.first().map(|&p| p as f64).unwrap_or(f64::NAN),
            has_daily_peak,
            "peaks at multiples of 1,440",
        ));
    } else {
        // One-day trace: the daily lag is out of range; check the
        // half-day anticorrelation instead (same periodic signature).
        let half_day = c.acf_minutes.get(720).copied().unwrap_or(f64::NAN);
        comparisons.push(Comparison::qualitative(
            "ACF at half-day lag is negative",
            half_day,
            half_day < 0.0,
            "diurnal signature on a 1-day trace; full check at medium/paper",
        ));
    }
    // Decay: the 2-day peak is below the 1-day peak when the trace is long
    // enough to measure it.
    if let (Some(&d1), Some(&d2)) = (c.acf_minutes.get(1_440), c.acf_minutes.get(2_880)) {
        comparisons.push(Comparison::qualitative(
            "peak correlation decays with lag",
            d1 - d2,
            d2 < d1,
            "Fig 8: peaks shrink as lag grows",
        ));
    }
    FigureResult {
        id: "fig08".into(),
        title: "Autocorrelation of number of clients over time".into(),
        series,
        comparisons,
        notes: String::new(),
    }
}
