//! Extension experiments — beyond the paper's figures.
//!
//! * `ext_selfsim` — long-range dependence of the transfer arrival
//!   process. The paper attributes "strong temporal correlations" to the
//!   synchronizing effect of live content and cites the self-similarity
//!   lineage \[14\]; this experiment measures Hurst exponents of the
//!   per-minute arrival counts (with and without the diurnal trend
//!   removed, since periodicity inflates naive estimates).
//! * `ext_vbr` — GISMO's self-similar VBR content encoding: the encoded
//!   bitrate of feed 0 must be long-range dependent with the configured
//!   `H = (3 − α)/2`.
//! * `ext_admission` — the §1 capacity argument quantified: capping the
//!   server below its uncapped peak denies viewer time even when clients
//!   retry.

use crate::context::ReproContext;
use crate::result::{Comparison, FigureResult, Series};
use lsw_sim::{AdmissionPolicy, RetryPolicy, ServerConfig, SimConfig, Simulator};
use lsw_stats::selfsim::{hurst_rs, hurst_variance_time};
use lsw_stats::timeseries::bin_counts;

/// Long-range dependence of transfer arrivals.
pub(crate) fn ext_selfsim(ctx: &ReproContext) -> FigureResult {
    let starts: Vec<f64> = ctx.trace.start_times().collect();
    let horizon = f64::from(ctx.trace.horizon());
    let counts: Vec<f64> = bin_counts(&starts, 60.0, horizon)
        .into_iter()
        .map(|c| c as f64)
        .collect();

    // Raw counts: diurnal periodicity dominates, inflating H toward 1.
    let raw_vt = hurst_variance_time(&counts, 2);
    // Detrended: divide out the daily shape AND the per-day level
    // (weekday modulation + audience envelope), keeping only the
    // stochastic fluctuation around the schedule. The launch ramp's steep
    // *intra-day* trend is not multiplicative-daily, so the first two
    // days are excluded from the residual analysis on long traces.
    let steady: &[f64] = if counts.len() > 4 * 1_440 {
        &counts[2 * 1_440..]
    } else {
        &counts
    };
    let daily = lsw_stats::timeseries::fold_periodic(steady, 60.0, 86_400.0);
    // Remove the daily shape first, then a smooth (±12 h moving-average)
    // slow level — this catches the interpolated audience envelope that a
    // piecewise-constant per-day level misses.
    let shape_removed: Vec<f64> = steady
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let expect = daily[i % daily.len()];
            if expect > 0.0 {
                c / expect
            } else {
                1.0
            }
        })
        .collect();
    let level = lsw_stats::timeseries::moving_average(&shape_removed, 720);
    let detrended: Vec<f64> = shape_removed
        .iter()
        .zip(&level)
        .map(|(&r, &l)| if l > 0.0 { r / l } else { 1.0 })
        .collect();
    let det_vt = hurst_variance_time(&detrended, 2);
    let det_rs = hurst_rs(&detrended);

    let mut comparisons = Vec::new();
    if let Ok(h) = &raw_vt {
        comparisons.push(Comparison::qualitative(
            "raw arrival counts strongly correlated (H)",
            h.h,
            h.h > 0.8,
            "diurnal schedule synchronizes arrivals (paper §1/§8 conjecture)",
        ));
    }
    if let (Ok(hr), Ok(hv)) = (&det_rs, &det_vt) {
        comparisons.push(Comparison::qualitative(
            "detrended counts near-Poisson (variance-time H)",
            hv.h,
            hv.h < 0.75,
            "within-window arrivals are Poisson (§3.4), so detrending removes most LRD",
        ));
        comparisons.push(Comparison::qualitative(
            "R/S agrees with variance-time (|ΔH|)",
            (hr.h - hv.h).abs(),
            (hr.h - hv.h).abs() < 0.25,
            "two independent estimators",
        ));
    }
    FigureResult {
        id: "ext_selfsim".into(),
        title: "Extension: long-range dependence of transfer arrivals".into(),
        series: vec![Series::new(
            "per-minute arrival counts (first 2 days)",
            counts
                .iter()
                .take(2_880)
                .enumerate()
                .map(|(i, &c)| (i as f64, c))
                .collect(),
        )],
        comparisons,
        notes: "the correlation is carried by the live schedule, not by arrival \
                burstiness — the object-driven signature"
            .into(),
    }
}

/// GISMO's self-similar VBR content encoding.
pub(crate) fn ext_vbr(_ctx: &ReproContext) -> FigureResult {
    use lsw_core::vbr::{VbrConfig, VbrEncoder};
    let config = VbrConfig::default();
    let theory = config.theoretical_hurst();
    // lsw::allow(L005): VbrConfig::default() is a fixed valid config
    let encoder = VbrEncoder::new(config, 2002).expect("default config valid");
    let series = encoder.bitrate_series(lsw_trace::ids::ObjectId(0), 0, 16_384);
    let measured = hurst_variance_time(&series, 4);
    let mean = series.iter().sum::<f64>() / series.len() as f64;

    let mut comparisons = vec![Comparison::qualitative(
        "encoded mean rate near nominal (bps)",
        mean,
        (mean / 250_000.0 - 1.0).abs() < 0.35,
        "VbrConfig::default targets 250 kbit/s",
    )];
    if let Ok(h) = &measured {
        comparisons.push(Comparison::quantitative(
            "Hurst exponent of encoded bitrate",
            theory,
            h.h,
            0.2,
        ));
    }
    FigureResult {
        id: "ext_vbr".into(),
        title: "Extension: self-similar VBR content encoding".into(),
        series: vec![Series::new(
            "bitrate (first hour)",
            series
                .iter()
                .take(3_600)
                .enumerate()
                .map(|(i, &r)| (i as f64, r))
                .collect(),
        )],
        comparisons,
        notes: format!("theory H = (3 − α)/2 = {theory:.2} for α = 1.4"),
    }
}

/// Admission control denies viewer time even with retries (§1).
pub(crate) fn ext_admission(ctx: &ReproContext) -> FigureResult {
    let base = Simulator::new(SimConfig::default()).run(&ctx.workload, 0xad31);
    let peak = base.server_stats.peak_concurrent;
    let capped = |retry| {
        Simulator::new(SimConfig {
            server: ServerConfig {
                admission: AdmissionPolicy::RejectAbove {
                    max_concurrent: peak / 2,
                },
                ..ServerConfig::default()
            },
            retry,
            ..SimConfig::default()
        })
        .run(&ctx.workload, 0xad31)
    };
    let give_up = capped(RetryPolicy::GiveUp);
    let retry = capped(RetryPolicy::RetryAfter {
        delay_secs: 120.0,
        max_attempts: 5,
    });

    let intended: f64 = ctx.workload.transfers().iter().map(|t| t.duration).sum();
    let watched = |out: &lsw_sim::SimOutput| {
        out.trace
            .entries()
            .iter()
            .map(|e| f64::from(e.duration))
            .sum::<f64>()
    };
    let w_open = watched(&base);
    let w_giveup = watched(&give_up);
    let w_retry = watched(&retry);

    let comparisons = vec![
        Comparison::qualitative(
            "uncapped server loses no requests",
            base.server_stats.rejected as f64,
            base.server_stats.rejected == 0,
            "the paper's provision-for-peak stance",
        ),
        Comparison::qualitative(
            "half-peak cap rejects requests",
            give_up.server_stats.rejected as f64,
            give_up.server_stats.rejected > 0,
            "admission control engages",
        ),
        Comparison::qualitative(
            "retries recover some viewing (watched ratio vs give-up)",
            w_retry / w_giveup.max(1.0),
            w_retry >= w_giveup,
            "persistent clients get in eventually",
        ),
        Comparison::qualitative(
            "but live time is still lost (watched / intended)",
            w_retry / intended.max(1.0),
            w_retry < w_open,
            "content moves on while clients wait: rejection is denial (§1)",
        ),
    ];
    FigureResult {
        id: "ext_admission".into(),
        title: "Extension: admission control vs live content".into(),
        series: vec![],
        comparisons,
        notes: format!(
            "peak {peak}; watched seconds: open {w_open:.0}, cap+giveup {w_giveup:.0}, \
             cap+retry {w_retry:.0}, intended {intended:.0}"
        ),
    }
}
