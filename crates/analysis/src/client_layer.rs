//! Client-layer characterization (§3 of the paper).
//!
//! Covers: client diversity over ASes and countries (Fig 2), the
//! concurrency profile `c(t)` and its marginal (Figs 3/4), client
//! interarrival times (Fig 5), the piecewise-stationary-Poisson arrival
//! test (Fig 6, §3.4), the client interest profile (Fig 7), and the
//! autocorrelation of `c(t)` (Fig 8).

use crate::marginal::{display_transform, Marginal};
use lsw_stats::empirical::RankFrequency;
use lsw_stats::fit::{fit_zipf_rank_frequency, ZipfFit};
use lsw_stats::hypothesis::{ks_two_sample, poisson_dispersion_test, TestResult};
use lsw_stats::process::{PiecewisePoisson, PiecewiseRate};
use lsw_stats::rng::SeedStream;
use lsw_stats::timeseries::{autocorrelation, BinnedSeries};
use lsw_trace::concurrency::ConcurrencyProfile;
use lsw_trace::session::{transfer_counts_per_client, Sessions};
use lsw_trace::trace::Trace;
use serde::{Deserialize, Serialize};

/// Client diversity over ASes and countries (Fig 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeoAnalysis {
    /// `(rank, share of transfers)` per AS — Fig 2 left.
    pub as_by_transfers: Vec<(f64, f64)>,
    /// `(rank, share of distinct IPs)` per AS — Fig 2 center.
    pub as_by_ips: Vec<(f64, f64)>,
    /// `(country code, share of transfers)`, descending — Fig 2 right.
    pub country_transfers: Vec<(String, f64)>,
    /// Number of distinct ASes seen.
    pub n_ases: usize,
    /// Number of distinct countries seen.
    pub n_countries: usize,
}

/// The concurrency view of the client layer (Figs 3, 4, 8).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientConcurrency {
    /// Marginal distribution of the number of active clients (Fig 3).
    pub marginal: Marginal,
    /// Mean active clients per 900-s bin over the whole trace (Fig 4 left).
    pub over_trace: BinnedSeries,
    /// Folded modulo one week (Fig 4 center).
    pub weekly: BinnedSeries,
    /// Folded modulo one day (Fig 4 right).
    pub daily: BinnedSeries,
    /// Autocorrelation of the per-minute client count (Fig 8); index = lag
    /// in minutes.
    pub acf_minutes: Vec<f64>,
    /// Lags (minutes) of ACF local maxima above 0.1 — the paper finds
    /// multiples of 1,440.
    pub acf_peaks: Vec<usize>,
    /// Peak concurrency over the trace.
    pub peak: u32,
}

/// Client arrival analysis (Figs 5/6, §3.3–3.4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalAnalysis {
    /// Marginal of client interarrival times, `⌊t⌋+1` transformed (Fig 5).
    pub interarrivals: Marginal,
    /// Marginal of interarrivals from the fitted piecewise-stationary
    /// Poisson process (Fig 6).
    pub synthetic_interarrivals: Marginal,
    /// Two-sample KS comparing actual vs synthetic interarrivals — the
    /// quantitative version of the paper's "surprisingly similar".
    pub ks_actual_vs_synthetic: TestResult,
    /// Fraction of 15-minute windows whose per-minute arrival counts pass
    /// the Poisson dispersion test at 1% — §3.4's within-window claim.
    pub poisson_window_pass_fraction: f64,
    /// Number of windows tested.
    pub poisson_windows_tested: usize,
}

/// The client interest profile (Fig 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterestAnalysis {
    /// `(rank, relative frequency)` of transfers per client (Fig 7 left).
    pub transfers_rank: Vec<(f64, f64)>,
    /// Zipf fit of the transfer profile (paper: α = 0.7194).
    pub transfers_fit: Option<ZipfFit>,
    /// `(rank, relative frequency)` of sessions per client (Fig 7 right).
    pub sessions_rank: Vec<(f64, f64)>,
    /// Zipf fit of the session profile (paper: α = 0.4704).
    pub sessions_fit: Option<ZipfFit>,
}

/// Everything the client layer produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientLayer {
    /// Fig 2.
    pub geo: GeoAnalysis,
    /// Figs 3, 4, 8.
    pub concurrency: ClientConcurrency,
    /// Figs 5, 6 and the §3.4 test.
    pub arrivals: ArrivalAnalysis,
    /// Fig 7.
    pub interest: InterestAnalysis,
}

/// Runs the full client-layer characterization.
pub fn analyze(trace: &Trace, sessions: &Sessions, seed: u64) -> ClientLayer {
    ClientLayer {
        geo: analyze_geo(trace),
        concurrency: analyze_concurrency(sessions, trace.horizon()),
        arrivals: analyze_arrivals(sessions, trace.horizon(), seed),
        interest: analyze_interest(trace, sessions),
    }
}

/// Fig 2: AS and country popularity.
pub fn analyze_geo(trace: &Trace) -> GeoAnalysis {
    // One `(as << 32) | ip` key per transfer. Sorted, the keys run by AS in
    // ascending order and by IP within an AS, so one walk counts transfers
    // and distinct IPs per AS, and the count vectors never depend on the
    // trace's record order.
    let mut keys: Vec<u64> = trace
        .entries()
        .iter()
        .map(|e| u64::from(e.as_id.0) << 32 | u64::from(e.ip.0))
        .collect();
    keys.sort_unstable();
    let mut transfers_per_as = Vec::new();
    let mut ips_per_as = Vec::new();
    for run in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
        transfers_per_as.push(run.len() as u64);
        ips_per_as.push(run.chunk_by(|a, b| a == b).count() as u64);
    }
    let n_ases = transfers_per_as.len();
    let as_by_transfers = RankFrequency::from_counts(transfers_per_as).points();
    let as_by_ips = RankFrequency::from_counts(ips_per_as).points();

    // One slot per two-byte country code.
    let mut transfers_per_country = vec![0u64; 1 << 16];
    for e in trace.entries() {
        transfers_per_country[usize::from(u16::from_be_bytes(e.country.0))] += 1;
    }
    let total: u64 = transfers_per_country.iter().sum();
    let mut country_transfers: Vec<(String, f64)> = (0..=u16::MAX)
        .zip(&transfers_per_country)
        .filter(|&(_, &n)| n > 0)
        .map(|(code, &n)| {
            (
                std::str::from_utf8(&code.to_be_bytes())
                    .unwrap_or("??")
                    .to_string(),
                n as f64 / total.max(1) as f64,
            )
        })
        .collect();
    // Total order (share desc, then name) keeps the listing deterministic
    // even when two countries tie exactly.
    country_transfers.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    GeoAnalysis {
        as_by_transfers,
        as_by_ips,
        n_countries: country_transfers.len(),
        country_transfers,
        n_ases,
    }
}

/// Figs 3, 4, 8: concurrency and its temporal structure.
pub(crate) fn analyze_concurrency(sessions: &Sessions, horizon: u32) -> ClientConcurrency {
    let profile = ConcurrencyProfile::clients(sessions.all(), horizon);
    let samples = profile.samples();
    let marginal = Marginal::linear_binned(&samples, 100).unwrap_or_else(empty_marginal);
    let over_trace = profile.binned_mean(900);
    let weekly = over_trace.fold(7.0 * 86_400.0);
    let daily = over_trace.fold(86_400.0);

    // Fig 8: ACF of per-minute counts, up to 3.2 days of lag (the paper
    // plots ~4,500 minutes).
    let per_minute = profile.binned_mean(60);
    let max_lag = (per_minute.values.len().saturating_sub(1)).min(4_600);
    let acf_minutes = if per_minute.values.len() >= 2 {
        autocorrelation(&per_minute.values, max_lag)
    } else {
        vec![1.0]
    };
    // Peaks: smooth lightly to ignore minute-level jitter.
    let smoothed = lsw_stats::timeseries::moving_average(&acf_minutes, 10);
    let mut acf_peaks: Vec<usize> = lsw_stats::timeseries::find_peaks(&smoothed, 0.1);
    // Merge peaks closer than 4 hours; keep the strongest of each cluster.
    acf_peaks = merge_peaks(&smoothed, acf_peaks, 240);

    ClientConcurrency {
        marginal,
        over_trace,
        weekly,
        daily,
        acf_minutes,
        acf_peaks,
        peak: profile.peak(),
    }
}

fn merge_peaks(series: &[f64], peaks: Vec<usize>, min_gap: usize) -> Vec<usize> {
    let mut merged: Vec<usize> = Vec::new();
    for p in peaks {
        match merged.last_mut() {
            Some(last) if p - *last < min_gap => {
                if series[p] > series[*last] {
                    *last = p;
                }
            }
            _ => merged.push(p),
        }
    }
    merged
}

/// Figs 5/6 and the §3.4 Poisson-window test.
pub(crate) fn analyze_arrivals(sessions: &Sessions, horizon: u32, seed: u64) -> ArrivalAnalysis {
    let arrivals = sessions.arrival_times();
    let actual_iats = sessions.client_interarrivals();
    let interarrivals =
        Marginal::log_binned(&display_transform(&actual_iats), 10).unwrap_or_else(empty_marginal);

    // Fit 15-minute piecewise rates from the arrivals and regenerate
    // (Fig 6's experiment, §3.4).
    let window = lsw_stats::paper::PIECEWISE_WINDOW_SECS;
    let counts = lsw_stats::timeseries::bin_counts(&arrivals, window, f64::from(horizon));
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / window).collect();
    let has_arrivals = rates.iter().any(|&r| r > 0.0);
    let synthetic_iats: Vec<f64> = match PiecewiseRate::new(rates, window, false) {
        Ok(profile) if has_arrivals => {
            let process = PiecewisePoisson::new(profile);
            let mut rng = SeedStream::new(seed).rng("fig6-synthetic");
            let synth = process.generate(&mut rng, 0.0, f64::from(horizon));
            // Quantize to whole seconds first: the actual arrivals went
            // through the server's 1-second log resolution, so the synthetic
            // process must see the same measurement pipeline to be
            // comparable.
            synth
                .windows(2)
                .map(|w| w[1].floor() - w[0].floor())
                .collect()
        }
        // Empty or all-zero windows: no synthetic sample to compare.
        _ => Vec::new(),
    };
    let synthetic_display = display_transform(&synthetic_iats);
    let synthetic_interarrivals =
        Marginal::log_binned(&synthetic_display, 10).unwrap_or_else(empty_marginal);
    // ks_two_sample reports an error on empty input; surface that as NaN
    // (the report renders it as "no comparison possible").
    let ks_actual_vs_synthetic =
        ks_two_sample(&display_transform(&actual_iats), &synthetic_display).unwrap_or(TestResult {
            statistic: f64::NAN,
            p_value: f64::NAN,
        });

    // §3.4: within each 15-minute window, are per-minute counts Poisson?
    let per_minute = lsw_stats::timeseries::bin_counts(&arrivals, 60.0, f64::from(horizon));
    let mut tested = 0usize;
    let mut passed = 0usize;
    for chunk in per_minute.chunks(15) {
        if chunk.len() < 15 {
            continue;
        }
        let mean = chunk.iter().sum::<u64>() as f64 / 15.0;
        if mean < 3.0 {
            continue; // too sparse for the chi-square approximation
        }
        if let Ok(r) = poisson_dispersion_test(chunk) {
            tested += 1;
            if r.accepts(0.01) {
                passed += 1;
            }
        }
    }
    ArrivalAnalysis {
        interarrivals,
        synthetic_interarrivals,
        ks_actual_vs_synthetic,
        poisson_window_pass_fraction: if tested > 0 {
            passed as f64 / tested as f64
        } else {
            f64::NAN
        },
        poisson_windows_tested: tested,
    }
}

/// Fig 7: the client interest profile.
pub(crate) fn analyze_interest(trace: &Trace, sessions: &Sessions) -> InterestAnalysis {
    let transfers_rf = RankFrequency::from_counts(transfer_counts_per_client(trace));
    let sessions_rf = RankFrequency::from_counts(sessions.session_counts_per_client());
    // Fit the body: ranks whose counts are large enough that Poisson noise
    // and re-sort bias do not distort the slope. The stepped tail of ties
    // at small counts (visible in Fig 7) is excluded, as the paper's
    // fitted lines visibly do.
    let body = |rf: &RankFrequency| {
        let mut k = rf.n();
        for rank in 1..=rf.n() {
            if rf.count_at(rank).unwrap_or(0) < 10 {
                k = rank.saturating_sub(1);
                break;
            }
        }
        (k.max(20) as f64).min(rf.n() as f64)
    };
    let transfers_fit = fit_zipf_rank_frequency(&transfers_rf, Some(body(&transfers_rf))).ok();
    let sessions_fit = fit_zipf_rank_frequency(&sessions_rf, Some(body(&sessions_rf))).ok();
    InterestAnalysis {
        transfers_rank: transfers_rf.points(),
        transfers_fit,
        sessions_rank: sessions_rf.points(),
        sessions_fit,
    }
}

fn empty_marginal() -> Marginal {
    Marginal {
        // lsw::allow(L005): literal one-element slice is never empty
        summary: lsw_stats::empirical::Summary::from_data(&[0.0]).expect("non-empty"),
        frequency: Vec::new(),
        cdf: Vec::new(),
        ccdf: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_core::config::WorkloadConfig;
    use lsw_core::generator::Generator;
    use lsw_trace::session::SessionConfig;

    fn fixture() -> (Trace, Sessions) {
        let config = WorkloadConfig::paper().scaled(20_000, 2 * 86_400, 30_000);
        let trace = Generator::new(config, 33).unwrap().generate().render();
        let sessions = Sessions::identify(&trace, SessionConfig::default());
        (trace, sessions)
    }

    #[test]
    fn geo_structure() {
        let (trace, _) = fixture();
        let geo = analyze_geo(&trace);
        assert!(geo.n_ases > 10);
        assert!(geo.n_countries >= 2);
        // Rank-frequency shares descend.
        assert!(geo.as_by_transfers.windows(2).all(|w| w[0].1 >= w[1].1));
        // Brazil dominates.
        assert_eq!(geo.country_transfers[0].0, "BR");
        assert!(geo.country_transfers[0].1 > 0.8);
        // Shares sum to 1.
        let s: f64 = geo.country_transfers.iter().map(|c| c.1).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concurrency_has_diurnal_structure() {
        let (trace, sessions) = fixture();
        let c = analyze_concurrency(&sessions, trace.horizon());
        assert!(c.peak > 0);
        // Daily fold: the 4-11h trough is well below the evening peak.
        let daily = &c.daily.values;
        assert_eq!(daily.len(), 96);
        let trough: f64 = daily[24..36].iter().sum::<f64>() / 12.0; // 6–9h
        let peak: f64 = daily[80..92].iter().sum::<f64>() / 12.0; // 20–23h
        assert!(peak > 3.0 * trough, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn acf_shows_daily_period() {
        let (trace, sessions) = fixture();
        let c = analyze_concurrency(&sessions, trace.horizon());
        // 2 days of trace → lag 1440 exists and should be a strong peak.
        assert!(c.acf_minutes.len() > 1_440);
        assert!(
            c.acf_minutes[1_440] > 0.3,
            "acf at one day = {}",
            c.acf_minutes[1_440]
        );
        // A detected peak lies within ±60 min of the 1-day lag.
        assert!(
            c.acf_peaks.iter().any(|&p| (p as i64 - 1_440).abs() < 60),
            "peaks {:?}",
            c.acf_peaks
        );
    }

    #[test]
    fn arrivals_match_piecewise_poisson() {
        let (trace, sessions) = fixture();
        let a = analyze_arrivals(&sessions, trace.horizon(), 1);
        // The generator IS piecewise-Poisson, so the Fig 5/6 comparison
        // must come out similar (paper: "surprisingly similar").
        // D stays small but nonzero: Fig 5 uses *different-client*
        // interarrivals while Fig 6 regenerates all arrivals, and both are
        // second-quantized.
        assert!(
            a.ks_actual_vs_synthetic.statistic < 0.1,
            "KS D = {}",
            a.ks_actual_vs_synthetic.statistic
        );
        assert!(a.poisson_windows_tested > 20);
        assert!(
            a.poisson_window_pass_fraction > 0.9,
            "pass fraction {}",
            a.poisson_window_pass_fraction
        );
    }

    #[test]
    fn interest_profile_recovers_exponents() {
        let (trace, sessions) = fixture();
        let i = analyze_interest(&trace, &sessions);
        let sf = i.sessions_fit.expect("enough clients to fit");
        assert!(
            (sf.alpha - 0.4704).abs() < 0.2,
            "session interest alpha {} (fit over the low-noise body)",
            sf.alpha
        );
        let tf = i.transfers_fit.expect("enough clients to fit");
        // Transfers-per-client is interest convolved with transfers-per-
        // session: steeper than the session profile (paper: 0.72 vs 0.47).
        assert!(
            tf.alpha > sf.alpha,
            "transfer {} vs session {}",
            tf.alpha,
            sf.alpha
        );
    }
}
