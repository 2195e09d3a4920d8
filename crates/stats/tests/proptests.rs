//! Property-based tests for the statistical substrate.
//!
//! These check structural invariants over randomized parameters and data:
//! CDF monotonicity and range, sampler support,
//! histogram conservation, ECDF consistency, and fit round-trips.

use lsw_stats::dist::{
    Continuous, Discrete, Exponential, Geometric, LogNormal, Pareto, Poisson, Sample, Weibull,
    Zeta, ZipfTable,
};
use lsw_stats::empirical::{Binning, Ecdf, Histogram, RankFrequency, Summary};
use lsw_stats::fit::{fit_exponential, fit_lognormal, linear_regression};
use lsw_stats::par::{merge_sorted_runs, F64Key};
use lsw_stats::rng::SeedStream;
use lsw_stats::timeseries::{autocorrelation, bin_counts, fold_periodic};
use proptest::prelude::*;

/// Checks the Continuous contract on a grid: CDF in [0,1], monotone,
/// pdf non-negative.
fn check_continuous<D: Continuous>(d: &D, xs: &[f64]) {
    let mut prev = 0.0;
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    for &x in &sorted {
        let c = d.cdf(x);
        assert!((0.0..=1.0).contains(&c), "cdf({x}) = {c} out of range");
        assert!(c + 1e-12 >= prev, "cdf not monotone at {x}: {c} < {prev}");
        assert!(d.pdf(x) >= 0.0, "pdf({x}) negative");
        prev = c;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lognormal_contract(mu in -3.0..8.0f64, sigma in 0.1..3.0f64) {
        let d = LogNormal::new(mu, sigma).unwrap();
        let xs: Vec<f64> = (-20..=20).map(|i| (mu + sigma * i as f64 / 5.0).exp()).collect();
        check_continuous(&d, &xs);
    }

    #[test]
    fn exponential_contract(mean in 0.01..1e7f64) {
        let d = Exponential::with_mean(mean).unwrap();
        let xs: Vec<f64> = (0..40).map(|i| mean * i as f64 / 10.0).collect();
        check_continuous(&d, &xs);
    }

    #[test]
    fn pareto_contract(xm in 0.1..100.0f64, alpha in 0.3..5.0f64) {
        let d = Pareto::new(xm, alpha).unwrap();
        let xs: Vec<f64> = (0..40).map(|i| xm * (1.0 + i as f64 / 4.0)).collect();
        check_continuous(&d, &xs);
    }

    #[test]
    fn weibull_contract(lambda in 0.1..1e4f64, k in 0.3..4.0f64) {
        let d = Weibull::new(lambda, k).unwrap();
        let xs: Vec<f64> = (0..40).map(|i| lambda * i as f64 / 10.0).collect();
        check_continuous(&d, &xs);
    }

    #[test]
    fn zipf_table_pmf_normalizes(n in 1u64..500, s in 0.0..3.0f64) {
        let d = ZipfTable::new(n, s).unwrap();
        let total: f64 = (1..=n).map(|k| d.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
        // Monotone non-increasing pmf.
        for k in 1..n {
            prop_assert!(d.pmf(k) + 1e-12 >= d.pmf(k + 1));
        }
    }

    #[test]
    fn zipf_samples_in_support(n in 1u64..200, s in 0.0..3.0f64, seed in 0u64..1000) {
        let d = ZipfTable::new(n, s).unwrap();
        let mut rng = SeedStream::new(seed).rng("pt-zipf");
        for _ in 0..64 {
            let k = d.sample_k(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    #[test]
    fn zeta_samples_positive(alpha in 1.05..6.0f64, seed in 0u64..1000) {
        let d = Zeta::new(alpha).unwrap();
        let mut rng = SeedStream::new(seed).rng("pt-zeta");
        for _ in 0..32 {
            prop_assert!(d.sample_k(&mut rng) >= 1);
        }
    }

    #[test]
    fn poisson_cdf_monotone(lambda in 0.1..200.0f64) {
        let d = Poisson::new(lambda).unwrap();
        let mut prev = 0.0;
        for k in 0..((lambda as u64 + 10) * 2) {
            let c = d.cdf_k(k);
            prop_assert!(c + 1e-9 >= prev);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn geometric_mean_round_trip(mean in 1.0..100.0f64) {
        let d = Geometric::with_mean(mean).unwrap();
        prop_assert!((d.mean() - mean).abs() < 1e-9);
    }

    #[test]
    fn ecdf_bounds_and_monotone(data in prop::collection::vec(-1e6..1e6f64, 1..200)) {
        let e = Ecdf::new(data.clone());
        let mut xs = data.clone();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &xs {
            let c = e.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= prev);
            prev = c;
        }
        prop_assert_eq!(e.cdf(f64::MAX), 1.0);
        // CCDF(min) covers everything.
        prop_assert_eq!(e.ccdf_ge(xs[0]), 1.0);
    }

    #[test]
    fn histogram_conserves_observations(
        data in prop::collection::vec(-100.0..100.0f64, 0..300),
        nbins in 1usize..30,
    ) {
        let h = Histogram::from_data(Binning::Linear { lo: -50.0, hi: 50.0, nbins }, &data);
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), data.len() as u64);
        prop_assert_eq!(h.total(), data.len() as u64);
    }

    #[test]
    fn rank_frequency_is_sorted(counts in prop::collection::vec(0u64..1000, 0..100)) {
        let rf = RankFrequency::from_counts(counts.clone());
        let pts = rf.count_points();
        for w in pts.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "not descending");
        }
        prop_assert_eq!(rf.total(), counts.iter().sum::<u64>());
    }

    #[test]
    fn summary_quantiles_ordered(data in prop::collection::vec(-1e4..1e4f64, 1..300)) {
        let s = Summary::from_data(&data).unwrap();
        prop_assert!(s.min <= s.p25 + 1e-9);
        prop_assert!(s.p25 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p75 + 1e-9);
        prop_assert!(s.p75 <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.p99 + 1e-9);
        prop_assert!(s.p99 <= s.max + 1e-9);
        prop_assert!(s.variance >= 0.0);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn fold_preserves_mean(series in prop::collection::vec(0.0..1e3f64, 12..240)) {
        // Folding a series whose length is a multiple of the period keeps
        // the global mean.
        let len = series.len() - series.len() % 12;
        let series = &series[..len];
        let folded = fold_periodic(series, 1.0, 12.0);
        let m1: f64 = series.iter().sum::<f64>() / series.len() as f64;
        let m2: f64 = folded.iter().sum::<f64>() / folded.len() as f64;
        prop_assert!((m1 - m2).abs() < 1e-6 * (1.0 + m1.abs()));
    }

    // Lags straddle the 8-lag blocks (one short of, at and one past each
    // of the first two block ends) and the series end (n − 2, n − 1, and
    // past it, which clamps); a constant series takes the zero-variance
    // branch.
    #[test]
    fn acf_matches_the_direct_loop_bit_for_bit(
        series in prop::collection::vec(-1e3..1e3f64, 2..=200),
        constant in prop_oneof![Just(false), Just(true)],
    ) {
        let n = series.len();
        let series = if constant { vec![series[0]; n] } else { series };
        for max_lag in [0, 1, 7, 8, 9, 15, 16, n - 2, n - 1, n, n + 9] {
            let acf = autocorrelation(&series, max_lag);
            prop_assert!((acf[0] - 1.0).abs() < 1e-9 || acf[0] == 1.0);
            for &r in &acf {
                prop_assert!(r.abs() <= 1.0 + 1e-6);
            }
            assert_acf_matches_direct_loop(&series, max_lag);
        }
    }

    #[test]
    fn bin_counts_conserve(times in prop::collection::vec(0.0..100.0f64, 0..300)) {
        let counts = bin_counts(&times, 7.0, 100.0);
        prop_assert_eq!(counts.iter().sum::<u64>(), times.len() as u64);
    }

    #[test]
    fn lognormal_fit_round_trip(mu in 0.0..7.0f64, sigma in 0.3..2.0f64, seed in 0u64..100) {
        let d = LogNormal::new(mu, sigma).unwrap();
        let mut rng = SeedStream::new(seed).rng("pt-fit");
        let xs = d.sample_n(&mut rng, 4_000);
        let f = fit_lognormal(&xs).unwrap();
        prop_assert!((f.mu - mu).abs() < 0.15, "mu {} vs {}", f.mu, mu);
        prop_assert!((f.sigma - sigma).abs() < 0.15, "sigma {} vs {}", f.sigma, sigma);
    }

    #[test]
    fn exponential_fit_round_trip(mean in 0.1..1e6f64, seed in 0u64..100) {
        let d = Exponential::with_mean(mean).unwrap();
        let mut rng = SeedStream::new(seed).rng("pt-fit2");
        let xs = d.sample_n(&mut rng, 4_000);
        let f = fit_exponential(&xs).unwrap();
        prop_assert!((f.mean / mean - 1.0).abs() < 0.1);
    }

    #[test]
    fn regression_recovers_line(m in -10.0..10.0f64, b in -100.0..100.0f64) {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, m * i as f64 + b)).collect();
        let (slope, intercept, r2) = linear_regression(&pts).unwrap();
        prop_assert!((slope - m).abs() < 1e-6);
        prop_assert!((intercept - b).abs() < 1e-4);
        if m != 0.0 {
            prop_assert!(r2 > 0.999);
        }
    }

    #[test]
    fn seed_stream_deterministic(seed in 0u64..u64::MAX, label in "[a-z]{1,12}") {
        let s = SeedStream::new(seed);
        prop_assert_eq!(s.seed(&label), s.seed(&label));
        prop_assert_eq!(s.seed_indexed(&label, 7), s.seed_indexed(&label, 7));
    }

    // The parallel-generation combiner: a k-way merge of locally sorted
    // runs must equal a global *stable* sort of the runs' concatenation.
    // Keys are drawn from a tiny range so ties are pervasive; each element
    // is tagged with its concatenation position, which a stable sort
    // preserves and the merge must too.
    #[test]
    fn kway_merge_equals_global_stable_sort(
        raw in prop::collection::vec(prop::collection::vec(0u8..6, 0..40), 0..8),
    ) {
        let mut tag = 0usize;
        let runs: Vec<Vec<(u8, usize)>> = raw
            .into_iter()
            .map(|run| {
                let mut run: Vec<(u8, usize)> = run
                    .into_iter()
                    .map(|k| {
                        tag += 1;
                        (k, tag)
                    })
                    .collect();
                run.sort_by_key(|&(k, _)| k);
                run
            })
            .collect();
        let mut expected: Vec<(u8, usize)> = runs.concat();
        expected.sort_by_key(|&(k, _)| k);
        let merged = merge_sorted_runs(runs, |&(k, _)| k);
        prop_assert_eq!(merged, expected);
    }

    // Same guarantee over f64 keys through F64Key, the exact shape the
    // generator uses for transfer starts.
    #[test]
    fn kway_merge_f64_keys(
        raw in prop::collection::vec(prop::collection::vec(0.0..10.0f64, 0..40), 1..6),
    ) {
        let runs: Vec<Vec<f64>> = raw
            .into_iter()
            .map(|mut run| {
                run.sort_by(f64::total_cmp);
                run
            })
            .collect();
        let mut expected: Vec<f64> = runs.concat();
        expected.sort_by(f64::total_cmp);
        let merged = merge_sorted_runs(runs, |&x| F64Key(x));
        prop_assert_eq!(merged, expected);
    }
}

/// The direct double loop `autocorrelation` computed before it was blocked:
/// the bit-exact oracle for the blocked version. It lives here only.
fn acf_direct(series: &[f64], max_lag: usize) -> Vec<f64> {
    let n = series.len();
    let max_lag = max_lag.min(n - 1);
    let mean = series.iter().sum::<f64>() / n as f64;
    let denom: f64 = series.iter().map(|&x| (x - mean).powi(2)).sum();
    if denom == 0.0 {
        let mut out = vec![0.0; max_lag + 1];
        out[0] = 1.0;
        return out;
    }
    let mut out = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let mut num = 0.0;
        for t in 0..n - lag {
            num += (series[t] - mean) * (series[t + lag] - mean);
        }
        out.push(num / denom);
    }
    out
}

fn assert_acf_matches_direct_loop(series: &[f64], max_lag: usize) {
    let got = autocorrelation(series, max_lag);
    let want = acf_direct(series, max_lag);
    assert_eq!(
        got.len(),
        want.len(),
        "n = {}, max_lag = {max_lag}",
        series.len()
    );
    for (lag, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "lag {lag}: {g} vs {w} (n = {}, max_lag = {max_lag})",
            series.len()
        );
    }
}

/// The Fig 8 shape: a week of per-minute client counts (10,081 minutes)
/// with a daily cycle and noise, at the 4,600 lags the client layer asks
/// for.
#[test]
fn acf_of_a_week_of_minutes_matches_the_direct_loop() {
    let mut x = 12_345u64;
    let series: Vec<f64> = (0..10_081)
        .map(|minute| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let noise = (x >> 11) as f64 / (1u64 << 53) as f64;
            let day = 2.0 * std::f64::consts::PI * f64::from(minute) / 1_440.0;
            (400.0 + 300.0 * day.sin() + 40.0 * noise).round()
        })
        .collect();
    assert_acf_matches_direct_loop(&series, 4_600);
}
