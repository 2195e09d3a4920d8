//! Property-based tests for the characterizer: any trace the pipeline can
//! produce must yield a structurally sound report.

use lsw_analysis::client_layer::{analyze_geo, GeoAnalysis};
use lsw_analysis::marginal::{display_transform, Marginal};
use lsw_analysis::{characterize_with, session_layer};
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_stats::empirical::{RankFrequency, Summary};
use lsw_stats::par::Parallelism;
use lsw_trace::event::LogEntryBuilder;
use lsw_trace::ids::{AsId, CountryCode, Ipv4Addr};
use lsw_trace::session::{transfer_counts_per_client, SessionConfig, Sessions};
use lsw_trace::{ClientId, LogEntry, Trace};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn report_structurally_sound(
        n_clients in 300usize..3_000,
        sessions in 500usize..4_000,
        seed in 0u64..500,
        timeout in 300.0..3_000.0f64,
    ) {
        let config = WorkloadConfig::paper().scaled(n_clients, 86_400, sessions);
        let trace = Generator::new(config, seed).unwrap().generate().render();
        let report = characterize_with(&trace, SessionConfig { timeout }, seed);

        // Table 1 consistency.
        prop_assert_eq!(report.summary.transfers, trace.len());
        prop_assert!(report.summary.users <= n_clients);
        prop_assert!(report.session.n_sessions >= 1);
        prop_assert!(report.session.n_sessions <= trace.len());

        // Marginals: CDF endpoints and frequency normalization.
        for m in [
            &report.session.on_times,
            &report.session.intra_iat,
            &report.transfer.lengths.marginal,
            &report.client.arrivals.interarrivals,
        ] {
            if m.summary.n > 1 {
                let last = m.cdf.last().map(|&(_, p)| p).unwrap_or(1.0);
                prop_assert!((last - 1.0).abs() < 1e-9, "CDF must end at 1");
                let first_ccdf = m.ccdf.first().map(|&(_, p)| p).unwrap_or(1.0);
                prop_assert!((first_ccdf - 1.0).abs() < 1e-9, "CCDF must start at 1");
                let mass: f64 = m.frequency.iter().map(|&(_, f)| f).sum();
                prop_assert!(mass <= 1.0 + 1e-9);
            }
        }

        // Concurrency: peak consistent between layers; daily fold has
        // exactly 96 bins for a 1-day trace.
        prop_assert_eq!(report.client.concurrency.daily.values.len(), 96);
        prop_assert!(report.transfer.concurrency.peak as usize <= trace.len());

        // Timeout sweep monotone.
        let sweep = &report.session.timeout_sweep;
        prop_assert!(sweep.points.windows(2).all(|w| w[0].1 >= w[1].1));

        // Geo shares normalized.
        let share: f64 = report.client.geo.country_transfers.iter().map(|c| c.1).sum();
        prop_assert!((share - 1.0).abs() < 1e-9);

        // Headline renders without panicking and mentions the trace size.
        let text = report.headline();
        prop_assert!(text.contains("Table 1"));
    }

    #[test]
    fn display_transform_is_monotone_and_positive(
        data in prop::collection::vec(0.0..1e6f64, 1..200),
    ) {
        let out = display_transform(&data);
        prop_assert!(out.iter().all(|&x| x >= 1.0));
        for (a, b) in data.iter().zip(&out) {
            prop_assert!(b >= a, "transform must not shrink values");
            prop_assert!(*b <= a + 1.0 + 1e-9);
        }
    }

    #[test]
    fn marginal_handles_any_positive_data(
        data in prop::collection::vec(0.001..1e9f64, 1..500),
        per_decade in 1usize..20,
    ) {
        let m = Marginal::log_binned(&data, per_decade).unwrap();
        prop_assert_eq!(m.summary.n, data.len());
        // All frequencies positive, mass conserved.
        prop_assert!(m.frequency.iter().all(|&(_, f)| f > 0.0));
        let mass: f64 = m.frequency.iter().map(|&(_, f)| f).sum();
        prop_assert!((mass - 1.0).abs() < 1e-6, "mass {}", mass);
        // The summary read off the marginal's one sort is the standalone
        // summary, bit for bit, at either binning.
        let alone = summary_bits(&Summary::from_data(&data).unwrap());
        prop_assert_eq!(summary_bits(&m.summary), alone);
        let linear = Marginal::linear_binned(&data, per_decade).unwrap();
        prop_assert_eq!(summary_bits(&linear.summary), alone);
    }

    #[test]
    fn paper_timeout_sweep_matches_oracle_on_generated_traces(
        seed in 0u64..200,
    ) {
        let config = WorkloadConfig::paper().scaled(800, 43_200, 1_500);
        let trace = Generator::new(config, seed).unwrap().generate().render();
        assert_sweep_matches_oracle(&trace, &session_layer::TIMEOUT_SWEEP);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Few clients, ASes and IPs, with the extremes of each id space mixed
    // in, so one IP shows up under several ASes and one AS holds many IPs;
    // country bytes are arbitrary, so some are not UTF-8 and render "??".
    #[test]
    fn per_client_and_geo_counts_match_the_ordered_map_oracles(
        transfers in prop::collection::vec(
            (
                prop_oneof![0u32..8, Just(u32::MAX)],
                0u32..50_000,
                prop_oneof![0u16..4, Just(u16::MAX)],
                prop_oneof![0u32..6, Just(u32::MAX), 0u32..=u32::MAX],
                prop_oneof![
                    Just(*b"BR"),
                    Just(*b"US"),
                    (0u8..=255, 0u8..=255).prop_map(|(a, b)| [a, b]),
                ],
            ),
            0..120,
        ),
    ) {
        let entries = transfers
            .iter()
            .map(|&(client, start, as_id, ip, country)| {
                LogEntryBuilder::new()
                    .span(start, 30)
                    .client(ClientId(client))
                    .origin(Ipv4Addr(ip), AsId(as_id), CountryCode(country))
                    .build()
            })
            .collect();
        let trace = Trace::from_entries(entries, 86_400);
        let sessions =
            Sessions::identify_with(&trace, SessionConfig::default(), Parallelism::sequential());
        prop_assert_eq!(
            transfer_counts_per_client(&trace),
            transfers_per_client_by_map(&trace)
        );
        prop_assert_eq!(
            sessions.session_counts_per_client(),
            sessions_per_client_by_map(&sessions)
        );
        assert_geo_bits_eq(&analyze_geo(&trace), &geo_by_maps(&trace));
    }

    #[test]
    fn timeout_sweep_matches_per_timeout_oracle(
        // (client, start, duration): a handful of clients so runs are long
        // and overlap; durations mix zero-length, short and long (long ones
        // cover later starts, so the running maximum stop matters); a few
        // starts sit at the top of the u32 range, where `stop` saturates.
        // Random starts make the input order a shuffle of the canonical one.
        transfers in prop::collection::vec(
            (
                0u32..6,
                prop_oneof![0u32..20_000, (u32::MAX - 50)..u32::MAX],
                prop_oneof![Just(0u32), 0u32..40, 0u32..5_000],
            ),
            0..80,
        ),
        duplicates in prop::collection::vec(0usize..1_000, 0..6),
        // Unsorted, possibly repeated timeouts: zero, fractional, integral.
        sampled in prop::collection::vec(
            prop_oneof![Just(0.0f64), 0.0..6_000.0f64, (0u32..6_000).prop_map(f64::from)],
            0..10,
        ),
        gap_picks in prop::collection::vec(0usize..1_000, 0..6),
    ) {
        let mut entries: Vec<LogEntry> = transfers
            .iter()
            .map(|&(client, start, duration)| {
                LogEntryBuilder::new()
                    .span(start, duration)
                    .client(ClientId(client))
                    .build()
            })
            .collect();
        for &d in &duplicates {
            if !entries.is_empty() {
                entries.push(entries[d % entries.len()]);
            }
        }
        let trace = Trace::from_entries(entries, u32::MAX);

        // Every silent gap that can split a session is an OFF time at
        // T = 0; sweeping exactly those values hits `gap == T`, and half a
        // second either side brackets it.
        let gaps = Sessions::identify_with(
            &trace,
            SessionConfig { timeout: 0.0 },
            Parallelism::sequential(),
        )
        .off_times();
        let mut timeouts = sampled;
        for &g in &gap_picks {
            if !gaps.is_empty() {
                let gap = gaps[g % gaps.len()];
                timeouts.extend([gap, gap - 0.5, gap + 0.5]);
            }
        }
        assert_sweep_matches_oracle(&trace, &timeouts);
    }
}

/// The differential oracle for Fig 9: what the sweep computed before it
/// became one pass — a full sessionization per timeout. It lives here only.
fn sessions_by_sessionizing(trace: &Trace, timeout: f64) -> usize {
    Sessions::identify_with(trace, SessionConfig { timeout }, Parallelism::sequential()).len()
}

fn assert_sweep_matches_oracle(trace: &Trace, timeouts: &[f64]) {
    let sweep = session_layer::sweep_timeouts(trace, timeouts);
    assert_eq!(sweep.points.len(), timeouts.len());
    for (&(t, n), &asked) in sweep.points.iter().zip(timeouts) {
        assert_eq!(t, asked, "points must keep the order asked for");
        assert_eq!(n, sessions_by_sessionizing(trace, t), "T_o = {t}");
    }
}

/// Every field of a summary as bits, so `NaN`s compare too.
fn summary_bits(s: &Summary) -> Vec<u64> {
    let floats = [
        s.mean, s.variance, s.std_dev, s.cv, s.min, s.max, s.median, s.p25, s.p75, s.p95, s.p99,
        s.skewness,
    ];
    std::iter::once(s.n as u64)
        .chain(floats.iter().map(|x| x.to_bits()))
        .collect()
}

/// The ordered-map counts that `transfer_counts_per_client` computed before
/// it sorted ids: the oracle for it. It lives here only.
fn transfers_per_client_by_map(trace: &Trace) -> Vec<u64> {
    let mut counts: BTreeMap<ClientId, u64> = BTreeMap::new();
    for e in trace.entries() {
        *counts.entry(e.client).or_insert(0) += 1;
    }
    counts.into_values().collect()
}

/// The ordered-map body of `Sessions::session_counts_per_client`: the
/// oracle for it. It lives here only.
fn sessions_per_client_by_map(sessions: &Sessions) -> Vec<u64> {
    let mut counts: BTreeMap<ClientId, u64> = BTreeMap::new();
    for s in sessions.all() {
        *counts.entry(s.client).or_insert(0) += 1;
    }
    counts.into_values().collect()
}

/// The ordered-map body of `analyze_geo` (Fig 2), before it sorted packed
/// `(AS, IP)` keys and counted countries in a flat table: the oracle for
/// it. It lives here only.
fn geo_by_maps(trace: &Trace) -> GeoAnalysis {
    let mut transfers_per_as: BTreeMap<AsId, u64> = BTreeMap::new();
    let mut ips_per_as: BTreeMap<AsId, BTreeSet<Ipv4Addr>> = BTreeMap::new();
    let mut transfers_per_country: BTreeMap<[u8; 2], u64> = BTreeMap::new();
    for e in trace.entries() {
        *transfers_per_as.entry(e.as_id).or_insert(0) += 1;
        ips_per_as.entry(e.as_id).or_default().insert(e.ip);
        *transfers_per_country.entry(e.country.0).or_insert(0) += 1;
    }
    let n_ases = transfers_per_as.len();
    let as_by_transfers =
        RankFrequency::from_counts(transfers_per_as.into_values().collect()).points();
    let as_by_ips =
        RankFrequency::from_counts(ips_per_as.values().map(|s| s.len() as u64).collect()).points();
    let total: u64 = transfers_per_country.values().sum();
    let mut country_transfers: Vec<(String, f64)> = transfers_per_country
        .into_iter()
        .map(|(c, n)| {
            (
                std::str::from_utf8(&c).unwrap_or("??").to_string(),
                n as f64 / total.max(1) as f64,
            )
        })
        .collect();
    country_transfers.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    GeoAnalysis {
        as_by_transfers,
        as_by_ips,
        n_countries: country_transfers.len(),
        country_transfers,
        n_ases,
    }
}

fn assert_geo_bits_eq(got: &GeoAnalysis, want: &GeoAnalysis) {
    let bits = |points: &[(f64, f64)]| -> Vec<(u64, u64)> {
        points
            .iter()
            .map(|&(x, y)| (x.to_bits(), y.to_bits()))
            .collect()
    };
    let countries = |g: &GeoAnalysis| -> Vec<(String, u64)> {
        g.country_transfers
            .iter()
            .map(|(c, s)| (c.clone(), s.to_bits()))
            .collect()
    };
    assert_eq!(bits(&got.as_by_transfers), bits(&want.as_by_transfers));
    assert_eq!(bits(&got.as_by_ips), bits(&want.as_by_ips));
    assert_eq!(countries(got), countries(want));
    assert_eq!(got.n_ases, want.n_ases);
    assert_eq!(got.n_countries, want.n_countries);
}

#[test]
fn counts_and_geo_of_the_empty_trace_match_the_oracles() {
    let trace = Trace::from_entries(Vec::new(), 86_400);
    let sessions = Sessions::identify(&trace, SessionConfig::default());
    assert!(transfer_counts_per_client(&trace).is_empty());
    assert!(sessions.session_counts_per_client().is_empty());
    let geo = analyze_geo(&trace);
    assert_geo_bits_eq(&geo, &geo_by_maps(&trace));
    assert_eq!((geo.n_ases, geo.n_countries), (0, 0));
}

#[test]
fn timeout_sweep_of_the_empty_trace_is_all_zero() {
    let trace = Trace::from_entries(Vec::new(), 86_400);
    assert_sweep_matches_oracle(&trace, &[0.0, 1_500.0]);
    let sweep = session_layer::sweep_timeouts(&trace, &[0.0, 1_500.0]);
    assert_eq!(sweep.points, vec![(0.0, 0), (1_500.0, 0)]);
}
