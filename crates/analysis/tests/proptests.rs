//! Property-based tests for the characterizer: any trace the pipeline can
//! produce must yield a structurally sound report.

use lsw_analysis::marginal::{display_transform, Marginal};
use lsw_analysis::{characterize_with, session_layer};
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_stats::par::Parallelism;
use lsw_trace::event::LogEntryBuilder;
use lsw_trace::session::{SessionConfig, Sessions};
use lsw_trace::{ClientId, LogEntry, Trace};
use proptest::prelude::*;

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

#[test]
fn timeout_sweep_of_the_empty_trace_is_all_zero() {
    let trace = Trace::from_entries(Vec::new(), 86_400);
    assert_sweep_matches_oracle(&trace, &[0.0, 1_500.0]);
    let sweep = session_layer::sweep_timeouts(&trace, &[0.0, 1_500.0]);
    assert_eq!(sweep.points, vec![(0.0, 0), (1_500.0, 0)]);
}
