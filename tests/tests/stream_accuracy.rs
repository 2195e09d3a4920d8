//! Accuracy validation of the streaming engine against the exact batch
//! pipeline on a full 28-day generated workload.
//!
//! Each estimator is held to its published bound:
//! - HyperLogLog distinct counts: ≤ 2% at 2^14 registers,
//! - log-bucket quantiles: ≤ 1% relative value error (7 subbucket bits),
//! - Zipf slopes: within 0.05 of the batch fit,
//! - order-exact statistics (session count, ON-time fit, transfers per
//!   session, intra-session interarrivals): equal to round-off,
//!
//! and the sketch memory must stay flat as the trace grows.

use lsw_analysis::characterize;
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_stream::{StreamAnalyzer, StreamConfig, StreamReport};
use lsw_trace::trace::Trace;
use lsw_trace::wms;

const DAY: u32 = 86_400;

fn generate(days: u32, clients: usize, sessions: usize, seed: u64) -> Trace {
    let config = WorkloadConfig::paper().scaled(clients, days * DAY, sessions);
    Generator::new(config, seed)
        .expect("valid config")
        .generate()
        .render()
}

fn stream(trace: &Trace, cfg: StreamConfig) -> StreamReport {
    let text = String::from_utf8(wms::format_log(trace.entries()).to_vec()).expect("ASCII log");
    let mut engine = StreamAnalyzer::new(cfg);
    engine.ingest_str(&text);
    engine.finalize()
}

fn rel_err(stream: f64, exact: f64) -> f64 {
    (stream - exact).abs() / exact.abs().max(f64::MIN_POSITIVE)
}

#[test]
fn stream_matches_batch_on_28_day_workload() {
    let trace = generate(28, 15_000, 40_000, 401);
    let batch = characterize(&trace, 1);
    let report = stream(
        &trace,
        StreamConfig {
            horizon: Some(trace.horizon()),
            ..StreamConfig::default()
        },
    );

    // Ingest accounting: everything the generator wrote must be kept.
    assert_eq!(report.accounting.kept, trace.len() as u64);
    assert_eq!(report.accounting.rejected(), 0);
    assert_eq!(report.accounting.malformed_lines, 0);
    assert_eq!(report.accounting.late_entries, 0);

    // Exact counters.
    assert_eq!(report.n_sessions, batch.session.n_sessions as u64);
    assert_eq!(report.summary.transfers, batch.summary.transfers as u64);
    assert_eq!(report.summary.client_ases, batch.summary.client_ases as u64);
    assert_eq!(report.summary.countries, batch.summary.countries as u64);
    assert_eq!(report.summary.objects, batch.summary.objects as u64);
    assert!(rel_err(report.summary.terabytes, batch.summary.terabytes()) < 1e-12);

    // HyperLogLog bounds: ≤ 2% at precision 14.
    assert!(
        rel_err(report.summary.users, batch.summary.users as f64) < 0.02,
        "users: HLL {} vs exact {}",
        report.summary.users,
        batch.summary.users
    );
    assert!(
        rel_err(report.summary.client_ips, batch.summary.client_ips as f64) < 0.02,
        "IPs: HLL {} vs exact {}",
        report.summary.client_ips,
        batch.summary.client_ips
    );

    // Zipf slopes within 0.05 of the batch fits.
    let zipf_pairs = [
        (
            "interest transfers",
            report.interest_transfers,
            batch.client.interest.transfers_fit,
        ),
        (
            "interest sessions",
            report.interest_sessions,
            batch.client.interest.sessions_fit,
        ),
        ("transfers/session", report.tps_fit, batch.session.tps_fit),
    ];
    for (name, streamed, exact) in zipf_pairs {
        let (s, e) = (streamed.expect(name), exact.expect(name));
        assert!(
            (s.alpha - e.alpha).abs() < 0.05,
            "{name}: stream alpha {} vs batch {}",
            s.alpha,
            e.alpha
        );
    }

    // Order-exact lognormal fits: identical multisets, so equality to
    // round-off (fixed-point quantum 2^-32 per observation).
    let on = report.on_fit.expect("ON fit");
    let on_batch = batch.session.on_fit.expect("batch ON fit");
    assert!(
        (on.mu - on_batch.mu).abs() < 1e-6,
        "{} vs {}",
        on.mu,
        on_batch.mu
    );
    assert!((on.sigma - on_batch.sigma).abs() < 1e-6);
    let intra = report.intra_iat_fit.expect("intra fit");
    let intra_batch = batch.session.intra_iat_fit.expect("batch intra fit");
    assert!((intra.mu - intra_batch.mu).abs() < 1e-6);
    assert!((intra.sigma - intra_batch.sigma).abs() < 1e-6);
    let len = report.transfer_length_fit.expect("length fit");
    let len_batch = batch.transfer.lengths.fit.expect("batch length fit");
    assert!((len.mu - len_batch.mu).abs() < 1e-6);
    assert!((len.sigma - len_batch.sigma).abs() < 1e-6);

    // Quantile sketch: ≤ 1% relative value error against the exact
    // empirical quantiles of the same display-transformed data.
    let mut lengths: Vec<f64> = trace
        .entries()
        .iter()
        .map(|e| e.display_duration())
        .collect();
    lengths.sort_by(f64::total_cmp);
    let exact_q = |q: f64| lengths[(q * (lengths.len() - 1) as f64).floor() as usize];
    let sq = report.transfer_length_quantiles.expect("length quantiles");
    for (q, est) in [
        (0.25, sq.p25),
        (0.50, sq.p50),
        (0.75, sq.p75),
        (0.95, sq.p95),
        (0.99, sq.p99),
    ] {
        let exact = exact_q(q);
        assert!(
            rel_err(est, exact) < 0.01,
            "p{}: sketch {est} vs exact {exact}",
            (q * 100.0) as u32
        );
    }

    // Sampled OFF-time mean: unbiased but sampled, loose bound.
    let off = report.off_mean.expect("OFF mean");
    let off_batch = batch.session.off_fit.expect("batch OFF fit").mean;
    assert!(
        rel_err(off, off_batch) < 0.20,
        "OFF mean: stream {off} vs batch {off_batch}"
    );

    // Two-regime IAT tail on the quantized CCDF: same regimes, looser
    // tolerance (bucket quantization moves individual points).
    let tail = report.iat_tail.expect("IAT tail");
    let tail_batch = batch.transfer.arrivals.tail.expect("batch tail");
    assert!((tail.alpha_short - tail_batch.alpha_short).abs() < 0.5);
    assert!((tail.alpha_long - tail_batch.alpha_long).abs() < 0.5);

    // Congestion fraction: same predicate over the same entries.
    assert!(
        (report.congestion_bound_fraction - batch.transfer.bandwidth.congestion_bound_fraction)
            .abs()
            < 1e-12
    );

    // Concurrency: the online sweep equals the batch difference-array peak.
    assert_eq!(report.concurrency.peak, batch.transfer.concurrency.peak);
}

#[test]
fn sketch_memory_stays_flat_as_trace_grows() {
    // 4x the trace days at the same rate: once the client sample is full
    // the sketch footprint must stay (nearly) flat — that is the whole
    // point of the streaming engine. A `sample_k` below both traces'
    // distinct clients fills the sample in both; a larger one holds every
    // client seen, and those grow with the trace.
    let (short_trace, long_trace) = (
        generate(2, 6_000, 8_000, 77),
        generate(8, 6_000, 32_000, 77),
    );
    let full = StreamConfig {
        sample_k: 1 << 10,
        ..StreamConfig::default()
    };
    let short = stream(&short_trace, full.clone());
    let long = stream(&long_trace, full);
    assert!(
        short.sample_fraction < 1.0 && long.sample_fraction < 1.0,
        "both samples must be full ({} and {} of the clients)",
        short.sample_fraction,
        long.sample_fraction
    );
    assert!(
        long.summary.transfers > 3 * short.summary.transfers,
        "long trace should have ~4x the transfers ({} vs {})",
        long.summary.transfers,
        short.summary.transfers
    );
    let (a, b) = (
        short.memory.sketch_bytes as f64,
        long.memory.sketch_bytes as f64,
    );
    assert!(
        b < 1.5 * a,
        "sketch bytes grew with trace length: {a} -> {b}"
    );
    // The default `sample_k` is above this trace's distinct clients, so
    // the sample is not full and follows them; `sample_k` still caps it.
    // The whole footprint stays under the slot table alone of a full
    // default sample: (2k).next_power_of_two() slots of 56 B.
    let k = StreamConfig::default().sample_k;
    let default_long = stream(&long_trace, StreamConfig::default());
    assert_eq!(default_long.sample_fraction, 1.0);
    let cap_table = ((2 * k).next_power_of_two() * 56) as u64;
    assert!(
        default_long.memory.sketch_bytes < cap_table,
        "sketch bytes {} reach the cap's table, {cap_table}",
        default_long.memory.sketch_bytes
    );
    // Absolute sanity: well under the in-RAM size of the long trace.
    assert!(long.memory.sketch_bytes < 64 << 20);
}

#[test]
fn memory_budget_shrinks_sketches() {
    let trace = generate(1, 4_000, 6_000, 5);
    let unbounded = stream(&trace, StreamConfig::default());
    // 64 KB: tight enough that both the client sample (k clamps to its
    // 1024 floor, below this trace's 4 000 distinct clients) and the HLL
    // precision actually shrink.
    let bounded = stream(&trace, StreamConfig::default().with_memory_budget(64 << 10));
    assert!(bounded.memory.sketch_bytes < unbounded.memory.sketch_bytes);
    assert!(bounded.memory.sketch_bytes < 1 << 20);
    // The budgeted engine still gets the headline counts right.
    assert_eq!(bounded.summary.transfers, unbounded.summary.transfers);
    assert_eq!(bounded.n_sessions, unbounded.n_sessions);
    assert!(rel_err(bounded.summary.users, unbounded.summary.users) < 0.05);
}

#[test]
fn realistic_workload_is_shard_count_invariant() {
    let trace = generate(1, 5_000, 9_000, 13);
    let mut reports = Vec::new();
    for shards in [1usize, 2, 8] {
        let mut r = stream(
            &trace,
            StreamConfig {
                shards,
                ..StreamConfig::default()
            },
        );
        r.shards = 0;
        reports.push(r.to_json());
    }
    assert_eq!(reports[0], reports[1], "1 vs 2 shards");
    assert_eq!(reports[0], reports[2], "1 vs 8 shards");
}
