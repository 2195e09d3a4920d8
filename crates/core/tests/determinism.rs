//! The tentpole guarantee: generation is bit-identical at every thread
//! count. One worker, two workers, eight workers — same sessions, same
//! transfers, same rendered log bytes.

use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_stats::dist::SamplerBackend;
use lsw_stats::par::Parallelism;
use lsw_trace::ltc::codec::crc32;
use lsw_trace::wms;

fn config() -> WorkloadConfig {
    WorkloadConfig::paper().scaled(3_000, 86_400, 9_000)
}

#[test]
fn workload_identical_across_thread_counts() {
    let base = Generator::new(config(), 5)
        .unwrap()
        .with_parallelism(Parallelism::fixed(1))
        .generate();
    assert!(base.len() > 5_000, "fixture too small to exercise chunking");
    for threads in [2, 3, 8] {
        let w = Generator::new(config(), 5)
            .unwrap()
            .with_parallelism(Parallelism::fixed(threads))
            .generate();
        assert_eq!(
            base.sessions(),
            w.sessions(),
            "sessions differ at {threads} threads"
        );
        assert_eq!(
            base.transfers(),
            w.transfers(),
            "transfers differ at {threads} threads"
        );
    }
}

#[test]
fn rendered_log_bytes_identical_across_thread_counts() {
    let render = |threads: usize| {
        let w = Generator::new(config(), 17)
            .unwrap()
            .with_parallelism(Parallelism::fixed(threads))
            .generate();
        wms::format_log(w.render().entries())
    };
    let base = render(1);
    assert_eq!(base, render(2));
    assert_eq!(base, render(8));
}

/// `(transfers, len, crc32)` of `format_log` on the seed-17 fixture above,
/// captured on the commit before the WMS writer stopped going through
/// `std::fmt`. A change to the log bytes on purpose updates these and says
/// so in CHANGES.md.
const GOLDEN_LOG: (usize, usize, u32) = (13_967, 1_200_139, 703_354_633);

#[test]
fn rendered_log_bytes_match_the_pinned_parent() {
    let trace = Generator::new(config(), 17)
        .unwrap()
        .with_parallelism(Parallelism::fixed(2))
        .generate()
        .render();
    let text = wms::format_log(trace.entries());
    assert_eq!(
        (trace.len(), text.len(), crc32(&text)),
        GOLDEN_LOG,
        "log bytes changed: (transfers, len, crc32) differ from the pinned parent"
    );
}

#[test]
fn alias_backend_identical_across_thread_counts() {
    // The O(1) alias sampler must uphold the same guarantee: for a fixed
    // backend, thread count never changes a byte.
    let gen = |threads: usize| {
        Generator::new(config(), 5)
            .unwrap()
            .with_sampler_backend(SamplerBackend::Alias)
            .unwrap()
            .with_parallelism(Parallelism::fixed(threads))
            .generate()
    };
    let base = gen(1);
    assert!(base.len() > 5_000, "fixture too small to exercise chunking");
    for threads in [2, 8] {
        let w = gen(threads);
        assert_eq!(
            base.sessions(),
            w.sessions(),
            "sessions differ at {threads} threads"
        );
        assert_eq!(
            base.transfers(),
            w.transfers(),
            "transfers differ at {threads} threads"
        );
    }
}

#[test]
fn backends_produce_distinct_but_equally_sized_workloads() {
    // Alias consumes two uniforms per interest draw, inverse-CDF one: the
    // same seed must therefore yield *different* concrete workloads (the
    // backend is part of the determinism contract, not a transparent
    // optimization) while preserving the arrival process, which is drawn
    // from an independent substream.
    let cdf = Generator::new(config(), 5).unwrap().generate();
    let alias = Generator::new(config(), 5)
        .unwrap()
        .with_sampler_backend(SamplerBackend::Alias)
        .unwrap()
        .generate();
    assert_eq!(cdf.sessions().len(), alias.sessions().len());
    assert_ne!(cdf.transfers(), alias.transfers());
}

#[test]
fn more_workers_than_arrivals_is_fine() {
    // Degenerate chunking: far more workers than sessions.
    let config = WorkloadConfig::paper().scaled(50, 3_600, 20);
    let seq = Generator::new(config.clone(), 3)
        .unwrap()
        .with_parallelism(Parallelism::fixed(1))
        .generate();
    let wide = Generator::new(config, 3)
        .unwrap()
        .with_parallelism(Parallelism::fixed(64))
        .generate();
    assert_eq!(seq.transfers(), wide.transfers());
    assert_eq!(seq.sessions(), wide.sessions());
}
