//! The tentpole guarantee: generation is bit-identical at every thread
//! count. One worker, two workers, eight workers — same sessions, same
//! transfers, same rendered log bytes.

use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_core::workload::Workload;
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
fn interest_exponent_changes_only_the_clients() {
    // The client pick is one uniform at the head of each session's
    // substream, so a different interest exponent reassigns clients and
    // leaves every arrival, transfer count, time, object and duration as
    // it was.
    let uniform = WorkloadConfig {
        interest_alpha: 0.0,
        ..config()
    };
    let zipf = Generator::new(config(), 5).unwrap().generate();
    let flat = Generator::new(uniform, 5).unwrap().generate();
    let shape = |w: &Workload| -> Vec<(f64, u32)> {
        w.sessions()
            .iter()
            .map(|s| (s.start, s.n_transfers))
            .collect()
    };
    assert_eq!(shape(&zipf), shape(&flat));
    assert_eq!(zipf.transfers().len(), flat.transfers().len());
    let mut moved = 0;
    for (a, b) in zipf.transfers().iter().zip(flat.transfers()) {
        let mut b = *b;
        moved += usize::from(b.client != a.client);
        b.client = a.client;
        assert_eq!(*a, b);
    }
    assert!(moved > 0, "no transfer changed client");
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
