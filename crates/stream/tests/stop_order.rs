//! A stop-ordered log characterizes exactly like its start-ordered twin.
//!
//! A media server writes each log line when the transfer *stops*, so a
//! real log is stop-ordered, while the generator writes start order. In
//! stop order the largest start seen so far does not bound the starts
//! still to come: an early-starting long transfer is logged after many
//! short ones. The engine must notice that and hold a look-ahead window
//! instead of releasing below the largest start, or it clamps the long
//! transfers as late entries and the order-dependent statistics
//! (concurrency, sessions, interarrivals) drift.
//!
//! The tests render one generated trace in both orders and require the
//! reports to be byte-identical except the reorder buffer's high-water
//! mark. The text side runs at several chunk sizes, since the release
//! cadence follows the chunking.
//!
//! The engines declare the trace's longest duration upfront
//! (`preset_lookahead`). Without it, an entry whose duration beats every
//! duration released before it can still arrive below a released start,
//! under any release rule; such entries are clamped and counted
//! (`late_entries`), and small chunks release often enough to meet them.

use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_stream::{StreamAnalyzer, StreamConfig, StreamReport};
use lsw_trace::{ltc, wms, LogEntry};

const DAY: u32 = 86_400;

/// The generated trace in start order, and the same entries stably
/// sorted by stop time (`x-timestamp`).
fn both_orders() -> (Vec<LogEntry>, Vec<LogEntry>) {
    let config = WorkloadConfig::paper().scaled(4_000, 2 * DAY, 8_000);
    let start_ordered = Generator::new(config, 29)
        .expect("valid config")
        .generate()
        .render()
        .entries()
        .to_vec();
    let mut stop_ordered = start_ordered.clone();
    stop_ordered.sort_by_key(|e| e.timestamp);
    assert_ne!(
        start_ordered, stop_ordered,
        "the trace must have transfers that stop out of start order"
    );
    (start_ordered, stop_ordered)
}

fn max_duration(entries: &[LogEntry]) -> u32 {
    entries.iter().map(|e| e.duration).max().unwrap_or(0)
}

/// The report JSON without the buffer high-water mark, which legitimately
/// differs: start order holds one start cohort, stop order a window.
fn neutral(mut r: StreamReport) -> String {
    assert_eq!(r.accounting.late_entries, 0, "no entry may arrive late");
    r.memory.peak_heap_entries = 0;
    r.to_json()
}

fn text_report(entries: &[LogEntry], chunk_bytes: usize) -> String {
    let text = wms::format_log(entries);
    let mut engine = StreamAnalyzer::new(StreamConfig {
        chunk_bytes,
        ..StreamConfig::default()
    });
    engine.preset_lookahead(max_duration(entries));
    engine
        .ingest_read(std::io::Cursor::new(&text[..]))
        .expect("in-memory read");
    neutral(engine.finalize())
}

fn ltc_report(entries: &[LogEntry]) -> StreamReport {
    let mut image = Vec::new();
    let mut writer = ltc::LtcWriter::with_block_records(&mut image, 1024).expect("ltc writer");
    for e in entries {
        writer.push(e).expect("ltc push");
    }
    writer.finish().expect("ltc finish");
    let mut engine = StreamAnalyzer::new(StreamConfig::default());
    engine.preset_lookahead(max_duration(entries));
    engine.ingest_ltc_bytes(&image).expect("in-memory ltc");
    engine.finalize()
}

#[test]
fn stop_ordered_text_matches_start_ordered_at_every_chunk_size() {
    let (start_ordered, stop_ordered) = both_orders();
    for chunk_bytes in [4 << 10, 64 << 10, StreamConfig::default().chunk_bytes] {
        assert_eq!(
            text_report(&start_ordered, chunk_bytes),
            text_report(&stop_ordered, chunk_bytes),
            "chunk_bytes {chunk_bytes}"
        );
    }
}

#[test]
fn stop_ordered_ltc_matches_start_ordered() {
    let (start_ordered, stop_ordered) = both_orders();
    let stop = ltc_report(&stop_ordered);
    assert!(stop.memory.peak_heap_entries > 0, "the buffer must engage");
    assert_eq!(neutral(ltc_report(&start_ordered)), neutral(stop));
}
