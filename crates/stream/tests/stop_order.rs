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
//! A differential across entry points then holds every file and tap
//! entry point (text, `ltc`, `ingest_entry`, `ingest_entries`) at several
//! shard counts, chunk sizes, block sizes and batch sizes, in both
//! orders, to the start-ordered text report, and so does the live tap's
//! `ingest_below` fed in a jittered completion order under the in-flight
//! bound a server computes.
//!
//! The engines declare the trace's longest duration upfront
//! (`preset_lookahead`). Without it, an entry whose duration beats every
//! duration released before it can still arrive below a released start,
//! under any release rule; such entries are clamped and counted
//! (`late_entries`), and small chunks release often enough to meet them.

use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_stream::tap::InFlight;
use lsw_stream::{StreamAnalyzer, StreamConfig, StreamReport};
use lsw_trace::event::LogEntryBuilder;
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
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

/// The report with every field that may follow the entry point zeroed:
/// the raw line count (text counts its `#` lines), the buffer high-water
/// mark (it follows the release cadence) and the shard echo.
fn entry_point_neutral(mut r: StreamReport) -> String {
    assert_eq!(r.accounting.late_entries, 0, "no entry may arrive late");
    r.accounting.lines_total = 0;
    r.memory.peak_heap_entries = 0;
    r.shards = 0;
    r.to_json()
}

/// An engine with the trace's longest duration declared upfront.
fn engine(entries: &[LogEntry], cfg: StreamConfig) -> StreamAnalyzer {
    let mut engine = StreamAnalyzer::new(cfg);
    engine.preset_lookahead(max_duration(entries));
    engine
}

/// Every file and tap entry point, in start and in stop order, produces
/// the start-ordered text report: text at 1/2/8 shards and three chunk
/// sizes, `ltc` at 1/2/8 shards and four block sizes (a block of 65,536
/// holds the whole trace), one entry at a time, and batches of 37, 4,096
/// and the whole trace.
#[test]
fn every_entry_point_matches_the_start_ordered_text_report() {
    let (start_ordered, stop_ordered) = both_orders();
    assert!(start_ordered.len() <= 65_536, "one block holds the trace");
    let reference = {
        let mut e = engine(&start_ordered, StreamConfig::default());
        e.ingest_read(std::io::Cursor::new(&wms::format_log(&start_ordered)[..]))
            .expect("in-memory read");
        entry_point_neutral(e.finalize())
    };
    for (order, entries) in [("start", &start_ordered), ("stop", &stop_ordered)] {
        let text = wms::format_log(entries);
        for shards in [1usize, 2, 8] {
            for chunk_bytes in [4 << 10, 64 << 10, StreamConfig::default().chunk_bytes] {
                let mut e = engine(
                    entries,
                    StreamConfig {
                        shards,
                        chunk_bytes,
                        ..StreamConfig::default()
                    },
                );
                e.ingest_read(std::io::Cursor::new(&text[..]))
                    .expect("in-memory read");
                assert_eq!(
                    entry_point_neutral(e.finalize()),
                    reference,
                    "{order} order, text, {shards} shards, {chunk_bytes}-byte chunks"
                );
            }
            for block_records in [16usize, 64, 1024, 65_536] {
                let mut image = Vec::new();
                let mut writer = ltc::LtcWriter::with_block_records(&mut image, block_records)
                    .expect("ltc writer");
                for e in entries {
                    writer.push(e).expect("ltc push");
                }
                writer.finish().expect("ltc finish");
                let mut e = engine(
                    entries,
                    StreamConfig {
                        shards,
                        ..StreamConfig::default()
                    },
                );
                e.ingest_ltc_bytes(&image).expect("in-memory ltc");
                assert_eq!(
                    entry_point_neutral(e.finalize()),
                    reference,
                    "{order} order, ltc, {shards} shards, {block_records}-record blocks"
                );
            }
        }
        let mut e = engine(entries, StreamConfig::default());
        for entry in entries {
            e.ingest_entry(entry);
        }
        assert_eq!(
            entry_point_neutral(e.finalize()),
            reference,
            "{order} order, ingest_entry"
        );
        for batch in [37usize, 4096, entries.len()] {
            let mut e = engine(entries, StreamConfig::default());
            for chunk in entries.chunks(batch) {
                e.ingest_entries(chunk);
            }
            assert_eq!(
                entry_point_neutral(e.finalize()),
                reference,
                "{order} order, ingest_entries in batches of {batch}"
            );
        }
    }
    // No look-ahead preset: the in-flight bound needs none.
    let mut e = StreamAnalyzer::new(StreamConfig::default());
    for (entry, bound) in live_completions(&start_ordered) {
        e.ingest_below(&entry, bound);
    }
    assert_eq!(
        entry_point_neutral(e.finalize()),
        reference,
        "jittered completion order, ingest_below"
    );
}

/// The entries as a live server logs them, each with the release bound
/// it holds at that moment: every transfer is admitted at its start (in
/// start order) and logged up to 15 s after its stop, jittered the way a
/// connect time moves a completion over real sockets.
fn live_completions(start_ordered: &[LogEntry]) -> Vec<(LogEntry, u32)> {
    // (second, admit before log, index)
    let mut events: Vec<(u32, bool, usize)> = Vec::new();
    for (i, e) in start_ordered.iter().enumerate() {
        let jitter = (i as u32).wrapping_mul(2_654_435_761) >> 28;
        events.push((e.start, false, i));
        events.push((e.stop() + jitter, true, i));
    }
    events.sort_unstable();
    let mut in_flight = InFlight::default();
    let mut out = Vec::with_capacity(start_ordered.len());
    for (_, logs, i) in events {
        let e = start_ordered[i];
        if logs {
            in_flight.close(e.start);
            out.push((e, in_flight.bound()));
        } else {
            in_flight.admit(e.start);
        }
    }
    assert!(
        out.windows(2).any(|w| w[1].0.timestamp < w[0].0.timestamp),
        "the jitter must take completions out of stop order"
    );
    out
}

fn entry(start: u32, duration: u32, client: u32) -> LogEntry {
    LogEntryBuilder::new()
        .span(start, duration)
        .client(ClientId(client))
        .origin(Ipv4Addr(0x0a00_0001), AsId(1), CountryCode(*b"BR"))
        .object(ObjectId(0), 0)
        .transfer_stats(4_096, 64_000, 0.0)
        .build()
}

fn log_text(entries: &[LogEntry]) -> String {
    String::from_utf8(wms::format_log(entries).to_vec()).expect("the WMS writer emits ASCII")
}

/// A stop-ordered log whose first chunk (or `ltc` block) happens to be
/// start-ordered. That chunk's watermark is its largest start, 20, and
/// an entry *at* the watermark must stay buffered: the next chunk brings
/// a start of 15, which would be late behind a released 20.
#[test]
fn an_entry_at_the_watermark_waits_for_the_next_chunk() {
    let (a, b, c) = (entry(10, 1, 1), entry(20, 1, 2), entry(15, 10, 3));
    let lookahead = 10;
    let reference = {
        let mut e = StreamAnalyzer::new(StreamConfig::default());
        e.preset_lookahead(lookahead);
        e.ingest_str(&log_text(&[a, c, b]));
        entry_point_neutral(e.finalize())
    };
    let mut text = StreamAnalyzer::new(StreamConfig::default());
    text.preset_lookahead(lookahead);
    text.ingest_str(&log_text(&[a, b]));
    text.ingest_str(&log_text(&[c]));
    assert_eq!(entry_point_neutral(text.finalize()), reference, "text");
    for shards in [1usize, 2] {
        let mut image = Vec::new();
        let mut writer = ltc::LtcWriter::with_block_records(&mut image, 2).expect("ltc writer");
        for e in [a, b, c] {
            writer.push(&e).expect("ltc push");
        }
        writer.finish().expect("ltc finish");
        let mut e = StreamAnalyzer::new(StreamConfig {
            shards,
            ..StreamConfig::default()
        });
        e.preset_lookahead(lookahead);
        e.ingest_ltc_bytes(&image).expect("in-memory ltc");
        assert_eq!(
            entry_point_neutral(e.finalize()),
            reference,
            "ltc, {shards} shards"
        );
    }
}
