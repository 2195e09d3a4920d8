//! The seven workloads: what each one times, checks and attributes.
//!
//! A pass is one execution of a workload's timed region. The timed passes
//! and the traced passes run the same code; only the span recorder (and,
//! for the socket workloads, the thread sampler) is switched on for the
//! latter. Every correctness gate returns `Err`, which ends the run with
//! a nonzero exit code and no result line.

use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use lsw_analysis::{characterize_with, client_layer, session_layer, transfer_layer};
use lsw_analysis::{columnar, CharacterizationReport};
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_edge::{EdgeConfig, RelayConfig, Topology};
use lsw_replay::proto::wire_budget;
use lsw_replay::{
    closed_loop, drive, reference_report, run_virtual, DriverConfig, LoopDiff, Registry,
    ReplayServer, ServerConfig, SlowClientPolicy, Snapshot, WallClock,
};
use lsw_sim::{AdmissionPolicy, SimConfig, Simulator};
use lsw_stream::{StreamAnalyzer, StreamReport};
use lsw_trace::event::{LogEntry, LogEntryBuilder};
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::ltc::{self, codec::crc32, BlockReader, FileSource};
use lsw_trace::sanitize::sanitize;
use lsw_trace::schedule::Schedule;
use lsw_trace::session::{SessionConfig, Sessions};
use lsw_trace::wms;

use crate::dataset::{self, Artifact, Built, Sizes};
use crate::procfs::{self, ThreadSampler, ThreadTimes};
use crate::spans::{Spans, PASS};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Generator, simulator and WMS writer.
    GenerateMatched7,
    /// The hierarchical batch characterizer.
    BatchPaper7,
    /// Parser, `ltc` codec and the streaming sketches.
    StreamMatched7,
    /// Both virtual-time executors and the closed loop.
    VirtualLoopPaper7,
    /// The per-byte path of the live server.
    LiveSaturated,
    /// The per-connection path of the live server.
    LiveChurn,
    /// The relay reactor and the broadcast ring.
    EdgeHot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 7] = [
        Workload::GenerateMatched7,
        Workload::BatchPaper7,
        Workload::StreamMatched7,
        Workload::VirtualLoopPaper7,
        Workload::LiveSaturated,
        Workload::LiveChurn,
        Workload::EdgeHot,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GenerateMatched7 => "generate_matched7",
            Workload::BatchPaper7 => "batch_paper7",
            Workload::StreamMatched7 => "stream_matched7",
            Workload::VirtualLoopPaper7 => "virtual_loop_paper7",
            Workload::LiveSaturated => "live_saturated",
            Workload::LiveChurn => "live_churn",
            Workload::EdgeHot => "edge_hot",
        }
    }

    /// Why the workload exists (one line, for `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GenerateMatched7 => {
                "7 d of paper_scale_matched(), 1.42 M transfers: the only one where the generator, \
                 the simulator and the WMS writer do all the work"
            }
            Workload::BatchPaper7 => {
                "7 d of paper(), 615 k transfers from ltc: the client/session/transfer \
                 characterizer dominates; no text parse, no sketches"
            }
            Workload::StreamMatched7 => {
                "1.42 M text lines converted to ltc, then both ingested from files: parser, ltc \
                 encode and decode, and bounded-memory sketches dominate; no sessionizer layers"
            }
            Workload::VirtualLoopPaper7 => {
                "615 k transfers through the flat and origin:2:as virtual executors and the \
                 closed-loop diff: wheel, admission and stop-order tap; deterministic, no sockets"
            }
            Workload::LiveSaturated => {
                "512 loopback connections offered 10 GB/s, above capacity, so completion time is \
                 capacity: the per-byte path (write_vectored, arena, splice sink) dominates"
            }
            Workload::LiveChurn => {
                "4,000 consecutive dataset transfers at a fixed 1,667 connects/s, open loop: \
                 accept, request parse, admission, wheel, tap and close dominate; bytes negligible"
            }
            Workload::EdgeHot => {
                "256 clients on 4 objects through origin:2:as, offered above capacity: relay \
                 reactor and broadcast ring do the work, the origin is nearly idle"
            }
        }
    }

    /// Parses `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the dataset is `paper_scale_matched()` rather than `paper()`.
    pub fn matched(self) -> bool {
        matches!(self, Workload::GenerateMatched7 | Workload::StreamMatched7)
    }

    /// What the set-up must leave for the measured passes.
    pub fn artifact(self) -> Artifact {
        match self {
            Workload::GenerateMatched7 => Artifact::Fingerprint,
            Workload::StreamMatched7 => Artifact::Log,
            _ => Artifact::Ltc,
        }
    }

    /// Loopback connections one pass opens to one listener (0: no sockets).
    pub fn conns_per_listener(self, sizes: &Sizes) -> usize {
        match self {
            Workload::LiveSaturated => sizes.saturated_conns as usize,
            Workload::LiveChurn => sizes.churn_conns,
            Workload::EdgeHot => sizes.edge_clients as usize,
            _ => 0,
        }
    }
}

/// What the measuring process is told about its inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Sizes in force.
    pub sizes: Sizes,
    /// Directory the set-up wrote to.
    pub data: PathBuf,
    /// Dataset seed; only `generate_matched7` reads it.
    pub seed: u64,
    /// What the set-up counted and fingerprinted.
    pub expect: Built,
}

/// One pass's measurements.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// Process CPU seconds over the timed region.
    pub cpu_s: f64,
    /// Peak resident set during the pass, MiB; filled in by the runner.
    pub peak_rss_mib: f64,
    /// Transfers the region handled.
    pub transfers: u64,
    /// Bytes the region moved: socket payload received by clients, or log
    /// bytes read and written.
    pub io_bytes: u64,
    /// Operations offered.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Fingerprint of the outputs that must repeat from pass to pass.
    pub digest: Option<u32>,
    /// Per-layer counts and ratios (busy times come from the spans).
    pub layers: Vec<(&'static str, f64)>,
}

/// A prepared workload.
pub trait Run {
    /// Executes the timed region once and checks its outputs.
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String>;
}

/// Loads what the passes share. Untimed: it is the benchmark's own
/// preparation (reference reports, budgets), not the program's.
pub fn prepare(workload: Workload, inputs: &Inputs) -> Result<Box<dyn Run>, String> {
    let sizes = &inputs.sizes;
    let ltc = dataset::ltc_path(&inputs.data);
    Ok(match workload {
        Workload::GenerateMatched7 => Box::new(Generate {
            config: sizes.config(true),
            seed: inputs.seed,
            expect: inputs.expect,
        }),
        Workload::BatchPaper7 => Box::new(Batch {
            stream_sessions: stream_ltc(&ltc).map_err(io_error(&ltc))?.n_sessions,
            ltc,
        }),
        Workload::StreamMatched7 => Box::new(Stream {
            log: dataset::log_path(&inputs.data),
            converted: inputs.data.join("converted.ltc"),
            expect: inputs.expect,
        }),
        Workload::VirtualLoopPaper7 => Box::new(VirtualLoop {
            ltc,
            topology: edge_topology()?,
        }),
        Workload::LiveSaturated => Box::new(Live::new(
            synthetic_schedule(
                sizes.saturated_conns,
                sizes.saturated_conns as u16,
                sizes.saturated_trace_s,
                SATURATED_RATE_KB,
                7,
                1,
            ),
            dataset::SATURATED_COMPRESSION,
        )),
        Workload::LiveChurn => {
            let full = Schedule::from_ltc_path(&ltc).map_err(io_error(&ltc))?;
            let slice = dataset::churn_slice(&full, sizes.churn_start_s, sizes.churn_conns)
                .ok_or_else(|| {
                    format!(
                        "dataset has fewer than {} transfers from trace second {}",
                        sizes.churn_conns, sizes.churn_start_s
                    )
                })?;
            // The slice's own extent mapped onto a fixed wall length: the
            // offered connection rate is then the same for every seed.
            let compression = f64::from(slice.horizon()) / sizes.churn_wall_s;
            eprintln!(
                "live_churn slice: {} transfers over {} trace-s ({} trace bytes) at {compression:.1}x",
                slice.len(),
                slice.horizon(),
                slice.transfers.iter().map(|t| t.bytes).sum::<u64>(),
            );
            Box::new(Live::new(slice, compression))
        }
        Workload::EdgeHot => {
            let schedule = synthetic_schedule(
                sizes.edge_clients,
                EDGE_OBJECTS,
                sizes.edge_trace_s,
                EDGE_RATE_KB,
                13,
                EDGE_JOIN_SPREAD_S,
            );
            let topology = edge_topology()?;
            Box::new(EdgeHot {
                budget: schedule_budget(&schedule, dataset::SATURATED_COMPRESSION),
                // Each relay subscribes once per object; anything well above
                // that share means the fan-in collapsed.
                max_egress_ratio: 1.5 * f64::from(EDGE_OBJECTS) * f64::from(topology.relays)
                    / f64::from(sizes.edge_clients),
                config: EdgeConfig {
                    topology,
                    origin: ServerConfig {
                        compression: dataset::SATURATED_COMPRESSION,
                        workers: dataset::SERVER_SHARDS,
                        slow_policy: SlowClientPolicy::Backpressure,
                        send_buffer: UNBOUNDED_SEND_BUFFER,
                        stream: dataset::stream_config(),
                        ..ServerConfig::default()
                    },
                    relay: RelayConfig {
                        slow_policy: SlowClientPolicy::Backpressure,
                        ..RelayConfig::default()
                    },
                    driver_workers: dataset::DRIVER_WORKERS,
                },
                schedule,
            })
        }
    })
}

/// `live_saturated`: trace KB/s per connection. 512 x 20 MB/s is 10 GB/s
/// offered, more than twice what one server shard moves over loopback.
const SATURATED_RATE_KB: u64 = 20_000;
/// `edge_hot`: distinct live objects the clients collapse onto.
const EDGE_OBJECTS: u16 = 4;
/// `edge_hot`: trace KB/s per client; 256 x 60 MB/s is 15 GB/s offered.
const EDGE_RATE_KB: u64 = 60_000;
/// `edge_hot`: trace seconds the joins are spread over (0.1 s of wall).
/// With every client joining in the same instant, the load driver gets to
/// a connection's first read late, finds up to 256 KiB waiting and keeps a
/// header buffer of that size for the connection's lifetime: peak RSS then
/// swings between 23 and 49 MiB with the scheduler. Spread joins keep the
/// first reads small, and they exercise the ring's mid-stream join.
const EDGE_JOIN_SPREAD_S: u32 = 40;
/// A send buffer no backlog reaches, so `Backpressure` never truncates.
const UNBOUNDED_SEND_BUFFER: u64 = u64::MAX / 4;

fn io_error(path: &Path) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

fn edge_topology() -> Result<Topology, String> {
    dataset::EDGE_TOPOLOGY
        .parse()
        .map_err(|e| format!("{}: {e}", dataset::EDGE_TOPOLOGY))
}

/// Times `f` (wall and process CPU) inside the pass's root span.
fn timed<T>(spans: &mut Spans, f: impl FnOnce(&mut Spans) -> T) -> (T, f64, f64) {
    let cpu0 = procfs::process_cpu_s();
    let t0 = Instant::now();
    let out = spans.span(PASS, f);
    let wall_s = t0.elapsed().as_secs_f64();
    (out, wall_s, procfs::process_cpu_s() - cpu0)
}

/// Self seconds of `name` in the pass being recorded (0 with recording
/// off, which also zeroes the rates derived from it).
fn busy(spans: &Spans, name: &str) -> f64 {
    spans.busy_s(spans.rep).get(name).copied().unwrap_or(0.0)
}

fn per_second(count: f64, busy_s: f64) -> f64 {
    if busy_s > 0.0 {
        count / busy_s
    } else {
        0.0
    }
}

/// Largest relative error of a closed-loop diff.
fn max_rel_err(diff: &LoopDiff) -> f64 {
    diff.rows.iter().map(|r| r.rel_err).fold(0.0, f64::max)
}

fn check_loop(what: &str, diff: &LoopDiff) -> Result<(), String> {
    if diff.within_bounds() {
        return Ok(());
    }
    Err(format!(
        "{what}: closed loop out of bounds:\n{}",
        diff.render()
    ))
}

/// One-pass streamed characterization of an `ltc` file.
fn stream_ltc(path: &Path) -> io::Result<StreamReport> {
    let mut engine = StreamAnalyzer::new(dataset::stream_config());
    engine.ingest_ltc_path(path)?;
    Ok(engine.finalize())
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(io_error(path))
}

// ---------------------------------------------------------------------
// generate_matched7
// ---------------------------------------------------------------------

struct Generate {
    config: WorkloadConfig,
    seed: u64,
    expect: Built,
}

impl Run for Generate {
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String> {
        let (out, wall_s, cpu_s) = timed(spans, |s| {
            let workload = s.span("core.generator", |_| {
                Generator::new(self.config.clone(), self.seed).map(|g| {
                    g.with_parallelism(dataset::offline_parallelism())
                        .generate()
                })
            })?;
            let sim = s.span("sim.run", |_| {
                Simulator::new(SimConfig::default()).run(&workload, self.seed)
            });
            let text = s.span("trace.wms.format", |_| wms::format_log(sim.trace.entries()));
            Ok::<_, String>((workload, sim, text))
        });
        let (workload, sim, text) = out?;
        let built = Built {
            sessions: workload.sessions().len() as u64,
            transfers: sim.trace.len() as u64,
            text_crc: crc32(&text),
        };
        if built != self.expect {
            return Err(format!(
                "generated {built:?}, but the set-up generated {:?} from the same seed",
                self.expect
            ));
        }
        Ok(Pass {
            wall_s,
            cpu_s,
            transfers: built.transfers,
            io_bytes: text.len() as u64,
            attempted: built.transfers,
            failed: 0,
            digest: Some(built.text_crc),
            layers: vec![
                ("core.generator.transfers", workload.len() as f64),
                ("sim.congested_transfers", sim.congested_transfers as f64),
                ("sim.bytes_delivered", sim.bytes_delivered as f64),
                (
                    "trace.wms.format.mb_per_s",
                    per_second(text.len() as f64 / 1e6, busy(spans, "trace.wms.format")),
                ),
            ],
            ..Pass::default()
        })
    }
}

// ---------------------------------------------------------------------
// batch_paper7
// ---------------------------------------------------------------------

struct Batch {
    ltc: PathBuf,
    /// Session count of the streamed characterization of the same file.
    stream_sessions: u64,
}

impl Run for Batch {
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String> {
        let config = SessionConfig::default();
        let (out, wall_s, cpu_s) = timed(spans, |s| {
            let (entries, read) = s.span("trace.ltc.decode", |_| {
                BlockReader::open(FileSource::open(&self.ltc)?)?.read_all()
            })?;
            let decoded = entries.len() as u64;
            // Horizon inferred from the last stop, as `lsw characterize` does.
            let horizon = entries.iter().map(LogEntry::stop).max().unwrap_or(0) + 1;
            let (trace, ingest) = s.span("trace.sanitize", |_| sanitize(entries, horizon));
            let rejected = ingest.rejected() as u64;
            let report = if s.enabled {
                // The layers one at a time, so each has a busy time of its
                // own; `characterize_with` runs the same three concurrently.
                let sessions = s.span("trace.session", |_| {
                    Sessions::identify_with(&trace, config, dataset::offline_parallelism())
                });
                CharacterizationReport {
                    summary: trace.summary(),
                    session_timeout: config.timeout,
                    ingest: Some(ingest),
                    client: s.span("analysis.client_layer", |_| {
                        client_layer::analyze(&trace, &sessions, 0)
                    }),
                    session: s.span("analysis.session_layer", |_| {
                        session_layer::analyze(&trace, &sessions)
                    }),
                    transfer: s.span("analysis.transfer_layer", |_| {
                        transfer_layer::analyze(&trace)
                    }),
                }
            } else {
                characterize_with(&trace, config, 0).with_ingest(ingest)
            };
            let json = s.span("analysis.report.to_json", |_| report.to_json());
            Ok::<_, io::Error>((read, decoded, rejected, horizon, report, json))
        });
        let (read, decoded, rejected, horizon, report, json) = out.map_err(io_error(&self.ltc))?;

        if report.summary.transfers as u64 != decoded - rejected {
            return Err(format!(
                "report has {} transfers, but {decoded} records decoded and {rejected} rejected",
                report.summary.transfers
            ));
        }
        let sessions = report.session.n_sessions as f64;
        if (sessions - self.stream_sessions as f64).abs() > 0.01 * self.stream_sessions as f64 {
            return Err(format!(
                "batch found {sessions} sessions, the stream engine {}: more than 1 % apart",
                self.stream_sessions
            ));
        }
        if spans.enabled {
            // The one-pass columnar path over the same file: a measurement
            // of its own, outside the pass, pinned to the batch result.
            let pass = spans
                .span("analysis.columnar", |_| {
                    columnar::sessionize_concurrency_ltc(
                        BlockReader::open(FileSource::open(&self.ltc)?)?,
                        config,
                        horizon,
                        dataset::offline_parallelism(),
                    )
                })
                .map_err(io_error(&self.ltc))?;
            if pass.sessions.len() != report.session.n_sessions {
                return Err(format!(
                    "columnar pass found {} sessions, batch {}",
                    pass.sessions.len(),
                    report.session.n_sessions
                ));
            }
        }
        Ok(Pass {
            wall_s,
            cpu_s,
            transfers: decoded,
            io_bytes: file_len(&self.ltc)? + json.len() as u64,
            attempted: decoded + read.corrupt_records,
            failed: read.corrupt_records,
            layers: vec![("analysis.report.json_mb", json.len() as f64 / 1e6)],
            ..Pass::default()
        })
    }
}

// ---------------------------------------------------------------------
// stream_matched7
// ---------------------------------------------------------------------

struct Stream {
    log: PathBuf,
    converted: PathBuf,
    expect: Built,
}

/// Text chunk of the conversion, as `lsw convert` reads it.
const CONVERT_CHUNK_BYTES: usize = 1 << 20;

impl Stream {
    /// `lsw convert` text -> `ltc` in bounded memory, with the parse and
    /// the encode of each chunk in spans of their own. Returns the writer's
    /// summary and the lines that failed to parse.
    fn convert(&self, s: &mut Spans) -> io::Result<(ltc::LtcSummary, u64)> {
        let text = std::fs::File::open(&self.log)?;
        let sink = BufWriter::new(std::fs::File::create(&self.converted)?);
        let mut writer = ltc::LtcWriter::new(sink)?;
        let mut entries: Vec<LogEntry> = Vec::new();
        let mut malformed = 0u64;
        for chunk in wms::LineChunks::new(text, CONVERT_CHUNK_BYTES) {
            let chunk = chunk?;
            entries.clear();
            s.span("trace.wms.parse", |_| {
                for parsed in wms::parse_lines_bytes_from(&chunk.bytes, chunk.first_line) {
                    match parsed {
                        Ok((_, e)) => entries.push(e),
                        Err(_) => malformed += 1,
                    }
                }
            });
            s.span("trace.ltc.encode", |_| {
                entries.iter().try_for_each(|e| writer.push(e))
            })?;
        }
        let summary = s.span("trace.ltc.encode", |_| writer.finish())?;
        Ok((summary, malformed))
    }
}

impl Run for Stream {
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String> {
        let (out, wall_s, cpu_s) = timed(spans, |s| {
            let (summary, malformed) = self.convert(s)?;
            let mut engine = StreamAnalyzer::new(dataset::stream_config());
            s.span("stream.ingest_text", |_| {
                engine.ingest_read(std::fs::File::open(&self.log)?)
            })?;
            let from_text = s.span("stream.finalize", |_| engine.finalize());
            let mut engine = StreamAnalyzer::new(dataset::stream_config());
            s.span("stream.ingest_ltc", |_| {
                engine.ingest_ltc_path(&self.converted)
            })?;
            let from_ltc = s.span("stream.finalize", |_| engine.finalize());
            Ok::<_, io::Error>((summary, malformed, from_text, from_ltc))
        });
        let (summary, malformed, from_text, from_ltc) = out.map_err(io_error(&self.log))?;

        let parsed = self.expect.transfers;
        if summary.records != parsed {
            return Err(format!(
                "converted {} records, but the dataset has {parsed} transfers ({malformed} \
                 malformed lines)",
                summary.records
            ));
        }
        // The two reports agree in every field but these two: text ingest
        // counts header lines, and a sorted container bypasses the heap.
        let normalized = |r: &StreamReport| {
            let mut r = r.clone();
            r.accounting.lines_total = 0;
            r.memory.peak_heap_entries = 0;
            r.to_json()
        };
        if normalized(&from_text) != normalized(&from_ltc) {
            return Err("text and ltc ingest characterize the same log differently".into());
        }
        if spans.enabled {
            // Decode alone: inside `ingest_ltc_path` it cannot be told
            // apart from the sketches. A measurement of its own.
            spans
                .span("trace.ltc.decode", |_| {
                    let mut reader = BlockReader::open(FileSource::open(&self.converted)?)?;
                    while reader.next_block()?.is_some() {}
                    Ok::<_, io::Error>(())
                })
                .map_err(io_error(&self.converted))?;
        }
        let corrupt = from_ltc.accounting.corrupt_records;
        Ok(Pass {
            wall_s,
            cpu_s,
            transfers: parsed,
            io_bytes: 2 * file_len(&self.log)? + 2 * summary.bytes,
            attempted: parsed + malformed,
            failed: malformed + corrupt,
            layers: vec![
                (
                    "trace.wms.parse.lines_per_s",
                    per_second(parsed as f64, busy(spans, "trace.wms.parse")),
                ),
                (
                    "trace.ltc.bytes_per_record",
                    summary.bytes as f64 / summary.records.max(1) as f64,
                ),
                ("stream.sketch_bytes", from_text.memory.sketch_bytes as f64),
                (
                    "stream.peak_heap_entries",
                    from_text.memory.peak_heap_entries as f64,
                ),
                (
                    "stream.peak_active_sessions",
                    from_text.memory.peak_active_sessions as f64,
                ),
            ],
            ..Pass::default()
        })
    }
}

// ---------------------------------------------------------------------
// virtual_loop_paper7
// ---------------------------------------------------------------------

struct VirtualLoop {
    ltc: PathBuf,
    topology: Topology,
}

impl Run for VirtualLoop {
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String> {
        let accept = AdmissionPolicy::AcceptAll;
        let (out, wall_s, cpu_s) = timed(spans, |s| {
            let schedule = s.span("trace.schedule.from_ltc", |_| {
                Schedule::from_ltc_path(&self.ltc)
            })?;
            let reference = s.span("stream.ingest_entries", |_| {
                reference_report(&schedule, dataset::stream_config())
            });
            let flat = s.span("replay.virt", |_| {
                run_virtual(
                    &schedule,
                    accept,
                    dataset::stream_config(),
                    &Registry::new(),
                )
            });
            let flat_diff = s.span("replay.diff", |_| closed_loop(&reference, &flat.tap));
            let edge = s.span("edge.virt", |_| {
                lsw_edge::run_virtual_topology(
                    &schedule,
                    &self.topology,
                    accept,
                    accept,
                    dataset::stream_config(),
                    &Registry::new(),
                )
            });
            let edge_diff = s.span("replay.diff", |_| closed_loop(&reference, &edge.merged));
            Ok::<_, io::Error>((schedule, flat, flat_diff, edge, edge_diff))
        });
        let (schedule, flat, flat_diff, edge, edge_diff) = out.map_err(io_error(&self.ltc))?;

        let scheduled = schedule.len() as u64;
        check_loop("flat executor", &flat_diff)?;
        check_loop("edge executor", &edge_diff)?;
        let (flat_json, edge_json) = (flat.tap.to_json(), edge.merged.to_json());
        if flat_json != edge_json {
            return Err("the merged edge tap differs from the flat tap".into());
        }
        if flat.completed != scheduled || edge.completed != scheduled {
            return Err(format!(
                "{scheduled} transfers scheduled, {} completed flat, {} through the edge",
                flat.completed, edge.completed
            ));
        }
        if spans.enabled {
            // Called inside `run_virtual_topology`; timed on its own here.
            spans.span("edge.plan_feeds", |_| {
                lsw_edge::plan_feeds(&schedule, &self.topology)
            });
        }
        Ok(Pass {
            wall_s,
            cpu_s,
            transfers: scheduled,
            io_bytes: file_len(&self.ltc)?,
            attempted: 2 * scheduled,
            failed: 2 * scheduled - flat.completed - edge.completed,
            digest: Some(crc32(flat_json.as_bytes())),
            layers: vec![
                (
                    "replay.diff.max_rel_err",
                    max_rel_err(&flat_diff).max(max_rel_err(&edge_diff)),
                ),
                ("edge.virt.egress_ratio", edge.egress_ratio()),
                ("edge.virt.subscriptions", edge.subscriptions as f64),
            ],
            ..Pass::default()
        })
    }
}

// ---------------------------------------------------------------------
// live_saturated, live_churn, edge_hot
// ---------------------------------------------------------------------

/// `n` transfers, the `i`-th joining at trace second `i % join_spread_s`,
/// each streaming one of `objects` feeds for `trace_s` trace seconds at
/// `rate_kb` KB/s, spread over `ases` client ASes. Seed-independent: the
/// offered load is the input.
fn synthetic_schedule(
    n: u32,
    objects: u16,
    trace_s: u32,
    rate_kb: u64,
    ases: u32,
    join_spread_s: u32,
) -> Schedule {
    let entries: Vec<LogEntry> = (0..n)
        .map(|i| {
            LogEntryBuilder::new()
                .span(i % join_spread_s, trace_s)
                .client(ClientId(i))
                .origin(
                    Ipv4Addr(0x0a00_0000 + i),
                    AsId((i % ases) as u16),
                    CountryCode(*b"BR"),
                )
                .object(ObjectId(i as u16 % objects), 0)
                .transfer_stats(rate_kb * 1_000 * u64::from(trace_s), 350_000, 0.0)
                .build()
        })
        .collect();
    Schedule::from_entries(&entries)
}

/// Wire payload bytes the whole schedule is owed.
fn schedule_budget(schedule: &Schedule, compression: f64) -> u64 {
    schedule
        .transfers
        .iter()
        .map(|t| wire_budget(t.bytes, compression))
        .sum()
}

fn histogram_p(snapshot: &Snapshot, name: &str) -> (f64, f64) {
    snapshot
        .histogram(name)
        .map_or((0.0, 0.0), |(_, p50, _, p99)| (p50, p99))
}

fn counter(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.value(name).unwrap_or(0) as f64
}

/// A flat `ReplayServer` + `drive` + `finish` run over loopback.
struct Live {
    schedule: Schedule,
    reference: StreamReport,
    compression: f64,
    budget: u64,
}

impl Live {
    fn new(schedule: Schedule, compression: f64) -> Self {
        Self {
            reference: reference_report(&schedule, dataset::stream_config()),
            budget: schedule_budget(&schedule, compression),
            schedule,
            compression,
        }
    }
}

impl Run for Live {
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String> {
        let sampler = spans.enabled.then(ThreadSampler::start);
        let (out, wall_s, cpu_s) = timed(spans, |s| {
            let clock = Arc::new(WallClock::start());
            let registry = Arc::new(Registry::new());
            let server = s.span("replay.server.start", |_| {
                ReplayServer::start(
                    ServerConfig {
                        compression: self.compression,
                        workers: dataset::SERVER_SHARDS,
                        slow_policy: SlowClientPolicy::Backpressure,
                        send_buffer: UNBOUNDED_SEND_BUFFER,
                        lookahead: self.schedule.max_duration(),
                        stream: dataset::stream_config(),
                        ..ServerConfig::default()
                    },
                    &self.schedule.object_rates(),
                    Arc::clone(&clock),
                    Arc::clone(&registry),
                )
            })?;
            let driver = DriverConfig {
                workers: dataset::DRIVER_WORKERS,
                ..DriverConfig::new(server.local_addr(), self.compression)
            };
            let driven = s.span("replay.drive", |_| {
                drive(&self.schedule, &driver, &clock, &registry)
            });
            // Drain the server even when the driver failed: its threads
            // must not outlive the pass.
            let served = s.span("replay.server.finish", |_| server.finish());
            Ok::<_, io::Error>((driven?, served))
        });
        let threads = sampler.map(ThreadSampler::finish).unwrap_or_default();
        let (driven, served) = out.map_err(|e| format!("loopback replay: {e}"))?;

        let scheduled = self.schedule.len() as u64;
        let failed = driven.connect_failures + driven.rejected + driven.short;
        if driven.completed != scheduled || failed != 0 {
            return Err(format!("{scheduled} transfers scheduled: {driven:?}"));
        }
        if driven.bytes_received != self.budget {
            return Err(format!(
                "clients received {} bytes of a {} byte budget",
                driven.bytes_received, self.budget
            ));
        }
        let diff = closed_loop(&self.reference, &served.tap);
        check_loop("served tap", &diff)?;

        let m = &served.metrics;
        let reactor = threads.by_prefix("lsw-reactor-");
        let accept = threads.by_prefix("lsw-accept");
        let driver = threads.by_prefix("lsw-drive-");
        let server_cpu_s = reactor.cpu_s + accept.cpu_s;
        let (pacing_p50, pacing_p99) = histogram_p(m, "srv.pacing_error_ns");
        Ok(Pass {
            wall_s,
            cpu_s,
            transfers: scheduled,
            io_bytes: driven.bytes_received,
            attempted: scheduled,
            failed,
            layers: vec![
                ("replay.server.reactor_cpu_s", reactor.cpu_s),
                ("replay.server.reactor_wait_s", reactor.wait_s),
                ("replay.server.accept_cpu_s", accept.cpu_s),
                (
                    "replay.server.cpu_ms_per_gb",
                    server_cpu_s * 1e3 / (driven.bytes_received as f64 / 1e9),
                ),
                (
                    "replay.server.cpu_us_per_conn",
                    server_cpu_s * 1e6 / scheduled as f64,
                ),
                ("replay.server.conns", counter(m, "srv.conns")),
                ("replay.server.pacing_error_p50_us", pacing_p50 / 1e3),
                ("replay.server.pacing_error_p99_us", pacing_p99 / 1e3),
                (
                    "replay.server.transfer_wall_p99_ms",
                    histogram_p(m, "srv.transfer_wall_ms").1,
                ),
                (
                    "replay.server.backlog_p99_bytes",
                    histogram_p(m, "srv.backlog_bytes").1,
                ),
                ("replay.server.truncated", counter(m, "srv.truncated")),
                ("replay.server.slow_dropped", counter(m, "srv.slow_dropped")),
                ("replay.server.bad_requests", counter(m, "srv.bad_requests")),
                ("replay.server.bytes_sent", counter(m, "srv.bytes_sent")),
                ("replay.driver.cpu_s", driver.cpu_s),
                ("replay.driver.wait_s", driver.wait_s),
                (
                    "replay.driver.lateness_p99_ms",
                    histogram_p(m, "drv.lateness_ms").1,
                ),
                ("replay.driver.connects", counter(m, "drv.connects")),
                ("stream.tap.transfers", served.tap.summary.transfers as f64),
                ("replay.diff.max_rel_err", max_rel_err(&diff)),
            ],
            ..Pass::default()
        })
    }
}

struct EdgeHot {
    schedule: Schedule,
    config: EdgeConfig,
    budget: u64,
    max_egress_ratio: f64,
}

impl Run for EdgeHot {
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String> {
        let sampler = spans.enabled.then(ThreadSampler::start);
        let (out, wall_s, cpu_s) = timed(spans, |s| {
            s.span("edge.run_edge", |_| {
                lsw_edge::run_edge(&self.schedule, &self.config, Arc::new(Registry::new()))
            })
        });
        let threads: ThreadTimes = sampler.map(ThreadSampler::finish).unwrap_or_default();
        let out = out.map_err(|e| format!("loopback edge run: {e}"))?;

        let scheduled = self.schedule.len() as u64;
        let driven = out.driven;
        let failed = driven.connect_failures + driven.rejected + driven.short;
        if driven.completed != scheduled || failed != 0 {
            return Err(format!("{scheduled} clients scheduled: {driven:?}"));
        }
        if out.egress.delivered_bytes != self.budget {
            return Err(format!(
                "relays delivered {} bytes of a {} byte budget",
                out.egress.delivered_bytes, self.budget
            ));
        }
        let ratio = out.egress.egress_ratio();
        if ratio >= self.max_egress_ratio {
            return Err(format!(
                "origin egress ratio {ratio:.4} is not below {:.4}: the fan-in collapsed",
                self.max_egress_ratio
            ));
        }

        let m = &out.metrics;
        let relay = threads.by_prefix("lsw-relay-");
        Ok(Pass {
            wall_s,
            cpu_s,
            transfers: scheduled,
            io_bytes: out.egress.delivered_bytes,
            attempted: scheduled,
            failed,
            layers: vec![
                ("edge.relay.cpu_s", relay.cpu_s),
                ("edge.relay.wait_s", relay.wait_s),
                (
                    "edge.origin.cpu_s",
                    threads.by_prefix("lsw-reactor-").cpu_s + threads.by_prefix("lsw-accept").cpu_s,
                ),
                ("edge.driver.cpu_s", threads.by_prefix("lsw-drive-").cpu_s),
                ("edge.egress_ratio", ratio),
                ("edge.subscriptions", out.egress.subscriptions as f64),
                ("edge.upstream_bytes", counter(m, "edge.upstream_bytes")),
                ("edge.delivered_bytes", out.egress.delivered_bytes as f64),
                ("edge.ring.laps", counter(m, "edge.laps")),
                (
                    "edge.ring.lag_p99_bytes",
                    histogram_p(m, "edge.ring_lag_bytes").1,
                ),
                ("edge.truncated", counter(m, "edge.truncated")),
                ("edge.upstream_busy", out.egress.upstream_busy as f64),
            ],
            ..Pass::default()
        })
    }
}
