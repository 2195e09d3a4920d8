//! `lsw` — command-line front end: generate, characterize, summarize.
//!
//! ```text
//! lsw <generate|characterize|analyze|summary|convert|replay|serve> [ARGS] [FLAGS]
//! ```
//!
//! `lsw --help` lists every subcommand's usage and `lsw <command> --help`
//! (or `-h`) prints one; both are generated from the flag tables below,
//! so they list exactly the flags each subcommand accepts. Any other
//! `--flag` exits 2 rather than being silently ignored.
//!
//! `analyze` is the streaming front end: with `--stream` the log is
//! consumed one chunk at a time through the bounded-memory sketch engine
//! (`lsw_stream`), so arbitrarily long logs never have to fit in RAM;
//! `--memory-budget` scales the sketches to a byte budget. With
//! `--compare` both pipelines run and a per-estimator relative-error
//! table is printed. Without either flag it behaves like `characterize`
//! plus the §2.4 ingest accounting.
//!
//! Logs come in two formats: the WMS-style text format (`lsw_trace::wms`)
//! and the columnar binary container (`lsw_trace::ltc`), which is smaller
//! and several times faster to ingest. Every reading command sniffs the
//! 4-byte `ltc` magic by default (`--format auto`); `--format wms|ltc`
//! forces a format. `convert` transcodes between the two — the direction
//! follows from the input's format — and `generate --emit ltc` writes the
//! binary container directly. All times are seconds since the log's
//! epoch.
//!
//! `replay` extracts the replayable transfer schedule from a log and
//! replays it against an in-process localhost server at `--compression`×
//! real time (`lsw_replay`), then closes the loop: the traffic actually
//! served is re-characterized through the embedded `lsw-stream` tap and
//! diffed against the schedule's own characterization. The command exits
//! nonzero when any headline metric falls outside its documented sketch
//! error bound (suppress with `--no-assert`, e.g. when an `--admission`
//! cap is *meant* to shed traffic). `--virtual-time` runs the same
//! replay as a deterministic single-threaded simulation — no sockets, no
//! wall clock — with bit-identical output on every run. `serve` runs the
//! paced serving harness standalone on `--listen` for `--for` seconds so
//! an external driver can connect. `--admission N` caps concurrent
//! transfers (`RejectAbove`); 0 or absent accepts everything. The
//! server is an epoll reactor per worker shard, paced by a deadline heap.
//!
//! `--topology origin:R[:key]` interposes `R` relay nodes between the
//! origin and the trace clients (`lsw_edge`): each relay subscribes to
//! the origin **once** per live object and fans the chunk stream out to
//! the clients the routing `key` (`as`, default; `country`; `client`)
//! assigns to it. The closed loop then diffs the *edge-aggregated*
//! characterization — what all relay tiers together served — against the
//! trace's own, and the report gains an `edge` section accounting origin
//! egress versus client-delivered bytes (the fan-in savings). In edge
//! runs `--admission` caps each relay tier and `--origin-admission` caps
//! origin subscriptions; `--virtual-time` runs the whole topology as a
//! deterministic simulation with byte-identical reports run to run.
//!
//! `--threads` (or the `LSW_THREADS` environment variable) sets the
//! worker count; the default is the number of available cores. Output is
//! bit-identical at every thread count — the setting only changes speed.

use lsw::analysis::characterize_with;
use lsw::core::config::WorkloadConfig;
use lsw::core::generator::Generator;
use lsw::replay::{Registry, ReplayServer, ServerConfig, WallClock};
use lsw::sim::server::AdmissionPolicy;
use lsw::sim::{SimConfig, Simulator};
use lsw::stats::par::Parallelism;
use lsw::stream::{StreamAnalyzer, StreamConfig};
use lsw::trace::event::LogEntry;
use lsw::trace::ltc;
use lsw::trace::sanitize::sanitize;
use lsw::trace::schedule::Schedule;
use lsw::trace::session::SessionConfig;
use lsw::trace::wms;
use std::path::Path;
use std::process::exit;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("--help", String::as_str);
    if cmd == "--help" || cmd == "-h" {
        println!("usage:");
        for flags in COMMANDS {
            println!("  {}", usage(flags));
        }
        return;
    }
    let Some(flags) = COMMANDS.iter().find(|f| f.name == cmd) else {
        eprintln!("unknown command {cmd:?}; try --help");
        exit(2);
    };
    (flags.run)(known_flags(&args, flags));
}

/// One subcommand: its command line, and the function that runs it.
struct Flags {
    name: &'static str,
    run: fn(&[String]),
    /// Positional arguments, as the usage line shows them.
    args: &'static str,
    /// Flags followed by a value, with the value's placeholder.
    values: &'static [(&'static str, &'static str)],
    /// Flags that stand alone.
    switches: &'static [&'static str],
}

/// Every subcommand.
const COMMANDS: [&Flags; 7] = [
    &GENERATE,
    &CHARACTERIZE,
    &ANALYZE,
    &SUMMARY,
    &CONVERT,
    &REPLAY,
    &SERVE,
];

const FORMAT: (&str, &str) = ("--format", "auto|wms|ltc");
const HORIZON: (&str, &str) = ("--horizon", "SECS");
const TIMEOUT: (&str, &str) = ("--timeout", "TO");
const JSON: (&str, &str) = ("--json", "FILE");

const GENERATE: Flags = Flags {
    name: "generate",
    run: cmd_generate,
    args: "",
    values: &[
        ("--days", "D"),
        ("--clients", "N"),
        ("--sessions", "N"),
        ("--seed", "S"),
        ("--threads", "T"),
        ("--emit", "wms|ltc"),
        ("--out", "LOG"),
    ],
    switches: &["--simulate", "--scale-matched"],
};
const CHARACTERIZE: Flags = Flags {
    name: "characterize",
    run: cmd_characterize,
    args: "LOG",
    values: &[FORMAT, HORIZON, TIMEOUT, JSON],
    switches: &[],
};
const ANALYZE: Flags = Flags {
    name: "analyze",
    run: cmd_analyze,
    args: "LOG",
    values: &[
        FORMAT,
        ("--shards", "N"),
        ("--memory-budget", "BYTES"),
        HORIZON,
        TIMEOUT,
        JSON,
    ],
    switches: &["--stream", "--compare"],
};
const SUMMARY: Flags = Flags {
    name: "summary",
    run: cmd_summary,
    args: "LOG",
    values: &[FORMAT, HORIZON],
    switches: &[],
};
const CONVERT: Flags = Flags {
    name: "convert",
    run: cmd_convert,
    args: "IN OUT",
    values: &[FORMAT],
    switches: &[],
};
const REPLAY: Flags = Flags {
    name: "replay",
    run: cmd_replay,
    args: "LOG",
    values: &[
        FORMAT,
        ("--compression", "C"),
        ("--admission", "N"),
        ("--workers", "N"),
        ("--topology", "origin[:R[:as|country|client]]"),
        ("--origin-admission", "N"),
        ("--expose", "SECS"),
        JSON,
    ],
    switches: &["--virtual-time", "--no-assert"],
};
const SERVE: Flags = Flags {
    name: "serve",
    run: cmd_serve,
    args: "LOG",
    values: &[
        FORMAT,
        ("--listen", "ADDR"),
        ("--compression", "C"),
        ("--admission", "N"),
        ("--workers", "N"),
        ("--for", "SECS"),
        ("--expose", "SECS"),
    ],
    switches: &[],
};

/// One subcommand's usage line, from its flag table.
fn usage(flags: &Flags) -> String {
    let mut parts = vec![format!("lsw {}", flags.name)];
    parts.extend((!flags.args.is_empty()).then(|| flags.args.to_owned()));
    parts.extend(flags.values.iter().map(|(flag, v)| format!("[{flag} {v}]")));
    parts.extend(flags.switches.iter().map(|flag| format!("[{flag}]")));
    parts.join(" ")
}

/// Returns the subcommand `args[0]`'s arguments after exiting 2 on any
/// `--flag` it does not know, so a mistyped or retired flag is never
/// silently ignored. `--help` or `-h` prints its usage and exits 0.
fn known_flags<'a>(args: &'a [String], flags: &Flags) -> &'a [String] {
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if flags.values.iter().any(|(flag, _)| flag == arg) {
            rest.next();
        } else if arg == "--help" || arg == "-h" {
            println!("usage: {}", usage(flags));
            exit(0);
        } else if arg.starts_with("--") && !flags.switches.contains(&arg.as_str()) {
            eprintln!("unknown flag {arg} for {}; try --help", args[0]);
            exit(2);
        }
    }
    &args[1..]
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_or<T: std::str::FromStr>(v: Option<&str>, default: T, name: &str) -> T {
    match v {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {name}: {s:?}");
            exit(2);
        }),
    }
}

/// `--timeout TO`: the session timeout, finite and non-negative (the
/// sessionizer asserts as much), defaulting to the paper's 1,500 s.
fn session_timeout(args: &[String]) -> f64 {
    let timeout: f64 = parse_or(
        flag_value(args, "--timeout"),
        lsw::stats::paper::SESSION_TIMEOUT_SECS,
        "--timeout",
    );
    if !timeout.is_finite() || timeout < 0.0 {
        eprintln!("bad value for --timeout: {timeout} (expected a finite number of seconds >= 0)");
        exit(2);
    }
    timeout
}

/// `--horizon SECS`: the trace horizon in whole seconds, at least 1 (the
/// binned analyses need a non-empty range); `None` when the flag is absent.
fn horizon_flag(args: &[String]) -> Option<u32> {
    let horizon: u32 = parse_or(Some(flag_value(args, "--horizon")?), 0, "--horizon");
    if horizon == 0 {
        eprintln!("bad value for --horizon: 0 (expected whole seconds >= 1)");
        exit(2);
    }
    Some(horizon)
}

/// On-disk log encodings the reading commands accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogFormat {
    /// WMS-style text lines (`lsw_trace::wms`).
    Wms,
    /// Columnar binary container (`lsw_trace::ltc`).
    Ltc,
}

/// Reads the first bytes of `path` and checks for the `ltc` magic.
fn sniff_format(path: &str) -> LogFormat {
    use std::io::Read;
    let mut prefix = [0u8; 4];
    let n = std::fs::File::open(path)
        .and_then(|mut f| f.read(&mut prefix))
        .unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        });
    if ltc::is_ltc(&prefix[..n]) {
        LogFormat::Ltc
    } else {
        LogFormat::Wms
    }
}

/// Resolves `--format auto|wms|ltc` (default `auto` = sniff the magic).
fn resolve_format(args: &[String], path: &str) -> LogFormat {
    match flag_value(args, "--format") {
        None | Some("auto") => sniff_format(path),
        Some("wms") => LogFormat::Wms,
        Some("ltc") => LogFormat::Ltc,
        Some(other) => {
            eprintln!("bad value for --format: {other:?} (expected auto, wms or ltc)");
            exit(2);
        }
    }
}

/// Loads every record of `path` in the given format, reporting (but
/// tolerating) corrupt `ltc` blocks the way the streaming engine does.
fn read_entries(path: &str, format: LogFormat) -> Vec<LogEntry> {
    match format {
        LogFormat::Wms => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1);
            });
            wms::parse_log(&text).unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1);
            })
        }
        LogFormat::Ltc => {
            let (entries, stats) = ltc::FileSource::open(Path::new(path))
                .and_then(|src| ltc::BlockReader::open(src)?.read_all())
                .unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    exit(1);
                });
            if stats.corrupt_blocks > 0 {
                eprintln!(
                    "skipped {} corrupt block(s) / {} record(s): {}",
                    stats.corrupt_blocks,
                    stats.corrupt_records,
                    stats.first_corrupt.as_deref().unwrap_or("?"),
                );
            }
            entries
        }
    }
}

/// `--days D`: the horizon in days, finite, and at least one second but
/// no more than `u32::MAX` seconds once converted. Returns the days as
/// given and the horizon in whole seconds.
fn days_flag(args: &[String]) -> (f64, u32) {
    let days: f64 = parse_or(flag_value(args, "--days"), 1.0, "--days");
    let secs = days * 86_400.0;
    if !(1.0..=f64::from(u32::MAX)).contains(&secs) {
        eprintln!(
            "bad value for --days: {days} (expected a finite number of days \
             spanning 1 to {} seconds)",
            u32::MAX
        );
        exit(2);
    }
    (days, secs as u32)
}

fn cmd_generate(args: &[String]) {
    let (days, horizon) = days_flag(args);
    let clients: usize = parse_or(flag_value(args, "--clients"), 20_000, "--clients");
    let sessions: usize = parse_or(flag_value(args, "--sessions"), 30_000, "--sessions");
    let seed: u64 = parse_or(flag_value(args, "--seed"), 42, "--seed");
    let simulate = args.iter().any(|a| a == "--simulate");
    let scale_matched = args.iter().any(|a| a == "--scale-matched");
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("generate requires --out LOG");
        exit(2);
    };

    let base = if scale_matched {
        WorkloadConfig::paper_scale_matched()
    } else {
        WorkloadConfig::paper()
    };
    let par = match flag_value(args, "--threads") {
        None => Parallelism::auto(),
        Some(s) => Parallelism::fixed(parse_or(Some(s), 0usize, "--threads").max(1)),
    };
    let config = base.scaled(clients, horizon, sessions);
    let workload = Generator::new(config, seed)
        .unwrap_or_else(|e| {
            eprintln!("invalid configuration: {e}");
            exit(2);
        })
        .with_parallelism(par)
        .generate();
    eprintln!(
        "generated {} sessions / {} transfers over {days} day(s)",
        workload.sessions().len(),
        workload.len()
    );
    let trace = if simulate {
        let out = Simulator::new(SimConfig::default()).run(&workload, seed);
        eprintln!(
            "simulated: {} congested transfers, {:.2} GB delivered",
            out.congested_transfers,
            out.bytes_delivered as f64 / 1e9
        );
        out.trace
    } else {
        workload.render()
    };
    let emit = match flag_value(args, "--emit") {
        None | Some("wms") => LogFormat::Wms,
        Some("ltc") => LogFormat::Ltc,
        Some(other) => {
            eprintln!("bad value for --emit: {other:?} (expected wms or ltc)");
            exit(2);
        }
    };
    let written = std::fs::File::create(out).and_then(|f| {
        let sink = std::io::BufWriter::new(f);
        match emit {
            LogFormat::Wms => wms::write_log(trace.entries(), sink),
            LogFormat::Ltc => ltc::write_entries(trace.entries(), sink).map(drop),
        }
    });
    written.unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    eprintln!("wrote {} entries to {out}", trace.len());
}

/// Transcodes between the text and binary formats; the direction follows
/// from the input's (sniffed or forced) format.
fn cmd_convert(args: &[String]) {
    let mut positional = args.iter().filter(|a| !a.starts_with("--"));
    let (Some(input), Some(output)) = (positional.next(), positional.next()) else {
        eprintln!("convert expects IN and OUT file arguments");
        exit(2);
    };
    match resolve_format(args, input) {
        LogFormat::Wms => {
            // wms -> ltc in bounded memory: parse chunks of whole lines
            // and push records straight into the block writer.
            let file = std::fs::File::open(input).unwrap_or_else(|e| {
                eprintln!("cannot open {input}: {e}");
                exit(1);
            });
            let sink = std::fs::File::create(output).unwrap_or_else(|e| {
                eprintln!("cannot write {output}: {e}");
                exit(1);
            });
            let mut writer =
                ltc::LtcWriter::new(std::io::BufWriter::new(sink)).unwrap_or_else(|e| {
                    eprintln!("cannot write {output}: {e}");
                    exit(1);
                });
            let summary = (|| -> std::io::Result<ltc::LtcSummary> {
                for chunk in wms::LineChunks::new(std::io::BufReader::new(file), 1 << 20) {
                    let chunk = chunk?;
                    for parsed in wms::parse_lines_bytes_from(&chunk.bytes, chunk.first_line) {
                        match parsed {
                            Ok((_, e)) => writer.push(&e)?,
                            Err(e) => {
                                eprintln!("{e}");
                                exit(1);
                            }
                        }
                    }
                }
                writer.finish()
            })()
            .unwrap_or_else(|e| {
                eprintln!("convert failed: {e}");
                exit(1);
            });
            eprintln!(
                "wrote {} records in {} block(s) ({} bytes{}) to {output}",
                summary.records,
                summary.blocks,
                summary.bytes,
                if summary.sorted { ", sorted" } else { "" },
            );
        }
        LogFormat::Ltc => {
            // ltc -> wms: decode every block, stream the text log out.
            let (entries, stats) = ltc::FileSource::open(Path::new(input.as_str()))
                .and_then(|src| ltc::BlockReader::open(src)?.read_all())
                .unwrap_or_else(|e| {
                    eprintln!("cannot read {input}: {e}");
                    exit(1);
                });
            std::fs::File::create(output)
                .and_then(|f| wms::write_log(&entries, std::io::BufWriter::new(f)))
                .unwrap_or_else(|e| {
                    eprintln!("cannot write {output}: {e}");
                    exit(1);
                });
            eprintln!("wrote {} entries to {output}", entries.len());
            if stats.corrupt_blocks > 0 {
                // Data was lost in transit: say how much, and make the
                // loss visible to scripts via the exit status.
                eprintln!(
                    "convert: skipped {} corrupt block(s) / {} record(s): {}",
                    stats.corrupt_blocks,
                    stats.corrupt_records,
                    stats.first_corrupt.as_deref().unwrap_or("?"),
                );
                exit(1);
            }
        }
    }
}

/// Loads and sanitizes the LOG argument's trace over `horizon` seconds,
/// inferred from the last stop time when `None`.
fn load(
    args: &[String],
    horizon: Option<u32>,
) -> (
    lsw::trace::trace::Trace,
    u32,
    lsw::trace::sanitize::SanitizeReport,
) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("expected a LOG file argument");
        exit(2);
    };
    let entries = read_entries(path, resolve_format(args, path));
    let horizon =
        horizon.unwrap_or_else(|| entries.iter().map(|e| e.stop()).max().unwrap_or(0) + 1);
    let (trace, report) = sanitize(entries, horizon);
    if report.rejected() > 0 {
        eprintln!(
            "sanitized: dropped {} of {} entries",
            report.rejected(),
            report.examined
        );
    }
    (trace, horizon, report)
}

fn cmd_characterize(args: &[String]) {
    let timeout = session_timeout(args);
    let (trace, _, ingest) = load(args, horizon_flag(args));
    let report = characterize_with(&trace, SessionConfig { timeout }, 0).with_ingest(ingest);
    println!("{}", report.headline());
    if let Some(json_path) = flag_value(args, "--json") {
        std::fs::write(json_path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {json_path}: {e}");
            exit(1);
        });
        eprintln!("full report written to {json_path}");
    }
}

fn stream_config(args: &[String]) -> StreamConfig {
    let mut cfg = StreamConfig {
        timeout: session_timeout(args),
        horizon: horizon_flag(args),
        ..StreamConfig::default()
    };
    if let Some(s) = flag_value(args, "--shards") {
        cfg.shards = parse_or(Some(s), 1usize, "--shards").max(1);
    }
    if let Some(b) = flag_value(args, "--memory-budget") {
        cfg = cfg.with_memory_budget(parse_or(Some(b), usize::MAX, "--memory-budget"));
    }
    cfg
}

fn run_stream(path: &str, format: LogFormat, cfg: StreamConfig) -> lsw::stream::StreamReport {
    let mut engine = StreamAnalyzer::new(cfg);
    let ingested = match format {
        LogFormat::Ltc => engine.ingest_ltc_path(Path::new(path)),
        LogFormat::Wms => std::fs::File::open(path)
            .and_then(|file| engine.ingest_read(std::io::BufReader::new(file))),
    };
    ingested.unwrap_or_else(|e| {
        eprintln!("read error on {path}: {e}");
        exit(1);
    });
    engine.finalize()
}

fn cmd_analyze(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("analyze expects a LOG file argument");
        exit(2);
    };
    let path = path.clone();
    let streaming = args.iter().any(|a| a == "--stream");
    let comparing = args.iter().any(|a| a == "--compare");
    // Parse up front so a bad stream flag exits 2 in every analyze mode.
    let stream_cfg = stream_config(args);

    let format = resolve_format(args, &path);

    if streaming && !comparing {
        // One pass, bounded memory: the log never has to fit in RAM.
        let report = run_stream(&path, format, stream_cfg);
        println!("{}", report.headline());
        if let Some(json_path) = flag_value(args, "--json") {
            std::fs::write(json_path, report.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {json_path}: {e}");
                exit(1);
            });
            eprintln!("stream report written to {json_path}");
        }
        return;
    }

    let (trace, horizon, ingest) = load(args, stream_cfg.horizon);
    let config = SessionConfig {
        timeout: stream_cfg.timeout,
    };
    let batch = characterize_with(&trace, config, 0).with_ingest(ingest);

    if comparing {
        // Pin the streaming horizon to the batch one so both pipelines
        // apply identical rejection rules.
        let mut cfg = stream_cfg;
        cfg.horizon = Some(horizon);
        let stream = run_stream(&path, format, cfg);
        println!("{}", lsw::analysis::stream_compare::render(&batch, &stream));
        if let Some(json_path) = flag_value(args, "--json") {
            std::fs::write(json_path, stream.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {json_path}: {e}");
                exit(1);
            });
            eprintln!("stream report written to {json_path}");
        }
        return;
    }

    println!("{}", batch.headline());
    if let Some(json_path) = flag_value(args, "--json") {
        std::fs::write(json_path, batch.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {json_path}: {e}");
            exit(1);
        });
        eprintln!("full report written to {json_path}");
    }
}

fn cmd_summary(args: &[String]) {
    let (trace, _, _) = load(args, horizon_flag(args));
    println!("{}", trace.summary());
}

/// Extracts the replayable transfer schedule from a log file, reporting
/// (to stderr) what extraction had to skip.
fn load_schedule(args: &[String]) -> Schedule {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("expected a LOG file argument");
        exit(2);
    };
    let schedule = match resolve_format(args, path) {
        LogFormat::Wms => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1);
            });
            Schedule::from_wms_bytes(&bytes)
        }
        LogFormat::Ltc => Schedule::from_ltc_path(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        }),
    };
    let st = &schedule.stats;
    if st.rejected + st.malformed + st.corrupt_blocks > 0 {
        eprintln!(
            "schedule: kept {} of {} records ({} rejected, {} malformed line(s), \
             {} corrupt block(s))",
            schedule.len(),
            st.examined,
            st.rejected,
            st.malformed,
            st.corrupt_blocks,
        );
    }
    if schedule.is_empty() {
        eprintln!("no replayable transfers in {path}");
        exit(1);
    }
    schedule
}

/// `--admission N` (or `--origin-admission N`): cap concurrent
/// transfers at that tier; 0 or absent accepts all.
fn admission_flag(args: &[String], name: &str) -> AdmissionPolicy {
    match parse_or(flag_value(args, name), 0u64, name) {
        0 => AdmissionPolicy::AcceptAll,
        n => AdmissionPolicy::RejectAbove { max_concurrent: n },
    }
}

/// `--topology origin[:R[:key]]`: interpose R relays (0 = single tier).
fn topology_flag(args: &[String]) -> lsw::edge::Topology {
    match flag_value(args, "--topology") {
        None => lsw::edge::Topology::default(),
        Some(s) => s.parse().unwrap_or_else(|e| {
            eprintln!("bad value for --topology: {e}");
            exit(2);
        }),
    }
}

/// A background thread printing metric snapshots to stderr on a cadence.
struct Exposition {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Exposition {
    /// Starts the exposition loop; `every_secs == 0` disables it.
    fn start(registry: &std::sync::Arc<Registry>, every_secs: u64) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let handle = (every_secs > 0).then(|| {
            let registry = std::sync::Arc::clone(registry);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut elapsed_ms = 0u64;
                // Reused across expositions: zero allocation per print
                // once warmed up to the steady-state length.
                let mut buf = String::new();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(250));
                    elapsed_ms += 250;
                    if elapsed_ms >= every_secs * 1000 {
                        elapsed_ms = 0;
                        registry.render_text(&mut buf);
                        eprint!("-- metrics --\n{buf}");
                    }
                }
            })
        });
        Self { stop, handle }
    }

    fn finish(mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Prints the closed-loop result, writes `--json`, and returns whether
/// every metric stayed inside its documented sketch error bound.
fn report_loop(
    args: &[String],
    tap: &lsw::stream::StreamReport,
    diff: &lsw::replay::LoopDiff,
    metrics: &lsw::replay::Snapshot,
    edge: Option<serde_json::Value>,
) -> bool {
    println!("{}", tap.headline());
    println!("closed-loop characterization diff:");
    print!("{}", diff.render());
    if let Some(json_path) = flag_value(args, "--json") {
        use serde_json::Value;
        let mut sections = vec![
            ("tap".to_string(), tap.to_json_value()),
            ("diff".to_string(), diff.to_json()),
            ("metrics".to_string(), metrics.to_json()),
        ];
        if let Some(edge) = edge {
            sections.push(("edge".to_string(), edge));
        }
        let combined = Value::Object(sections);
        let rendered = serde_json::to_string_pretty(&combined).unwrap_or_default();
        std::fs::write(json_path, rendered).unwrap_or_else(|e| {
            eprintln!("cannot write {json_path}: {e}");
            exit(1);
        });
        eprintln!("replay report written to {json_path}");
    }
    diff.within_bounds()
}

/// The `edge` section of the `--json` report: origin-egress accounting
/// plus the per-tier characterizations.
fn edge_json(
    topology: lsw::edge::Topology,
    subscriptions: u64,
    origin_bytes: u64,
    delivered_bytes: u64,
    egress_ratio: f64,
    tiers: &[lsw::stream::StreamReport],
) -> serde_json::Value {
    use serde_json::Value;
    let tier_values = tiers.iter().map(|r| r.to_json_value()).collect();
    Value::Object(vec![
        ("topology".to_string(), Value::Str(topology.to_string())),
        ("relays".to_string(), Value::U64(u64::from(topology.relays))),
        ("subscriptions".to_string(), Value::U64(subscriptions)),
        ("origin_bytes".to_string(), Value::U64(origin_bytes)),
        ("delivered_bytes".to_string(), Value::U64(delivered_bytes)),
        ("egress_ratio".to_string(), Value::F64(egress_ratio)),
        ("tiers".to_string(), Value::Array(tier_values)),
    ])
}

/// The origin's serving flags, shared by `replay` and `serve` and parsed
/// once: `--listen`, `--compression`, `--admission` and `--workers` as a
/// server configuration, plus the `--expose` cadence in seconds.
fn serve_flags(args: &[String]) -> (ServerConfig, u64) {
    let cfg = ServerConfig {
        listen: flag_value(args, "--listen")
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        compression: parse_or(flag_value(args, "--compression"), 100.0, "--compression"),
        admission: admission_flag(args, "--admission"),
        workers: parse_or(flag_value(args, "--workers"), 2usize, "--workers").max(1),
        ..ServerConfig::default()
    };
    (cfg, parse_or(flag_value(args, "--expose"), 10, "--expose"))
}

/// Starts the origin on the schedule's feeds, or exits 1.
fn start_server(
    cfg: ServerConfig,
    schedule: &Schedule,
    clock: &Arc<WallClock>,
    registry: &Arc<Registry>,
) -> ReplayServer {
    let rates = schedule.object_rates();
    ReplayServer::start(cfg, &rates, Arc::clone(clock), Arc::clone(registry)).unwrap_or_else(|e| {
        eprintln!("cannot bind replay server: {e}");
        exit(1);
    })
}

/// Runs the hierarchical replay (`--topology origin:R[:key]`) in either
/// execution mode and returns the edge-aggregated tap, the final metric
/// snapshot, and the report's `edge` section. `server` carries the
/// client-tier `--admission`; the origin takes `--origin-admission`.
fn run_replay_edge(
    args: &[String],
    schedule: &Schedule,
    topology: lsw::edge::Topology,
    (server, expose): (ServerConfig, u64),
    registry: &Arc<Registry>,
) -> (
    lsw::stream::StreamReport,
    lsw::replay::Snapshot,
    serde_json::Value,
) {
    let origin_admission = admission_flag(args, "--origin-admission");
    if args.iter().any(|a| a == "--virtual-time") {
        let out = lsw::edge::run_virtual_topology(
            schedule,
            &topology,
            origin_admission,
            server.admission,
            server.stream,
            registry,
        );
        eprintln!(
            "virtual edge replay through {topology}: {} completed, {} rejected, \
             {} truncated over {} subscription(s)",
            out.completed, out.rejected, out.truncated, out.subscriptions
        );
        eprintln!(
            "origin egress: {} of {} delivered byte(s) (ratio {:.4})",
            out.origin_bytes,
            out.delivered_bytes,
            out.egress_ratio()
        );
        let edge = edge_json(
            topology,
            out.subscriptions,
            out.origin_bytes,
            out.delivered_bytes,
            out.egress_ratio(),
            &out.tier_reports,
        );
        (out.merged, registry.snapshot(), edge)
    } else {
        let cfg = lsw::edge::EdgeConfig {
            topology,
            relay: lsw::edge::RelayConfig {
                admission: server.admission,
                ..lsw::edge::RelayConfig::default()
            },
            driver_workers: server.workers.max(2),
            origin: ServerConfig {
                admission: origin_admission,
                ..server
            },
        };
        eprintln!(
            "replaying {} transfers over {} trace-second(s) at {}x through {topology}",
            schedule.len(),
            schedule.horizon(),
            cfg.origin.compression,
        );
        let exposition = Exposition::start(registry, expose);
        let out = lsw::edge::run_edge(schedule, &cfg, Arc::clone(registry)).unwrap_or_else(|e| {
            eprintln!("edge replay failed: {e}");
            exit(1);
        });
        exposition.finish();
        eprintln!(
            "replayed {} transfer(s): {} completed, {} rejected, {} short, \
             {} connect failure(s) over {} subscription(s)",
            out.driven.launched + out.driven.connect_failures,
            out.driven.completed,
            out.driven.rejected,
            out.driven.short,
            out.driven.connect_failures,
            out.egress.subscriptions,
        );
        eprintln!(
            "origin egress: {} of {} delivered byte(s) (ratio {:.4})",
            out.egress.origin_bytes,
            out.egress.delivered_bytes,
            out.egress.egress_ratio()
        );
        let edge = edge_json(
            topology,
            out.egress.subscriptions,
            out.egress.origin_bytes,
            out.egress.delivered_bytes,
            out.egress.egress_ratio(),
            &out.tier_reports,
        );
        (out.merged, out.metrics, edge)
    }
}

fn cmd_replay(args: &[String]) {
    use lsw::replay::{closed_loop, drive, reference_report, run_virtual, DriverConfig};

    let schedule = load_schedule(args);
    let (server, expose) = serve_flags(args);
    let topology = topology_flag(args);
    let registry = Arc::new(Registry::new());
    let reference = reference_report(&schedule, StreamConfig::default());

    let (tap, closed, edge) = if topology.is_edge() {
        let serving = (server, expose);
        let (tap, closed, edge) = run_replay_edge(args, &schedule, topology, serving, &registry);
        (tap, closed, Some(edge))
    } else if args.iter().any(|a| a == "--virtual-time") {
        let out = run_virtual(&schedule, server.admission, server.stream, &registry);
        eprintln!(
            "virtual replay: {} completed, {} rejected, {} bytes served",
            out.completed, out.rejected, out.bytes_served
        );
        (out.tap, registry.snapshot(), None)
    } else {
        let clock = Arc::new(WallClock::start());
        let (compression, driver_workers) = (server.compression, server.workers.max(2));
        let server = start_server(server, &schedule, &clock, &registry);
        eprintln!(
            "replaying {} transfers over {} trace-second(s) at {compression}x against {}",
            schedule.len(),
            schedule.horizon(),
            server.local_addr(),
        );
        let exposition = Exposition::start(&registry, expose);
        let driver_cfg = DriverConfig {
            workers: driver_workers,
            ..DriverConfig::new(server.local_addr(), compression)
        };
        let outcome = drive(&schedule, &driver_cfg, &clock, &registry).unwrap_or_else(|e| {
            eprintln!("replay driver failed: {e}");
            exit(1);
        });
        let served = server.finish();
        exposition.finish();
        eprintln!(
            "replayed {} transfer(s): {} completed, {} rejected, {} short, {} connect failure(s)",
            outcome.launched + outcome.connect_failures,
            outcome.completed,
            outcome.rejected,
            outcome.short,
            outcome.connect_failures,
        );
        (served.tap, served.metrics, None)
    };

    let diff = closed_loop(&reference, &tap);
    let within = report_loop(args, &tap, &diff, &closed, edge);
    if !within && !args.iter().any(|a| a == "--no-assert") {
        eprintln!(
            "closed-loop check FAILED: {} metric(s) outside sketch error bounds",
            diff.violations().len()
        );
        exit(1);
    }
}

fn cmd_serve(args: &[String]) {
    let schedule = load_schedule(args);
    let (cfg, expose) = serve_flags(args);
    let compression = cfg.compression;
    // Default lifetime: the whole compressed trace span plus drain slack.
    let default_for = f64::from(schedule.horizon()) / compression.max(1.0) + 5.0;
    let for_secs: f64 = parse_or(flag_value(args, "--for"), default_for, "--for");

    let registry = Arc::new(Registry::new());
    let clock = Arc::new(WallClock::start());
    let server = start_server(cfg, &schedule, &clock, &registry);
    println!("{}", server.local_addr());
    eprintln!(
        "serving {} feed(s) at {compression}x for {for_secs:.1}s on {}",
        schedule.object_rates().len(),
        server.local_addr(),
    );
    let exposition = Exposition::start(&registry, expose);
    std::thread::sleep(std::time::Duration::from_secs_f64(for_secs.max(0.0)));
    let served = server.finish();
    exposition.finish();
    eprintln!(
        "served: {} accepted, {} rejected",
        served.admission.accepted, served.admission.rejected
    );
    println!("{}", served.tap.headline());
}
