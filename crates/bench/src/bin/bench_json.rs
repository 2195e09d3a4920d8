//! `bench-json` — machine-readable throughput benchmark.
//!
//! Times the hot pipeline stages with `std::time::Instant` (no Criterion
//! harness, so it runs in seconds and emits one JSON file) and writes
//! `BENCH_throughput.json` with elements/sec per stage, the thread counts
//! used, the host core count, and the git sha. The headline comparison is
//! workload generation at 1 thread vs N threads: on a host with >= 4 cores
//! the parallel generator should clear 3x the single-thread elements/sec.
//!
//! ```text
//! cargo run --release -p lsw-bench --bin bench-json [-- OUT.json]
//! ```

// Benchmarks exist to measure wall-clock time; the workspace-wide ban on
// ambient clocks (clippy disallowed-methods mirroring xtask L002) targets
// the deterministic pipeline, not the harness timing it.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::Instant;

use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_replay::{
    drive, DataPlane, DriverConfig, Registry, ReplayServer, ServerConfig, SlowClientPolicy,
    WallClock,
};
use lsw_stats::par::Parallelism;
use lsw_trace::concurrency::ConcurrencyProfile;
use lsw_trace::event::{LogEntry, LogEntryBuilder};
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::schedule::Schedule;
use lsw_trace::session::{SessionConfig, Sessions};

/// Iterations per stage; the fastest run is reported.
const ITERS: usize = 3;

/// Live replay regime: 512 concurrent fat feeds, each streaming 20
/// trace-MB/s for 800 trace seconds at 400x time compression — a ~2 s
/// wall window moving ~20 GB of wire payload through one server shard.
/// Deep saturation is the point: in pacing-bound regimes both data
/// planes just follow the schedule and measure the same, so the stage
/// would not regress when the reactor does.
const REPLAY_CONNS: u32 = 512;
/// Trace seconds each replay transfer runs for.
const REPLAY_DUR: u32 = 800;
/// Per-connection trace bandwidth in KB/s.
const REPLAY_RATE_KB: u64 = 20_000;
/// Trace-to-wall time compression for the replay stages.
const REPLAY_COMPRESSION: f64 = 400.0;

/// All [`REPLAY_CONNS`] transfers join at t=0 and stream one object
/// each for [`REPLAY_DUR`] trace seconds at [`REPLAY_RATE_KB`] KB/s.
fn replay_schedule() -> Schedule {
    let entries: Vec<LogEntry> = (0..REPLAY_CONNS)
        .map(|i| {
            LogEntryBuilder::new()
                .span(0, REPLAY_DUR)
                .client(ClientId(i))
                .origin(
                    Ipv4Addr(0x0a00_0000 + i),
                    AsId((i % 7) as u16),
                    CountryCode(*b"BR"),
                )
                .object(ObjectId(i as u16), 0)
                .transfer_stats(REPLAY_RATE_KB * 1_000 * u64::from(REPLAY_DUR), 350_000, 0.0)
                .build()
        })
        .collect();
    Schedule::from_entries(&entries)
}

/// One closed-loop live replay run over real sockets; returns the wire
/// payload bytes received plus the server's pacing error p50/p99 in
/// microseconds. Panics if the loop did not close cleanly (a refused
/// connect, admission rejection, or short transfer would make the two
/// planes' byte counts incomparable).
fn replay_run(plane: DataPlane) -> (u64, f64, f64) {
    let schedule = replay_schedule();
    let clock = Arc::new(WallClock::start());
    let registry = Arc::new(Registry::new());
    let server = ReplayServer::start(
        ServerConfig {
            compression: REPLAY_COMPRESSION,
            workers: 1,
            data_plane: plane,
            slow_policy: SlowClientPolicy::Backpressure,
            send_buffer: u64::MAX / 4,
            lookahead: schedule.max_duration(),
            ..ServerConfig::default()
        },
        &schedule.object_rates(),
        Arc::clone(&clock),
        Arc::clone(&registry),
    )
    .expect("replay server binds on loopback");
    let mut driver_cfg = DriverConfig::new(server.local_addr(), REPLAY_COMPRESSION);
    driver_cfg.workers = 2;
    let outcome = drive(&schedule, &driver_cfg, &clock, &registry).expect("replay drive");
    let served = server.finish();
    assert!(
        outcome.connect_failures == 0 && outcome.rejected == 0 && outcome.short == 0,
        "replay loop must close cleanly: {outcome:?}"
    );
    let (_, p50, _, p99) = served
        .metrics
        .histogram("srv.pacing_error_ns")
        .unwrap_or((0, 0.0, 0.0, 0.0));
    (outcome.bytes_received, p50 / 1e3, p99 / 1e3)
}

/// Edge fan-out regime: 256 clients collapsing onto 4 hot live objects
/// through 2 relays — the hierarchical overlay's sweet spot. Clients
/// per subscription ≈ 32, so origin egress is a sliver of delivery.
const EDGE_CONNS: u32 = 256;
/// Distinct live objects the edge clients watch.
const EDGE_OBJECTS: u16 = 4;
/// Trace seconds each edge client streams for.
const EDGE_DUR: u32 = 400;
/// Per-client trace bandwidth in KB/s.
const EDGE_RATE_KB: u64 = 8_000;

/// All [`EDGE_CONNS`] clients join at t=0 and stream one of
/// [`EDGE_OBJECTS`] hot objects for [`EDGE_DUR`] trace seconds.
fn edge_schedule() -> Schedule {
    let entries: Vec<LogEntry> = (0..EDGE_CONNS)
        .map(|i| {
            LogEntryBuilder::new()
                .span(0, EDGE_DUR)
                .client(ClientId(i))
                .origin(
                    Ipv4Addr(0x0a00_0000 + i),
                    AsId((i % 13) as u16),
                    CountryCode(*b"BR"),
                )
                .object(ObjectId(i as u16 % EDGE_OBJECTS), 0)
                .transfer_stats(EDGE_RATE_KB * 1_000 * u64::from(EDGE_DUR), 350_000, 0.0)
                .build()
        })
        .collect();
    Schedule::from_entries(&entries)
}

/// One hierarchical fan-out run over real sockets: origin + 2 relays,
/// every client completing through its relay's broadcast ring. Returns
/// the wire payload bytes delivered to clients. Panics unless the loop
/// closes cleanly and the overlay actually saved origin egress — a
/// broken ring would either truncate clients or collapse the fan-in.
fn edge_run() -> u64 {
    let schedule = edge_schedule();
    let registry = Arc::new(Registry::new());
    let cfg = lsw_edge::EdgeConfig {
        topology: lsw_edge::Topology {
            relays: 2,
            route_by: lsw_edge::RouteBy::As,
        },
        origin: ServerConfig {
            compression: REPLAY_COMPRESSION,
            workers: 1,
            slow_policy: SlowClientPolicy::Backpressure,
            send_buffer: u64::MAX / 4,
            ..ServerConfig::default()
        },
        relay: lsw_edge::RelayConfig {
            slow_policy: SlowClientPolicy::Backpressure,
            ..lsw_edge::RelayConfig::default()
        },
        driver_workers: 2,
    };
    let out = lsw_edge::run_edge(&schedule, &cfg, registry).expect("edge run");
    assert!(
        out.driven.connect_failures == 0
            && out.driven.rejected == 0
            && out.driven.completed == u64::from(EDGE_CONNS),
        "edge loop must close cleanly: {:?}",
        out.driven
    );
    assert!(
        out.egress.egress_ratio() < 1.0,
        "overlay must save origin egress: {} sent vs {} delivered",
        out.egress.origin_bytes,
        out.egress.delivered_bytes
    );
    out.egress.delivered_bytes
}

fn bench_config() -> WorkloadConfig {
    WorkloadConfig::paper().scaled(15_000, 86_400, 25_000)
}

/// Total CPU seconds (user + system, summed over every thread) this
/// process has burned so far, from `/proc/self/stat`. `None` off Linux
/// or when the file cannot be read. CPU time is what makes per-stage
/// numbers comparable across hosts: on a 1-CPU box a "parallel" stage's
/// wall time hides the serialization that its CPU time exposes.
fn process_cpu_secs() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // comm (field 2) may contain spaces; everything after the closing
        // paren is fixed-position, starting at field 3 (state).
        let rest = stat.rsplit_once(')')?.1;
        let mut fields = rest.split_ascii_whitespace();
        let utime: f64 = fields.nth(11)?.parse().ok()?; // field 14
        let stime: f64 = fields.next()?.parse().ok()?; // field 15
                                                       // Clock-tick unit: USER_HZ is 100 on every mainstream Linux.
        Some((utime + stime) / 100.0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Run `f` [`ITERS`] times and return (result of last run, best wall
/// secs, CPU secs spent during that best run).
fn time<T>(mut f: impl FnMut() -> T) -> (T, f64, Option<f64>) {
    let mut best = f64::INFINITY;
    let mut best_cpu = None;
    let mut out = None;
    for _ in 0..ITERS {
        let c0 = process_cpu_secs();
        let t0 = Instant::now();
        let v = f();
        let wall = t0.elapsed().as_secs_f64();
        if wall < best {
            best = wall;
            best_cpu = process_cpu_secs()
                .zip(c0)
                .map(|(c1, c0)| (c1 - c0).max(0.0));
        }
        out = Some(v);
    }
    (out.expect("ITERS > 0"), best, best_cpu)
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

struct Stage {
    name: &'static str,
    threads: usize,
    elements: usize,
    /// Best wall-clock seconds over [`ITERS`] runs.
    secs: f64,
    /// Process CPU seconds burned during the best run (`null` when the
    /// host cannot report them). Wall alone misleads on small hosts: at 1
    /// CPU a parallel stage's wall time equals its CPU time, and any
    /// wall-derived "speedup" is pure scheduler noise.
    cpu_secs: Option<f64>,
    /// Resident sketch bytes, for bounded-memory stages.
    sketch_bytes: Option<u64>,
}

impl Stage {
    fn rate(&self) -> f64 {
        self.elements as f64 / self.secs
    }

    fn json(&self) -> String {
        let cpu = self
            .cpu_secs
            .map_or("null".to_string(), |c| format!("{c:.6}"));
        let sketch = self
            .sketch_bytes
            .map_or(String::new(), |b| format!(", \"sketch_bytes\": {b}"));
        format!(
            "    {{ \"stage\": \"{}\", \"threads\": {}, \"elements\": {}, \
             \"secs\": {:.6}, \"cpu_secs\": {}, \"elements_per_sec\": {:.1}{} }}",
            self.name,
            self.threads,
            self.elements,
            self.secs,
            cpu,
            self.rate(),
            sketch
        )
    }
}

/// Pull `(stage, threads, elements_per_sec)` triples plus the recorded
/// generate speedup (absent or `null` on single-CPU hosts) out of a
/// benchmark JSON file. Field-order tolerant but schema-exact: it reads
/// the same hand-formatted shape `main` writes.
fn read_baseline(path: &str) -> (Vec<(String, u64, f64)>, Option<f64>) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    let value: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse baseline {path}: {e}"));
    let stages = value["stages"].as_array().expect("baseline has stages[]");
    let triples = stages
        .iter()
        .map(|s| {
            (
                s["stage"].as_str().expect("stage name").to_string(),
                s["threads"].as_u64().expect("stage threads"),
                s["elements_per_sec"].as_f64().expect("stage rate"),
            )
        })
        .collect();
    (triples, value["generate_speedup"].as_f64())
}

/// Allowed regression before `--check` fails: a stage may run up to 25%
/// slower than the committed baseline before the perf-smoke job goes red.
const CHECK_TOLERANCE: f64 = 0.25;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out_path, check_path) = match args.split_first() {
        Some((flag, rest)) if flag == "--check" => {
            let base = rest
                .first()
                .cloned()
                .unwrap_or_else(|| "BENCH_throughput.json".to_string());
            ("/dev/null".to_string(), Some(base))
        }
        Some((out, _)) => (out.clone(), None),
        None => ("BENCH_throughput.json".to_string(), None),
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let par_threads = Parallelism::auto().threads().max(4);
    let config = bench_config();
    let seed = 9001;

    eprintln!("bench-json: host_cpus={host_cpus}, parallel stages use {par_threads} threads");

    let gen = |threads: usize| {
        let config = config.clone();
        move || {
            Generator::new(config.clone(), seed)
                .expect("valid config")
                .with_parallelism(Parallelism::fixed(threads))
                .generate()
        }
    };

    let (workload, secs_1, cpu_1) = time(gen(1));
    let n_transfers = workload.len();
    let (_, secs_n, cpu_n) = time(gen(par_threads));
    let trace = workload.render();

    let (sessions, sess_secs, sess_cpu) = time(|| {
        Sessions::identify_with(
            &trace,
            SessionConfig::default(),
            Parallelism::fixed(par_threads),
        )
    });
    let intervals: Vec<(u32, u32)> = trace
        .entries()
        .iter()
        .map(|e| (e.start, e.start + e.duration))
        .collect();
    let horizon = intervals.iter().map(|&(_, hi)| hi).max().unwrap_or(0) + 1;
    let (_, conc_secs, conc_cpu) = time(|| {
        ConcurrencyProfile::from_intervals_par(&intervals, horizon, Parallelism::fixed(par_threads))
    });

    // One-pass streaming characterization over the rendered log text:
    // lines/sec through parse + sketches + look-ahead reorder + online
    // sessionization, plus the resident sketch footprint.
    let log_text =
        String::from_utf8(lsw_trace::wms::format_log(trace.entries()).to_vec()).expect("ASCII log");
    let n_lines = log_text.lines().count();
    let (stream_report, stream_secs, stream_cpu) = time(|| {
        let mut engine = lsw_stream::StreamAnalyzer::new(lsw_stream::StreamConfig {
            shards: par_threads,
            ..lsw_stream::StreamConfig::default()
        });
        engine.ingest_str(&log_text);
        engine.finalize()
    });

    // Zero-copy parse alone (no sketches, no sessionization): the raw
    // byte-scanner throughput over the same rendered log.
    let (parsed_ok, parse_secs, parse_cpu) = time(|| {
        let mut ok = 0u64;
        for item in lsw_trace::wms::parse_lines_bytes(log_text.as_bytes()) {
            ok += u64::from(item.is_ok());
        }
        ok
    });
    assert_eq!(
        parsed_ok as usize,
        trace.len(),
        "parse must keep every line"
    );

    // Text → columnar conversion: parse every line and append to the
    // block writer — the `lsw convert` hot path.
    let (ltc_image, convert_secs, convert_cpu) = time(|| {
        let mut out = Vec::new();
        let mut w = lsw_trace::ltc::LtcWriter::new(&mut out).expect("vec sink");
        for (_, e) in lsw_trace::wms::parse_lines_bytes(log_text.as_bytes()).flatten() {
            w.push(&e).expect("vec sink");
        }
        w.finish().expect("vec sink");
        out
    });

    // Columnar block ingest: the same one-pass characterization fed from
    // the ltc container — block decode replaces text parse, and the
    // sorted footer flag bypasses the look-ahead heap.
    let (ltc_report, ltc_secs, ltc_cpu) = time(|| {
        let mut engine = lsw_stream::StreamAnalyzer::new(lsw_stream::StreamConfig {
            shards: par_threads,
            ..lsw_stream::StreamConfig::default()
        });
        engine.ingest_ltc_bytes(&ltc_image).expect("in-memory ltc");
        engine.finalize()
    });
    assert_eq!(
        ltc_report.summary.transfers, stream_report.summary.transfers,
        "ltc and text ingest must keep the same transfers"
    );

    // DES event pump: merge each transfer's start from the start-sorted
    // list (winning ties with the queue head) and queue only its stop —
    // the simulator's queue churn pattern, isolated from server/network
    // bookkeeping. Every start and every stop counts as one event.
    let (des_events, des_secs, des_cpu) = time(|| {
        let mut q = lsw_sim::des::EventQueue::new();
        let mut starts = workload.transfers().iter().peekable();
        let mut events = 0u64;
        loop {
            let start = starts.next_if(|t| {
                q.peek_time()
                    .map_or(true, |head| t.start.total_cmp(&head).is_le())
            });
            match start {
                Some(t) => q.schedule(t.start + t.duration, ()),
                None if q.pop().is_none() => break,
                None => {}
            }
            events += 1;
        }
        events
    });
    assert_eq!(
        des_events as usize,
        n_transfers * 2,
        "every start and stop runs once"
    );

    // Live replay over real loopback sockets, reactor plane vs the
    // tick-scan baseline at equal connection count. elements = wire
    // payload bytes received by the closed-loop driver, so
    // elements_per_sec is served bytes/sec and the two stages' ratio is
    // the reactor's speedup. Three threads move the bytes: one server
    // shard plus two driver workers.
    let ((reactor_bytes, reactor_p50, reactor_p99), reactor_secs, reactor_cpu) =
        time(|| replay_run(DataPlane::Reactor));
    let ((tick_bytes, tick_p50, tick_p99), tick_secs, tick_cpu) =
        time(|| replay_run(DataPlane::Tick));
    assert_eq!(
        reactor_bytes, tick_bytes,
        "both data planes must serve the same wire budget"
    );

    // Hierarchical fan-out over real sockets: origin + 2 relays, 256
    // clients on 4 hot objects. elements = wire payload bytes delivered
    // to clients, so elements_per_sec is edge delivery throughput. Five
    // threads move the bytes: one origin shard, two relay reactors, two
    // driver workers per relay (sharing the pool).
    let (edge_bytes, edge_secs, edge_cpu) = time(edge_run);

    // Whole-workspace static analysis: lex + item extraction + call-graph
    // construction + all eleven rules over every first-party source file.
    // files/sec is the number CI's xtask-lint-strict job experiences.
    let (lint_report, lint_secs, lint_cpu) = time(|| {
        xtask::run_lint(
            &xtask::workspace::workspace_root(),
            &xtask::LintOptions::default(),
        )
        .expect("workspace lint")
    });
    assert!(lint_report.clean(), "benchmarked workspace must lint clean");

    let stages = [
        Stage {
            name: "generate",
            threads: 1,
            elements: n_transfers,
            secs: secs_1,
            cpu_secs: cpu_1,
            sketch_bytes: None,
        },
        Stage {
            name: "generate",
            threads: par_threads,
            elements: n_transfers,
            secs: secs_n,
            cpu_secs: cpu_n,
            sketch_bytes: None,
        },
        Stage {
            name: "sessionize",
            threads: par_threads,
            elements: trace.len(),
            secs: sess_secs,
            cpu_secs: sess_cpu,
            sketch_bytes: None,
        },
        Stage {
            name: "concurrency",
            threads: par_threads,
            elements: intervals.len(),
            secs: conc_secs,
            cpu_secs: conc_cpu,
            sketch_bytes: None,
        },
        Stage {
            name: "stream_ingest",
            threads: par_threads,
            elements: n_lines,
            secs: stream_secs,
            cpu_secs: stream_cpu,
            sketch_bytes: Some(stream_report.memory.sketch_bytes),
        },
        Stage {
            name: "ltc_ingest",
            threads: par_threads,
            elements: trace.len(),
            secs: ltc_secs,
            cpu_secs: ltc_cpu,
            sketch_bytes: Some(ltc_report.memory.sketch_bytes),
        },
        Stage {
            name: "convert",
            threads: 1,
            elements: n_lines,
            secs: convert_secs,
            cpu_secs: convert_cpu,
            sketch_bytes: None,
        },
        Stage {
            name: "wms_parse",
            threads: 1,
            elements: n_lines,
            secs: parse_secs,
            cpu_secs: parse_cpu,
            sketch_bytes: None,
        },
        Stage {
            name: "des_pump",
            threads: 1,
            elements: des_events as usize,
            secs: des_secs,
            cpu_secs: des_cpu,
            sketch_bytes: None,
        },
        Stage {
            name: "replay_serve",
            threads: 3,
            elements: reactor_bytes as usize,
            secs: reactor_secs,
            cpu_secs: reactor_cpu,
            sketch_bytes: None,
        },
        Stage {
            name: "replay_serve_tick",
            threads: 3,
            elements: tick_bytes as usize,
            secs: tick_secs,
            cpu_secs: tick_cpu,
            sketch_bytes: None,
        },
        Stage {
            name: "edge_fanout",
            threads: 5,
            elements: edge_bytes as usize,
            secs: edge_secs,
            cpu_secs: edge_cpu,
            sketch_bytes: None,
        },
        Stage {
            name: "lint",
            threads: 1,
            elements: lint_report.scanned,
            secs: lint_secs,
            cpu_secs: lint_cpu,
            sketch_bytes: None,
        },
    ];
    // A "speedup" measured where threads cannot actually run in parallel
    // is pure noise, so single-CPU hosts record `null` instead of ~1.0.
    let speedup = (host_cpus > 1).then(|| stages[1].rate() / stages[0].rate());
    let speedup_json = speedup.map_or_else(|| "null".to_string(), |s| format!("{s:.3}"));
    // Served-bytes/sec ratio of the epoll reactor plane over the
    // tick-scan baseline at equal connection count. Wall-clock based on
    // purpose: both runs move the same bytes, so the ratio is exactly
    // the throughput gain a caller sees.
    let replay_speedup = (reactor_bytes as f64 / reactor_secs) / (tick_bytes as f64 / tick_secs);

    let body: Vec<String> = stages.iter().map(Stage::json).collect();
    let json = format!(
        "{{\n  \"git_sha\": \"{}\",\n  \"host_cpus\": {},\n  \"parallel_threads\": {},\n  \
         \"generate_speedup\": {},\n  \"replay_speedup\": {:.3},\n  \"stages\": [\n{}\n  ]\n}}\n",
        git_sha(),
        host_cpus,
        par_threads,
        speedup_json,
        replay_speedup,
        body.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");

    for s in &stages {
        let cpu = s
            .cpu_secs
            .map_or("     n/a".to_string(), |c| format!("{c:>7.3}s"));
        eprintln!(
            "  {:<12} threads={:<2} {:>9} elems in {:>8.3}s wall / {} cpu = {:>12.0} elems/s",
            s.name,
            s.threads,
            s.elements,
            s.secs,
            cpu,
            s.rate()
        );
    }
    eprintln!(
        "  replay reactor/tick = {replay_speedup:.2}x served bytes/s \
         (pacing p50/p99: reactor {reactor_p50:.0}/{reactor_p99:.0} us, \
         tick {tick_p50:.0}/{tick_p99:.0} us)"
    );
    match speedup {
        Some(s) => eprintln!(
            "  generate speedup at {par_threads} threads: {s:.2}x \
             (sessions identified: {})",
            sessions.all().len()
        ),
        None => eprintln!(
            "  generate speedup: n/a on a single-CPU host \
             (sessions identified: {})",
            sessions.all().len()
        ),
    }
    eprintln!("wrote {out_path}");

    if let Some(baseline_path) = check_path {
        let (baseline, base_speedup) = read_baseline(&baseline_path);
        let mut failures = Vec::new();
        // The parallel-generation ratio is only meaningful when both the
        // baseline host and this host could actually run threads in
        // parallel; a single-CPU run records (and checks against) null.
        match (speedup, base_speedup) {
            (Some(s), Some(base)) => {
                let floor = base * (1.0 - CHECK_TOLERANCE);
                let verdict = if s < floor { "FAIL" } else { "ok" };
                eprintln!(
                    "  check generate_speedup {s:>12.2} vs baseline {base:>12.2} \
                     (floor {floor:>12.2}) {verdict}"
                );
                if s < floor {
                    failures.push(format!("generate speedup regressed: {s:.2}x < {floor:.2}x"));
                }
            }
            _ => eprintln!("  check generate_speedup skipped (single-CPU host or null baseline)"),
        }
        for (name, threads, base_rate) in &baseline {
            let Some(stage) = stages
                .iter()
                .find(|s| s.name == name && s.threads == *threads as usize)
            else {
                failures.push(format!("stage {name} (threads={threads}) missing from run"));
                continue;
            };
            let floor = base_rate * (1.0 - CHECK_TOLERANCE);
            let verdict = if stage.rate() < floor { "FAIL" } else { "ok" };
            eprintln!(
                "  check {:<13} threads={:<2} {:>12.0} vs baseline {:>12.0} (floor {:>12.0}) {}",
                name,
                threads,
                stage.rate(),
                base_rate,
                floor,
                verdict
            );
            if stage.rate() < floor {
                failures.push(format!(
                    "stage {name} (threads={threads}) regressed: {:.0} < {floor:.0} \
                     elements/s ({:.0}% of baseline {base_rate:.0})",
                    stage.rate(),
                    100.0 * stage.rate() / base_rate,
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("perf-smoke FAILED against {baseline_path}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!("perf-smoke passed against {baseline_path}");
    }
}
