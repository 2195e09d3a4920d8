//! `lsw-benchmark` — the repository's benchmark.
//!
//! ```text
//! lsw-benchmark --workload W --seed N --seconds S --trace 0|1 [--scale full|smoke]
//! lsw-benchmark [--seed N] [--seconds S] [--reps R] [--scale full|smoke] [--out DIR]
//! lsw-benchmark --compare PARENT.json CHANGE.json
//! lsw-benchmark --manifest
//! ```
//!
//! The first form is one run as `BENCHMARK.json` describes it: build the
//! workload's seeded dataset three times (`setup_s` is the median), then
//! measure passes of the workload for `S` seconds in a child process of
//! its own — so CPU time and `VmHWM` are the workload's, not the
//! set-up's — check every output, and print one JSON line. With
//! `--trace 1` every other pass records spans and the line carries the
//! per-layer metrics instead of the end-to-end ones.
//!
//! The second form runs every workload that way, `R` timed runs plus one
//! traced run each, prints every metric with its unit, sample count,
//! median and range, and writes `result.json` (and the traced runs'
//! `spans-<workload>.json`) to `DIR`. `--compare` applies the bounds to
//! two such files. `--manifest` prints `BENCHMARK.json`.
//!
//! See `BENCHMARK.md` next to this package for what each workload and
//! metric is for.

// A benchmark exists to read the clock; the workspace-wide ban on ambient
// time (clippy.toml, mirroring xtask L002) is for the deterministic crates.
#![allow(clippy::disallowed_methods)]

mod compare;
mod dataset;
mod metrics;
mod procfs;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::Value;

use dataset::{Built, Sizes};
use metrics::{median, object, END_TO_END, PER_LAYER};
use spans::{Spans, PASS};
use workloads::{Inputs, Pass, Workload};

/// Dataset builds per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if has_flag(&args, "--manifest") {
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        let manifest = metrics::manifest(&workloads);
        println!(
            "{}",
            serde_json::to_string_pretty(&manifest).unwrap_or_default()
        );
        Ok(true)
    } else if let Some(at) = args.iter().position(|a| a == "--compare") {
        match (args.get(at + 1), args.get(at + 2)) {
            (Some(parent), Some(change)) => compare::compare(parent, change),
            _ => Err("--compare takes PARENT.json CHANGE.json".into()),
        }
    } else if has_flag(&args, "--measure") {
        measure(&args).map(|()| true)
    } else if flag_value(&args, "--workload").is_some() {
        run_one(&args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("lsw-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

/// Parses `--name VALUE`, or yields `default` when the flag is absent.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad value for {name}: {s:?}")),
    }
}

fn workload_arg(args: &[String]) -> Result<Workload, String> {
    let name = flag_value(args, "--workload").unwrap_or_default();
    Workload::parse(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", known.join(", "))
    })
}

fn sizes_arg(args: &[String]) -> Result<Sizes, String> {
    let scale = flag_value(args, "--scale").unwrap_or("full");
    Sizes::parse(scale).ok_or_else(|| format!("bad value for --scale: {scale:?}"))
}

/// Where results and datasets go: `--out`, else `lsw-benchmark/` in the
/// target directory this executable was built into.
fn out_dir(args: &[String]) -> Result<PathBuf, String> {
    if let Some(dir) = flag_value(args, "--out") {
        return Ok(PathBuf::from(dir));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))?;
    Ok(target.join("lsw-benchmark"))
}

/// Removes a run's data directory when the run ends, however it ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The run refuses hosts that cannot hold its fixed thread shape, and
/// port ranges its socket workloads would exhaust.
fn preflight(workload: Workload, sizes: &Sizes) -> Result<(), String> {
    if procfs::nproc() < dataset::OFFLINE_THREADS {
        return Err(format!(
            "{} core(s) available; the fixed thread shape needs {}",
            procfs::nproc(),
            dataset::OFFLINE_THREADS
        ));
    }
    procfs::check_port_range(procfs::port_range(), workload.conns_per_listener(sizes))
}

/// One run: set up, then measure in a child process.
fn run_one(args: &[String]) -> Result<bool, String> {
    let workload = workload_arg(args)?;
    let sizes = sizes_arg(args)?;
    let seed: u64 = parsed(args, "--seed", 42)?;
    let seconds: f64 = parsed(args, "--seconds", metrics::RUN_SECONDS as f64)?;
    let trace: u8 = parsed(args, "--trace", 0)?;
    preflight(workload, &sizes)?;

    let out = out_dir(args)?;
    let data = DataDir(out.join(format!("data-{}", std::process::id())));
    std::fs::create_dir_all(&data.0).map_err(|e| format!("{}: {e}", data.0.display()))?;

    let config = sizes.config(workload.matched());
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built: Option<Built> = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let this = dataset::build(&config, seed, &data.0, workload.artifact())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if built.is_some_and(|b| b != this) {
            return Err(format!("seed {seed} built {built:?}, then {this:?}"));
        }
        built = Some(this);
    }
    let built = built.unwrap_or_default();

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg("--measure")
        .args(["--workload", workload.name(), "--scale", sizes.name])
        .arg("--data")
        .arg(&data.0)
        .arg("--spans")
        .arg(out.join(format!("spans-{}.json", workload.name())))
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .args(["--setup-s", &median(&setup_s).to_string()])
        .args(["--expect-sessions", &built.sessions.to_string()])
        .args(["--expect-transfers", &built.transfers.to_string()])
        .args(["--expect-crc", &built.text_crc.to_string()])
        // `characterize_with` and `StreamConfig::default` size themselves
        // from this variable; pin them to the fixed thread shape.
        .env(
            lsw_stats::par::THREADS_ENV,
            dataset::OFFLINE_THREADS.to_string(),
        )
        .status()
        .map_err(|e| format!("spawn measuring process: {e}"))?;
    Ok(status.success())
}

/// The measuring process: passes of one workload for `--seconds`, then
/// the result line.
fn measure(args: &[String]) -> Result<(), String> {
    let workload = workload_arg(args)?;
    let inputs = Inputs {
        sizes: sizes_arg(args)?,
        data: PathBuf::from(flag_value(args, "--data").ok_or("--measure needs --data")?),
        seed: parsed(args, "--seed", 0)?,
        expect: Built {
            sessions: parsed(args, "--expect-sessions", 0)?,
            transfers: parsed(args, "--expect-transfers", 0)?,
            text_crc: parsed(args, "--expect-crc", 0)?,
        },
    };
    let seconds: f64 = parsed(args, "--seconds", 0.0)?;
    let traced = parsed::<u8>(args, "--trace", 0)? != 0;
    let setup_s: f64 = parsed(args, "--setup-s", 0.0)?;

    let mut run = workloads::prepare(workload, &inputs)?;
    let mut spans = Spans::new();
    // A traced run records every other pass; the plain passes between
    // are the baseline its tracing overhead is measured against.
    let min_passes = if traced { 2 } else { 1 };
    let mut plain: Vec<Pass> = Vec::new();
    let mut recorded: Vec<(u32, Pass)> = Vec::new();
    let started = Instant::now();
    loop {
        let rep = (plain.len() + recorded.len()) as u32;
        spans.rep = rep;
        spans.enabled = traced && rep % 2 == 1;
        // The mark is reset before every pass, so the preparation does not
        // show in the peak and each pass's own can be logged.
        procfs::reset_peak_rss();
        let mut pass = run.pass(&mut spans)?;
        pass.peak_rss_mib = procfs::peak_rss_mib();
        eprintln!(
            "{} pass {rep}{}: wall {:.3} s, cpu {:.3} s, peak rss {:.1} MiB",
            workload.name(),
            if spans.enabled { " (traced)" } else { "" },
            pass.wall_s,
            pass.cpu_s,
            pass.peak_rss_mib
        );
        if spans.enabled {
            recorded.push((rep, pass));
        } else {
            plain.push(pass);
        }
        let passes = plain.iter().chain(recorded.iter().map(|(_, p)| p));
        let typical_s = median_of(passes, |p| p.wall_s);
        // Stop when another pass would overshoot by more than it undershoots.
        let done = started.elapsed().as_secs_f64() + typical_s / 2.0 >= seconds;
        if plain.len() + recorded.len() >= min_passes && done {
            break;
        }
    }

    let all = || plain.iter().chain(recorded.iter().map(|(_, p)| p));
    let mut digests = all().filter_map(|p| p.digest);
    if let Some(first) = digests.next() {
        if digests.any(|d| d != first) {
            return Err("outputs differ from pass to pass".into());
        }
    }
    let attempted: u64 = all().map(|p| p.attempted).sum();
    let failed: u64 = all().map(|p| p.failed).sum();

    let line = if traced {
        if let Some(path) = flag_value(args, "--spans") {
            let dump = serde_json::to_string_pretty(&spans.to_json(workload.name()));
            std::fs::write(path, dump.unwrap_or_default()).map_err(|e| format!("{path}: {e}"))?;
        }
        let layers = layer_metrics(&spans, &plain, &recorded)?;
        let rows: Vec<_> = PER_LAYER
            .iter()
            .zip(&layers)
            .map(|(m, &v)| (m.name, m.unit, v))
            .collect();
        metrics::result_line(attempted, failed, &rows)
    } else {
        let over = |f: fn(&Pass) -> f64| median_of(plain.iter(), f);
        // A peak is a maximum: on the socket workloads a pass's mark depends
        // on how much payload had arrived when a buffer was sized, and the
        // largest of the run's passes is what repeats from run to run.
        let peak_rss_mib = plain.iter().map(|p| p.peak_rss_mib).fold(0.0, f64::max);
        let values = [
            setup_s,
            over(|p| p.wall_s),
            over(|p| p.cpu_s),
            peak_rss_mib,
            over(|p| p.transfers as f64 / p.wall_s),
            over(|p| p.io_bytes as f64 / 1e9 / p.wall_s),
        ];
        let rows: Vec<_> = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect();
        metrics::result_line(attempted, failed, &rows)
    };
    println!("{line}");
    Ok(())
}

fn median_of<'a>(passes: impl Iterator<Item = &'a Pass>, f: fn(&Pass) -> f64) -> f64 {
    median(&passes.map(f).collect::<Vec<_>>())
}

/// One value per [`PER_LAYER`] entry: the median over the traced passes
/// of each span's self time and each reported count; 0 for layers the
/// workload does not run.
fn layer_metrics(
    spans: &Spans,
    plain: &[Pass],
    recorded: &[(u32, Pass)],
) -> Result<Vec<f64>, String> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); PER_LAYER.len()];
    let mut push = |name: &str, value: f64| -> Result<(), String> {
        let at = PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| format!("{name} is not in the per-layer table"))?;
        samples[at].push(value);
        Ok(())
    };
    for (rep, pass) in recorded {
        let busy = spans.busy_s(*rep);
        for (&name, &self_s) in &busy {
            if name == PASS {
                // What no layer span covers: glue between the calls.
                push("trace.unattributed_share", self_s / pass.wall_s)?;
            } else {
                push(&format!("{name}.busy_s"), self_s)?;
            }
        }
        for &(name, value) in &pass.layers {
            push(name, value)?;
        }
    }
    let plain_s = median_of(plain.iter(), |p| p.wall_s);
    let traced_s = median_of(recorded.iter().map(|(_, p)| p), |p| p.wall_s);
    push("trace.overhead_share", (traced_s - plain_s) / plain_s)?;
    push("trace.passes", recorded.len() as f64)?;
    Ok(samples.iter().map(|s| median(s)).collect())
}

// ---------------------------------------------------------------------
// The whole suite
// ---------------------------------------------------------------------

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host a result was measured on.
fn host() -> Value {
    let port_range = procfs::port_range().map_or(Value::Null, |(lo, hi)| {
        Value::Array(vec![Value::U64(lo.into()), Value::U64(hi.into())])
    });
    object(vec![
        ("nproc", Value::U64(procfs::nproc() as u64)),
        ("kernel", Value::Str(procfs::kernel_release())),
        (
            "git_head",
            Value::Str(git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_dirty",
            git(&["status", "--porcelain"]).map_or(Value::Null, |s| Value::Bool(!s.is_empty())),
        ),
        ("ip_local_port_range", port_range),
        // Socket traffic crosses loopback, never a link.
        ("network", Value::Str("loopback".into())),
    ])
}

/// The fixed thread shape, as results record it.
fn thread_shape() -> Value {
    object(vec![
        (
            "offline_threads",
            Value::U64(dataset::OFFLINE_THREADS as u64),
        ),
        ("stream_shards", Value::U64(dataset::OFFLINE_THREADS as u64)),
        ("server_shards", Value::U64(dataset::SERVER_SHARDS as u64)),
        ("driver_workers", Value::U64(dataset::DRIVER_WORKERS as u64)),
        ("edge_topology", Value::Str(dataset::EDGE_TOPOLOGY.into())),
    ])
}

/// Runs `--workload` in a child and parses its result line.
fn run_captured(
    args: &[String],
    workload: Workload,
    out: &Path,
    trace: u8,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name(), "--trace", &trace.to_string()])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit());
    for flag in ["--seed", "--seconds", "--scale"] {
        if let Some(value) = flag_value(args, flag) {
            command.args([flag, value]);
        }
    }
    let output = command.output().map_err(|e| format!("spawn run: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} failed (--trace {trace})", workload.name()));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{} result line: {e}", workload.name()))
}

fn metric_value(result: &Value, name: &str) -> Result<f64, String> {
    result
        .field("metrics")
        .and_then(|m| m.field(name))
        .and_then(|m| m.field("value"))
        .map_err(|e| format!("{name}: {e}"))?
        .as_f64()
        .ok_or_else(|| format!("{name}: not a number"))
}

/// Every workload: `--reps` timed runs and one traced run each.
fn run_all(args: &[String]) -> Result<bool, String> {
    let sizes = sizes_arg(args)?;
    let seed: u64 = parsed(args, "--seed", 42)?;
    let seconds: f64 = parsed(args, "--seconds", metrics::RUN_SECONDS as f64)?;
    let reps: usize = parsed(args, "--reps", 3)?;
    let out = out_dir(args)?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        eprintln!("== {}", workload.name());
        let mut timed = Vec::with_capacity(reps);
        for _ in 0..reps {
            timed.push(run_captured(args, workload, &out, 0)?);
        }
        let traced = run_captured(args, workload, &out, 1)?;

        let count = |name: &str| -> u64 {
            let of = |r: &Value| r.field(name).ok().and_then(Value::as_u64).unwrap_or(0);
            timed.iter().map(of).sum::<u64>() + of(&traced)
        };
        let mut end_to_end = Vec::new();
        for m in &END_TO_END {
            let values = timed
                .iter()
                .map(|r| metric_value(r, m.name))
                .collect::<Result<Vec<f64>, String>>()?;
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            println!(
                "{:<20} {:<44} {:>14.4} {:<6} n={} min {:.4} max {:.4}",
                workload.name(),
                m.name,
                median(&values),
                m.unit,
                values.len(),
                lo,
                hi
            );
            end_to_end.push((
                m.name,
                object(vec![
                    ("unit", Value::Str(m.unit.into())),
                    (
                        "values",
                        Value::Array(values.into_iter().map(Value::F64).collect()),
                    ),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for m in &PER_LAYER {
            let value = metric_value(&traced, m.name)?;
            if value != 0.0 {
                println!(
                    "{:<20} {:<44} {:>14.4} {:<6} n=1",
                    workload.name(),
                    m.name,
                    value,
                    m.unit
                );
            }
            per_layer.push((
                m.name,
                object(vec![
                    ("unit", Value::Str(m.unit.into())),
                    ("value", Value::F64(value)),
                ]),
            ));
        }
        workloads.push(object(vec![
            ("name", Value::Str(workload.name().into())),
            ("attempted", Value::U64(count("attempted"))),
            ("failed", Value::U64(count("failed"))),
            ("end_to_end", object(end_to_end)),
            ("per_layer", object(per_layer)),
        ]));
    }

    let result = object(vec![
        // Only full-scale results may be held against each other.
        ("comparable", Value::Bool(sizes == Sizes::FULL)),
        ("scale", Value::Str(sizes.name.into())),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("reps", Value::U64(reps as u64)),
        ("host", host()),
        ("thread_shape", thread_shape()),
        ("workloads", Value::Array(workloads)),
    ]);
    let path = out.join("result.json");
    let text = serde_json::to_string_pretty(&result).unwrap_or_default();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(true)
}
