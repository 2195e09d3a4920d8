//! Sizes, thread shape and the seeded dataset every workload starts from.
//!
//! The seed enters here and nowhere else: a workload's measured passes
//! receive files, a schedule, or — for `generate_matched7`, whose timed
//! region *is* the generation — the same `(config, seed)` pair whose
//! output the set-up already fingerprinted.

use std::io::{self, Read};
use std::path::{Path, PathBuf};

use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_sim::{SimConfig, Simulator};
use lsw_stats::par::Parallelism;
use lsw_stream::StreamConfig;
use lsw_trace::ltc;
use lsw_trace::schedule::{Schedule, ScheduleStats};
use lsw_trace::wms;

/// Worker threads of every offline stage and shards of every stream
/// engine. Fixed, not derived from `nproc`, so two hosts with at least
/// this many cores run the same program.
pub const OFFLINE_THREADS: usize = 2;
/// Server shards of the flat live workloads and of the edge origin.
pub const SERVER_SHARDS: usize = 1;
/// Load-driver workers (per relay in the edge workload).
pub const DRIVER_WORKERS: usize = 1;
/// Relays of the edge workload, routed by client AS.
pub const EDGE_TOPOLOGY: &str = "origin:2:as";
/// Trace-to-wall compression of the two capacity-bound socket workloads.
pub const SATURATED_COMPRESSION: f64 = 400.0;

/// The stream-engine configuration of every ingest, tap and reference.
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        shards: OFFLINE_THREADS,
        ..StreamConfig::default()
    }
}

/// The offline stages' parallelism.
pub fn offline_parallelism() -> Parallelism {
    Parallelism::fixed(OFFLINE_THREADS)
}

/// Input sizes of one scale. `Full` is what `BENCHMARK.json` measures;
/// `Smoke` is 1/50 of it and exists so tests reach every code path and
/// correctness gate in seconds. Smoke results are not comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Scale name as written to result files.
    pub name: &'static str,
    /// Days of trace at the paper's density (clients and sessions scale
    /// with the days, so per-second concurrency stays the paper's).
    pub days: f64,
    /// `live_saturated`: connections, all joining at t = 0.
    pub saturated_conns: u32,
    /// `live_saturated`: trace seconds each connection streams for.
    pub saturated_trace_s: u32,
    /// `edge_hot`: clients, all joining at t = 0.
    pub edge_clients: u32,
    /// `edge_hot`: trace seconds each client streams for.
    pub edge_trace_s: u32,
    /// `live_churn`: consecutive dataset transfers replayed.
    pub churn_conns: usize,
    /// `live_churn`: trace second the slice starts at.
    pub churn_start_s: u32,
    /// `live_churn`: wall seconds the slice is compressed into, which
    /// fixes the offered connection rate at `churn_conns / churn_wall_s`.
    pub churn_wall_s: f64,
}

impl Sizes {
    /// One week at the paper's density: 615 k (`paper`) or 1.42 M
    /// (`matched`) transfers. The driver allots about 21 s per run
    /// including set-up, which rules out the paper's 28 days (one
    /// `batch` pass alone is 11 s there).
    pub const FULL: Sizes = Sizes {
        name: "full",
        days: 7.0,
        saturated_conns: 512,
        saturated_trace_s: 400,
        edge_clients: 256,
        edge_trace_s: 480,
        churn_conns: 4_000,
        // Day 3, 18:00: inside the evening peak.
        churn_start_s: 3 * 86_400 + 18 * 3_600,
        churn_wall_s: 2.4,
    };

    /// 1/50 of [`Sizes::FULL`].
    pub const SMOKE: Sizes = Sizes {
        name: "smoke",
        days: 0.14,
        saturated_conns: 64,
        saturated_trace_s: 64,
        edge_clients: 32,
        edge_trace_s: 80,
        churn_conns: 80,
        churn_start_s: 6_000,
        churn_wall_s: 0.3,
    };

    /// Parses `--scale`.
    pub fn parse(s: &str) -> Option<Sizes> {
        match s {
            "full" => Some(Self::FULL),
            "smoke" => Some(Self::SMOKE),
            _ => None,
        }
    }

    /// The generator configuration: `paper()` or `paper_scale_matched()`
    /// cut to `days` with the population and session target in proportion.
    pub fn config(&self, matched: bool) -> WorkloadConfig {
        let base = if matched {
            WorkloadConfig::paper_scale_matched()
        } else {
            WorkloadConfig::paper()
        };
        let share = self.days / 28.0;
        let clients = (base.n_clients as f64 * share) as usize;
        let sessions = (base.target_sessions as f64 * share) as usize;
        base.scaled(clients, (self.days * 86_400.0) as u32, sessions)
    }
}

/// What a workload's set-up leaves for its measured passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Nothing on disk: the formatted text's CRC and the counts, which
    /// every `generate_matched7` pass must reproduce.
    Fingerprint,
    /// `data.log`, the WMS text.
    Log,
    /// `data.ltc`, the columnar container.
    Ltc,
}

/// Counts and fingerprints of one dataset build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Built {
    /// Generated sessions.
    pub sessions: u64,
    /// Simulated transfers (= log records).
    pub transfers: u64,
    /// CRC-32 of the WMS text, when it was formatted.
    pub text_crc: u32,
}

/// Path of the WMS text inside a data directory.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join("data.log")
}

/// Path of the `ltc` container inside a data directory.
pub fn ltc_path(dir: &Path) -> PathBuf {
    dir.join("data.ltc")
}

/// Builds the dataset of `(config, seed)` and leaves `artifact` in `dir`:
/// generator, then simulator, then the format the workload reads, written
/// and read back once so the measured passes start from a warm page
/// cache. This whole function is what `setup_s` times.
pub fn build(
    config: &WorkloadConfig,
    seed: u64,
    dir: &Path,
    artifact: Artifact,
) -> Result<Built, String> {
    let workload = Generator::new(config.clone(), seed)?
        .with_parallelism(offline_parallelism())
        .generate();
    let sim = Simulator::new(SimConfig::default()).run(&workload, seed);
    let mut built = Built {
        sessions: workload.sessions().len() as u64,
        transfers: sim.trace.len() as u64,
        text_crc: 0,
    };
    let io_err = |e: io::Error| format!("dataset in {}: {e}", dir.display());
    match artifact {
        Artifact::Fingerprint => {
            built.text_crc = ltc::codec::crc32(&wms::format_log(sim.trace.entries()));
        }
        Artifact::Log => {
            let text = wms::format_log(sim.trace.entries());
            built.text_crc = ltc::codec::crc32(&text);
            std::fs::write(log_path(dir), &text).map_err(io_err)?;
            warm(&log_path(dir)).map_err(io_err)?;
        }
        Artifact::Ltc => {
            std::fs::File::create(ltc_path(dir))
                .and_then(|f| ltc::write_entries(sim.trace.entries(), io::BufWriter::new(f)))
                .map_err(io_err)?;
            warm(&ltc_path(dir)).map_err(io_err)?;
        }
    }
    Ok(built)
}

/// Reads a file once, discarding the bytes.
fn warm(path: &Path) -> io::Result<()> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    while file.read(&mut buf)? > 0 {}
    Ok(())
}

/// Longest a `live_churn` transfer stays connected, trace seconds. The
/// paper's length law is lognormal (median 80 s, a tail of hours): left
/// alone, a handful of long high-bandwidth transfers would set the
/// slice's horizon and byte volume, and with them the offered rate,
/// differently for every seed. The workload is about connects, not bytes.
pub const CHURN_MAX_DURATION_S: u32 = 300;

/// The `live_churn` schedule: the `n` consecutive transfers of `full`
/// starting at trace second `start_s`, rebased to t = 0, each cut to at
/// most [`CHURN_MAX_DURATION_S`] (bytes shrink with the duration, so the
/// rate is kept). `None` when the dataset has fewer than `n` transfers
/// from `start_s` on.
pub fn churn_slice(full: &Schedule, start_s: u32, n: usize) -> Option<Schedule> {
    let from = full.transfers.partition_point(|t| t.start < start_s);
    let window = full.transfers.get(from..from.checked_add(n)?)?;
    let first = window.first()?.start;
    let transfers = window
        .iter()
        .map(|t| {
            let mut t = *t;
            if t.duration > CHURN_MAX_DURATION_S {
                let bytes =
                    u128::from(t.bytes) * u128::from(CHURN_MAX_DURATION_S) / u128::from(t.duration);
                t.bytes = bytes as u64;
                t.duration = CHURN_MAX_DURATION_S;
            }
            t.start -= first;
            t
        })
        .collect();
    Some(Schedule {
        transfers,
        stats: ScheduleStats {
            examined: n as u64,
            ..ScheduleStats::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_trace::event::{LogEntry, LogEntryBuilder};
    use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};

    fn schedule(spans: &[(u32, u32)]) -> Schedule {
        let entries: Vec<LogEntry> = spans
            .iter()
            .enumerate()
            .map(|(i, &(start, duration))| {
                LogEntryBuilder::new()
                    .span(start, duration)
                    .client(ClientId(i as u32))
                    .origin(Ipv4Addr(i as u32), AsId(1), CountryCode(*b"BR"))
                    .object(ObjectId(0), 0)
                    .transfer_stats(1_000 * u64::from(duration), 56_000, 0.0)
                    .build()
            })
            .collect();
        Schedule::from_entries(&entries)
    }

    #[test]
    fn churn_slice_is_deterministic_rebased_and_cut() {
        let full = schedule(&[(5, 10), (100, 50), (110, 5_000), (120, 20), (400, 10)]);
        let a = churn_slice(&full, 100, 3).expect("three transfers from t=100");
        let b = churn_slice(&full, 100, 3).expect("three transfers from t=100");
        assert_eq!(a, b);
        let starts: Vec<u32> = a.transfers.iter().map(|t| t.start).collect();
        assert_eq!(starts, [0, 10, 20]);
        // The 5,000 s transfer is cut and keeps its 1,000 B/s rate.
        let long = a.transfers[1];
        assert_eq!(long.duration, CHURN_MAX_DURATION_S);
        assert_eq!(long.bytes, 1_000 * u64::from(CHURN_MAX_DURATION_S));
        assert_eq!(a.transfers[0].duration, 50);
        assert_eq!(a.horizon(), 10 + CHURN_MAX_DURATION_S + 1);
    }

    #[test]
    fn churn_slice_refuses_a_short_dataset() {
        let full = schedule(&[(0, 1), (10, 1)]);
        assert!(churn_slice(&full, 0, 3).is_none());
        assert!(churn_slice(&full, 11, 1).is_none());
        assert!(churn_slice(&full, 10, 1).is_some());
    }

    #[test]
    fn smoke_is_a_fiftieth_of_full() {
        let (full, smoke) = (Sizes::FULL, Sizes::SMOKE);
        assert!((full.days / smoke.days - 50.0).abs() < 1e-9);
        assert_eq!(full.churn_conns / smoke.churn_conns, 50);
        let config = smoke.config(true);
        assert!(config.validate().is_ok());
        assert_eq!(config.horizon_secs, 12_096);
    }
}
