//! Referees `Simulator::run` by bytes.
//!
//! `simulated_outputs_match_the_pinned_parent` pins, for three generated
//! fixtures under six configs, the `(transfers, len, crc32)` of the emitted
//! log's `format_log` bytes and every count `SimOutput` carries. The
//! constants were captured on the commit before the simulator pulled starts
//! lazily from the workload. A change to the simulated log on purpose
//! updates them (the assertion prints the new table) and says why in
//! CHANGES.md.
//!
//! `lazy_starts_match_the_eager_oracle` compares whole outputs over more
//! seeds against `eager_run`, the loop the simulator used to run: every
//! start scheduled up front, three per-transfer state vectors, and the
//! stop-order entries sorted by `Trace::from_entries`.

use lsw_core::config::{LogNormalParams, WorkloadConfig};
use lsw_core::generator::Generator;
use lsw_core::Workload;
use lsw_sim::des::EventQueue;
use lsw_sim::server::MediaServer;
use lsw_sim::{
    AdmissionPolicy, FairShareNetwork, NetworkConfig, RetryPolicy, ServerConfig, SimConfig,
    SimOutput, Simulator,
};
use lsw_stats::rng::{u01, SeedStream};
use lsw_trace::event::LogEntry;
use lsw_trace::ltc::codec::crc32;
use lsw_trace::trace::Trace;
use lsw_trace::wms;

/// The pinned fixtures: a 12-hour day, two days (midnight crossings for
/// the harvest anomaly), and a 600 s horizon where most transfers stop at
/// the horizon, so stops tie heavily.
fn fixture(which: usize, seed: u64) -> Workload {
    let config = match which {
        0 => WorkloadConfig::paper().scaled(800, 43_200, 3_000),
        1 => WorkloadConfig::paper().scaled(800, 172_800, 6_000),
        _ => WorkloadConfig::paper().scaled(3_000, 600, 5_000),
    };
    Generator::new(config, seed)
        .expect("valid fixture config")
        .generate()
}

/// Tie-heavy workloads for the oracle, which the paper's lognormal times
/// almost never produce. `Lockstep` makes every transfer last exactly one
/// intra-session gap (a sigma this small leaves `exp(mu + sigma * z)` at
/// `exp(mu)`), so each stop lands on the bits of its session's next start.
/// `Bursty` starts a session's transfers within about a second of each
/// other and keeps them short, so one client's entries share start and
/// stop seconds while stopping out of admission order.
#[derive(Debug, Clone, Copy)]
enum Ties {
    Lockstep,
    Bursty,
}

fn tie_fixture(ties: Ties, seed: u64) -> Workload {
    let lognormal = |median: f64, sigma: f64| LogNormalParams {
        mu: median.ln(),
        sigma,
    };
    let (iat, length) = match ties {
        Ties::Lockstep => (lognormal(30.0, 1e-300), lognormal(30.0, 1e-300)),
        Ties::Bursty => (lognormal(0.3, 1.0), lognormal(3.0, 1.0)),
    };
    let config = WorkloadConfig {
        intra_session_iat: iat,
        transfer_length: length,
        ..WorkloadConfig::paper().scaled(1_000, 3_600, 3_000)
    };
    Generator::new(config, seed)
        .expect("valid fixture config")
        .generate()
}

fn capped(max_concurrent: u64, retry: RetryPolicy) -> SimConfig {
    SimConfig {
        server: ServerConfig {
            admission: AdmissionPolicy::RejectAbove { max_concurrent },
            ..ServerConfig::default()
        },
        retry,
        ..SimConfig::default()
    }
}

/// The default; admission control; retries after a delay; retries at the
/// instant of the rejection (they tie with the event that rejected them);
/// the harvest anomaly; a congested uplink.
fn configs() -> [SimConfig; 6] {
    [
        SimConfig::default(),
        capped(20, RetryPolicy::GiveUp),
        capped(
            60,
            RetryPolicy::RetryAfter {
                delay_secs: 120.0,
                max_attempts: 5,
            },
        ),
        capped(
            30,
            RetryPolicy::RetryAfter {
                delay_secs: 0.0,
                max_attempts: 3,
            },
        ),
        SimConfig {
            harvest_anomaly_rate: 0.5,
            ..SimConfig::default()
        },
        SimConfig {
            network: NetworkConfig { uplink_bps: 2e6 },
            ..SimConfig::default()
        },
    ]
}

/// `(transfers, log len, log crc32)`, `[accepted, rejected,
/// peak_concurrent, retries]`, `denied_viewer_seconds` bits,
/// `congested_transfers`, `bytes_delivered`.
type Pin = ((usize, usize, u32), [u64; 4], u64, u64, u64);

fn pin(out: &SimOutput) -> Pin {
    let text = wms::format_log(out.trace.entries());
    let s = &out.server_stats;
    (
        (out.trace.len(), text.len(), crc32(&text)),
        [s.accepted, s.rejected, s.peak_concurrent, s.retries],
        s.denied_viewer_seconds.to_bits(),
        out.congested_transfers,
        out.bytes_delivered,
    )
}

/// Fixture seeds of the pinned table; each fixture is simulated with its
/// own seed.
const FIXTURE_SEEDS: [u64; 3] = [77, 78, 5];

/// Rows follow `FIXTURE_SEEDS`, columns follow `configs()`, one pin a line.
#[rustfmt::skip]
const GOLDEN: [[Pin; 6]; 3] = [
    [
        ((4906, 410492, 3811522751), [4906, 0, 64, 0], 0, 500, 22421951438),
        ((2913, 244390, 1378439594), [2913, 1993, 20, 0], 4691330304623506854, 293, 13501050325),
        ((4898, 409802, 1241719312), [4898, 14, 60, 6], 4658291914674898018, 498, 21849858110),
        ((3787, 317292, 1371789804), [3787, 3357, 30, 2238], 4694439415581766906, 379, 16539432557),
        ((4906, 410492, 3811522751), [4906, 0, 64, 0], 0, 500, 22421951438),
        ((4906, 408426, 411947025), [4906, 0, 64, 0], 0, 4484, 8709389265),
    ],
    [
        ((9174, 790982, 2797018810), [9174, 0, 45, 0], 0, 900, 39208464907),
        ((8141, 701943, 2835684571), [8141, 1033, 20, 0], 4687753731569786797, 798, 33201062323),
        ((9174, 790982, 2797018810), [9174, 0, 45, 0], 0, 900, 39208464907),
        ((8969, 773377, 3107488912), [8969, 615, 30, 410], 4684183204390952781, 879, 39427206552),
        ((9174, 791036, 586467356), [9174, 0, 45, 0], 0, 900, 39208464907),
        ((9174, 789909, 1966180521), [9174, 0, 45, 0], 0, 6933, 25624485624),
    ],
    [
        ((5799, 476286, 3514542976), [5799, 0, 1509, 0], 0, 4148, 11513948028),
        ((80, 6731, 730937597), [80, 5719, 20, 0], 4693514966430115183, 12, 271762089),
        ((260, 21493, 2224251159), [260, 8239, 60, 2700], 4696138544417292176, 27, 784655967),
        ((123, 10290, 1493775538), [123, 17028, 30, 11352], 4700575685707827637, 14, 324808163),
        ((5799, 476286, 3514542976), [5799, 0, 1509, 0], 0, 4148, 11513948028),
        ((5799, 459800, 4002276979), [5799, 0, 1509, 0], 0, 5799, 148633460),
    ],
];

#[test]
fn simulated_outputs_match_the_pinned_parent() {
    let got: [[Pin; 6]; 3] = std::array::from_fn(|which| {
        let seed = FIXTURE_SEEDS[which];
        let w = fixture(which, seed);
        configs().map(|config| pin(&Simulator::new(config).run(&w, seed)))
    });
    assert_eq!(
        got, GOLDEN,
        "simulated outputs differ from the pinned parent (left is this tree)"
    );
}

#[test]
fn lazy_starts_match_the_eager_oracle() {
    let workloads = [
        ("12 h, seed 3", fixture(0, 3)),
        ("600 s, seed 11", fixture(2, 11)),
        ("600 s, seed 12", fixture(2, 12)),
        ("lockstep, seed 1", tie_fixture(Ties::Lockstep, 1)),
        ("lockstep, seed 2", tie_fixture(Ties::Lockstep, 2)),
        ("bursty, seed 1", tie_fixture(Ties::Bursty, 1)),
        ("bursty, seed 2", tie_fixture(Ties::Bursty, 2)),
    ];
    for (name, w) in &workloads {
        for (seed, config) in (1..).zip(configs()) {
            let lazy = Simulator::new(config).run(w, seed);
            let eager = eager_run(&config, w, seed);
            let context = format!("{name}, {config:?}");
            assert!(
                lazy.trace.entries() == eager.trace.entries(),
                "entries differ: {context}"
            );
            assert_eq!(lazy.server_stats, eager.server_stats, "{context}");
            assert_eq!(
                lazy.server_stats.denied_viewer_seconds.to_bits(),
                eager.server_stats.denied_viewer_seconds.to_bits(),
                "{context}"
            );
            assert_eq!(
                lazy.congested_transfers, eager.congested_transfers,
                "{context}"
            );
            assert_eq!(lazy.bytes_delivered, eager.bytes_delivered, "{context}");
        }
    }
}

/// Event payload of the eager loop.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Start { idx: u32, attempt: u32 },
    Stop(u32),
}

/// The eager DES, kept as the oracle: it schedules every start before the
/// first pop, so each start's sequence number is below that of any stop or
/// retry, and it leaves the start ordering to `Trace::from_entries`.
fn eager_run(config: &SimConfig, workload: &Workload, seed: u64) -> SimOutput {
    let horizon = workload.config().horizon_secs;
    let population = workload.population();
    let seeds = SeedStream::new(seed);
    let mut anomaly_rng = seeds.rng("harvest-anomaly");
    let mut loss_rng = seeds.rng("loss");
    let mut path_rng = seeds.rng("path-congestion");
    let path_dist = lsw_stats::dist::LogNormal::new(
        config.path_congestion_median_bps.ln(),
        config.path_congestion_sigma,
    )
    .expect("valid path-congestion config");

    let mut server = MediaServer::new(config.server);
    let mut network = FairShareNetwork::new(config.network);
    let mut queue = EventQueue::with_capacity(workload.len() * 2);
    for (i, t) in workload.transfers().iter().enumerate() {
        queue.schedule(
            t.start,
            Ev::Start {
                idx: i as u32,
                attempt: 1,
            },
        );
    }

    let mut snapshot = vec![f64::NAN; workload.len()];
    let mut admitted_at = vec![f64::NAN; workload.len()];
    let mut saw_congestion = vec![false; workload.len()];
    let mut entries: Vec<LogEntry> = Vec::with_capacity(workload.len());
    let mut congested_transfers = 0u64;
    let mut bytes_delivered = 0u64;
    let mut retries = 0u64;

    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::Start { idx: i, attempt } => {
                let t = &workload.transfers()[i as usize];
                let intended_stop = (t.start + t.duration).min(f64::from(horizon));
                let remaining = intended_stop - now;
                if remaining <= 0.0 {
                    continue;
                }
                if !server.request(remaining) {
                    if let RetryPolicy::RetryAfter {
                        delay_secs,
                        max_attempts,
                    } = config.retry
                    {
                        if attempt < max_attempts && now + delay_secs < intended_stop {
                            retries += 1;
                            queue.schedule(
                                now + delay_secs,
                                Ev::Start {
                                    idx: i,
                                    attempt: attempt + 1,
                                },
                            );
                        }
                    }
                    continue;
                }
                let info = population.get(t.client);
                snapshot[i as usize] = network.start(now, info.access);
                admitted_at[i as usize] = now;
                saw_congestion[i as usize] = network.congested();
                queue.schedule(intended_stop, Ev::Stop(i));
            }
            Ev::Stop(i) => {
                let t = &workload.transfers()[i as usize];
                let t_start = admitted_at[i as usize];
                let info = population.get(t.client);
                let bits = network.stop(now, info.access, snapshot[i as usize]);
                server.release();

                let start = (t_start as u32).min(horizon.saturating_sub(1));
                let stop = (now as u32).clamp(start, horizon);
                let mut duration = stop - start;
                if config.harvest_anomaly_rate > 0.0
                    && start / 86_400 != stop / 86_400
                    && u01(&mut anomaly_rng) < config.harvest_anomaly_rate
                {
                    duration = horizon + 86_400 + start % 86_400;
                }

                let wall = (now - t_start).max(1e-9);
                let mut bits = bits;
                if config.path_congestion_rate > 0.0
                    && u01(&mut path_rng) < config.path_congestion_rate
                {
                    use lsw_stats::dist::Sample as _;
                    let path_bps = path_dist.sample(&mut path_rng);
                    bits = bits.min(path_bps * wall);
                    saw_congestion[i as usize] = true;
                }
                if saw_congestion[i as usize] || network.congested() {
                    congested_transfers += 1;
                }
                let avg_bw = (bits / wall).max(1.0) as u32;
                let cap = f64::from(info.access.capacity_bps());
                let squeeze = (1.0 - (bits / wall) / cap).clamp(0.0, 1.0);
                let loss = (f64::from(config.base_loss) + 0.25 * squeeze * u01(&mut loss_rng))
                    .min(1.0) as f32;
                bytes_delivered += (bits / 8.0) as u64;
                entries.push(LogEntry {
                    timestamp: start.saturating_add(duration),
                    start,
                    duration,
                    client: t.client,
                    ip: info.ip,
                    as_id: info.as_id,
                    country: info.country,
                    object: t.object,
                    camera: t.camera,
                    bytes: (bits / 8.0) as u64,
                    avg_bandwidth: avg_bw,
                    packet_loss: loss,
                    cpu_util: server.cpu_util() as f32,
                    status: 200,
                });
            }
        }
    }

    let mut server_stats = server.stats().clone();
    server_stats.retries = retries;
    SimOutput {
        trace: Trace::from_entries(entries, horizon),
        server_stats,
        congested_transfers,
        bytes_delivered,
    }
}
