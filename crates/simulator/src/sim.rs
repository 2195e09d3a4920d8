//! The simulation driver: workload in, server log out.
//!
//! Plays a generated [`Workload`] through the [`MediaServer`] and the
//! [`FairShareNetwork`] as a discrete-event simulation. A transfer's start
//! (admission + fair-share join) is pulled from the workload's
//! start-sorted transfer list when its time comes; only what happens later
//! is queued — its stop (byte accounting + log emission) and, after a
//! rejection, its retry — so the pending set is bounded by concurrency,
//! not by trace length. The emitted trace is what the paper's
//! authors received from the real server — including, when configured,
//! the §2.4 *harvest-spanning anomaly*: a small fraction of transfers
//! active at a daily log-harvest boundary are written with a corrupted
//! over-long duration, which `lsw_trace::sanitize` must catch.

use crate::des::EventQueue;
use crate::network::{FairShareNetwork, NetworkConfig};
use crate::server::{MediaServer, ServerConfig, ServerStats};
use lsw_core::Workload;
use lsw_stats::rng::{u01, SeedStream};
use lsw_trace::event::{LogEntry, LogEntryBuilder};
use lsw_trace::trace::Trace;
use serde::{Deserialize, Serialize};

/// What a client does when its request is rejected by admission control.
///
/// Live semantics: the content moves on while the client waits, so a
/// retry watches only the *remainder* of its intended interval — and
/// gives up entirely once the intended stop time has passed. This is the
/// §1 argument made concrete: for live media, rejection destroys viewing
/// time even when clients retry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RetryPolicy {
    /// Rejected clients walk away (the denied viewing is lost whole).
    GiveUp,
    /// Rejected clients retry after a fixed delay, up to a cap.
    RetryAfter {
        /// Seconds between attempts.
        delay_secs: f64,
        /// Maximum total attempts (including the first).
        max_attempts: u32,
    },
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Server model.
    pub server: ServerConfig,
    /// Network model.
    pub network: NetworkConfig,
    /// Probability that a transfer spanning a daily harvest boundary is
    /// logged with a corrupted (longer-than-trace) duration, reproducing
    /// the anomaly the paper's §2.4 sanitization removes. 0 disables.
    pub harvest_anomaly_rate: f64,
    /// Baseline packet loss for uncongested transfers.
    pub base_loss: f32,
    /// Probability a transfer is *path*-congested somewhere between server
    /// and client (§5.4/footnote 12: ~10% of transfers are bound by
    /// "extremely limited network resources" even though the server and
    /// its uplink are fine).
    pub path_congestion_rate: f64,
    /// Median of the path-congested bandwidth mode, bits/s.
    pub path_congestion_median_bps: f64,
    /// Log-scale of the path-congested mode.
    pub path_congestion_sigma: f64,
    /// Client behavior on admission rejection.
    pub retry: RetryPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            server: ServerConfig::default(),
            network: NetworkConfig::default(),
            harvest_anomaly_rate: 0.0,
            base_loss: 0.002,
            path_congestion_rate: lsw_stats::paper::CONGESTION_BOUND_FRACTION,
            path_congestion_median_bps: 8_000.0,
            path_congestion_sigma: 1.1,
            retry: RetryPolicy::GiveUp,
        }
    }
}

/// What the simulation produced.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The emitted server log.
    pub trace: Trace,
    /// Server accept/reject accounting.
    pub server_stats: ServerStats,
    /// Transfers that experienced uplink congestion at any point.
    pub congested_transfers: u64,
    /// Total bytes delivered.
    pub bytes_delivered: u64,
}

/// A queued event. Workload starts are never queued; a queued start is a
/// retry.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Another admission attempt for transfer `idx`.
    Start { idx: u32, attempt: u32 },
    /// An admitted transfer's stop.
    Stop(InFlight),
}

/// What an admitted transfer carries from admission to its stop.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Index into the workload's transfer list.
    idx: u32,
    /// Number of transfers admitted before this one.
    rank: u32,
    /// Admission time (after the scheduled start when a retry got in).
    admitted_at: f64,
    /// The class-integral snapshot taken at admission.
    snapshot: f64,
    /// The uplink was congested at admission.
    congested: bool,
}

/// The simulator.
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    /// Panics when the anomaly rate is outside `[0, 1]` or a retry delay is
    /// negative or NaN (a retry never runs before the rejection it follows).
    pub fn new(config: SimConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.harvest_anomaly_rate),
            "anomaly rate must be in [0,1]"
        );
        if let RetryPolicy::RetryAfter { delay_secs, .. } = config.retry {
            assert!(delay_secs >= 0.0, "retry delay must be >= 0");
        }
        Self { config }
    }

    /// Runs the workload and produces the server log.
    ///
    /// Events run in `(time, seq)` order, as if every workload start had
    /// been queued up front before anything else: at equal times a
    /// workload start runs before any queued stop or retry, workload
    /// starts keep their list order, and queued events keep their
    /// scheduling order. Event times never decrease (stops and retries lie
    /// at or after the event that scheduled them), so admission order is
    /// start order.
    ///
    /// # Panics
    /// Panics when a transfer starts at NaN.
    pub fn run(&self, workload: &Workload, seed: u64) -> SimOutput {
        let horizon = workload.config().horizon_secs;
        let population = workload.population();
        let transfers = workload.transfers();
        let seeds = SeedStream::new(seed);
        let mut anomaly_rng = seeds.rng("harvest-anomaly");
        let mut loss_rng = seeds.rng("loss");
        let mut path_rng = seeds.rng("path-congestion");
        let path_dist = lsw_stats::dist::LogNormal::new(
            self.config.path_congestion_median_bps.ln(),
            self.config.path_congestion_sigma,
        )
        // lsw::allow(L005): SimConfig keeps median/sigma positive and finite
        .expect("validated config");

        let mut server = MediaServer::new(self.config.server);
        let mut network = FairShareNetwork::new(self.config.network);
        let mut queue = EventQueue::new();
        let mut next_start = 0;

        // One entry per admitted transfer, in admission order: the slot is
        // taken at admission and filled at the stop. `stop_ranks[r]` is the
        // number of stops before that of slot `r`.
        let mut entries: Vec<LogEntry> = Vec::with_capacity(workload.len());
        let mut stop_ranks: Vec<u32> = Vec::with_capacity(workload.len());
        let unfilled = LogEntryBuilder::new().build();
        let mut stops = 0u32;
        let mut congested_transfers = 0u64;
        let mut bytes_delivered = 0u64;
        let mut retries = 0u64;

        loop {
            // The next workload start wins a tie with the queue head: queued
            // up front, it would have had the lower sequence number.
            let next = transfers.get(next_start).filter(|t| {
                queue
                    .peek_time()
                    .map_or(true, |head| t.start.total_cmp(&head).is_le())
            });
            let (now, ev) = match next {
                Some(t) => {
                    assert!(!t.start.is_nan(), "cannot schedule an event at NaN");
                    let idx = next_start as u32;
                    next_start += 1;
                    (t.start, Ev::Start { idx, attempt: 1 })
                }
                None => match queue.pop() {
                    Some(event) => event,
                    None => break,
                },
            };
            match ev {
                Ev::Start { idx, attempt } => {
                    let t = &transfers[idx as usize];
                    // Live semantics: the intended stop is fixed wall-clock.
                    let intended_stop = (t.start + t.duration).min(f64::from(horizon));
                    let remaining = intended_stop - now;
                    if remaining <= 0.0 {
                        continue; // the moment has passed
                    }
                    if !server.request(remaining) {
                        // Rejected: maybe retry for the remainder.
                        if let RetryPolicy::RetryAfter {
                            delay_secs,
                            max_attempts,
                        } = self.config.retry
                        {
                            if attempt < max_attempts && now + delay_secs < intended_stop {
                                retries += 1;
                                queue.schedule(
                                    now + delay_secs,
                                    Ev::Start {
                                        idx,
                                        attempt: attempt + 1,
                                    },
                                );
                            }
                        }
                        continue;
                    }
                    let info = population.get(t.client);
                    let snapshot = network.start(now, info.access);
                    let in_flight = InFlight {
                        idx,
                        rank: entries.len() as u32,
                        admitted_at: now,
                        snapshot,
                        congested: network.congested(),
                    };
                    entries.push(unfilled);
                    stop_ranks.push(0);
                    queue.schedule(intended_stop, Ev::Stop(in_flight));
                }
                Ev::Stop(f) => {
                    let t = &transfers[f.idx as usize];
                    let info = population.get(t.client);
                    let bits = network.stop(now, info.access, f.snapshot);
                    server.release();

                    // Quantize to log resolution.
                    let start = (f.admitted_at as u32).min(horizon.saturating_sub(1));
                    let stop = (now as u32).clamp(start, horizon);
                    let mut duration = stop - start;
                    // §2.4 anomaly injection: spans a midnight boundary?
                    if self.config.harvest_anomaly_rate > 0.0
                        && start / 86_400 != stop / 86_400
                        && u01(&mut anomaly_rng) < self.config.harvest_anomaly_rate
                    {
                        // Corrupted merge across harvests: duration longer
                        // than the whole trace.
                        duration = horizon + 86_400 + start % 86_400;
                    }

                    let wall = (now - f.admitted_at).max(1e-9);
                    // Remote-path congestion: the bottleneck is out in the
                    // network, capping the achieved rate below what server
                    // and access link would deliver.
                    let mut bits = bits;
                    let mut congested = f.congested;
                    if self.config.path_congestion_rate > 0.0
                        && u01(&mut path_rng) < self.config.path_congestion_rate
                    {
                        use lsw_stats::dist::Sample as _;
                        let path_bps = path_dist.sample(&mut path_rng);
                        bits = bits.min(path_bps * wall);
                        congested = true;
                    }
                    if congested || network.congested() {
                        congested_transfers += 1;
                    }
                    let avg_bw = (bits / wall).max(1.0) as u32;
                    let cap = f64::from(info.access.capacity_bps());
                    // Loss grows with how far below the client-bound rate
                    // the transfer was pushed.
                    let squeeze = (1.0 - (bits / wall) / cap).clamp(0.0, 1.0);
                    let loss = (f64::from(self.config.base_loss)
                        + 0.25 * squeeze * u01(&mut loss_rng))
                    .min(1.0) as f32;
                    bytes_delivered += (bits / 8.0) as u64;
                    stop_ranks[f.rank as usize] = stops;
                    stops += 1;
                    entries[f.rank as usize] = LogEntry {
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
                    };
                }
            }
        }

        order_within_seconds(&mut entries, &stop_ranks);
        let mut server_stats = server.stats().clone();
        server_stats.retries = retries;
        SimOutput {
            trace: Trace::from_entries(entries, horizon),
            server_stats,
            congested_transfers,
            bytes_delivered,
        }
    }
}

/// Orders the entries of each start second the way a stable sort of the
/// stop-order log by `(start, timestamp, client)` would.
///
/// `entries` is in admission order, which is start order, so only entries
/// of one start second need comparing. `stop_ranks[i]` is the place of
/// `entries[i]` in stop order and breaks the stable sort's ties.
fn order_within_seconds(entries: &mut [LogEntry], stop_ranks: &[u32]) {
    let mut keyed = Vec::new();
    let mut at = 0;
    for second in entries.chunk_by_mut(|a, b| a.start == b.start) {
        let ranks = &stop_ranks[at..at + second.len()];
        at += second.len();
        keyed.clear();
        keyed.extend(
            second
                .iter()
                .zip(ranks)
                .map(|(e, &rank)| ((e.timestamp, e.client, rank), *e)),
        );
        keyed.sort_unstable_by_key(|&(key, _)| key);
        for (slot, &(_, e)) in second.iter_mut().zip(&keyed) {
            *slot = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::AdmissionPolicy;
    use lsw_core::config::WorkloadConfig;
    use lsw_core::generator::Generator;

    fn workload() -> Workload {
        let config = WorkloadConfig::paper().scaled(800, 43_200, 3_000);
        Generator::new(config, 77).unwrap().generate()
    }

    #[test]
    fn accept_all_logs_every_transfer() {
        let w = workload();
        let out = Simulator::new(SimConfig::default()).run(&w, 1);
        assert_eq!(out.trace.len(), w.len());
        assert_eq!(out.server_stats.rejected, 0);
        assert!(out.bytes_delivered > 0);
        for e in out.trace.entries() {
            assert!(e.validate().is_ok());
        }
    }

    #[test]
    fn admission_control_drops_requests() {
        let w = workload();
        let cfg = SimConfig {
            server: ServerConfig {
                admission: AdmissionPolicy::RejectAbove { max_concurrent: 20 },
                ..ServerConfig::default()
            },
            ..SimConfig::default()
        };
        let out = Simulator::new(cfg).run(&w, 1);
        assert!(
            out.server_stats.rejected > 0,
            "expected rejections at cap 20"
        );
        assert_eq!(
            out.server_stats.accepted as usize,
            out.trace.len(),
            "every accepted transfer is logged"
        );
        assert!(out.server_stats.denied_viewer_seconds > 0.0);
        assert!(out.server_stats.peak_concurrent <= 20);
    }

    #[test]
    fn tight_uplink_produces_congestion() {
        let w = workload();
        // Size the uplink far below demand.
        let cfg = SimConfig {
            network: NetworkConfig { uplink_bps: 2e6 },
            ..SimConfig::default()
        };
        let out = Simulator::new(cfg).run(&w, 1);
        assert!(out.congested_transfers > 0);
        // Conservation: bytes delivered can't exceed uplink × horizon.
        assert!(
            (out.bytes_delivered as f64) <= 2e6 / 8.0 * 43_200.0 * 1.001,
            "bytes {}",
            out.bytes_delivered
        );
        // Congested transfers show depressed bandwidth and raised loss.
        let mean_loss: f64 = out
            .trace
            .entries()
            .iter()
            .map(|e| f64::from(e.packet_loss))
            .sum::<f64>()
            / out.trace.len() as f64;
        assert!(mean_loss > 0.01, "mean loss {mean_loss}");
    }

    #[test]
    fn generous_uplink_is_client_bound() {
        let w = workload();
        let cfg = SimConfig {
            network: NetworkConfig { uplink_bps: 1e12 },
            path_congestion_rate: 0.0,
            ..SimConfig::default()
        };
        let out = Simulator::new(cfg).run(&w, 1);
        assert_eq!(out.congested_transfers, 0);
        // Every logged bandwidth equals the client's access capacity.
        for e in out.trace.entries().iter().take(1_000) {
            let caps = [28_800, 33_600, 56_000, 128_000, 256_000, 512_000, 1_500_000];
            let ok = caps.iter().any(|&c| {
                (f64::from(e.avg_bandwidth) - f64::from(c as u32)).abs()
                    < f64::from(c as u32) * 0.02
            });
            assert!(ok, "bandwidth {} matches no class", e.avg_bandwidth);
        }
    }

    #[test]
    fn harvest_anomalies_injected_and_sanitized() {
        let w = workload();
        let cfg = SimConfig {
            harvest_anomaly_rate: 0.5,
            ..SimConfig::default()
        };
        let out = Simulator::new(cfg).run(&w, 1);
        // The 12-hour horizon has no midnight crossing… use a 2-day one.
        let config = WorkloadConfig::paper().scaled(800, 2 * 86_400, 6_000);
        let w2 = Generator::new(config, 78).unwrap().generate();
        let out2 = Simulator::new(cfg).run(&w2, 2);
        let horizon = w2.config().horizon_secs;
        let spanning = out2
            .trace
            .entries()
            .iter()
            .filter(|e| e.duration > horizon)
            .count();
        assert!(spanning > 0, "no anomalies injected");
        let (clean, report) = lsw_trace::sanitize::sanitize(out2.trace.entries().to_vec(), horizon);
        assert_eq!(report.rejected(), spanning);
        assert_eq!(clean.len() + spanning, out2.trace.len());
        // And the 12-hour run had none (no boundary to span).
        assert!(out.trace.entries().iter().all(|e| e.duration <= 43_200));
    }

    #[test]
    fn path_congestion_produces_low_bandwidth_mode() {
        let w = workload();
        let out = Simulator::new(SimConfig::default()).run(&w, 3);
        // ~10% of transfers should be congestion-bound (well below any
        // client class speed).
        let low = out
            .trace
            .entries()
            .iter()
            .filter(|e| e.avg_bandwidth < 20_000)
            .count() as f64
            / out.trace.len() as f64;
        assert!((low - 0.10).abs() < 0.05, "low-bandwidth fraction {low}");
        assert!(out.congested_transfers > 0);
    }

    #[test]
    fn retries_recover_part_of_the_lost_viewing() {
        let w = workload();
        let cap = |retry| SimConfig {
            server: ServerConfig {
                admission: AdmissionPolicy::RejectAbove { max_concurrent: 60 },
                ..ServerConfig::default()
            },
            retry,
            ..SimConfig::default()
        };
        let give_up = Simulator::new(cap(RetryPolicy::GiveUp)).run(&w, 4);
        let retry = Simulator::new(cap(RetryPolicy::RetryAfter {
            delay_secs: 120.0,
            max_attempts: 5,
        }))
        .run(&w, 4);
        assert!(give_up.server_stats.rejected > 0, "fixture must congest");
        assert!(retry.server_stats.retries > 0, "retries must occur");
        // Retrying clients eventually get in: more viewings logged...
        assert!(
            retry.trace.len() > give_up.trace.len(),
            "retry {} vs give-up {} logged transfers",
            retry.trace.len(),
            give_up.trace.len()
        );
        // ...but the content moved on: retried viewings are shorter than
        // their intended spans, so viewer time is still lost (the §1
        // argument survives client persistence).
        let watched: u64 = retry
            .trace
            .entries()
            .iter()
            .map(|e| u64::from(e.duration))
            .sum();
        let intended: f64 = w.transfers().iter().map(|t| t.duration).sum();
        assert!(
            (watched as f64) < intended,
            "live semantics: retries cannot recover the full {intended}s"
        );
    }

    #[test]
    fn retry_respects_intended_stop() {
        // A retry scheduled past the intended stop never happens: no
        // logged transfer may end after its scheduled span.
        let w = workload();
        let cfg = SimConfig {
            server: ServerConfig {
                admission: AdmissionPolicy::RejectAbove { max_concurrent: 30 },
                ..ServerConfig::default()
            },
            retry: RetryPolicy::RetryAfter {
                delay_secs: 300.0,
                max_attempts: 10,
            },
            ..SimConfig::default()
        };
        let out = Simulator::new(cfg).run(&w, 5);
        // Build intended stops by (client, camera, object) is ambiguous;
        // instead verify globally: every logged duration fits within the
        // longest scheduled duration.
        let max_intended = w
            .transfers()
            .iter()
            .map(|t| t.duration)
            .fold(0.0f64, f64::max);
        for e in out.trace.entries() {
            assert!(f64::from(e.duration) <= max_intended + 1.0);
        }
    }

    #[test]
    fn deterministic() {
        let w = workload();
        let a = Simulator::new(SimConfig::default()).run(&w, 9);
        let b = Simulator::new(SimConfig::default()).run(&w, 9);
        assert_eq!(a.trace.entries(), b.trace.entries());
    }
}
