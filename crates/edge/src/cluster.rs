//! Threaded orchestration of the whole overlay: origin + N relays +
//! per-relay load drivers, one shared clock, one shared registry, one
//! multi-tier characterization tap.
//!
//! The origin is a plain [`ReplayServer`], unaware of the tier above
//! it: it cannot tell a relay subscription from a very patient client,
//! and each relay runs the same connection lifecycle as its shards
//! (`lsw_replay::reactor`), with a ring cursor in place of pacing. Relays route
//! by the [`Topology`]'s key (AS by default — the paper's client-layer
//! concentration axis), each subscribing once per live object and
//! fanning out to the trace clients the topology assigns to it. Every
//! relay's driver pins the same global epoch so the tiers share one
//! launch timeline.
//!
//! The run ends with the **egress report**: origin egress bytes versus
//! client-delivered bytes. With `f` clients per object per relay tier
//! collapsing onto one subscription, origin egress falls toward `1/f` —
//! the quantitative case for the hierarchical architecture the paper's
//! workload (few hot live objects, many concurrent viewers) invites.

use crate::relay::{plan_feeds, Relay, RelayConfig};
use crate::topology::Topology;
use lsw_replay::clock::WallClock;
use lsw_replay::driver::{drive, DriveOutcome, DriverConfig};
use lsw_replay::metrics::{Registry, Snapshot};
use lsw_replay::server::{ReplayServer, ServerConfig};
use lsw_sim::server::ServerStats;
use lsw_stream::{MultiTap, StreamReport};
use lsw_trace::schedule::Schedule;
use parking_lot::Mutex;
use std::io;
use std::sync::Arc;

/// Configuration for one overlay run.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// The topology: relay count and routing key.
    pub topology: Topology,
    /// Origin-tier server configuration (admission, pacing plane,
    /// drain budget). `lookahead` is overridden with the subscription
    /// horizon; `stream` seeds the per-tier taps.
    pub origin: ServerConfig,
    /// Relay-tier configuration template; `origin`, `index`, and
    /// `compression` are filled in per relay.
    pub relay: RelayConfig,
    /// Driver worker threads per relay.
    pub driver_workers: usize,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        Self {
            topology: Topology {
                relays: 2,
                ..Topology::default()
            },
            origin: ServerConfig::default(),
            relay: RelayConfig::default(),
            driver_workers: 2,
        }
    }
}

/// Origin-egress accounting: what the hierarchy saved.
#[derive(Debug, Clone, Copy, Default)]
pub struct EgressReport {
    /// Wire payload bytes the origin sent (subscriptions only, in an
    /// edge run — relays are its only clients).
    pub origin_bytes: u64,
    /// Wire payload bytes delivered to trace clients across all relays.
    pub delivered_bytes: u64,
    /// Upstream subscriptions the relays opened.
    pub subscriptions: u64,
    /// Subscriptions the origin's admission refused.
    pub upstream_busy: u64,
}

impl EgressReport {
    /// Origin egress as a fraction of client-delivered bytes — the
    /// fan-in savings headline (≤ 1/f for fan-out factor f).
    pub fn egress_ratio(&self) -> f64 {
        if self.delivered_bytes == 0 {
            return if self.origin_bytes == 0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.origin_bytes as f64 / self.delivered_bytes as f64
        }
    }
}

/// Everything a finished overlay run hands back.
#[derive(Debug)]
pub struct EdgeOutcome {
    /// Per-relay characterization reports, tier order.
    pub tier_reports: Vec<StreamReport>,
    /// The edge-aggregated report — what all relay tiers together
    /// served; this is what the closed loop diffs against the trace.
    pub merged: StreamReport,
    /// Summed driver accounting across relays.
    pub driven: DriveOutcome,
    /// Relay-tier admission stats, summed.
    pub admission: ServerStats,
    /// Origin-tier admission stats.
    pub origin_admission: ServerStats,
    /// Fan-in savings accounting.
    pub egress: EgressReport,
    /// Final shared-registry capture (srv.* = origin, edge.* = relays,
    /// drv.* = drivers).
    pub metrics: Snapshot,
}

/// Sums relay-tier admission stats (denied viewer-seconds add; peaks
/// take the max across relays, which undercounts a synchronized peak —
/// per-relay peaks never co-occur by construction of the routing).
fn sum_stats(stats: &[ServerStats]) -> ServerStats {
    let mut sum = ServerStats::default();
    for s in stats {
        sum.accepted += s.accepted;
        sum.rejected += s.rejected;
        sum.denied_viewer_seconds += s.denied_viewer_seconds;
        sum.peak_concurrent = sum.peak_concurrent.max(s.peak_concurrent);
        sum.retries += s.retries;
    }
    sum
}

/// Runs the full overlay: starts the origin, plans and starts the
/// relays, drives each relay's routed sub-schedule on the shared clock,
/// drains the tiers in leaf-to-root order, and returns the per-tier and
/// edge-aggregated characterizations plus the egress report.
pub fn run_edge(
    schedule: &Schedule,
    cfg: &EdgeConfig,
    registry: Arc<Registry>,
) -> io::Result<EdgeOutcome> {
    let relays = cfg.topology.relays.max(1) as usize;
    let compression = cfg.origin.compression.max(1.0);
    let plans = plan_feeds(schedule, &cfg.topology);

    let origin_cfg = ServerConfig {
        compression,
        ..cfg.origin.clone()
    };

    let clock = Arc::new(WallClock::start());
    let origin = ReplayServer::start(
        origin_cfg,
        &schedule.object_rates(),
        Arc::clone(&clock),
        Arc::clone(&registry),
    )?;
    let origin_addr = origin.local_addr();

    let tap = Arc::new(Mutex::new(MultiTap::new(cfg.origin.stream.clone(), relays)));

    // Partition the schedule: routing preserves relative start order
    // within each relay because the source order is already sorted.
    let mut subs: Vec<Schedule> = (0..relays)
        .map(|_| Schedule {
            transfers: Vec::new(),
            stats: schedule.stats,
        })
        .collect();
    for t in &schedule.transfers {
        let r = (cfg.topology.route(t) as usize).min(relays - 1);
        subs[r].transfers.push(*t);
    }
    let epoch = schedule.transfers.first().map(|t| t.start);

    let mut nodes = Vec::with_capacity(relays);
    for (i, plan) in plans.into_iter().enumerate() {
        let rcfg = RelayConfig {
            origin: origin_addr,
            compression,
            index: u32::try_from(i).unwrap_or(0),
            ..cfg.relay.clone()
        };
        nodes.push(Relay::start(
            rcfg,
            plan,
            Arc::clone(&tap),
            Arc::clone(&clock),
            &registry,
        )?);
    }

    // Drive every relay's sub-schedule concurrently on the shared
    // clock; the pinned epoch keeps the launch timelines aligned.
    let driven = {
        let clock = &clock;
        let registry = &registry;
        let results: Vec<io::Result<DriveOutcome>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = nodes
                .iter()
                .zip(&subs)
                .map(|(node, sub)| {
                    let mut dcfg = DriverConfig::new(node.local_addr(), compression);
                    dcfg.workers = cfg.driver_workers;
                    dcfg.epoch = epoch;
                    s.spawn(move || drive(sub, &dcfg, clock, registry))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut sum = DriveOutcome::default();
        for r in results {
            sum.absorb(r?);
        }
        sum
    };

    // Leaf-to-root drain: relays first (they close their upstream
    // subscriptions on exit), then the origin.
    for node in &nodes {
        node.shutdown();
    }
    let deadline = clock.now().saturating_add(cfg.origin.drain);
    while nodes.iter().any(|n| n.active() > 0) && clock.now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let relay_stats: Vec<ServerStats> = nodes.into_iter().map(Relay::finish).collect();
    let origin_out = origin.finish();

    let snapshot = registry.snapshot();
    let egress = EgressReport {
        origin_bytes: snapshot.value("srv.bytes_sent").unwrap_or(0),
        delivered_bytes: snapshot.value("edge.delivered_bytes").unwrap_or(0),
        subscriptions: snapshot.value("edge.subscriptions").unwrap_or(0),
        upstream_busy: snapshot.value("edge.upstream_busy").unwrap_or(0),
    };

    // lsw::allow(L005): every other holder of `tap` is a relay finished above
    let tap = Arc::into_inner(tap).expect("relays finished");
    let (tier_reports, merged) = tap.into_inner().finalize();

    Ok(EdgeOutcome {
        tier_reports,
        merged,
        driven,
        admission: sum_stats(&relay_stats),
        origin_admission: origin_out.admission,
        egress,
        metrics: snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_trace::event::LogEntryBuilder;
    use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
    use lsw_trace::LogEntry;

    /// Live-heavy: many viewers, three hot objects, overlapping spans.
    fn live_heavy(clients: u32) -> Schedule {
        let entries: Vec<LogEntry> = (0..clients)
            .map(|i| {
                let duration = 30 + (i % 4) * 10;
                LogEntryBuilder::new()
                    .span(i % 12, duration)
                    .client(ClientId(i))
                    .origin(
                        Ipv4Addr(0x0a00_0000 + i),
                        AsId((i % 11) as u16),
                        CountryCode(*b"br"),
                    )
                    .object(ObjectId((i % 3) as u16), 1)
                    .transfer_stats(u64::from(duration + 1) * 8_000, 64_000, 0.0)
                    .build()
            })
            .collect();
        Schedule::from_entries(&entries)
    }

    #[test]
    fn overlay_smoke_completes_every_client_and_saves_origin_egress() {
        let s = live_heavy(96);
        let cfg = EdgeConfig {
            topology: "origin:2".parse().expect("topology"),
            origin: ServerConfig {
                compression: 400.0,
                ..ServerConfig::default()
            },
            ..EdgeConfig::default()
        };
        let out = run_edge(&s, &cfg, Arc::new(Registry::new())).expect("edge run");
        assert_eq!(out.driven.launched, 96);
        assert_eq!(out.driven.connect_failures, 0);
        assert_eq!(out.driven.rejected, 0);
        assert_eq!(
            out.driven.completed, 96,
            "short: {} (driver saw truncated transfers)",
            out.driven.short
        );
        // Every completion reached the edge-aggregated tap.
        assert_eq!(out.merged.accounting.kept, 96);
        assert_eq!(out.tier_reports.len(), 2);
        let tier_kept: u64 = out.tier_reports.iter().map(|r| r.accounting.kept).sum();
        assert_eq!(tier_kept, 96);
        // Fan-in savings: 96 clients collapse onto ≤ 6 subscriptions
        // (3 objects × 2 relays), so origin egress is a small fraction
        // of what the clients received.
        assert!(out.egress.subscriptions <= 6);
        assert!(out.egress.delivered_bytes > 0);
        assert!(
            out.egress.egress_ratio() < 0.5,
            "origin {} delivered {}",
            out.egress.origin_bytes,
            out.egress.delivered_bytes
        );
        // Origin saw only relay subscriptions.
        assert_eq!(
            out.origin_admission.accepted, out.egress.subscriptions,
            "origin admitted exactly the subscriptions"
        );
    }
}
