//! The deterministic virtual-time executor for the whole topology.
//!
//! Mirrors `lsw_replay::virt::run_virtual`, lifted to the overlay: one
//! single-threaded integer-only event simulation covering the origin
//! tier, every relay tier, and the routed clients. The semantics are
//! the threaded overlay's:
//!
//! * a relay opens its origin subscription lazily, at the instant its
//!   first routed client arrives (= the planned span start), charging
//!   the origin's admission with the subscription's display duration;
//! * clients pass their own relay's admission; admitted transfers
//!   complete exactly at their scheduled stop with exactly their trace
//!   bytes (the subscription rate provably covers every routed client);
//! * a client whose feed the origin refused (`BUSY`) truncates — the
//!   virtual executor propagates origin-tier refusals downstream just
//!   like the ring does;
//! * completions release in the total order `(stop, admission seq)` on
//!   the shared [`TimingWheel`], releases before same-second arrivals.
//!   A client completion carries a `u32` index into `schedule.transfers`;
//!   its log entry is built when it fires.
//!
//! Determinism contract: no ambient time, no RNG, no I/O, integer
//! arithmetic only; two runs over the same schedule and config produce
//! byte-identical JSON reports — per tier and merged.

use crate::relay::{plan_feeds, FeedPlan};
use crate::topology::Topology;
use lsw_replay::clock::Nanos;
use lsw_replay::metrics::Registry;
use lsw_replay::wheel::TimingWheel;
use lsw_replay::{STATUS_REJECTED, STATUS_TRUNCATED};
use lsw_sim::server::{AdmissionPolicy, MediaServer, ServerConfig, ServerStats};
use lsw_stream::{MultiTap, StreamConfig, StreamReport};
use lsw_trace::schedule::Schedule;
use std::collections::BTreeMap;

/// Virtual nanoseconds per trace second.
const SCALE: Nanos = 1_000_000_000;

/// What a virtual overlay replay produced.
#[derive(Debug)]
pub struct VirtualTopologyOutcome {
    /// Per-relay characterization reports, tier order.
    pub tier_reports: Vec<StreamReport>,
    /// The edge-aggregated report (diffed against the trace).
    pub merged: StreamReport,
    /// Relay-tier admission stats, summed (peak is the max tier peak).
    pub admission: ServerStats,
    /// Origin-tier admission stats (subscriptions only).
    pub origin_admission: ServerStats,
    /// Client transfers served to completion.
    pub completed: u64,
    /// Client transfers refused by relay admission.
    pub rejected: u64,
    /// Client transfers truncated because their feed was refused.
    pub truncated: u64,
    /// Subscriptions the relays opened.
    pub subscriptions: u64,
    /// Trace bytes the origin sent (accepted subscription budgets).
    pub origin_bytes: u64,
    /// Trace bytes delivered to clients (completed transfers).
    pub delivered_bytes: u64,
}

impl VirtualTopologyOutcome {
    /// Origin egress as a fraction of client-delivered bytes.
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

/// A completion event on the shared wheel.
enum Done {
    /// A client transfer (an index into `schedule.transfers`) finishing
    /// on its relay tier.
    Client { index: u32, relay: usize },
    /// A subscription finishing at the origin.
    Sub,
}

/// The virtual feed table: what happened when the subscription opened.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FeedState {
    Open,
    Busy,
}

/// Runs the whole overlay deterministically in virtual time.
pub fn run_virtual_topology(
    schedule: &Schedule,
    topology: &Topology,
    origin_admission: AdmissionPolicy,
    relay_admission: AdmissionPolicy,
    stream: StreamConfig,
    registry: &Registry,
) -> VirtualTopologyOutcome {
    let relays = topology.relays.max(1) as usize;
    let plans: Vec<BTreeMap<u16, FeedPlan>> = plan_feeds(schedule, topology);

    let mut origin = MediaServer::new(ServerConfig {
        admission: origin_admission,
        ..ServerConfig::default()
    });
    let mut tiers: Vec<MediaServer> = (0..relays)
        .map(|_| {
            MediaServer::new(ServerConfig {
                admission: relay_admission,
                ..ServerConfig::default()
            })
        })
        .collect();
    let mut tap = MultiTap::new(stream, relays);
    tap.preset_lookahead(schedule.max_duration());

    let mut wheel: TimingWheel<Done> = TimingWheel::new();
    let mut feeds: BTreeMap<(usize, u16), FeedState> = BTreeMap::new();
    // Admitted zero-duration client transfers, due before the next
    // arrival (which may share their second); see run_virtual.
    let mut due_now: Vec<(u32, usize)> = Vec::new();
    let mut fired: Vec<(Nanos, Done)> = Vec::new();

    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut truncated = 0u64;
    let mut subscriptions = 0u64;
    let mut origin_bytes = 0u64;
    let mut delivered_bytes = 0u64;

    let release = |wheel: &mut TimingWheel<Done>,
                   due_now: &mut Vec<(u32, usize)>,
                   fired: &mut Vec<(Nanos, Done)>,
                   tiers: &mut Vec<MediaServer>,
                   origin: &mut MediaServer,
                   tap: &mut MultiTap,
                   completed: &mut u64,
                   bound: Nanos| {
        wheel.advance(bound, fired);
        for (index, relay) in due_now.drain(..) {
            tiers[relay].release();
            tap.ingest(relay, &schedule.transfers[index as usize].to_entry());
            *completed += 1;
        }
        for (_, done) in fired.drain(..) {
            match done {
                Done::Client { index, relay } => {
                    tiers[relay].release();
                    tap.ingest(relay, &schedule.transfers[index as usize].to_entry());
                    *completed += 1;
                }
                Done::Sub => origin.release(),
            }
        }
    };

    // Transfers past index `u32::MAX` are never served; the shortfall shows
    // in the closed-loop diff's transfer row.
    for (index, t) in (0u32..).zip(&schedule.transfers) {
        // Releases strictly before arrivals at the same second.
        release(
            &mut wheel,
            &mut due_now,
            &mut fired,
            &mut tiers,
            &mut origin,
            &mut tap,
            &mut completed,
            u64::from(t.start) * SCALE,
        );
        let relay = (topology.route(t) as usize).min(relays - 1);
        let object = t.object.0;

        // Lazy subscription: the first routed client for an object
        // opens the relay's feed against the origin.
        let state = match feeds.get(&(relay, object)) {
            Some(&s) => s,
            None => {
                let state = match plans[relay].get(&object) {
                    Some(plan) => {
                        subscriptions += 1;
                        let sub = plan.subscription(u32::try_from(relay).unwrap_or(0));
                        if origin.request(sub.display_duration()) {
                            origin_bytes += plan.bytes;
                            wheel.schedule(u64::from(sub.stop()) * SCALE, Done::Sub);
                            FeedState::Open
                        } else {
                            FeedState::Busy
                        }
                    }
                    // Unreachable: plan_feeds plans every routed object.
                    None => FeedState::Busy,
                };
                feeds.insert((relay, object), state);
                state
            }
        };

        if state == FeedState::Busy {
            // The origin refused the feed: this relay's clients for the
            // object truncate, exactly like an incomplete ring.
            let mut e = t.to_entry();
            e.status = STATUS_TRUNCATED;
            tap.ingest(relay, &e);
            truncated += 1;
            continue;
        }
        if tiers[relay].request(t.display_duration()) {
            delivered_bytes += t.bytes;
            if t.stop() == t.start {
                due_now.push((index, relay));
            } else {
                wheel.schedule(u64::from(t.stop()) * SCALE, Done::Client { index, relay });
            }
        } else {
            let mut e = t.to_entry();
            e.status = STATUS_REJECTED;
            tap.ingest(relay, &e);
            rejected += 1;
        }
    }
    // Final drains: due-now leftovers, then the wheel to empty.
    let first_bound = wheel.next_deadline().unwrap_or(0);
    release(
        &mut wheel,
        &mut due_now,
        &mut fired,
        &mut tiers,
        &mut origin,
        &mut tap,
        &mut completed,
        first_bound,
    );
    while let Some(bound) = wheel.next_deadline() {
        release(
            &mut wheel,
            &mut due_now,
            &mut fired,
            &mut tiers,
            &mut origin,
            &mut tap,
            &mut completed,
            bound,
        );
    }

    registry.counter("edge.completed").add(completed);
    registry.counter("edge.rejected").add(rejected);
    registry.counter("edge.truncated").add(truncated);
    registry.counter("edge.subscriptions").add(subscriptions);
    registry
        .counter("edge.delivered_bytes")
        .add(delivered_bytes);
    registry.counter("srv.bytes_sent").add(origin_bytes);

    let mut admission = ServerStats::default();
    for tier in &tiers {
        let s = tier.stats();
        admission.accepted += s.accepted;
        admission.rejected += s.rejected;
        admission.denied_viewer_seconds += s.denied_viewer_seconds;
        admission.peak_concurrent = admission.peak_concurrent.max(s.peak_concurrent);
        admission.retries += s.retries;
    }

    let (tier_reports, merged) = tap.finalize();
    VirtualTopologyOutcome {
        tier_reports,
        merged,
        admission,
        origin_admission: origin.stats().clone(),
        completed,
        rejected,
        truncated,
        subscriptions,
        origin_bytes,
        delivered_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_trace::event::LogEntryBuilder;
    use lsw_trace::ids::{AsId, ClientId, ObjectId};
    use lsw_trace::LogEntry;

    /// A live-heavy schedule: many concurrent viewers on few objects —
    /// the workload shape the paper characterizes and the overlay is
    /// built for.
    fn live_heavy(clients: u32) -> Schedule {
        let entries: Vec<LogEntry> = (0..clients)
            .map(|i| {
                LogEntryBuilder::new()
                    .span((i % 50) * 4, 600 + (i % 7) * 30)
                    .client(ClientId(i))
                    .origin(
                        lsw_trace::ids::Ipv4Addr(0x0a00_0000 + i),
                        AsId((i % 11) as u16),
                        lsw_trace::ids::CountryCode(*b"br"),
                    )
                    .object(ObjectId((i % 3) as u16), 1)
                    .transfer_stats(u64::from(600 + (i % 7) * 30) * 8_000, 64_000, 0.0)
                    .build()
            })
            .collect();
        Schedule::from_entries(&entries)
    }

    #[test]
    fn fan_in_savings_hit_the_acceptance_floor() {
        // 512 live-heavy clients through 2 relays: origin egress must be
        // at most a quarter of the client-delivered bytes.
        let s = live_heavy(512);
        let topo: Topology = "origin:2".parse().expect("topology");
        let out = run_virtual_topology(
            &s,
            &topo,
            AdmissionPolicy::AcceptAll,
            AdmissionPolicy::AcceptAll,
            StreamConfig::default(),
            &Registry::new(),
        );
        assert_eq!(out.completed, 512);
        assert_eq!(out.rejected + out.truncated, 0);
        assert!(out.delivered_bytes > 0);
        let ratio = out.egress_ratio();
        assert!(
            ratio <= 0.25,
            "origin egress ratio {ratio:.4} exceeds the 25% fan-in floor \
             (origin {} vs delivered {})",
            out.origin_bytes,
            out.delivered_bytes
        );
    }

    #[test]
    fn virtual_topology_runs_are_byte_identical() {
        let s = live_heavy(300);
        let topo: Topology = "origin:3:country".parse().expect("topology");
        let run = || {
            run_virtual_topology(
                &s,
                &topo,
                AdmissionPolicy::AcceptAll,
                AdmissionPolicy::RejectAbove { max_concurrent: 64 },
                StreamConfig::default(),
                &Registry::new(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.merged.to_json(), b.merged.to_json());
        assert_eq!(a.tier_reports.len(), b.tier_reports.len());
        for (x, y) in a.tier_reports.iter().zip(&b.tier_reports) {
            assert_eq!(x.to_json(), y.to_json());
        }
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.origin_bytes, b.origin_bytes);
    }

    #[test]
    fn edge_aggregated_tap_matches_the_direct_single_tier_tap() {
        // The same schedule served flat (run_virtual) and through the
        // overlay must characterize identically when nothing is refused:
        // the merged tap double-ingests in the same global completion
        // order the flat executor uses.
        let s = live_heavy(400);
        let topo: Topology = "origin:4".parse().expect("topology");
        let edge = run_virtual_topology(
            &s,
            &topo,
            AdmissionPolicy::AcceptAll,
            AdmissionPolicy::AcceptAll,
            StreamConfig::default(),
            &Registry::new(),
        );
        let flat = lsw_replay::run_virtual(
            &s,
            AdmissionPolicy::AcceptAll,
            StreamConfig::default(),
            &Registry::new(),
        );
        assert_eq!(edge.merged.to_json(), flat.tap.to_json());
    }

    #[test]
    fn origin_refusals_propagate_as_truncations() {
        // An origin that admits nothing starves every feed; every client
        // truncates and none complete.
        let s = live_heavy(50);
        let topo: Topology = "origin:2".parse().expect("topology");
        let out = run_virtual_topology(
            &s,
            &topo,
            AdmissionPolicy::RejectAbove { max_concurrent: 0 },
            AdmissionPolicy::AcceptAll,
            StreamConfig::default(),
            &Registry::new(),
        );
        assert_eq!(out.completed, 0);
        assert_eq!(out.truncated, 50);
        assert_eq!(out.origin_bytes, 0);
    }
}
