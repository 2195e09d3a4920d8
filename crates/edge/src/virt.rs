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
//! * every client is logged to its tier's tap and the merged tap when
//!   it arrives, completed, rejected or truncated, since its fate is
//!   decided then: the taps see start order
//!   ([`MultiTap::ingest_start_ordered`]) and buffer one start-second
//!   cohort, not a look-ahead window of completions;
//! * an admitted client holds its relay slot, and an open subscription
//!   its origin slot, until its stop second. Both wait on one
//!   second-bucket [`ReorderBuffer`] keyed by stop second, the queue the
//!   flat executor and the streaming engine use; before each arrival
//!   every slot due at or before its second is freed.
//!
//! Determinism contract: no ambient time, no RNG, no I/O, integer
//! arithmetic only; two runs over the same schedule and config produce
//! byte-identical JSON reports — per tier and merged.

use crate::relay::{plan_feeds, FeedPlan};
use crate::topology::Topology;
use lsw_replay::metrics::Registry;
use lsw_replay::{STATUS_REJECTED, STATUS_TRUNCATED};
use lsw_sim::server::{AdmissionPolicy, MediaServer, ServerConfig, ServerStats};
use lsw_stream::reorder::ReorderBuffer;
use lsw_stream::{MultiTap, StreamConfig, StreamReport};
use lsw_trace::schedule::Schedule;
use std::collections::BTreeMap;

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

/// An admission slot to free at its stop second. Slots on different
/// servers are independent, so the order within a second is immaterial.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Done {
    /// A subscription finishing at the origin.
    Sub,
    /// A client transfer finishing on its relay tier.
    Client { relay: usize },
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

    // Client stops lie within the longest duration of the arrival in
    // hand, so they all fit the queue's ring; only feeds that outlast it
    // spill.
    let mut due: ReorderBuffer<Done> = ReorderBuffer::with_span(schedule.max_duration());
    let mut feeds: BTreeMap<(usize, u16), FeedState> = BTreeMap::new();

    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut truncated = 0u64;
    let mut subscriptions = 0u64;
    let mut origin_bytes = 0u64;
    let mut delivered_bytes = 0u64;

    for t in &schedule.transfers {
        // Releases before arrivals at the same second.
        while let Some(done) = due.pop_through(t.start) {
            match done {
                Done::Sub => origin.release(),
                Done::Client { relay } => tiers[relay].release(),
            }
        }
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
                            due.push(sub.stop(), Done::Sub);
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

        let mut e = t.to_entry();
        if state == FeedState::Busy {
            // The origin refused the feed: this relay's clients for the
            // object truncate, exactly like an incomplete ring.
            e.status = STATUS_TRUNCATED;
            truncated += 1;
        } else if tiers[relay].request(t.display_duration()) {
            delivered_bytes += t.bytes;
            completed += 1;
            due.push(t.stop(), Done::Client { relay });
        } else {
            e.status = STATUS_REJECTED;
            rejected += 1;
        }
        tap.ingest_start_ordered(relay, &e);
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

    /// Every tap — each relay tier and the merged one — holds at most
    /// the largest start cohort, uncapped and when admission caps turn
    /// clients away and the origin refuses feeds: every client is logged
    /// at its arrival, in start order.
    #[test]
    fn every_tap_buffers_one_start_cohort() {
        let s = live_heavy(300);
        let mut per_start = BTreeMap::new();
        for t in &s.transfers {
            *per_start.entry(t.start).or_insert(0u64) += 1;
        }
        let cohort = per_start.into_values().max().unwrap_or(0);
        assert_eq!(cohort, 6);
        let topo: Topology = "origin:2:as".parse().expect("topology");
        for (origin, relay) in [
            (AdmissionPolicy::AcceptAll, AdmissionPolicy::AcceptAll),
            (
                AdmissionPolicy::RejectAbove { max_concurrent: 2 },
                AdmissionPolicy::RejectAbove { max_concurrent: 4 },
            ),
        ] {
            let out = run_virtual_topology(
                &s,
                &topo,
                origin,
                relay,
                StreamConfig::default(),
                &Registry::new(),
            );
            assert_eq!(out.completed + out.rejected + out.truncated, 300);
            if origin != AdmissionPolicy::AcceptAll {
                assert!(out.rejected > 0 && out.truncated > 0, "the caps must bite");
            }
            assert_eq!(out.tier_reports.len(), 2);
            // Tiers 0 and 1, then the merged tap as 2.
            for (i, r) in out.tier_reports.iter().chain([&out.merged]).enumerate() {
                assert_eq!(r.accounting.late_entries, 0, "tap {i}");
                assert!(
                    r.memory.peak_heap_entries <= cohort,
                    "tap {i} under {relay:?}: peak {}",
                    r.memory.peak_heap_entries
                );
            }
        }
    }

    /// One client transfer on a single-relay overlay.
    fn transfer(start: u32, duration: u32, client: u32, object: u16) -> LogEntry {
        LogEntryBuilder::new()
            .span(start, duration)
            .client(ClientId(client))
            .object(ObjectId(object), 0)
            .transfer_stats(64, 64_000, 0.0)
            .build()
    }

    #[test]
    fn zero_duration_clients_release_before_same_second_arrivals() {
        // Under a one-slot relay: a transfer stopping at second 10 walks
        // the release cursor past it, then two zero-duration transfers
        // arrive at 10. Each must free its slot for the next, so the
        // first is released below the walked second, before the second
        // arrives.
        let entries = [
            transfer(5, 5, 0, 0),
            transfer(10, 0, 1, 0),
            transfer(10, 0, 2, 0),
        ];
        let s = Schedule::from_entries(&entries);
        let topo: Topology = "origin:1".parse().expect("topology");
        let out = run_virtual_topology(
            &s,
            &topo,
            AdmissionPolicy::AcceptAll,
            AdmissionPolicy::RejectAbove { max_concurrent: 1 },
            StreamConfig::default(),
            &Registry::new(),
        );
        assert_eq!(out.completed, 3);
        assert_eq!(out.rejected + out.truncated, 0);
    }

    #[test]
    fn subscriptions_release_before_same_second_first_clients() {
        // Under a one-slot origin: object 0's feed spans [0, 8 + slack]
        // and object 1's first client arrives as that feed stops, so its
        // feed takes the freed origin slot and nothing truncates.
        let stop = 8 + crate::relay::SPAN_SLACK;
        let entries = [transfer(0, 8, 0, 0), transfer(stop, 4, 1, 1)];
        let s = Schedule::from_entries(&entries);
        let topo: Topology = "origin:1".parse().expect("topology");
        let out = run_virtual_topology(
            &s,
            &topo,
            AdmissionPolicy::RejectAbove { max_concurrent: 1 },
            AdmissionPolicy::AcceptAll,
            StreamConfig::default(),
            &Registry::new(),
        );
        assert_eq!(out.subscriptions, 2);
        assert_eq!(out.origin_admission.rejected, 0);
        assert_eq!(out.completed, 2);
        assert_eq!(out.truncated, 0);
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
