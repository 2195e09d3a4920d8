//! # lsw-edge — hierarchical live fan-out overlay
//!
//! `lsw-replay` serves every client from one process; this crate is the
//! step the ROADMAP's "production-scale" north star demands: an
//! **origin → relays → clients** overlay on localhost. Each relay
//! subscribes *once* per live object to the origin over the existing
//! LSW1 protocol and fans the chunk stream out to its assigned clients
//! through a single-producer multi-consumer broadcast [`ring`] — the
//! paper's hierarchical client/session/transfer layering, realized as a
//! serving hierarchy.
//!
//! * [`topology`] — the `--topology origin[:relays[:key]]` grammar and
//!   the deterministic client→relay routing (by AS/country, the paper's
//!   client-layer concentration axes).
//! * [`ring`] — the per-object broadcast ring: mid-stream join at the
//!   live edge, per-subscriber cursor lag, whole-chunk eviction.
//! * [`relay`] — the relay node: one reactor thread that subscribes
//!   upstream, feeds the rings, and re-serves clients on the origin's
//!   own connection lifecycle (`lsw_replay::reactor`).
//! * [`cluster`] — the threaded orchestration: origin + N relays +
//!   per-relay drivers, per-tier characterization taps, and the
//!   origin-egress (fan-in savings) accounting.
//! * [`virt`] — the deterministic virtual-time executor for the whole
//!   topology: byte-identical reports run to run.

#![warn(missing_docs)]

pub mod cluster;
pub mod relay;
pub mod ring;
pub mod topology;
pub mod virt;

pub use cluster::{run_edge, EdgeConfig, EdgeOutcome, EgressReport};
pub use relay::{plan_feeds, FeedPlan, Relay, RelayConfig};
pub use ring::{Broadcast, Chunk, Cursor, Poll};
pub use topology::{RouteBy, Topology};
pub use virt::{run_virtual_topology, VirtualTopologyOutcome};
