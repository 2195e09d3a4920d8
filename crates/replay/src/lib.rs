//! # lsw-replay — trace replay over live sockets, closed-loop
//!
//! The rest of the workspace characterizes, models, and simulates the
//! paper's workload *analytically*. This crate exercises it the way the
//! ROADMAP north star demands: by **serving it**. It pairs
//!
//! * a multithreaded localhost TCP server ([`server`]) that paces each
//!   live feed's broadcast at its encoded bitrate, admits transfers
//!   through the simulator's pluggable [`AdmissionPolicy`], bounds every
//!   per-client send backlog, and drains gracefully on shutdown — on the
//!   one LSW1 connection lifecycle ([`reactor`]) the edge relay runs too,
//! * a trace-driven load driver ([`driver`]) that replays a
//!   [`Schedule`] extracted from a wms/ltc trace at a configurable
//!   time-compression factor over real concurrent connections.
//!
//! Both sides share one wire [`proto`]col and one lock-free [`metrics`]
//! registry. Every transfer the server completes is logged — WMS-style,
//! at completion time — into an embedded `lsw-stream` analyzer (the
//! *tap*), so a replay run ends by re-characterizing the traffic it just
//! served and [`diff`]ing that against the input trace's own
//! characterization: the loop is closed when they agree to within the
//! sketches' documented error bounds.
//!
//! ## Virtual time
//!
//! `--virtual-time` swaps the wall [`clock`] for the log's own whole-second
//! clock and runs the whole serve-and-replay exchange as a single-threaded
//! event simulation ([`virt`]) over the same pacing, admission, logging,
//! and tap code paths' semantics. A virtual transfer is logged when it
//! arrives, since its fate is decided then, so that tap sees start order.
//! No sockets, no threads, no ambient time: byte-identical reports on
//! every run, at any `--shards` count.
//!
//! [`AdmissionPolicy`]: lsw_sim::server::AdmissionPolicy
//! [`Schedule`]: lsw_trace::schedule::Schedule

#![warn(missing_docs)]

pub mod clock;
pub mod diff;
pub mod driver;
pub mod metrics;
pub mod payload;
pub mod proto;
pub mod reactor;
pub mod server;
pub mod slab;
pub mod virt;

pub use clock::WallClock;
pub use diff::{closed_loop, reference_report, LoopDiff};
pub use driver::{drive, DriveOutcome, DriverConfig};
pub use metrics::{Registry, Snapshot};
pub use server::{ReplayServer, ServeOutcome, ServerConfig, SlowClientPolicy};
pub use slab::{Key, Slab};
pub use virt::{run_virtual, VirtualOutcome};

/// Wire status logged for transfers the admission policy turned away.
pub const STATUS_REJECTED: u16 = 503;
/// Wire status logged for transfers truncated by the slow-client drop
/// policy or a forced drain.
pub const STATUS_TRUNCATED: u16 = 408;
