//! # lsw-sim — discrete-event media server simulator
//!
//! The substrate that stands in for the paper's Windows Media Server and
//! its network path. Where the generator (`lsw-core`) *schedules* what
//! clients want, the simulator *plays it out* against finite resources and
//! writes the kind of log the paper's authors received:
//!
//! * [`des`] — a minimal discrete-event core (time-ordered event queue).
//! * [`FairShareNetwork`] — the server uplink shared max-min fairly among
//!   active transfers, with per-transfer caps from client access links.
//!   Because there are only seven access classes, fair-share
//!   recomputation and per-class byte integration are O(7) per event, so
//!   paper-scale traces (11M events) simulate in seconds.
//! * [`server`] — the media server: admission policy, CPU-load model,
//!   accept/reject accounting (the paper's §1 argument that admission
//!   control is not viable for live content is made measurable here).
//! * [`sim`] — the simulation driver: takes a generated
//!   [`lsw_core::Workload`], runs start/stop events through server and
//!   network, and emits a `lsw-trace` trace — including, optionally, the
//!   §2.4 harvest-spanning log anomaly for the sanitizer to catch.

#![warn(missing_docs)]

pub mod des;
pub(crate) mod network;
pub mod server;
pub mod sim;

pub use network::{FairShareNetwork, NetworkConfig};
pub use server::{AdmissionPolicy, ServerConfig, ServerStats};
pub use sim::{RetryPolicy, SimConfig, SimOutput, Simulator};
