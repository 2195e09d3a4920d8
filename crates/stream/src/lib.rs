//! One-pass, bounded-memory streaming characterization of WMS traces.
//!
//! The batch pipeline (`lsw-analysis`) holds every transfer in RAM; this
//! crate re-derives the paper's Table 1 / Table 2 parameters from a log
//! consumed *incrementally*, in memory proportional to the sketches — not
//! the trace. Per layer:
//!
//! - **client layer** — [`hll::HyperLogLog`] estimates unique clients and
//!   IPs (≤ 2% error at 2^14 registers); a bottom-k
//!   [`sample::ClientSample`] carries exact per-client tallies for the
//!   client-interest Zipf slopes; [`topk::SpaceSaving`] counts ASes,
//!   countries and objects (exact while the key space fits).
//! - **session layer** — the second-bucket [`reorder::ReorderBuffer`]
//!   (also the completion queue of both virtual-time executors), keyed
//!   by start second, re-orders log entries (logged at *stop* time) back
//!   into start order within a bounded look-ahead, and
//!   [`session::StreamSessionizer`] applies the paper's 1500-second
//!   timeout rule online; ON times, transfers-per-session and
//!   intra-session interarrivals stream into fixed-point
//!   [`fixed::LogMoments`] and [`quantile::LogQuantileSketch`].
//! - **transfer layer** — transfer lengths and interarrival gaps feed the
//!   same moment/quantile sketches; the concurrency profile is swept
//!   online from the re-ordered stream.
//!
//! Every sketch implements [`sketch::Sketch`] and merges deterministically
//! — shards ingest chunks in parallel, the coordinator folds their state
//! in shard-index order, and all floating accumulation is fixed-point
//! ([`fixed::FixedSum`]) — so the report is byte-identical at any shard
//! count (the same discipline the generator established: thread count
//! changes wall-clock, never bytes).
//!
//! Entry point: [`ingest::StreamAnalyzer`]; the result is a
//! [`report::StreamReport`].

#![warn(missing_docs)]

pub mod coord;
pub mod fixed;
pub mod hll;
pub mod ingest;
pub mod quantile;
pub mod reorder;
pub mod report;
pub mod sample;
pub mod session;
pub mod sketch;
pub mod tap;
pub mod topk;

pub use ingest::{StreamAnalyzer, StreamConfig};
pub use report::StreamReport;
pub use sketch::Sketch;
pub use tap::MultiTap;
