//! # lsw-core — GISMO-Live: a generative model for live streaming workloads
//!
//! This crate is the reproduction's *primary contribution*: the generative
//! model of §6 / Table 2 of Veloso et al. (IMC 2002), realized as a
//! workload generator in the spirit of GISMO \[19\] extended for live media.
//!
//! The model, layer by layer (matching the paper's hierarchy):
//!
//! * **Client arrivals** — a piecewise-stationary Poisson process whose
//!   mean rate follows a programmable diurnal/weekly profile ([`diurnal`]),
//!   as established in §3.4 (Figs 4–6).
//! * **Client identity** — which client owns an arriving session is drawn
//!   from the Zipf *client interest profile* (`interest`), α = 0.4704
//!   (Fig 7 right). This is the paper's role-reversal: clients, not
//!   objects, are the popularity-skewed entity.
//! * **Session composition** — the number of transfers in a session is
//!   Zipf(α = 2.7042) (Fig 13); transfer starts within a session follow
//!   lognormal(μ = 4.900, σ = 1.321) interarrivals (Fig 14).
//! * **Transfers** — lengths are lognormal(μ = 4.384, σ = 1.427),
//!   reflecting client *stickiness* rather than object size (Fig 19, §5.3);
//!   the object (feed) and camera come from the live-object model
//!   (`objects`); bandwidth is bimodal, client-bound with a ~10%
//!   congestion-bound mode (`bandwidth`, Fig 20).
//!
//! [`vbr`] adds GISMO's self-similar variable-bit-rate content encoding
//! (superposed heavy-tailed ON/OFF sources, Hurst `H = (3−α)/2`), and
//! [`generator::Generator`] assembles these into a [`workload::Workload`]
//! and renders it to an `lsw-trace` trace. [`stored`] provides the classic
//! stored-media (user-driven, object-popularity) GISMO baseline so the
//! paper's live-vs-stored duality can be exercised side by side.
//!
//! ## Quickstart
//!
//! ```
//! use lsw_core::config::WorkloadConfig;
//! use lsw_core::generator::Generator;
//!
//! // A 1-day, 2,000-client scaled-down version of the paper's workload.
//! let config = WorkloadConfig::paper().scaled(2_000, 86_400, 4_000);
//! let generator = Generator::new(config, 42).unwrap();
//! let workload = generator.generate();
//! let trace = workload.render();
//! assert!(!trace.is_empty());
//! ```

#![warn(missing_docs)]
// `!(x > 0.0)` in parameter validation is deliberate: unlike `x <= 0.0` it
// also rejects NaN, which is exactly the point of those guards.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub(crate) mod bandwidth;
pub mod config;
pub mod diurnal;
pub mod generator;
pub(crate) mod interest;
pub(crate) mod objects;
pub mod stored;
pub mod vbr;
pub mod workload;

pub use config::WorkloadConfig;
pub use generator::Generator;
pub use workload::Workload;
