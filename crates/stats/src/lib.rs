//! # lsw-stats — statistical substrate for live streaming workload modeling
//!
//! This crate provides every piece of probability and statistics machinery
//! needed to reproduce *"A Hierarchical Characterization of a Live Streaming
//! Media Workload"* (Veloso et al., IMC 2002), implemented from scratch:
//!
//! * **Distributions** ([`dist`]) — lognormal, exponential, bounded Zipf,
//!   zeta, Pareto, normal, Poisson, geometric, Weibull and gamma, all with
//!   sampling, densities, CDFs, quantiles and moments.
//! * **Arrival processes** ([`process`]) — homogeneous Poisson and the
//!   paper's *piecewise-stationary* Poisson process.
//! * **Estimators** ([`fit`]) — maximum-likelihood fits (lognormal,
//!   exponential, plus Pareto, Weibull and gamma for model selection),
//!   log-log least-squares Zipf fits and the Fig 17 two-regime tail.
//! * **Empirical statistics** ([`empirical`]) — summary moments, ECDF/CCDF,
//!   linear and logarithmic histograms, rank-frequency tables.
//! * **Time series** ([`timeseries`]) — fixed-width binning, periodic folding
//!   (mod-day / mod-week views) and autocorrelation.
//! * **Hypothesis tests** ([`hypothesis`]) — Kolmogorov–Smirnov (one- and
//!   two-sample) and chi-square goodness of fit.
//! * **Deterministic randomness** ([`rng`]) — a master seed fans out into
//!   independent named substreams so every experiment is reproducible.
//! * **Deterministic parallelism** ([`par`]) — worker-count policy plus an
//!   order-preserving k-way run merge, so multi-core stages produce
//!   bit-identical output at any thread count.
//! * **Self-similarity** ([`selfsim`]) — variance-time and R/S Hurst
//!   estimators, for the long-range-dependence lineage the paper builds
//!   on (Crovella & Bestavros) and GISMO's self-similar VBR content.
//!
//! The paper's published parameters are collected in [`paper`] so the rest of
//! the workspace can refer to a single source of truth.
//!
//! The crate exports only what some caller outside it uses; helpers such as
//! the special functions are crate-private, so `dead_code` reports the
//! first one nobody calls.
//!
//! ## Example
//!
//! ```
//! use lsw_stats::dist::{LogNormal, Sample};
//! use lsw_stats::fit::fit_lognormal;
//! use lsw_stats::rng::SeedStream;
//!
//! // The paper's transfer-length distribution (Table 2).
//! let d = LogNormal::new(4.383921, 1.427247).unwrap();
//! let mut rng = SeedStream::new(42).rng("transfer-length");
//! let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
//! let fit = fit_lognormal(&xs).unwrap();
//! assert!((fit.mu - 4.383921).abs() < 0.05);
//! assert!((fit.sigma - 1.427247).abs() < 0.05);
//! ```

#![warn(missing_docs)]
// `!(x > 0.0)` in parameter validation is deliberate: unlike `x <= 0.0` it
// also rejects NaN, which is exactly the point of those guards.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Numeric tables (Lanczos coefficients, paper parameters) are transcribed at
// their published precision; truncating them would hide the provenance.
#![allow(clippy::excessive_precision)]

pub mod dist;
pub mod empirical;
pub mod fit;
pub mod hypothesis;
pub mod paper;
pub mod par;
pub mod process;
pub mod rng;
pub mod selfsim;
mod special;
pub mod timeseries;

pub use dist::Sample;
pub use empirical::{Ecdf, Histogram, RankFrequency, Summary};
pub use rng::SeedStream;
