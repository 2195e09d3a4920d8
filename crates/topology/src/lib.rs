//! # lsw-topology — synthetic client population for live streaming workloads
//!
//! The paper's client population (§3.1) spans ~692k users behind ~364k IPs,
//! mapped to 1,010 autonomous systems in 11 countries, with a Zipf-like AS
//! popularity profile (Fig 2) and 2002-era access links (Fig 20's
//! client-bound bandwidth spikes: modem tiers, ISDN, DSL, cable).
//!
//! Since the real population is proprietary, this crate builds a synthetic
//! one with the same *structure*:
//!
//! * [`access`] — access-link classes and their bandwidth caps.
//! * [`AsRegistry`] — an AS registry with Zipf-weighted popularity and country
//!   assignment.
//! * [`ClientPopulation`] — the client population: per-client home AS, shared IP
//!   allocation (≈1.9 users/IP as in Table 1), and access class.

#![warn(missing_docs)]

pub mod access;
pub(crate) mod asmap;
pub(crate) mod client;

pub use access::AccessClass;
pub use asmap::{AsInfo, AsRegistry, AsRegistryConfig};
pub use client::{ClientInfo, ClientPopulation, ClientPopulationConfig};
