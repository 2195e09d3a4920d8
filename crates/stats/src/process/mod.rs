//! Arrival processes.
//!
//! The paper's central modeling claim (§3.4) is that client arrivals follow
//! a **piecewise-stationary Poisson process**: a strong diurnal profile sets
//! the mean rate per 15-minute window, and within a window arrivals are
//! Poisson. [`PiecewisePoisson`] implements exactly that; [`PoissonProcess`]
//! is the homogeneous special case the stored-media generator draws from.

mod poisson;

pub use poisson::{PiecewisePoisson, PiecewiseRate, PoissonProcess};
