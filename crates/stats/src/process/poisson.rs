//! Poisson arrival processes: homogeneous and piecewise-stationary.

use crate::dist::{Discrete, ParamError, Poisson};
use crate::rng::{u01, u01_open0};
use rand::Rng;

/// Homogeneous Poisson process with constant rate (arrivals per second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonProcess {
    rate: f64,
}

impl PoissonProcess {
    /// Creates a homogeneous Poisson process with `rate > 0`.
    pub fn new(rate: f64) -> Result<Self, ParamError> {
        if !(rate > 0.0) || !rate.is_finite() {
            return Err(ParamError::new(format!(
                "PoissonProcess requires rate > 0, got {rate}"
            )));
        }
        Ok(Self { rate })
    }

    /// Generates sorted arrival times in `[t0, t1)` via exponential gaps.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, t0: f64, t1: f64) -> Vec<f64> {
        assert!(t0 <= t1, "empty interval");
        let mut out = Vec::new();
        let mut t = t0;
        loop {
            t += -u01_open0(rng).ln() / self.rate;
            if t >= t1 {
                break;
            }
            out.push(t);
        }
        out
    }
}

/// Piecewise-constant rate: `rates[i]` applies on
/// `[i·window, (i+1)·window)`. When `periodic`, the profile repeats
/// (indices wrap) — this models the paper's diurnal 24-hour profile.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseRate {
    rates: Vec<f64>,
    window: f64,
    periodic: bool,
}

impl PiecewiseRate {
    /// Creates a piecewise-constant rate profile.
    pub fn new(rates: Vec<f64>, window: f64, periodic: bool) -> Result<Self, ParamError> {
        if rates.is_empty() {
            return Err(ParamError::new(
                "PiecewiseRate requires at least one window",
            ));
        }
        if !(window > 0.0) || !window.is_finite() {
            return Err(ParamError::new(format!(
                "PiecewiseRate window must be > 0, got {window}"
            )));
        }
        if rates.iter().any(|&r| !(r >= 0.0) || !r.is_finite()) {
            return Err(ParamError::new(
                "PiecewiseRate rates must be finite and >= 0",
            ));
        }
        Ok(Self {
            rates,
            window,
            periodic,
        })
    }

    /// Rate at time `t` (events per second); 0 before the profile starts
    /// and, unless periodic, after it ends.
    pub(crate) fn rate(&self, t: f64) -> f64 {
        self.index_at(t).map_or(0.0, |i| self.rates[i])
    }

    fn index_at(&self, t: f64) -> Option<usize> {
        if t < 0.0 {
            return None;
        }
        let idx = (t / self.window) as usize;
        if self.periodic {
            Some(idx % self.rates.len())
        } else if idx < self.rates.len() {
            Some(idx)
        } else {
            None
        }
    }
}

/// The paper's piecewise-stationary Poisson process (§3.4).
///
/// Within each window of the [`PiecewiseRate`] profile, arrivals form a
/// homogeneous Poisson process with that window's rate. Generation is
/// exact: per window a `Poisson(λ·w)` count is drawn and the arrivals are
/// placed uniformly.
#[derive(Debug, Clone)]
pub struct PiecewisePoisson {
    profile: PiecewiseRate,
}

impl PiecewisePoisson {
    /// Creates the process from a rate profile.
    pub fn new(profile: PiecewiseRate) -> Self {
        Self { profile }
    }

    /// Generates sorted arrival times in `[t0, t1)`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, t0: f64, t1: f64) -> Vec<f64> {
        assert!(t0 <= t1, "empty interval");
        let w = self.profile.window;
        let mut out = Vec::new();
        // Walk window boundaries covering [t0, t1).
        let mut wstart = (t0 / w).floor() * w;
        while wstart < t1 {
            let wend = wstart + w;
            let lo = wstart.max(t0);
            let hi = wend.min(t1);
            let rate = self.profile.rate(0.5 * (lo + hi));
            let len = hi - lo;
            if rate > 0.0 && len > 0.0 {
                let mean = rate * len;
                // lsw::allow(L005): mean > 0 by the guard above
                let count = Poisson::new(mean).expect("positive mean").sample_k(rng);
                let base = out.len();
                for _ in 0..count {
                    out.push(lo + u01(rng) * len);
                }
                out[base..].sort_unstable_by(f64::total_cmp);
            }
            wstart = wend;
        }
        out
    }

    /// Expected number of arrivals in `[t0, t1)`.
    pub fn expected_count(&self, t0: f64, t1: f64) -> f64 {
        let w = self.profile.window;
        let mut total = 0.0;
        let mut wstart = (t0 / w).floor() * w;
        while wstart < t1 {
            let wend = wstart + w;
            let lo = wstart.max(t0);
            let hi = wend.min(t1);
            total += self.profile.rate(0.5 * (lo + hi)) * (hi - lo).max(0.0);
            wstart = wend;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypothesis::{ks_test, poisson_dispersion_test};
    use crate::rng::SeedStream;
    use crate::timeseries::bin_counts;

    #[test]
    fn homogeneous_count_matches_rate() {
        let p = PoissonProcess::new(2.0).unwrap();
        let mut rng = SeedStream::new(701).rng("pp");
        let arrivals = p.generate(&mut rng, 0.0, 10_000.0);
        let n = arrivals.len() as f64;
        // Expect 20,000 ± ~3·sqrt(20,000).
        assert!((n - 20_000.0).abs() < 3.0 * 20_000f64.sqrt(), "n = {n}");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn homogeneous_interarrivals_exponential() {
        let p = PoissonProcess::new(5.0).unwrap();
        let mut rng = SeedStream::new(702).rng("pp2");
        let arrivals = p.generate(&mut rng, 0.0, 5_000.0);
        let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        let d = crate::dist::Exponential::new(5.0).unwrap();
        let r = ks_test(&gaps, |x| crate::dist::Continuous::cdf(&d, x)).unwrap();
        assert!(r.accepts(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(PoissonProcess::new(0.0).is_err());
        assert!(PiecewiseRate::new(vec![], 900.0, true).is_err());
        assert!(PiecewiseRate::new(vec![1.0], 0.0, true).is_err());
        assert!(PiecewiseRate::new(vec![-1.0], 900.0, true).is_err());
    }

    #[test]
    fn piecewise_rate_lookup_and_periodicity() {
        let r = PiecewiseRate::new(vec![1.0, 2.0, 3.0], 10.0, true).unwrap();
        assert_eq!(r.rate(0.0), 1.0);
        assert_eq!(r.rate(15.0), 2.0);
        assert_eq!(r.rate(29.9), 3.0);
        assert_eq!(r.rate(30.0), 1.0); // wraps
        assert_eq!(r.rate(-5.0), 0.0);
        let r2 = PiecewiseRate::new(vec![1.0, 2.0], 10.0, false).unwrap();
        assert_eq!(r2.rate(25.0), 0.0); // beyond the profile, non-periodic
    }

    #[test]
    fn piecewise_counts_follow_profile() {
        // Low / high alternating profile; counts per window must track it.
        let profile = PiecewiseRate::new(vec![0.5, 5.0], 1_000.0, true).unwrap();
        let pp = PiecewisePoisson::new(profile);
        let mut rng = SeedStream::new(703).rng("pwp");
        let arrivals = pp.generate(&mut rng, 0.0, 20_000.0);
        let counts = bin_counts(&arrivals, 1_000.0, 20_000.0);
        let lo_mean = counts.iter().step_by(2).map(|&c| c as f64).sum::<f64>() / 10.0;
        let hi_mean = counts
            .iter()
            .skip(1)
            .step_by(2)
            .map(|&c| c as f64)
            .sum::<f64>()
            / 10.0;
        assert!((lo_mean - 500.0).abs() < 100.0, "lo {lo_mean}");
        assert!((hi_mean - 5_000.0).abs() < 300.0, "hi {hi_mean}");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn piecewise_within_window_is_poisson() {
        // §3.4's claim: within a stationary window the process is Poisson.
        let profile = PiecewiseRate::new(vec![3.0], 1_000_000.0, false).unwrap();
        let pp = PiecewisePoisson::new(profile);
        let mut rng = SeedStream::new(704).rng("pwp2");
        let arrivals = pp.generate(&mut rng, 0.0, 40_000.0);
        // Dispersion of per-100s counts should be Poisson-consistent.
        let counts = bin_counts(&arrivals, 100.0, 40_000.0);
        let r = poisson_dispersion_test(&counts).unwrap();
        assert!(r.accepts(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn homogeneous_arrivals_stay_inside_the_interval() {
        let p = PoissonProcess::new(3.0).unwrap();
        let mut rng = SeedStream::new(705).rng("pp3");
        let arrivals = p.generate(&mut rng, 5.0, 50.0);
        assert!(!arrivals.is_empty());
        assert!(arrivals.iter().all(|&t| (5.0..50.0).contains(&t)));
        assert!(p.generate(&mut rng, 7.0, 7.0).is_empty());
    }

    #[test]
    fn piecewise_zero_rate_windows_and_the_end_stay_silent() {
        let profile = PiecewiseRate::new(vec![2.0, 0.0, 2.0], 10.0, false).unwrap();
        let pp = PiecewisePoisson::new(profile);
        let mut rng = SeedStream::new(706).rng("pwp3");
        let arrivals = pp.generate(&mut rng, 0.0, 60.0);
        assert!(arrivals.iter().any(|&t| t < 10.0));
        assert!(arrivals
            .iter()
            .all(|&t| !(10.0..20.0).contains(&t) && t < 30.0));
        assert_eq!(pp.expected_count(30.0, 60.0), 0.0);
    }

    #[test]
    fn piecewise_expected_count() {
        let profile = PiecewiseRate::new(vec![1.0, 3.0], 100.0, true).unwrap();
        let pp = PiecewisePoisson::new(profile);
        assert!((pp.expected_count(0.0, 200.0) - 400.0).abs() < 1e-9);
        assert!((pp.expected_count(50.0, 150.0) - (50.0 + 150.0)).abs() < 1e-9);
    }
}
