//! Workload configuration: every knob of the generative model.
//!
//! [`WorkloadConfig::paper`] instantiates Table 2 of Veloso et al. exactly;
//! [`WorkloadConfig::scaled`] shrinks the population/horizon for tests and
//! examples while preserving every distributional parameter.

use lsw_stats::paper;
use serde::{Deserialize, Serialize};

/// How many transfers a session contains.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransfersPerSession {
    /// The paper's model: unbounded Zipf (zeta) with exponent `alpha`
    /// (Fig 13, Table 2: α = 2.70417). Mean ≈ 1.6 for the paper's α.
    Zipf {
        /// Tail exponent (> 1).
        alpha: f64,
    },
    /// Light-tailed alternative for ablations: geometric with given mean.
    Geometric {
        /// Mean transfers per session (>= 1).
        mean: f64,
    },
    /// Body/tail hybrid: geometric body with probability `1 − p_tail`,
    /// zeta tail with probability `p_tail`. Matches both the trace's
    /// empirical mean (≈ 3.7, from Table 1's 5.5M transfers / 1.5M
    /// sessions) and the Fig 13 tail exponent.
    Hybrid {
        /// Zeta tail exponent (> 1).
        alpha: f64,
        /// Probability a session is tail-distributed.
        p_tail: f64,
        /// Mean of the geometric body (>= 1).
        body_mean: f64,
    },
}

/// A lognormal parameter pair as quoted in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormalParams {
    /// Log-location μ.
    pub mu: f64,
    /// Log-scale σ.
    pub sigma: f64,
}

/// Bandwidth model parameters (Fig 20).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthConfig {
    /// Fraction of transfers that are congestion-bound (paper: ≈ 10%).
    pub congestion_fraction: f64,
    /// Median of the congestion-bound lognormal mode, bits/s.
    pub congestion_median_bps: f64,
    /// Log-scale of the congestion-bound mode.
    pub congestion_sigma: f64,
    /// Client-bound transfers achieve `[efficiency_lo, efficiency_hi]` of
    /// their access-link capacity (protocol overhead, line quality).
    pub efficiency_lo: f64,
    /// Upper efficiency bound.
    pub efficiency_hi: f64,
}

impl Default for BandwidthConfig {
    fn default() -> Self {
        Self {
            congestion_fraction: paper::CONGESTION_BOUND_FRACTION,
            congestion_median_bps: 8_000.0,
            congestion_sigma: 1.1,
            efficiency_lo: 0.72,
            efficiency_hi: 0.98,
        }
    }
}

/// Live-object model parameters (§2.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectConfig {
    /// Number of live feeds (paper: 2).
    pub n_objects: usize,
    /// Relative popularity of each feed (len == n_objects; normalized).
    pub feed_weights: Vec<f64>,
    /// Number of cameras feeding the objects (paper: 48).
    pub n_cameras: usize,
    /// Mean camera hold time in seconds before the feed switches views.
    pub camera_hold_secs: f64,
}

impl Default for ObjectConfig {
    fn default() -> Self {
        Self {
            n_objects: paper::NUM_LIVE_OBJECTS,
            feed_weights: vec![0.7, 0.3],
            n_cameras: paper::NUM_CAMERAS,
            camera_hold_secs: 45.0,
        }
    }
}

/// The complete generative-model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of clients in the population.
    pub n_clients: usize,
    /// Trace horizon in seconds.
    pub horizon_secs: u32,
    /// Target number of sessions over the horizon (sets the arrival-rate
    /// scale; the realized count is Poisson around this).
    pub target_sessions: usize,
    /// Zipf exponent of the client interest profile (sessions → clients;
    /// Fig 7 right, Table 2: α = 0.4704).
    pub interest_alpha: f64,
    /// Transfers-per-session model.
    pub transfers_per_session: TransfersPerSession,
    /// Intra-session transfer interarrival lognormal (Fig 14).
    pub intra_session_iat: LogNormalParams,
    /// Transfer length lognormal (Fig 19).
    pub transfer_length: LogNormalParams,
    /// Weekday multipliers (Sun..Sat) on the diurnal shape; the paper's
    /// weekends run slightly higher than weekdays (§3.2).
    pub weekday_weights: [f64; 7],
    /// Piecewise window for the arrival-rate profile, seconds (paper: 900).
    pub rate_window_secs: f64,
    /// Live-object model.
    pub objects: ObjectConfig,
    /// Bandwidth model.
    pub bandwidth: BandwidthConfig,
    /// Day-of-week of the trace's first day (0 = Sunday); the paper's
    /// Fig 4 x-axis starts on a Sunday.
    pub start_weekday: u8,
    /// Per-day audience envelope (Fig 4 left: the show ramps up over its
    /// first days). Empty = flat. Scaled-down runs usually leave this
    /// empty; the full paper configuration uses
    /// `DiurnalProfile::paper_day_envelope`.
    pub day_envelope: Vec<f64>,
}

impl WorkloadConfig {
    /// The paper's full-scale configuration (Table 1 scale + Table 2
    /// parameters): 28 days, ~692k clients, ~1.5M sessions.
    pub fn paper() -> Self {
        Self {
            // The client *universe*: Table 1's 691,889 users are the
            // players observed in the trace; with ~2.2 sessions per
            // observed client under Zipf(0.47) interest, ~18% of the
            // universe never appears, so the universe must be larger for
            // the observed count to land on Table 1.
            n_clients: 900_000,
            horizon_secs: paper::TRACE_SECS as u32,
            target_sessions: 1_550_000,
            interest_alpha: paper::INTEREST_SESSIONS_ALPHA,
            transfers_per_session: TransfersPerSession::Zipf {
                alpha: paper::TRANSFERS_PER_SESSION_ALPHA,
            },
            intra_session_iat: LogNormalParams {
                mu: paper::INTRA_SESSION_IAT_MU,
                sigma: paper::INTRA_SESSION_IAT_SIGMA,
            },
            transfer_length: LogNormalParams {
                mu: paper::TRANSFER_LENGTH_MU,
                sigma: paper::TRANSFER_LENGTH_SIGMA,
            },
            weekday_weights: [1.08, 0.97, 0.96, 0.97, 0.98, 1.0, 1.04],
            rate_window_secs: paper::PIECEWISE_WINDOW_SECS,
            objects: ObjectConfig::default(),
            bandwidth: BandwidthConfig::default(),
            start_weekday: 0,
            day_envelope: crate::diurnal::DiurnalProfile::paper_day_envelope(),
        }
    }

    /// The paper configuration with the transfers-per-session hybrid that
    /// also matches Table 1's empirical mean (5.5M transfers from 1.5M
    /// sessions ≈ 3.7/session), not just the Fig 13 tail exponent.
    pub fn paper_scale_matched() -> Self {
        Self {
            transfers_per_session: TransfersPerSession::Hybrid {
                alpha: paper::TRANSFERS_PER_SESSION_ALPHA,
                p_tail: 0.35,
                body_mean: 4.8,
            },
            ..Self::paper()
        }
    }

    /// Shrinks population, horizon and session count for fast runs while
    /// keeping all distributional parameters.
    pub fn scaled(mut self, n_clients: usize, horizon_secs: u32, target_sessions: usize) -> Self {
        self.n_clients = n_clients;
        self.horizon_secs = horizon_secs;
        self.target_sessions = target_sessions;
        // Scaled runs cover a fraction of the show: drop the ramp-up
        // envelope (tests and examples want stationary-per-day behavior).
        self.day_envelope = Vec::new();
        self
    }

    /// Validates structural constraints; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_clients == 0 {
            return Err("n_clients must be >= 1".into());
        }
        if self.horizon_secs == 0 {
            return Err("horizon_secs must be >= 1".into());
        }
        if self.target_sessions == 0 {
            return Err("target_sessions must be >= 1".into());
        }
        if !(self.interest_alpha >= 0.0) {
            return Err(format!(
                "interest_alpha must be >= 0, got {}",
                self.interest_alpha
            ));
        }
        match self.transfers_per_session {
            TransfersPerSession::Zipf { alpha } if !(alpha > 1.0) => {
                return Err(format!(
                    "Zipf transfers-per-session needs alpha > 1, got {alpha}"
                ));
            }
            TransfersPerSession::Geometric { mean } if !(mean >= 1.0) => {
                return Err(format!(
                    "Geometric transfers-per-session needs mean >= 1, got {mean}"
                ));
            }
            TransfersPerSession::Hybrid {
                alpha,
                p_tail,
                body_mean,
            } if !(alpha > 1.0) || !(0.0..=1.0).contains(&p_tail) || !(body_mean >= 1.0) => {
                return Err("invalid Hybrid transfers-per-session parameters".into());
            }
            _ => {}
        }
        if !(self.intra_session_iat.sigma > 0.0) || !(self.transfer_length.sigma > 0.0) {
            return Err("lognormal sigmas must be positive".into());
        }
        if self.objects.n_objects == 0 || self.objects.feed_weights.len() != self.objects.n_objects
        {
            return Err("feed_weights must have one weight per object".into());
        }
        if self.objects.feed_weights.iter().any(|&w| !(w > 0.0)) {
            return Err("feed weights must be positive".into());
        }
        if self.objects.n_cameras == 0 || self.objects.n_cameras > 256 {
            return Err("n_cameras must be in 1..=256".into());
        }
        if !(self.objects.camera_hold_secs > 0.0) {
            return Err("camera_hold_secs must be positive".into());
        }
        let b = &self.bandwidth;
        let efficiency_ok =
            0.0 < b.efficiency_lo && b.efficiency_lo <= b.efficiency_hi && b.efficiency_hi <= 1.0;
        if !(0.0..=1.0).contains(&b.congestion_fraction)
            || !(b.congestion_median_bps > 0.0)
            || !(b.congestion_sigma > 0.0)
            || !efficiency_ok
        {
            return Err("invalid bandwidth configuration".into());
        }
        if self.weekday_weights.iter().any(|&w| !(w > 0.0)) {
            return Err("weekday weights must be positive".into());
        }
        if !(self.rate_window_secs > 0.0) {
            return Err("rate_window_secs must be positive".into());
        }
        if self.start_weekday > 6 {
            return Err("start_weekday must be 0..=6".into());
        }
        if self.day_envelope.iter().any(|&v| !(v > 0.0)) {
            return Err("day envelope values must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_full_scale() {
        let c = WorkloadConfig::paper();
        assert!(c.validate().is_ok());
        assert_eq!(c.n_clients, 900_000);
        assert_eq!(c.horizon_secs, 2_419_200);
        assert_eq!(c.objects.n_objects, 2);
        assert_eq!(c.objects.n_cameras, 48);
    }

    #[test]
    fn scaled_keeps_distribution_params() {
        let c = WorkloadConfig::paper().scaled(1_000, 86_400, 2_000);
        assert!(c.validate().is_ok());
        assert_eq!(c.n_clients, 1_000);
        assert_eq!(c.interest_alpha, WorkloadConfig::paper().interest_alpha);
        assert_eq!(c.transfer_length, WorkloadConfig::paper().transfer_length);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let good = WorkloadConfig::paper();
        let mut c = good.clone();
        c.n_clients = 0;
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.transfers_per_session = TransfersPerSession::Zipf { alpha: 1.0 };
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.objects.feed_weights = vec![1.0]; // wrong arity
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.bandwidth.efficiency_lo = 1.5;
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.start_weekday = 9;
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.transfers_per_session = TransfersPerSession::Hybrid {
            alpha: 2.7,
            p_tail: 1.5,
            body_mean: 4.0,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let c = WorkloadConfig::paper_scale_matched();
        let json = serde_json::to_string(&c).unwrap();
        let back: WorkloadConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
