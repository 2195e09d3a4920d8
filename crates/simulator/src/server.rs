//! The media server model: admission, CPU load, accounting.
//!
//! §2.4 of the paper audits server CPU to rule out overload effects; §1
//! argues that admission control ("just reject when full") is not viable
//! for live content because a denied request is a *lost viewing*, not a
//! deferred one. Both arguments are made measurable here: the CPU model
//! ties utilization to concurrency, and the admission policy is pluggable
//! so the capacity-planning example can quantify denied viewer-seconds.

use serde::{Deserialize, Serialize};

/// Admission policy for new transfer requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Accept every request (the paper's server: provisioned to never say
    /// no — overloads "extremely rare").
    AcceptAll,
    /// Reject requests when the given number of transfers is active —
    /// the stored-media playbook the paper's intro argues against.
    RejectAbove {
        /// Maximum concurrent transfers admitted.
        max_concurrent: u64,
    },
}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Admission policy.
    pub admission: AdmissionPolicy,
    /// Concurrent transfers that drive the CPU to 100%.
    pub cpu_capacity_transfers: f64,
    /// Baseline CPU utilization with an idle server.
    pub cpu_baseline: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionPolicy::AcceptAll,
            cpu_capacity_transfers: lsw_core::workload::CPU_CAPACITY_TRANSFERS,
            cpu_baseline: 0.005,
        }
    }
}

/// Running accept/reject accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests admitted.
    pub accepted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Viewer-seconds denied by rejections (requested durations of
    /// rejected transfers) — the paper's "denying access" cost.
    pub denied_viewer_seconds: f64,
    /// Peak concurrent transfers observed.
    pub peak_concurrent: u64,
    /// Retry attempts scheduled after rejections (filled by the driver).
    pub retries: u64,
}

impl ServerStats {
    /// Fraction of requests rejected.
    pub fn rejection_rate(&self) -> f64 {
        let total = self.accepted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.rejected as f64 / total as f64
        }
    }
}

/// The server: decides admission and reports CPU.
#[derive(Debug, Clone)]
pub struct MediaServer {
    config: ServerConfig,
    active: u64,
    stats: ServerStats,
}

impl MediaServer {
    /// Creates an idle server.
    pub fn new(config: ServerConfig) -> Self {
        assert!(
            config.cpu_capacity_transfers > 0.0,
            "cpu capacity must be positive"
        );
        assert!(
            (0.0..1.0).contains(&config.cpu_baseline),
            "baseline in [0,1)"
        );
        Self {
            config,
            active: 0,
            stats: ServerStats::default(),
        }
    }

    /// Handles a transfer request of `duration` seconds; returns whether
    /// it was admitted (and updates accounting).
    pub fn request(&mut self, duration: f64) -> bool {
        let admit = match self.config.admission {
            AdmissionPolicy::AcceptAll => true,
            AdmissionPolicy::RejectAbove { max_concurrent } => self.active < max_concurrent,
        };
        if admit {
            self.active += 1;
            self.stats.accepted += 1;
            self.stats.peak_concurrent = self.stats.peak_concurrent.max(self.active);
        } else {
            self.stats.rejected += 1;
            self.stats.denied_viewer_seconds += duration.max(0.0);
        }
        admit
    }

    /// A transfer finished.
    pub fn release(&mut self) {
        debug_assert!(self.active > 0, "release without request");
        self.active = self.active.saturating_sub(1);
    }

    /// Current CPU utilization, from concurrency.
    pub fn cpu_util(&self) -> f64 {
        (self.config.cpu_baseline + self.active as f64 / self.config.cpu_capacity_transfers)
            .min(1.0)
    }

    /// Accounting so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_all_never_rejects() {
        let mut s = MediaServer::new(ServerConfig::default());
        for _ in 0..10_000 {
            assert!(s.request(10.0));
        }
        assert_eq!(s.stats().rejected, 0);
        assert_eq!(s.stats().peak_concurrent, 10_000);
    }

    #[test]
    fn reject_above_limit() {
        let mut s = MediaServer::new(ServerConfig {
            admission: AdmissionPolicy::RejectAbove { max_concurrent: 2 },
            ..ServerConfig::default()
        });
        assert!(s.request(10.0));
        assert!(s.request(20.0));
        assert!(!s.request(30.0)); // full
        assert_eq!(s.stats().rejected, 1);
        assert_eq!(s.stats().denied_viewer_seconds, 30.0);
        s.release();
        assert!(s.request(5.0)); // slot freed
        assert!((s.stats().rejection_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn denied_viewer_seconds_accumulate_over_churn() {
        // Fill-reject-drain cycles: every rejection charges exactly the
        // duration it asked for, admitted traffic charges nothing, and
        // the tally never resets across churn.
        let mut s = MediaServer::new(ServerConfig {
            admission: AdmissionPolicy::RejectAbove { max_concurrent: 3 },
            ..ServerConfig::default()
        });
        let mut expected = 0.0;
        for round in 0..50u32 {
            for _ in 0..3 {
                assert!(s.request(f64::from(round)));
            }
            for k in 0..2u32 {
                let d = f64::from(round * 10 + k) + 0.5;
                assert!(!s.request(d));
                expected += d;
            }
            for _ in 0..3 {
                s.release();
            }
        }
        assert_eq!(s.stats().accepted, 150);
        assert_eq!(s.stats().rejected, 100);
        assert_eq!(s.stats().peak_concurrent, 3);
        assert!((s.stats().denied_viewer_seconds - expected).abs() < 1e-9);
        // A hostile negative duration counts the rejection but can never
        // shrink the viewer-seconds already owed.
        for _ in 0..3 {
            assert!(s.request(1.0));
        }
        assert!(!s.request(-7.0));
        assert_eq!(s.stats().rejected, 101);
        assert!((s.stats().denied_viewer_seconds - expected).abs() < 1e-9);
    }

    #[test]
    fn cpu_tracks_concurrency() {
        let mut s = MediaServer::new(ServerConfig {
            cpu_capacity_transfers: 100.0,
            cpu_baseline: 0.0,
            ..ServerConfig::default()
        });
        assert_eq!(s.cpu_util(), 0.0);
        for _ in 0..25 {
            s.request(1.0);
        }
        assert!((s.cpu_util() - 0.25).abs() < 1e-12);
        for _ in 0..200 {
            s.request(1.0);
        }
        assert_eq!(s.cpu_util(), 1.0); // clamped
    }

    #[test]
    fn paper_scale_cpu_stays_below_ten_percent() {
        // §2.4: peaks of ~6,000 concurrent transfers stay below 10% CPU.
        let mut s = MediaServer::new(ServerConfig::default());
        for _ in 0..6_000 {
            s.request(1.0);
        }
        assert!(s.cpu_util() < 0.10, "cpu {}", s.cpu_util());
    }
}
