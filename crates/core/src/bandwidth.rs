//! The bimodal transfer-bandwidth model (Fig 20).
//!
//! §5.4: the bandwidth marginal has two modes — spikes at client
//! connection speeds (the right-hand side, ~90% of transfers) and a
//! congestion-bound low mode (~10%) "resulting from extremely limited
//! network resources". The model draws accordingly: a client-bound
//! transfer achieves a high fraction of its access-link capacity; a
//! congestion-bound one draws from a low lognormal, capped by the link.

use crate::config::BandwidthConfig;
use lsw_stats::dist::{LogNormal, Sample};
use lsw_stats::rng::u01;
use lsw_topology::AccessClass;
use rand::Rng;

/// One sampled transfer bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthDraw {
    /// Average bandwidth over the transfer, bits per second.
    pub bps: u32,
    /// Whether the transfer was congestion-bound (the Fig 20 left mode).
    pub congestion_bound: bool,
    /// Packet loss rate experienced, fraction.
    pub packet_loss: f32,
}

/// Samples per-transfer bandwidth from the bimodal model.
#[derive(Debug, Clone)]
pub struct BandwidthModel {
    cfg: BandwidthConfig,
    congestion: LogNormal,
}

impl BandwidthModel {
    /// Builds the model from its configuration.
    pub(crate) fn new(cfg: BandwidthConfig) -> Result<Self, String> {
        if !(0.0..=1.0).contains(&cfg.congestion_fraction) {
            return Err("congestion_fraction must be in [0,1]".into());
        }
        let congestion = LogNormal::new(cfg.congestion_median_bps.ln(), cfg.congestion_sigma)
            .map_err(|e| e.to_string())?;
        Ok(Self { cfg, congestion })
    }

    /// Samples a transfer's bandwidth given the client's access link.
    pub(crate) fn sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        access: AccessClass,
    ) -> BandwidthDraw {
        let cap = f64::from(access.capacity_bps());
        if u01(rng) < self.cfg.congestion_fraction {
            // Congestion-bound: low lognormal, never above what the link
            // could carry anyway.
            let raw = self.congestion.sample(rng);
            let bps = raw.min(cap * self.cfg.efficiency_lo).max(1.0);
            // Congested paths lose packets: 2–20%.
            let packet_loss = (0.02 + u01(rng) * 0.18) as f32;
            BandwidthDraw {
                bps: bps as u32,
                congestion_bound: true,
                packet_loss,
            }
        } else {
            // Client-bound: a high fraction of link capacity.
            let eff = self.cfg.efficiency_lo
                + u01(rng) * (self.cfg.efficiency_hi - self.cfg.efficiency_lo);
            let bps = cap * eff;
            // Healthy paths: under 1% loss.
            let packet_loss = (u01(rng) * 0.01) as f32;
            BandwidthDraw {
                bps: bps as u32,
                congestion_bound: false,
                packet_loss,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_stats::SeedStream;

    fn model() -> BandwidthModel {
        BandwidthModel::new(BandwidthConfig::default()).unwrap()
    }

    #[test]
    fn rejects_bad_config() {
        let cfg = BandwidthConfig {
            congestion_fraction: 1.5,
            ..Default::default()
        };
        assert!(BandwidthModel::new(cfg).is_err());
    }

    #[test]
    fn congestion_fraction_matches_config() {
        let m = model();
        let mut rng = SeedStream::new(61).rng("bw");
        const N: usize = 100_000;
        let congested = (0..N)
            .filter(|_| m.sample(&mut rng, AccessClass::Modem56).congestion_bound)
            .count() as f64
            / N as f64;
        assert!((congested - 0.10).abs() < 0.005, "congested {congested}");
    }

    #[test]
    fn client_bound_near_capacity() {
        let m = model();
        let mut rng = SeedStream::new(62).rng("bw2");
        for _ in 0..5_000 {
            let d = m.sample(&mut rng, AccessClass::Dsl);
            if !d.congestion_bound {
                let frac = f64::from(d.bps) / 256_000.0;
                assert!((0.72..=0.98).contains(&frac), "efficiency {frac}");
                assert!(d.packet_loss < 0.011);
            }
        }
    }

    #[test]
    fn congestion_bound_is_low_and_lossy() {
        let m = model();
        let mut rng = SeedStream::new(63).rng("bw3");
        let mut saw_congested = false;
        for _ in 0..5_000 {
            let d = m.sample(&mut rng, AccessClass::Lan);
            if d.congestion_bound {
                saw_congested = true;
                assert!(d.bps <= (1_500_000.0 * 0.72) as u32);
                assert!(d.packet_loss >= 0.02 && d.packet_loss <= 0.2);
            }
        }
        assert!(saw_congested);
    }

    #[test]
    fn bimodality_visible() {
        // The medians of the two modes must be far apart for a 56k modem.
        let m = model();
        let mut rng = SeedStream::new(64).rng("bw4");
        let mut low = Vec::new();
        let mut high = Vec::new();
        for _ in 0..20_000 {
            let d = m.sample(&mut rng, AccessClass::Modem56);
            if d.congestion_bound {
                low.push(f64::from(d.bps));
            } else {
                high.push(f64::from(d.bps));
            }
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_unstable_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (ml, mh) = (med(&mut low), med(&mut high));
        assert!(mh / ml > 3.0, "modes too close: {ml} vs {mh}");
    }
}
