//! Self-similar variable-bit-rate (VBR) content encoding.
//!
//! GISMO \[19\] generates media objects with "self-similar variable
//! bit-rate" content — the paper's §6.2 notes those characteristics stay
//! applicable to live media. This module produces a per-second bitrate
//! series for each live feed using the Crovella–Bestavros mechanism the
//! paper's lineage rests on: a superposition of heavy-tailed (Pareto)
//! ON/OFF sources, which yields long-range-dependent rate processes with
//! Hurst exponent `H = (3 − α) / 2` for ON/OFF tail index `α ∈ (1, 2)`.
//!
//! The encoder is *deterministic per (seed, feed)* and streamable: the
//! rate at any second is computable without materializing the whole
//! series, so byte accounting over a transfer's span costs O(span).

use lsw_stats::dist::{Pareto, Sample};
use lsw_stats::rng::SeedStream;
use lsw_trace::ids::ObjectId;
use serde::{Deserialize, Serialize};

/// VBR model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VbrConfig {
    /// Nominal mean bitrate of the encoded feed, bits per second
    /// (2002-era live video: ~250 kbit/s source feed).
    pub mean_bps: f64,
    /// Number of superposed ON/OFF sources (more ⇒ smoother marginal,
    /// same long-range dependence).
    pub n_sources: usize,
    /// Pareto tail index of ON/OFF durations, in (1, 2):
    /// `H = (3 − alpha) / 2`.
    pub alpha: f64,
    /// Mean ON/OFF duration scale in seconds.
    pub period_scale: f64,
}

impl Default for VbrConfig {
    fn default() -> Self {
        Self {
            mean_bps: 250_000.0,
            n_sources: 24,
            alpha: 1.4,
            period_scale: 2.0,
        }
    }
}

impl VbrConfig {
    /// The theoretical Hurst exponent of the generated rate process.
    pub fn theoretical_hurst(&self) -> f64 {
        (3.0 - self.alpha) / 2.0
    }

    /// Validates structural constraints.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.mean_bps > 0.0) {
            return Err("mean_bps must be positive".into());
        }
        if self.n_sources == 0 {
            return Err("need at least one ON/OFF source".into());
        }
        if !(self.alpha > 1.0 && self.alpha < 2.0) {
            return Err(format!(
                "alpha must be in (1, 2) for LRD, got {}",
                self.alpha
            ));
        }
        if !(self.period_scale > 0.0) {
            return Err("period_scale must be positive".into());
        }
        Ok(())
    }
}

/// A deterministic VBR encoder for one or more live feeds.
#[derive(Debug, Clone)]
pub struct VbrEncoder {
    config: VbrConfig,
    seeds: SeedStream,
}

impl VbrEncoder {
    /// Creates an encoder; all feeds derive from `seed` deterministically.
    pub fn new(config: VbrConfig, seed: u64) -> Result<Self, String> {
        config.validate()?;
        Ok(Self {
            config,
            seeds: SeedStream::new(seed).child("vbr"),
        })
    }

    /// The per-second bitrate series of a feed over `[start, start + len)`
    /// seconds.
    ///
    /// Each superposed source contributes `mean_bps / (n · E[on fraction])`
    /// while ON. Sources are simulated independently from the feed seed;
    /// the cost is proportional to `len + warmup`, not to `start`, because
    /// each source's renewal process is regenerated from its own stream
    /// with a deterministic skip to the window.
    pub fn bitrate_series(&self, feed: ObjectId, start: u64, len: usize) -> Vec<f64> {
        let cfg = &self.config;
        // E[on fraction] = 1/2 by symmetry (same ON and OFF law).
        let per_source = cfg.mean_bps / (cfg.n_sources as f64 * 0.5);
        // lsw::allow(L005): VbrConfig::validate checked scale and alpha
        let on_off = Pareto::new(cfg.period_scale, cfg.alpha).expect("validated");
        let end = start + len as u64;
        let mut series = vec![0.0f64; len];
        for src in 0..cfg.n_sources {
            let mut rng = self
                .seeds
                .rng_indexed("source", (u64::from(feed.0) << 32) | src as u64);
            // Walk the renewal process from t = 0; durations are >= the
            // period scale so this is O(end / period_scale) draws.
            let mut t = 0.0f64;
            let mut on = src % 2 == 0; // stagger initial phases
            while t < end as f64 {
                let dur = on_off.sample(&mut rng);
                let seg_end = t + dur;
                if on && seg_end > start as f64 {
                    let lo = t.max(start as f64) as u64;
                    let hi = (seg_end.min(end as f64)).ceil() as u64;
                    for s in lo..hi.min(end) {
                        // Pro-rate partial coverage of the boundary seconds.
                        let sec_start = s as f64;
                        let sec_end = sec_start + 1.0;
                        let overlap = (seg_end.min(sec_end) - t.max(sec_start)).clamp(0.0, 1.0);
                        series[(s - start) as usize] += per_source * overlap;
                    }
                }
                t = seg_end;
                on = !on;
            }
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_stats::selfsim::hurst_variance_time;

    fn encoder() -> VbrEncoder {
        VbrEncoder::new(VbrConfig::default(), 77).unwrap()
    }

    #[test]
    fn rejects_bad_config() {
        let cfg = VbrConfig {
            alpha: 2.5,
            ..Default::default()
        };
        assert!(VbrEncoder::new(cfg, 1).is_err());
        let cfg = VbrConfig {
            n_sources: 0,
            ..Default::default()
        };
        assert!(VbrEncoder::new(cfg, 1).is_err());
    }

    #[test]
    fn mean_rate_near_nominal() {
        let e = encoder();
        let series = e.bitrate_series(ObjectId(0), 0, 8_192);
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        // ON fraction of a symmetric Pareto renewal is 1/2 in expectation,
        // but finite-horizon bias is real; accept ±35%.
        assert!(
            (mean / 250_000.0 - 1.0).abs() < 0.35,
            "mean rate {mean} vs nominal 250k"
        );
    }

    #[test]
    fn rate_is_variable_and_nonnegative() {
        let e = encoder();
        let series = e.bitrate_series(ObjectId(0), 100, 2_048);
        assert!(series.iter().all(|&r| r >= 0.0));
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        let var = series.iter().map(|&r| (r - mean).powi(2)).sum::<f64>() / series.len() as f64;
        assert!(
            var.sqrt() / mean > 0.05,
            "CV too small: {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn encoded_rate_is_self_similar() {
        // The headline property: H ≈ (3 − 1.4)/2 = 0.8.
        let e = encoder();
        let series = e.bitrate_series(ObjectId(0), 0, 16_384);
        let h = hurst_variance_time(&series, 4).unwrap();
        assert!(h.h > 0.65, "Hurst {} (theory 0.8)", h.h);
        assert!(h.h < 1.0);
    }

    #[test]
    fn deterministic_and_feed_independent() {
        let e = encoder();
        let a = e.bitrate_series(ObjectId(0), 500, 256);
        let b = e.bitrate_series(ObjectId(0), 500, 256);
        assert_eq!(a, b, "same feed/window must reproduce");
        let c = e.bitrate_series(ObjectId(1), 500, 256);
        assert_ne!(a, c, "feeds must differ");
    }

    #[test]
    fn windows_are_consistent() {
        // A sub-window read must agree with the same seconds read as part
        // of a larger window.
        let e = encoder();
        let big = e.bitrate_series(ObjectId(0), 1_000, 512);
        let small = e.bitrate_series(ObjectId(0), 1_100, 128);
        for (i, &v) in small.iter().enumerate() {
            assert!((v - big[100 + i]).abs() < 1e-9, "window mismatch at {i}");
        }
    }
}
