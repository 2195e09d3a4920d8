//! The stored-media baseline: classic (pre-live) GISMO.
//!
//! The paper's central thesis is a *duality*: stored-media access is user
//! driven (objects have Zipf popularity; transfer lengths derive from
//! object sizes), live access is object driven (clients have Zipf
//! interest; transfer lengths derive from stickiness). To make that
//! contrast executable we ship the stored-media generator the original
//! GISMO paper \[19\] describes: a library of pre-recorded objects with
//! Zipf-like popularity and heavy-tailed sizes, stationary Poisson request
//! arrivals, uniform client identity, and partial playback (early stop) as
//! observed by Acharya & Smith \[2\].

use crate::workload::CPU_CAPACITY_TRANSFERS;
use lsw_stats::dist::{Discrete, LogNormal, Sample, ZipfTable};
use lsw_stats::process::PoissonProcess;
use lsw_stats::rng::{u01, SeedStream};
use lsw_topology::{AsRegistry, AsRegistryConfig, ClientPopulation, ClientPopulationConfig};
use lsw_trace::concurrency::ConcurrencyProfile;
use lsw_trace::event::LogEntry;
use lsw_trace::ids::{ClientId, ObjectId};
use lsw_trace::trace::Trace;
use serde::{Deserialize, Serialize};

/// Configuration of the stored-media baseline workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredConfig {
    /// Clients in the population (chosen uniformly per request — user
    /// driven access has no per-client skew in the baseline).
    pub n_clients: usize,
    /// Number of stored objects in the library.
    pub n_objects: usize,
    /// Zipf exponent of object popularity (web-like: ~0.73 \[9\]).
    pub object_popularity_alpha: f64,
    /// Lognormal of object durations in seconds (clip lengths).
    pub object_duration_mu: f64,
    /// Log-scale of object durations.
    pub object_duration_sigma: f64,
    /// Fraction of requests stopped before the end (Acharya & Smith
    /// report nearly half).
    pub early_stop_fraction: f64,
    /// Trace horizon, seconds.
    pub horizon_secs: u32,
    /// Target number of requests over the horizon.
    pub target_requests: usize,
}

impl Default for StoredConfig {
    fn default() -> Self {
        Self {
            n_clients: 10_000,
            n_objects: 500,
            object_popularity_alpha: 0.73,
            object_duration_mu: 5.3, // median ≈ 200 s clips
            object_duration_sigma: 0.8,
            early_stop_fraction: 0.45,
            horizon_secs: 86_400,
            target_requests: 50_000,
        }
    }
}

impl StoredConfig {
    /// Validates structural constraints.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.n_clients == 0 || self.n_objects == 0 || self.target_requests == 0 {
            return Err("population, library and request target must be >= 1".into());
        }
        if !(self.object_popularity_alpha >= 0.0) {
            return Err("object_popularity_alpha must be >= 0".into());
        }
        if !(self.object_duration_sigma > 0.0) {
            return Err("object_duration_sigma must be > 0".into());
        }
        if !(0.0..=1.0).contains(&self.early_stop_fraction) {
            return Err("early_stop_fraction must be in [0,1]".into());
        }
        if self.horizon_secs == 0 {
            return Err("horizon_secs must be >= 1".into());
        }
        Ok(())
    }
}

/// The stored-media (user-driven) workload generator.
pub struct StoredGenerator {
    config: StoredConfig,
    seeds: SeedStream,
    popularity: ZipfTable,
    /// Fixed per-object durations (an object's size is a property of the
    /// object, not of the viewing — the heart of the duality).
    object_durations: Vec<f64>,
}

impl StoredGenerator {
    /// Builds the generator; object durations are fixed once per library.
    pub fn new(config: StoredConfig, seed: u64) -> Result<Self, String> {
        config.validate()?;
        let seeds = SeedStream::new(seed);
        let popularity = ZipfTable::new(config.n_objects as u64, config.object_popularity_alpha)
            .map_err(|e| e.to_string())?;
        let dur = LogNormal::new(config.object_duration_mu, config.object_duration_sigma)
            .map_err(|e| e.to_string())?;
        let mut lib_rng = seeds.rng("library");
        let object_durations = dur.sample_n(&mut lib_rng, config.n_objects);
        Ok(Self {
            config,
            seeds,
            popularity,
            object_durations,
        })
    }

    /// The fixed duration of an object in the library.
    pub fn object_duration(&self, object: ObjectId) -> f64 {
        self.object_durations[object.0 as usize]
    }

    /// Generates a stored-media trace.
    ///
    /// Requests arrive as a *stationary* Poisson process (user-driven
    /// workloads lack the synchronizing live schedule; prior work \[3\]
    /// found short-range Poisson behavior); each request picks an object
    /// by popularity and a client uniformly; the transfer length is the
    /// object's duration, truncated uniformly for early-stopped requests.
    pub fn generate(&self) -> Trace {
        let horizon = f64::from(self.config.horizon_secs);
        let rate = self.config.target_requests as f64 / horizon;
        // lsw::allow(L005): config validation rejects zero-request/zero-horizon setups
        let process = PoissonProcess::new(rate).expect("positive rate");
        let mut arrivals_rng = self.seeds.rng("stored-arrivals");
        let arrivals = process.generate(&mut arrivals_rng, 0.0, horizon);

        // Population (reuse the topology substrate so the log schema is
        // identical to the live trace's).
        let mut topo_rng = self.seeds.rng("stored-topology");
        let registry = AsRegistry::build(&AsRegistryConfig::default(), &mut topo_rng);
        let pop_config = ClientPopulationConfig {
            n_clients: self.config.n_clients,
            ..ClientPopulationConfig::default()
        };
        let population = ClientPopulation::build(&pop_config, &registry, &mut topo_rng);

        let mut rng = self.seeds.rng("stored-requests");
        let mut spans = Vec::with_capacity(arrivals.len());
        let mut picks = Vec::with_capacity(arrivals.len());
        for &t0 in &arrivals {
            let object = ObjectId((self.popularity.sample_k(&mut rng) - 1) as u16);
            let client = ClientId((u01(&mut rng) * self.config.n_clients as f64) as u32);
            let full = self.object_durations[object.0 as usize];
            let watched = if u01(&mut rng) < self.config.early_stop_fraction {
                full * u01(&mut rng)
            } else {
                full
            };
            let duration = watched.min(horizon - t0);
            let start = (t0 as u32).min(self.config.horizon_secs - 1);
            let stop = ((t0 + duration) as u32)
                .max(start)
                .min(self.config.horizon_secs);
            spans.push((start, stop - start));
            picks.push((object, client));
        }

        let concurrency = ConcurrencyProfile::from_intervals(
            spans.iter().map(|&(s, d)| (s, s + d)),
            self.config.horizon_secs,
        );

        let mut entries = Vec::with_capacity(arrivals.len());
        for (&(start, duration), &(object, client)) in spans.iter().zip(&picks) {
            let info = population.get(client);
            let bps = f64::from(info.access.capacity_bps()) * 0.85;
            let stop = start + duration;
            entries.push(LogEntry {
                timestamp: stop,
                start,
                duration,
                client,
                ip: info.ip,
                as_id: info.as_id,
                country: info.country,
                object,
                camera: 0, // stored clips have no camera schedule
                bytes: (f64::from(duration) * bps / 8.0) as u64,
                avg_bandwidth: bps as u32,
                packet_loss: 0.0,
                cpu_util: (f64::from(concurrency.at(stop)) / CPU_CAPACITY_TRANSFERS).min(1.0)
                    as f32,
                status: 200,
            });
        }
        Trace::from_entries(entries, self.config.horizon_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_stats::empirical::RankFrequency;
    use lsw_stats::fit::fit_zipf_rank_frequency;

    fn small() -> (StoredGenerator, Trace) {
        let config = StoredConfig {
            target_requests: 20_000,
            ..StoredConfig::default()
        };
        let g = StoredGenerator::new(config, 3).unwrap();
        let t = g.generate();
        (g, t)
    }

    #[test]
    fn rejects_bad_config() {
        let c = StoredConfig {
            n_objects: 0,
            ..Default::default()
        };
        assert!(StoredGenerator::new(c, 1).is_err());
        let c = StoredConfig {
            early_stop_fraction: 2.0,
            ..Default::default()
        };
        assert!(StoredGenerator::new(c, 1).is_err());
    }

    #[test]
    fn request_count_near_target() {
        let (_, t) = small();
        let n = t.len() as f64;
        assert!(
            (n - 20_000.0).abs() < 5.0 * 20_000f64.sqrt(),
            "requests {n}"
        );
    }

    #[test]
    fn object_popularity_is_zipf() {
        // The duality's stored side: *objects* carry the skew.
        let (_, t) = small();
        let mut counts = std::collections::HashMap::new();
        for e in t.entries() {
            *counts.entry(e.object).or_insert(0u64) += 1;
        }
        let rf = RankFrequency::from_counts(counts.into_values().collect());
        let fit = fit_zipf_rank_frequency(&rf, Some(100.0)).unwrap();
        assert!(
            (fit.alpha - 0.73).abs() < 0.12,
            "object alpha {}",
            fit.alpha
        );
    }

    #[test]
    fn transfer_lengths_bounded_by_object_durations() {
        let (g, t) = small();
        for e in t.entries().iter().take(2_000) {
            let full = g.object_duration(e.object);
            assert!(
                f64::from(e.duration) <= full + 1.0,
                "duration {} exceeds object length {full}",
                e.duration
            );
        }
    }

    #[test]
    fn early_stops_present() {
        // Roughly the configured fraction of requests is shorter than 95%
        // of the object duration.
        let (g, t) = small();
        let stopped = t
            .entries()
            .iter()
            .filter(|e| f64::from(e.duration) < 0.95 * g.object_duration(e.object))
            .count() as f64
            / t.len() as f64;
        assert!(
            (stopped - 0.45).abs() < 0.1,
            "early-stop fraction {stopped}"
        );
    }

    #[test]
    fn deterministic() {
        let (_, a) = small();
        let (_, b) = small();
        assert_eq!(a.entries(), b.entries());
    }
}
