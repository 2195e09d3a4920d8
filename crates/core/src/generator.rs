//! The GISMO-Live generator: Table 2 assembled into a pipeline.
//!
//! Generation follows the paper's §6 generative model verbatim:
//!
//! 1. **Client arrivals** — session start times from a piecewise-stationary
//!    Poisson process keyed to the diurnal profile (Fig 4).
//! 2. **Client identity** — each session is assigned to a client from the
//!    Zipf interest profile (Fig 7 right).
//! 3. **Session length** — the number of transfers from the Fig 13 Zipf.
//! 4. **Transfers** — the first transfer starts with the session; later
//!    ones follow lognormal intra-session interarrivals (Fig 14); each
//!    length is lognormal (Fig 19), clipped to the live event's horizon.
//!
//! Everything else the paper measured (session ON/OFF times, concurrency,
//! client interarrivals, the transfer-interarrival tail) is *emergent* —
//! exactly as in the paper, where those variables are redundant given the
//! retained set.

use crate::config::{TransfersPerSession, WorkloadConfig};
use crate::diurnal::DiurnalProfile;
use crate::interest::InterestProfile;
use crate::objects::LiveObjects;
use crate::workload::{GeneratedSession, ScheduledTransfer, Workload};
use lsw_stats::dist::{Discrete, Geometric, LogNormal, Sample, Zeta};
use lsw_stats::par::{merge_sorted_runs, F64Key, Parallelism};
use lsw_stats::rng::{u01, SeedStream};
use lsw_topology::{AsRegistry, AsRegistryConfig, ClientPopulation, ClientPopulationConfig};
use rand::Rng;

/// The transfers-per-session sampler compiled from configuration.
enum TpsSampler {
    Zeta(Zeta),
    Geometric(Geometric),
    Hybrid {
        tail: Zeta,
        body: Geometric,
        p_tail: f64,
    },
}

impl TpsSampler {
    fn from_config(cfg: &TransfersPerSession) -> Result<Self, String> {
        Ok(match *cfg {
            TransfersPerSession::Zipf { alpha } => {
                TpsSampler::Zeta(Zeta::new(alpha).map_err(|e| e.to_string())?)
            }
            TransfersPerSession::Geometric { mean } => {
                TpsSampler::Geometric(Geometric::with_mean(mean).map_err(|e| e.to_string())?)
            }
            TransfersPerSession::Hybrid {
                alpha,
                p_tail,
                body_mean,
            } => TpsSampler::Hybrid {
                tail: Zeta::new(alpha).map_err(|e| e.to_string())?,
                body: Geometric::with_mean(body_mean).map_err(|e| e.to_string())?,
                p_tail,
            },
        })
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            TpsSampler::Zeta(z) => z.sample_k(rng),
            TpsSampler::Geometric(g) => g.sample_k(rng),
            TpsSampler::Hybrid { tail, body, p_tail } => {
                if u01(rng) < *p_tail {
                    tail.sample_k(rng)
                } else {
                    body.sample_k(rng)
                }
            }
        }
    }
}

/// The assembled generator.
pub struct Generator {
    config: WorkloadConfig,
    seeds: SeedStream,
    profile: DiurnalProfile,
    interest: InterestProfile,
    objects: LiveObjects,
    tps: TpsSampler,
    iat: LogNormal,
    length: LogNormal,
    population: ClientPopulation,
    par: Parallelism,
}

impl Generator {
    /// Builds a generator from a validated configuration and a master seed.
    pub fn new(config: WorkloadConfig, seed: u64) -> Result<Self, String> {
        config.validate()?;
        let seeds = SeedStream::new(seed);
        let profile = DiurnalProfile::paper(config.weekday_weights, config.start_weekday)
            .with_day_envelope(config.day_envelope.clone())?;
        let interest = InterestProfile::new(config.n_clients, config.interest_alpha)
            .map_err(|e| e.to_string())?;
        let objects = LiveObjects::new(
            &config.objects.feed_weights,
            config.objects.n_cameras,
            config.objects.camera_hold_secs,
            seeds.seed("camera-schedule"),
        )?;
        let tps = TpsSampler::from_config(&config.transfers_per_session)?;
        let iat = LogNormal::new(config.intra_session_iat.mu, config.intra_session_iat.sigma)
            .map_err(|e| e.to_string())?;
        let length = LogNormal::new(config.transfer_length.mu, config.transfer_length.sigma)
            .map_err(|e| e.to_string())?;
        // Client population (topology substrate). Depends only on config
        // and seed, so it is built once here; generate() reuses it.
        let mut topo_rng = seeds.rng("topology");
        let registry = AsRegistry::build(&AsRegistryConfig::default(), &mut topo_rng);
        let pop_config = ClientPopulationConfig {
            n_clients: config.n_clients,
            ..ClientPopulationConfig::default()
        };
        let population = ClientPopulation::build(&pop_config, &registry, &mut topo_rng);
        Ok(Self {
            config,
            seeds,
            profile,
            interest,
            objects,
            tps,
            iat,
            length,
            population,
            par: Parallelism::auto(),
        })
    }

    /// Builds a generator with a custom diurnal profile (GISMO's
    /// programmable-arrival extension, §6.2).
    pub fn with_profile(
        config: WorkloadConfig,
        seed: u64,
        profile: DiurnalProfile,
    ) -> Result<Self, String> {
        let mut g = Self::new(config, seed)?;
        g.profile = profile;
        Ok(g)
    }

    /// The diurnal profile in force.
    pub fn profile(&self) -> &DiurnalProfile {
        &self.profile
    }

    /// Sets the worker count for [`generate`](Self::generate). The output
    /// is bit-identical for every setting; this only changes wall-clock
    /// time.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Generates the full workload.
    ///
    /// Each session's randomness comes from its own counter-derived
    /// substream (`seeds.rng_indexed("session", i)` for the `i`-th
    /// arrival), so sessions can be generated in any order — and therefore
    /// on any number of worker threads — without changing a single draw.
    /// Workers take contiguous arrival chunks, emit locally sorted
    /// transfer runs, and the runs are k-way merged; the result is
    /// bit-identical at every thread count.
    pub fn generate(&self) -> Workload {
        // 1. Session arrivals (sequential: one inherently ordered stream).
        let process = self
            .profile
            .to_process(self.config.horizon_secs, self.config.target_sessions);
        let mut arrivals_rng = self.seeds.rng("arrivals");
        let arrivals =
            process.generate(&mut arrivals_rng, 0.0, f64::from(self.config.horizon_secs));

        // 2–4. Sessions and transfers, in parallel over arrival chunks.
        let ranges = self.par.chunk_ranges(arrivals.len());
        let chunks: Vec<ChunkOutput> = if ranges.len() == 1 {
            vec![self.generate_chunk(&arrivals, 0)]
        } else {
            crossbeam::thread::scope(|s| {
                let handles: Vec<_> = ranges
                    .iter()
                    .map(|r| {
                        let slice = &arrivals[r.clone()];
                        let base = r.start;
                        s.spawn(move || self.generate_chunk(slice, base))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(chunk) => chunk,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            })
        };

        // Stitch chunk outputs back together. Sessions concatenate in
        // chunk (= arrival) order; each chunk's local session ids shift by
        // the number of sessions emitted before it (a prefix sum); the
        // locally sorted transfer runs merge into global start order.
        let mut sessions = Vec::with_capacity(arrivals.len());
        let mut runs = Vec::with_capacity(chunks.len());
        let mut offset = 0u32;
        for mut chunk in chunks {
            for t in &mut chunk.transfers {
                t.session += offset;
            }
            offset += chunk.sessions.len() as u32;
            sessions.append(&mut chunk.sessions);
            runs.push(chunk.transfers);
        }
        let transfers = merge_sorted_runs(runs, |t: &ScheduledTransfer| F64Key(t.start));

        Workload::new(
            self.config.clone(),
            self.seeds,
            self.population.clone(),
            sessions,
            transfers,
        )
    }

    /// Generates the sessions for one contiguous slice of the arrival
    /// vector. `base` is the slice's offset into the full vector: session
    /// `base + i` draws from the `base + i`-indexed substream regardless
    /// of chunking. Transfer session ids are chunk-local (the caller
    /// shifts them); the returned transfers are stably sorted by start.
    fn generate_chunk(&self, arrivals: &[f64], base: usize) -> ChunkOutput {
        let horizon = f64::from(self.config.horizon_secs);
        let mut sessions = Vec::with_capacity(arrivals.len());
        let mut transfers = Vec::with_capacity(arrivals.len() * 2);
        for (i, &t0) in arrivals.iter().enumerate() {
            let mut rng = self.seeds.rng_indexed("session", (base + i) as u64);
            let session = sessions.len() as u32;
            let client = self.interest.sample(&mut rng);
            let n = self.tps.sample(&mut rng);
            let mut start = t0;
            let mut emitted = 0u32;
            for k in 0..n {
                if k > 0 {
                    start += self.iat.sample(&mut rng);
                }
                if start >= horizon {
                    break;
                }
                // Live content exists only while the event runs: clip.
                let duration = self.length.sample(&mut rng).min(horizon - start);
                let object = self.objects.sample_feed(&mut rng);
                let camera = self.objects.camera_at(object, start);
                transfers.push(ScheduledTransfer {
                    session,
                    client,
                    object,
                    camera,
                    start,
                    duration,
                });
                emitted += 1;
            }
            if emitted > 0 {
                sessions.push(GeneratedSession {
                    client,
                    start: t0,
                    n_transfers: emitted,
                });
            }
        }
        // Stable, total-order sort: ties must resolve by emission order so
        // the downstream k-way merge equals a global stable sort at any
        // chunking.
        transfers.sort_by(|a, b| a.start.total_cmp(&b.start));
        ChunkOutput {
            sessions,
            transfers,
        }
    }
}

/// One worker's share of the workload: sessions in arrival order,
/// transfers stably sorted by start with chunk-local session ids.
struct ChunkOutput {
    sessions: Vec<GeneratedSession>,
    transfers: Vec<ScheduledTransfer>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_stats::empirical::RankFrequency;
    use lsw_stats::fit::{fit_lognormal, fit_zipf_rank_frequency};

    fn generate_small(seed: u64) -> Workload {
        let config = WorkloadConfig::paper().scaled(2_000, 86_400, 6_000);
        Generator::new(config, seed).unwrap().generate()
    }

    #[test]
    fn rejects_invalid_config() {
        let mut config = WorkloadConfig::paper();
        config.n_clients = 0;
        assert!(Generator::new(config, 1).is_err());
    }

    #[test]
    fn session_count_near_target() {
        let w = generate_small(11);
        let n = w.sessions().len() as f64;
        assert!((n - 6_000.0).abs() < 5.0 * 6_000f64.sqrt(), "sessions {n}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate_small(5);
        let b = generate_small(5);
        assert_eq!(a.transfers(), b.transfers());
        assert_eq!(a.sessions(), b.sessions());
        let c = generate_small(6);
        assert_ne!(a.transfers().len(), 0);
        assert_ne!(a.transfers(), c.transfers());
    }

    #[test]
    fn transfers_sorted_and_within_horizon() {
        let w = generate_small(12);
        let mut prev = 0.0;
        for t in w.transfers() {
            assert!(t.start >= prev, "not sorted");
            assert!(t.start < 86_400.0);
            assert!(
                t.start + t.duration <= 86_400.0 + 1e-9,
                "transfer escapes horizon"
            );
            assert!(t.duration >= 0.0);
            assert!(t.camera < 48);
            assert!(t.object.0 < 2);
            prev = t.start;
        }
    }

    #[test]
    fn transfer_lengths_recover_lognormal_params() {
        let w = generate_small(13);
        // Exclude horizon-clipped transfers from the fit.
        let lengths: Vec<f64> = w
            .transfers()
            .iter()
            .filter(|t| t.start + t.duration < 86_399.0)
            .map(|t| t.duration)
            .collect();
        let f = fit_lognormal(&lengths).unwrap();
        assert!((f.mu - 4.383921).abs() < 0.1, "mu {}", f.mu);
        assert!((f.sigma - 1.427247).abs() < 0.1, "sigma {}", f.sigma);
    }

    #[test]
    fn client_interest_zipf_emerges() {
        let w = generate_small(14);
        let mut counts = vec![0u64; 2_000];
        for s in w.sessions() {
            counts[s.client.0 as usize] += 1;
        }
        let rf = RankFrequency::from_counts(counts);
        let fit = fit_zipf_rank_frequency(&rf, Some(100.0)).unwrap();
        assert!(
            (fit.alpha - 0.4704).abs() < 0.15,
            "interest alpha {} (target 0.4704)",
            fit.alpha
        );
    }

    #[test]
    fn diurnal_pattern_in_arrivals() {
        let w = generate_small(15);
        let trough = w
            .sessions()
            .iter()
            .filter(|s| (5.0 * 3_600.0..9.0 * 3_600.0).contains(&s.start))
            .count();
        let peak = w
            .sessions()
            .iter()
            .filter(|s| (20.0 * 3_600.0..=23.9 * 3_600.0).contains(&s.start))
            .count();
        assert!(peak > 4 * trough, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn custom_profile_respected() {
        // A flat profile kills the diurnal skew.
        let config = WorkloadConfig::paper().scaled(1_000, 86_400, 5_000);
        let g = Generator::with_profile(config, 16, DiurnalProfile::flat()).unwrap();
        let w = g.generate();
        let morning = w
            .sessions()
            .iter()
            .filter(|s| (5.0 * 3_600.0..9.0 * 3_600.0).contains(&s.start))
            .count() as f64;
        let evening = w
            .sessions()
            .iter()
            .filter(|s| (20.0 * 3_600.0..24.0 * 3_600.0).contains(&s.start))
            .count() as f64;
        // Same window length: counts should be comparable.
        assert!(
            (morning / evening - 1.0).abs() < 0.35,
            "{morning} vs {evening}"
        );
    }

    #[test]
    fn hybrid_tps_raises_mean() {
        let base = WorkloadConfig::paper().scaled(1_000, 86_400, 4_000);
        let zipf = Generator::new(base.clone(), 17).unwrap().generate();
        let hybrid_cfg = WorkloadConfig {
            transfers_per_session: crate::config::TransfersPerSession::Hybrid {
                alpha: 2.70417,
                p_tail: 0.35,
                body_mean: 4.8,
            },
            ..base
        };
        let hybrid = Generator::new(hybrid_cfg, 17).unwrap().generate();
        let mean = |w: &Workload| w.len() as f64 / w.sessions().len() as f64;
        assert!(
            mean(&hybrid) > mean(&zipf) + 0.8,
            "{} vs {}",
            mean(&hybrid),
            mean(&zipf)
        );
    }
}
