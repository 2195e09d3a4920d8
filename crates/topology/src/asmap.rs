//! Autonomous-system registry with Zipf-weighted popularity.
//!
//! Fig 2 of the paper shows AS "popularity" (share of transfers and of
//! client IPs per AS) falling off Zipf-like over ~1,010 ASes, and the
//! transfer share per country dominated by Brazil with ten other countries
//! trailing down to 1e-7. The registry reproduces that structure: AS
//! weights follow a bounded Zipf over rank, and countries are assigned so
//! that country shares follow the paper's skew.

use lsw_stats::dist::{Discrete, ZipfTable};
use lsw_stats::rng::u01;
use lsw_trace::ids::{AsId, CountryCode};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Static information about one AS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsInfo {
    /// The AS identifier (dense, 0-based).
    pub id: AsId,
    /// Country the AS is registered in.
    pub country: CountryCode,
    /// Popularity weight (relative client mass; normalized over registry).
    pub weight: f64,
    /// First octet pair of the AS's address block (`a.b.0.0/16`).
    pub prefix: (u8, u8),
}

/// Configuration for building a synthetic AS registry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsRegistryConfig {
    /// Number of ASes (paper: 1,010).
    pub n_ases: usize,
    /// Zipf exponent of AS popularity over rank. Fig 2's span of ~6 decades
    /// over ~3 decades of rank corresponds to an exponent well above 1;
    /// 1.6 reproduces the plotted slope.
    pub zipf_exponent: f64,
    /// `(country, share)` pairs; shares need not be normalized. The first
    /// entry is the home country and receives all remaining probability
    /// mass when shares underflow 1.
    pub country_shares: Vec<(CountryCode, f64)>,
}

impl Default for AsRegistryConfig {
    fn default() -> Self {
        // Country shares shaped after Fig 2 (right): Brazil ~97%, US ~2.5%,
        // then a geometric decay to ~1e-7 across the remaining nine.
        let mut shares = Vec::new();
        let mut frac = 0.025;
        for (i, code) in CountryCode::PAPER_COUNTRIES.iter().enumerate() {
            // lsw::allow(L005): PAPER_COUNTRIES holds valid static codes
            let c = CountryCode::new(code).expect("static codes are valid");
            if i == 0 {
                shares.push((c, 0.97));
            } else {
                shares.push((c, frac));
                frac *= 0.22; // ~6 decades over 10 steps
            }
        }
        Self {
            n_ases: lsw_stats::paper::NUM_CLIENT_AS,
            zipf_exponent: 1.6,
            country_shares: shares,
        }
    }
}

/// The synthetic AS registry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsRegistry {
    ases: Vec<AsInfo>,
    /// Cumulative normalized weights for sampling.
    cum: Vec<f64>,
}

impl AsRegistry {
    /// Builds a registry: rank-`k` AS gets weight `k^{-s}`, and countries
    /// are interleaved so each country's total AS weight approximates its
    /// configured share (the home country takes rank 1).
    pub fn build<R: Rng + ?Sized>(config: &AsRegistryConfig, rng: &mut R) -> Self {
        assert!(config.n_ases >= 1, "need at least one AS");
        assert!(
            !config.country_shares.is_empty(),
            "need at least one country"
        );
        let zipf = ZipfTable::new(config.n_ases as u64, config.zipf_exponent)
            // lsw::allow(L005): TopologyConfig::validate checked both params
            .expect("validated parameters");

        // Normalize country shares.
        let total_share: f64 = config.country_shares.iter().map(|&(_, s)| s).sum();
        let shares: Vec<(CountryCode, f64)> = config
            .country_shares
            .iter()
            .map(|&(c, s)| (c, s / total_share))
            .collect();

        // Assign countries to AS ranks greedily: walk ranks in weight order
        // and hand each AS to the country whose assigned weight is furthest
        // below its target share. This makes country transfer shares track
        // the configured skew while every listed country gets >= 1 AS.
        // Reserve the lowest-weight ranks so every listed country gets at
        // least one AS even when its target share is below the smallest AS
        // weight (the paper's smallest countries sit near 1e-7).
        let n_reserved = shares
            .len()
            .saturating_sub(1)
            .min(config.n_ases.saturating_sub(1));
        let reserve_from = config.n_ases - n_reserved; // ranks > this are reserved
        let mut assigned = vec![0.0f64; shares.len()];
        let mut ases = Vec::with_capacity(config.n_ases);
        for rank in 1..=config.n_ases as u64 {
            let w = zipf.pmf(rank);
            let ci = if rank as usize > reserve_from {
                // Reserved tail: country i (1-based among non-home) in order.
                rank as usize - reserve_from
            } else {
                shares
                    .iter()
                    .enumerate()
                    .map(|(i, &(_, target))| (i, target - assigned[i]))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map_or(0, |(i, _)| i)
            };
            assigned[ci] += w;
            // Address block: each AS gets a unique /12-sized region (16
            // consecutive /16s) starting at 60.0.0.0, so even an AS holding
            // hundreds of thousands of hosts never rolls into a neighbor's
            // space. Uniqueness matters (a shared IP must identify one AS);
            // realism of the numbers does not.
            let block = (rank - 1) * 16;
            let a = (60 + block / 256) as u8;
            let b = (block % 256) as u8;
            ases.push(AsInfo {
                id: AsId((rank - 1) as u16),
                country: shares[ci].0,
                weight: w,
                prefix: (a, b),
            });
        }
        // Small random shuffle of prefixes so blocks don't correlate with
        // rank (cosmetic realism; weights stay attached to ids).
        for i in (1..ases.len()).rev() {
            let j = (u01(rng) * (i + 1) as f64) as usize;
            let (pi, pj) = (ases[i].prefix, ases[j].prefix);
            ases[i].prefix = pj;
            ases[j].prefix = pi;
        }

        let mut cum = Vec::with_capacity(ases.len());
        let mut acc = 0.0;
        for a in &ases {
            acc += a.weight;
            cum.push(acc);
        }
        let last = cum.last().copied().unwrap_or(1.0);
        for c in &mut cum {
            *c /= last;
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        Self { ases, cum }
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.ases.len()
    }

    /// True when the registry is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }

    /// All ASes, in rank (descending weight) order.
    pub fn all(&self) -> &[AsInfo] {
        &self.ases
    }

    /// Looks up an AS by id.
    pub fn get(&self, id: AsId) -> Option<&AsInfo> {
        self.ases.get(id.0 as usize)
    }

    /// Samples an AS according to popularity weight.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &AsInfo {
        let u = u01(rng);
        let idx = self
            .cum
            .partition_point(|&c| c < u)
            .min(self.ases.len() - 1);
        &self.ases[idx]
    }

    /// Distinct countries present.
    pub fn countries(&self) -> Vec<CountryCode> {
        let mut seen = std::collections::BTreeSet::new();
        for a in &self.ases {
            seen.insert(a.country.0);
        }
        seen.into_iter().map(CountryCode).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_stats::SeedStream;

    fn registry() -> AsRegistry {
        let mut rng = SeedStream::new(7).rng("asreg");
        AsRegistry::build(&AsRegistryConfig::default(), &mut rng)
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let r = registry();
        assert_eq!(r.len(), 1_010);
        assert_eq!(r.countries().len(), 11);
    }

    #[test]
    fn weights_are_zipf_over_rank() {
        let r = registry();
        let w1 = r.all()[0].weight;
        let w10 = r.all()[9].weight;
        // weight(1)/weight(10) = 10^1.6.
        assert!((w1 / w10 - 10f64.powf(1.6)).abs() / 10f64.powf(1.6) < 1e-9);
    }

    #[test]
    fn home_country_dominates() {
        let r = registry();
        let br = CountryCode::new("BR").unwrap();
        let br_weight: f64 = r
            .all()
            .iter()
            .filter(|a| a.country == br)
            .map(|a| a.weight)
            .sum();
        let total: f64 = r.all().iter().map(|a| a.weight).sum();
        let share = br_weight / total;
        assert!(share > 0.9, "BR share {share}");
        // Rank-1 AS must be Brazilian.
        assert_eq!(r.all()[0].country, br);
    }

    #[test]
    fn every_country_has_an_as() {
        let r = registry();
        for code in CountryCode::PAPER_COUNTRIES {
            let c = CountryCode::new(code).unwrap();
            assert!(r.all().iter().any(|a| a.country == c), "no AS for {code}");
        }
    }

    #[test]
    fn sampling_tracks_weights() {
        let r = registry();
        let mut rng = SeedStream::new(8).rng("asreg-sample");
        const N: usize = 200_000;
        let mut counts = vec![0u64; r.len()];
        for _ in 0..N {
            counts[r.sample(&mut rng).id.0 as usize] += 1;
        }
        let total_w: f64 = r.all().iter().map(|a| a.weight).sum();
        let expected = r.all()[0].weight / total_w;
        let got = counts[0] as f64 / N as f64;
        assert!(
            (got - expected).abs() < 0.01,
            "rank-1 share {got} vs {expected}"
        );
        // Monotone-ish: rank 1 sampled more than rank 100.
        assert!(counts[0] > counts[99]);
    }

    #[test]
    fn lookup_by_id() {
        let r = registry();
        let info = r.get(AsId(5)).unwrap();
        assert_eq!(info.id, AsId(5));
        assert!(r.get(AsId(5_000)).is_none());
    }

    #[test]
    fn a_single_as_registry_is_not_empty() {
        let mut rng = SeedStream::new(7).rng("asreg");
        let config = AsRegistryConfig {
            n_ases: 1,
            ..AsRegistryConfig::default()
        };
        let r = AsRegistry::build(&config, &mut rng);
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "need at least one AS")]
    fn an_empty_registry_is_refused() {
        let mut rng = SeedStream::new(7).rng("asreg");
        let config = AsRegistryConfig {
            n_ases: 0,
            ..AsRegistryConfig::default()
        };
        AsRegistry::build(&config, &mut rng);
    }
}
