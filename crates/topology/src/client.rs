//! The client population: identities, home AS, shared IPs, access links.
//!
//! Table 1 reports 691,889 users behind 364,184 IPs — about 1.9 players
//! per address, the signature of NATs, proxies and shared home machines.
//! [`ClientPopulation`] reproduces that: clients are assigned to ASes by
//! popularity weight, grouped onto shared IPs within their AS, and given
//! an access class from the 2002 mix.

use crate::access::{AccessClass, AccessMix};
use crate::asmap::AsRegistry;
use lsw_stats::rng::u01;
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-client static attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientInfo {
    /// The client id (dense, 0-based).
    pub id: ClientId,
    /// Home autonomous system.
    pub as_id: AsId,
    /// Country (denormalized from the AS).
    pub country: CountryCode,
    /// The (possibly shared) IP the client appears from.
    pub ip: Ipv4Addr,
    /// Access-link class.
    pub access: AccessClass,
}

/// Configuration for building a client population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientPopulationConfig {
    /// Number of clients (paper: 691,889).
    pub n_clients: usize,
    /// Mean number of clients sharing one IP (paper: ≈ 1.9).
    pub clients_per_ip: f64,
    /// Access-link mix.
    pub access_mix: Vec<(AccessClass, f64)>,
}

impl Default for ClientPopulationConfig {
    fn default() -> Self {
        Self {
            n_clients: lsw_stats::paper::NUM_USERS,
            clients_per_ip: lsw_stats::paper::NUM_USERS as f64
                / lsw_stats::paper::NUM_CLIENT_IPS as f64,
            access_mix: AccessClass::default_mix(),
        }
    }
}

/// The built population: dense arrays indexed by client id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientPopulation {
    clients: Vec<ClientInfo>,
    n_ips: usize,
}

impl ClientPopulation {
    /// Builds the population over an AS registry.
    ///
    /// Clients are dealt to ASes proportionally to AS weight. Within an
    /// AS, clients are packed onto IPs in groups whose size is geometric
    /// with the configured mean, drawn from the AS's `/16` block (rolling
    /// into adjacent blocks when a popular AS needs more than 64k hosts).
    pub fn build<R: Rng + ?Sized>(
        config: &ClientPopulationConfig,
        registry: &AsRegistry,
        rng: &mut R,
    ) -> Self {
        assert!(config.n_clients >= 1, "need at least one client");
        assert!(config.clients_per_ip >= 1.0, "clients_per_ip must be >= 1");
        let mix = AccessMix::new(&config.access_mix);
        let share_p = 1.0 / config.clients_per_ip; // geometric "new IP" prob

        let mut clients = Vec::with_capacity(config.n_clients);
        let mut n_ips = 0usize;

        // Deal clients to ASes: sample an AS per client (preserving the
        // Zipf weight profile Fig 2 measures), then pack clients onto
        // shared IPs *within each AS*: every AS keeps a "current" IP that
        // new clients join with probability `1 − share_p`, giving geometric
        // group sizes with the configured mean independent of how AS draws
        // interleave.
        let mut as_state: std::collections::HashMap<AsId, (u32, Ipv4Addr)> =
            std::collections::HashMap::new();
        for i in 0..config.n_clients {
            let info = registry.sample(rng);
            let state = as_state.entry(info.id).or_insert((0, Ipv4Addr(0)));
            let reuse = state.0 > 0 && u01(rng) >= share_p;
            let ip = if reuse {
                state.1
            } else {
                state.0 += 1;
                n_ips += 1;
                let h = state.0;
                // a.b.x.y with x.y walking the /16; overflow rolls b.
                let (a, b) = info.prefix;
                let ip = Ipv4Addr::from_octets(
                    a,
                    b.wrapping_add((h >> 16) as u8),
                    (h >> 8) as u8,
                    h as u8,
                );
                state.1 = ip;
                ip
            };
            clients.push(ClientInfo {
                id: ClientId(i as u32),
                as_id: info.id,
                country: info.country,
                ip,
                access: mix.sample(rng),
            });
        }
        Self { clients, n_ips }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// True when empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Number of distinct IPs allocated.
    pub fn n_ips(&self) -> usize {
        self.n_ips
    }

    /// Looks up a client.
    pub fn get(&self, id: ClientId) -> &ClientInfo {
        &self.clients[id.0 as usize]
    }

    /// All clients in id order.
    pub fn all(&self) -> &[ClientInfo] {
        &self.clients
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asmap::AsRegistryConfig;
    use lsw_stats::SeedStream;

    fn small_population(n: usize) -> ClientPopulation {
        let seeds = SeedStream::new(11);
        let mut rng = seeds.rng("topology");
        let registry = AsRegistry::build(&AsRegistryConfig::default(), &mut rng);
        let config = ClientPopulationConfig {
            n_clients: n,
            clients_per_ip: 1.9,
            access_mix: AccessClass::default_mix(),
        };
        ClientPopulation::build(&config, &registry, &mut rng)
    }

    #[test]
    fn population_size_and_ids_dense() {
        let p = small_population(10_000);
        assert_eq!(p.len(), 10_000);
        for (i, c) in p.all().iter().enumerate() {
            assert_eq!(c.id, ClientId(i as u32));
        }
    }

    #[test]
    fn ip_sharing_ratio_near_target() {
        let p = small_population(50_000);
        let ratio = p.len() as f64 / p.n_ips() as f64;
        assert!((ratio - 1.9).abs() < 0.15, "clients/IP = {ratio}");
        // Distinct IPs in the info records agree with the counter.
        let distinct: std::collections::HashSet<_> = p.all().iter().map(|c| c.ip).collect();
        assert_eq!(distinct.len(), p.n_ips());
    }

    #[test]
    fn shared_ips_stay_within_one_as() {
        let p = small_population(30_000);
        let mut ip_as: std::collections::HashMap<Ipv4Addr, AsId> = std::collections::HashMap::new();
        for c in p.all() {
            let entry = ip_as.entry(c.ip).or_insert(c.as_id);
            assert_eq!(*entry, c.as_id, "IP {0} spans two ASes", c.ip);
        }
    }

    #[test]
    fn country_denormalization_consistent() {
        let seeds = SeedStream::new(12);
        let mut rng = seeds.rng("topology2");
        let registry = AsRegistry::build(&AsRegistryConfig::default(), &mut rng);
        let config = ClientPopulationConfig {
            n_clients: 5_000,
            clients_per_ip: 1.5,
            access_mix: AccessClass::default_mix(),
        };
        let p = ClientPopulation::build(&config, &registry, &mut rng);
        for c in p.all() {
            assert_eq!(c.country, registry.get(c.as_id).unwrap().country);
        }
    }

    #[test]
    fn popular_ases_get_more_clients() {
        let p = small_population(100_000);
        let mut per_as: std::collections::HashMap<AsId, usize> = std::collections::HashMap::new();
        for c in p.all() {
            *per_as.entry(c.as_id).or_insert(0) += 1;
        }
        let rank1 = per_as.get(&AsId(0)).copied().unwrap_or(0);
        let rank50 = per_as.get(&AsId(49)).copied().unwrap_or(0);
        assert!(rank1 > rank50 * 5, "rank-1 {rank1} vs rank-50 {rank50}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_population(2_000);
        let b = small_population(2_000);
        assert_eq!(a.all(), b.all());
    }

    #[test]
    fn a_single_client_population_is_not_empty() {
        let p = small_population(1);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert_eq!(p.n_ips(), 1);
    }

    #[test]
    #[should_panic(expected = "need at least one client")]
    fn an_empty_population_is_refused() {
        small_population(0);
    }
}
