//! Max-min fair sharing of the server uplink across active transfers.
//!
//! Every active transfer wants its client's access-link capacity; the
//! server uplink `U` is shared max-min fairly: if total demand fits, every
//! transfer is client-bound; otherwise a waterfill level `L` satisfies
//! `Σ min(cap_i, L) = U` and each transfer streams at `min(cap_i, L)`.
//!
//! Because client caps take only the seven [`AccessClass`] values, the
//! waterfill is computed over per-class counts in O(7), and per-transfer
//! byte totals come from per-class *cumulative rate integrals*: all
//! transfers of a class stream at the same instantaneous rate, so a
//! transfer's bytes are `(A_c(stop) − A_c(start)) / 8` where `A_c` is the
//! class's accumulated bit count. This keeps paper-scale simulation
//! (millions of events) linear.

use lsw_topology::AccessClass;
use serde::{Deserialize, Serialize};

/// Network configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Server uplink capacity, bits per second.
    pub uplink_bps: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        // Sized so that the paper's observed peaks (~6,000 concurrent
        // transfers averaging ~50 kbit/s) push into mild congestion —
        // reproducing the ~10% congestion-bound transfers of Fig 20.
        Self { uplink_bps: 220e6 }
    }
}

/// The shared-uplink fair-share state.
#[derive(Debug, Clone)]
pub struct FairShareNetwork {
    config: NetworkConfig,
    /// Active transfers per access class.
    active: [u64; AccessClass::ALL.len()],
    /// Cumulative per-class bit integral `A_c` (bits since t = 0).
    integral: [f64; AccessClass::ALL.len()],
    /// Current per-class instantaneous rate (bits/s).
    rate: [f64; AccessClass::ALL.len()],
    /// Time of the last integral update.
    last_update: f64,
}

impl FairShareNetwork {
    /// Creates an idle network.
    pub fn new(config: NetworkConfig) -> Self {
        assert!(config.uplink_bps > 0.0, "uplink must be positive");
        Self {
            config,
            active: [0; 7],
            integral: [0.0; 7],
            rate: [0.0; 7],
            last_update: 0.0,
        }
    }

    /// Index of an access class in the per-class arrays.
    fn class_index(class: AccessClass) -> usize {
        AccessClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("AccessClass::ALL is exhaustive") // lsw::allow(L005): ALL covers every variant
    }

    /// Advances the per-class integrals to time `t` (no state change).
    fn advance(&mut self, t: f64) {
        let dt = t - self.last_update;
        debug_assert!(dt >= -1e-9, "time went backwards: {dt}");
        if dt > 0.0 {
            for i in 0..7 {
                self.integral[i] += self.rate[i] * dt;
            }
        }
        self.last_update = t;
    }

    /// Recomputes the waterfill level and per-class rates.
    fn recompute_rates(&mut self) {
        let caps = AccessClass::ALL.map(|c| f64::from(c.capacity_bps()));
        let demand: f64 = (0..7).map(|i| self.active[i] as f64 * caps[i]).sum();
        if demand <= self.config.uplink_bps {
            for ((rate, &cap), &n) in self.rate.iter_mut().zip(&caps).zip(&self.active) {
                *rate = if n > 0 { cap } else { 0.0 };
            }
            return;
        }
        // Waterfill over the 7 classes, ascending by cap.
        // Solve Σ n_i · min(cap_i, L) = U. Classes are already cap-sorted.
        let mut remaining = self.config.uplink_bps;
        let mut users_left: f64 = (0..7).map(|i| self.active[i] as f64).sum();
        let mut level = 0.0;
        for (&cap, &n) in caps.iter().zip(&self.active) {
            if users_left <= 0.0 {
                break;
            }
            // Can every remaining user get cap_i?
            let need = cap * users_left;
            if need <= remaining {
                // Yes: class i saturates at its cap; pay for it and move on.
                remaining -= cap * n as f64;
                users_left -= n as f64;
                level = cap;
            } else {
                // No: the level lands below cap_i.
                level = remaining / users_left;
                break;
            }
        }
        for ((rate, &cap), &n) in self.rate.iter_mut().zip(&caps).zip(&self.active) {
            *rate = if n > 0 { cap.min(level) } else { 0.0 };
        }
    }

    /// A transfer of the given class starts at time `t`. Returns the class
    /// integral snapshot used later to compute its bytes.
    pub fn start(&mut self, t: f64, class: AccessClass) -> f64 {
        self.advance(t);
        let i = Self::class_index(class);
        self.active[i] += 1;
        self.recompute_rates();
        self.integral[i]
    }

    /// A transfer of the given class stops at time `t`. Given the snapshot
    /// from [`FairShareNetwork::start`], returns the bits it received.
    pub fn stop(&mut self, t: f64, class: AccessClass, start_snapshot: f64) -> f64 {
        self.advance(t);
        let i = Self::class_index(class);
        debug_assert!(self.active[i] > 0, "stop without start");
        let bits = self.integral[i] - start_snapshot;
        self.active[i] -= 1;
        self.recompute_rates();
        bits.max(0.0)
    }

    /// True when the uplink is currently saturated (waterfill engaged).
    pub fn congested(&self) -> bool {
        let demand: f64 = AccessClass::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| self.active[i] as f64 * f64::from(c.capacity_bps()))
            .sum();
        demand > self.config.uplink_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(uplink: f64) -> FairShareNetwork {
        FairShareNetwork::new(NetworkConfig { uplink_bps: uplink })
    }

    /// Current instantaneous rate of a class (bits/s).
    fn rate_of(n: &FairShareNetwork, class: AccessClass) -> f64 {
        n.rate[FairShareNetwork::class_index(class)]
    }

    #[test]
    fn uncongested_everyone_gets_cap() {
        let mut n = net(10e6);
        n.start(0.0, AccessClass::Modem56);
        n.start(0.0, AccessClass::Dsl);
        assert_eq!(rate_of(&n, AccessClass::Modem56), 56_000.0);
        assert_eq!(rate_of(&n, AccessClass::Dsl), 256_000.0);
        assert!(!n.congested());
    }

    #[test]
    fn byte_integral_matches_rate_times_time() {
        let mut n = net(10e6);
        let snap = n.start(0.0, AccessClass::Modem56);
        let bits = n.stop(100.0, AccessClass::Modem56, snap);
        assert!((bits - 5_600_000.0).abs() < 1.0, "bits {bits}");
    }

    #[test]
    fn congestion_waterfills_equally_within_class() {
        // Uplink 100 kbit/s, two 56k modems active: each gets 50k.
        let mut n = net(100_000.0);
        let s1 = n.start(0.0, AccessClass::Modem56);
        let _s2 = n.start(0.0, AccessClass::Modem56);
        assert!(n.congested());
        assert!((rate_of(&n, AccessClass::Modem56) - 50_000.0).abs() < 1e-6);
        let bits = n.stop(10.0, AccessClass::Modem56, s1);
        assert!((bits - 500_000.0).abs() < 1.0, "bits {bits}");
    }

    #[test]
    fn waterfill_protects_small_caps() {
        // Uplink 300 kbit/s: one modem (56k) + one LAN (1.5M). Max-min:
        // modem gets its full 56k, LAN gets the remaining 244k.
        let mut n = net(300_000.0);
        n.start(0.0, AccessClass::Modem56);
        n.start(0.0, AccessClass::Lan);
        assert!((rate_of(&n, AccessClass::Modem56) - 56_000.0).abs() < 1e-6);
        assert!((rate_of(&n, AccessClass::Lan) - 244_000.0).abs() < 1e-6);
    }

    #[test]
    fn deep_congestion_equalizes_all() {
        // Uplink 40 kbit/s shared by a modem and a LAN user: both get 20k.
        let mut n = net(40_000.0);
        n.start(0.0, AccessClass::Modem56);
        n.start(0.0, AccessClass::Lan);
        assert!((rate_of(&n, AccessClass::Modem56) - 20_000.0).abs() < 1e-6);
        assert!((rate_of(&n, AccessClass::Lan) - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn rates_rise_when_others_leave() {
        let mut n = net(100_000.0);
        let s1 = n.start(0.0, AccessClass::Modem56);
        let s2 = n.start(0.0, AccessClass::Modem56);
        // Congested 0–10 s at 50k each; then one leaves, survivor gets 56k.
        let bits1 = n.stop(10.0, AccessClass::Modem56, s1);
        assert!((bits1 - 500_000.0).abs() < 1.0);
        let bits2 = n.stop(20.0, AccessClass::Modem56, s2);
        // 10 s at 50k + 10 s at 56k.
        assert!((bits2 - 1_060_000.0).abs() < 1.0, "bits2 {bits2}");
    }

    #[test]
    fn conservation_under_congestion() {
        // Total bits delivered never exceed uplink × time.
        let mut n = net(150_000.0);
        let snaps: Vec<f64> = (0..5).map(|_| n.start(0.0, AccessClass::Dsl)).collect();
        let total: f64 = snaps
            .into_iter()
            .map(|s| n.stop(100.0, AccessClass::Dsl, s))
            .sum();
        assert!(total <= 150_000.0 * 100.0 * 1.0001, "total {total}");
        // And the uplink was fully used (demand exceeded it).
        assert!(total >= 150_000.0 * 100.0 * 0.999, "total {total}");
    }

    #[test]
    fn active_total_tracks() {
        let mut n = net(1e9);
        assert_eq!(n.active.iter().sum::<u64>(), 0);
        let s = n.start(0.0, AccessClass::Cable);
        n.start(1.0, AccessClass::Isdn);
        assert_eq!(n.active.iter().sum::<u64>(), 2);
        n.stop(5.0, AccessClass::Cable, s);
        assert_eq!(n.active.iter().sum::<u64>(), 1);
    }
}
