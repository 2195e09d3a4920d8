//! Access-link classes, after the client-bound bandwidth modes of Fig 20.
//!
//! The paper attributes the spikes on the right of the bandwidth marginal
//! to "client connection speeds (various modem speeds, DSL, cable modem,
//! etc.)". These classes model a 2002 Brazilian consumer population:
//! overwhelmingly dial-up with a growing broadband minority.

use lsw_stats::rng::u01;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A client access-link class with its nominal downstream capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessClass {
    /// 28.8 kbit/s modem.
    Modem28,
    /// 33.6 kbit/s modem.
    Modem33,
    /// 56 kbit/s modem.
    Modem56,
    /// 64/128 kbit/s ISDN.
    Isdn,
    /// Consumer ADSL (~256 kbit/s downstream in 2002 Brazil).
    Dsl,
    /// Cable modem (~512 kbit/s).
    Cable,
    /// Corporate / university LAN (effectively stream-limited).
    Lan,
}

impl AccessClass {
    /// All classes, in capacity order.
    pub const ALL: [AccessClass; 7] = [
        AccessClass::Modem28,
        AccessClass::Modem33,
        AccessClass::Modem56,
        AccessClass::Isdn,
        AccessClass::Dsl,
        AccessClass::Cable,
        AccessClass::Lan,
    ];

    /// Nominal downstream capacity, bits per second.
    pub fn capacity_bps(&self) -> u32 {
        match self {
            AccessClass::Modem28 => 28_800,
            AccessClass::Modem33 => 33_600,
            AccessClass::Modem56 => 56_000,
            AccessClass::Isdn => 128_000,
            AccessClass::Dsl => 256_000,
            AccessClass::Cable => 512_000,
            AccessClass::Lan => 1_500_000,
        }
    }

    /// Default 2002-era population mix: mostly dial-up.
    ///
    /// Weights are relative; they produce the multi-spike right-hand side
    /// of Fig 20 with the 56k spike dominating.
    pub fn default_mix() -> Vec<(AccessClass, f64)> {
        vec![
            (AccessClass::Modem28, 0.08),
            (AccessClass::Modem33, 0.12),
            (AccessClass::Modem56, 0.45),
            (AccessClass::Isdn, 0.08),
            (AccessClass::Dsl, 0.15),
            (AccessClass::Cable, 0.09),
            (AccessClass::Lan, 0.03),
        ]
    }
}

/// Samples access classes from a weighted mix.
#[derive(Debug, Clone)]
pub struct AccessMix {
    classes: Vec<AccessClass>,
    cum: Vec<f64>,
}

impl AccessMix {
    /// Builds a sampler from `(class, weight)` pairs (weights normalized).
    ///
    /// # Panics
    /// Panics when the mix is empty or a weight is non-positive.
    pub(crate) fn new(mix: &[(AccessClass, f64)]) -> Self {
        assert!(!mix.is_empty(), "access mix must not be empty");
        assert!(
            mix.iter().all(|&(_, w)| w > 0.0),
            "weights must be positive"
        );
        let total: f64 = mix.iter().map(|&(_, w)| w).sum();
        let mut cum = Vec::with_capacity(mix.len());
        let mut acc = 0.0;
        for &(_, w) in mix {
            acc += w / total;
            cum.push(acc);
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        Self {
            classes: mix.iter().map(|&(c, _)| c).collect(),
            cum,
        }
    }

    /// The default 2002 mix.
    pub fn default_2002() -> Self {
        Self::new(&AccessClass::default_mix())
    }

    /// Samples one class.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> AccessClass {
        let u = u01(rng);
        let idx = self
            .cum
            .partition_point(|&c| c < u)
            .min(self.classes.len() - 1);
        self.classes[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_stats::SeedStream;

    #[test]
    fn capacities_ordered() {
        let caps: Vec<u32> = AccessClass::ALL.iter().map(|c| c.capacity_bps()).collect();
        assert!(
            caps.windows(2).all(|w| w[0] < w[1]),
            "capacities must increase"
        );
    }

    #[test]
    fn default_mix_normalizes_and_samples() {
        let mix = AccessMix::default_2002();
        let mut rng = SeedStream::new(1).rng("access");
        let mut counts = std::collections::HashMap::new();
        const N: usize = 100_000;
        for _ in 0..N {
            *counts.entry(mix.sample(&mut rng)).or_insert(0usize) += 1;
        }
        // 56k modem should dominate (~45%).
        let m56 = counts[&AccessClass::Modem56] as f64 / N as f64;
        assert!((m56 - 0.45).abs() < 0.01, "56k share {m56}");
        // Every class appears.
        assert_eq!(counts.len(), 7);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_mix_panics() {
        AccessMix::new(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_weight_panics() {
        AccessMix::new(&[(AccessClass::Dsl, 0.0)]);
    }
}
