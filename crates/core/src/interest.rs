//! The client interest profile: which client owns each arriving session.
//!
//! §3.5 of the paper introduces the *interest profile*: ranking clients by
//! how many sessions they open yields a Zipf-like law with α = 0.4704
//! (Fig 7 right). GISMO's live extension therefore treats clients as an
//! enumerable population and assigns each generated session to a client
//! drawn from a bounded Zipf over that population — the mirror image of
//! stored-media object popularity.

use lsw_stats::dist::{Discrete, ParamError, ZipfTable};
use lsw_trace::ids::ClientId;
use rand::Rng;

/// Assigns sessions to clients with Zipf-skewed frequency.
#[derive(Debug, Clone)]
pub struct InterestProfile {
    zipf: ZipfTable,
}

impl InterestProfile {
    /// Creates a profile over `n_clients` with interest exponent `alpha`
    /// (paper: 0.4704). `alpha = 0` degenerates to uniform interest.
    pub fn new(n_clients: usize, alpha: f64) -> Result<Self, ParamError> {
        Ok(Self {
            zipf: ZipfTable::new(n_clients as u64, alpha)?,
        })
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.zipf.n() as usize
    }

    /// Interest exponent.
    pub fn alpha(&self) -> f64 {
        self.zipf.s()
    }

    /// Samples the client for a new session. Client ids are assigned in
    /// interest-rank order (client 0 is the most interested), which costs
    /// no generality: ids are opaque labels.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ClientId {
        ClientId((self.zipf.sample_k(rng) - 1) as u32)
    }

    /// The expected fraction of sessions owned by the rank-`k` client
    /// (`k` is 1-based) — Fig 7's fitted curve.
    pub fn expected_share(&self, k: u64) -> f64 {
        self.zipf.pmf(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_stats::empirical::RankFrequency;
    use lsw_stats::fit::fit_zipf_rank_frequency;
    use lsw_stats::SeedStream;

    #[test]
    fn rejects_bad_params() {
        assert!(InterestProfile::new(0, 0.5).is_err());
        assert!(InterestProfile::new(100, -1.0).is_err());
    }

    #[test]
    fn sample_ids_in_population() {
        let p = InterestProfile::new(50, 0.4704).unwrap();
        let mut rng = SeedStream::new(41).rng("interest");
        for _ in 0..5_000 {
            let c = p.sample(&mut rng);
            assert!(c.0 < 50);
        }
    }

    #[test]
    fn rank_one_dominates() {
        let p = InterestProfile::new(1_000, 0.7).unwrap();
        let mut rng = SeedStream::new(42).rng("interest2");
        let mut counts = vec![0u64; 1_000];
        for _ in 0..200_000 {
            counts[p.sample(&mut rng).0 as usize] += 1;
        }
        assert!(
            counts[0] > counts[99],
            "rank 1 {} vs rank 100 {}",
            counts[0],
            counts[99]
        );
        let emp = counts[0] as f64 / 200_000.0;
        assert!((emp - p.expected_share(1)).abs() < 0.005);
    }

    #[test]
    fn recovered_exponent_matches_configured() {
        // The paper's closed loop in miniature: generate session counts,
        // rank clients, fit the Zipf — α must come back.
        let alpha = 0.4704;
        let p = InterestProfile::new(3_000, alpha).unwrap();
        let mut rng = SeedStream::new(43).rng("interest3");
        let mut counts = vec![0u64; 3_000];
        for _ in 0..500_000 {
            counts[p.sample(&mut rng).0 as usize] += 1;
        }
        let rf = RankFrequency::from_counts(counts);
        let fit = fit_zipf_rank_frequency(&rf, Some(300.0)).unwrap();
        assert!(
            (fit.alpha - alpha).abs() < 0.06,
            "recovered {} vs configured {alpha}",
            fit.alpha
        );
    }

    #[test]
    fn sample_consumes_exactly_one_draw() {
        // Each session's substream continues with the transfer draws, so
        // the client pick must advance it by exactly one uniform whatever
        // the exponent.
        for alpha in [0.0, 0.4704, 1.5] {
            let p = InterestProfile::new(2_000, alpha).unwrap();
            let seeds = SeedStream::new(44);
            let mut a = seeds.rng("interest-one");
            let mut b = seeds.rng("interest-one");
            for _ in 0..500 {
                let _ = p.sample(&mut a);
                b.next_u64();
                assert_eq!(a.next_u64(), b.next_u64(), "alpha {alpha}: diverged");
            }
        }
    }

    #[test]
    fn uniform_interest_special_case() {
        let p = InterestProfile::new(100, 0.0).unwrap();
        assert!((p.expected_share(1) - 0.01).abs() < 1e-12);
        assert!((p.expected_share(100) - 0.01).abs() < 1e-12);
    }
}
