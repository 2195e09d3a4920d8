//! The live-object model: feeds, cameras, and the join/leave semantics.
//!
//! §2.1: two live objects (feeds), each showing one of 48 cameras at any
//! moment. Clients cannot choose *content* — only which feed to join and
//! when to leave (the paper's "object-driven" access). The camera schedule
//! is a property of the *object*, shared by every viewer: all transfers of
//! a feed at time `t` see the same camera, which is exactly the
//! synchronizing effect the paper attributes live content's temporal
//! correlations to.

use lsw_stats::rng::u01;
use lsw_trace::ids::ObjectId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The live feeds and their shared camera schedules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveObjects {
    /// Normalized cumulative feed weights for join sampling.
    cum_weights: Vec<f64>,
    n_cameras: u16,
    camera_hold_secs: f64,
    /// Per-feed schedule seed, so feeds switch independently.
    schedule_seed: u64,
}

impl LiveObjects {
    /// Creates the model; `feed_weights` must be non-empty and positive,
    /// `n_cameras` in 1..=256.
    pub(crate) fn new(
        feed_weights: &[f64],
        n_cameras: usize,
        camera_hold_secs: f64,
        schedule_seed: u64,
    ) -> Result<Self, String> {
        if feed_weights.is_empty() {
            return Err("need at least one feed".into());
        }
        if feed_weights.iter().any(|&w| !(w > 0.0)) {
            return Err("feed weights must be positive".into());
        }
        if n_cameras == 0 || n_cameras > 256 {
            return Err("n_cameras must be in 1..=256".into());
        }
        if !(camera_hold_secs > 0.0) {
            return Err("camera_hold_secs must be positive".into());
        }
        let total: f64 = feed_weights.iter().sum();
        let mut cum = Vec::with_capacity(feed_weights.len());
        let mut acc = 0.0;
        for &w in feed_weights {
            acc += w / total;
            cum.push(acc);
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        Ok(Self {
            cum_weights: cum,
            n_cameras: n_cameras as u16,
            camera_hold_secs,
            schedule_seed,
        })
    }

    /// Samples which feed a joining client taps into.
    pub(crate) fn sample_feed<R: Rng + ?Sized>(&self, rng: &mut R) -> ObjectId {
        let u = u01(rng);
        let idx = self
            .cum_weights
            .partition_point(|&c| c < u)
            .min(self.cum_weights.len() - 1);
        ObjectId(idx as u16)
    }

    /// The camera feed `object` is showing at time `t` — deterministic and
    /// shared by all viewers (the live-content synchronization property).
    ///
    /// The schedule is a hash-driven piecewise-constant process: the feed
    /// holds a camera for `camera_hold_secs`-long slots; each slot's camera
    /// is a stable hash of (seed, feed, slot).
    pub(crate) fn camera_at(&self, object: ObjectId, t: f64) -> u8 {
        let slot = if t <= 0.0 {
            0
        } else {
            (t / self.camera_hold_secs) as u64
        };
        let mut z = self
            .schedule_seed
            .wrapping_add(u64::from(object.0).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(slot.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % u64::from(self.n_cameras)) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_stats::SeedStream;

    fn objects() -> LiveObjects {
        LiveObjects::new(&[0.7, 0.3], 48, 45.0, 99).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(LiveObjects::new(&[], 48, 45.0, 0).is_err());
        assert!(LiveObjects::new(&[1.0, 0.0], 48, 45.0, 0).is_err());
        assert!(LiveObjects::new(&[1.0], 0, 45.0, 0).is_err());
        assert!(LiveObjects::new(&[1.0], 300, 45.0, 0).is_err());
        assert!(LiveObjects::new(&[1.0], 48, 0.0, 0).is_err());
    }

    #[test]
    fn feed_sampling_tracks_weights() {
        let o = objects();
        let mut rng = SeedStream::new(51).rng("objects");
        const N: usize = 100_000;
        let feed0 = (0..N).filter(|_| o.sample_feed(&mut rng).0 == 0).count() as f64 / N as f64;
        assert!((feed0 - 0.7).abs() < 0.01, "feed 0 share {feed0}");
    }

    #[test]
    fn camera_schedule_is_shared_and_stable() {
        let o = objects();
        // Every viewer at the same (feed, time) sees the same camera.
        assert_eq!(
            o.camera_at(ObjectId(0), 100.0),
            o.camera_at(ObjectId(0), 100.0)
        );
        // Within one hold slot the camera stays put.
        assert_eq!(
            o.camera_at(ObjectId(0), 100.0),
            o.camera_at(ObjectId(0), 130.0)
        );
        // Feeds switch independently: schedules differ somewhere.
        let differs = (0..200).any(|i| {
            o.camera_at(ObjectId(0), i as f64 * 50.0) != o.camera_at(ObjectId(1), i as f64 * 50.0)
        });
        assert!(differs, "feed schedules identical");
    }

    #[test]
    fn cameras_cover_the_fleet() {
        // Over many slots all 48 cameras should appear.
        let o = objects();
        let mut seen = std::collections::HashSet::new();
        for i in 0..5_000 {
            seen.insert(o.camera_at(ObjectId(0), i as f64 * 45.0));
        }
        assert_eq!(seen.len(), 48, "only {} cameras seen", seen.len());
        assert!(seen.iter().all(|&c| c < 48));
    }

    #[test]
    fn camera_switches_at_hold_boundaries() {
        let o = LiveObjects::new(&[1.0], 48, 10.0, 7).unwrap();
        // Count switches over 1,000 slots: should be close to slot count
        // (hash collisions allow occasional holds across a boundary).
        let mut switches = 0;
        let mut prev = o.camera_at(ObjectId(0), 0.0);
        for slot in 1..1_000 {
            let cam = o.camera_at(ObjectId(0), slot as f64 * 10.0 + 0.5);
            if cam != prev {
                switches += 1;
            }
            prev = cam;
        }
        assert!(switches > 900, "only {switches} switches in 999 slots");
    }

    #[test]
    fn negative_time_safe() {
        let o = objects();
        // Clamped to slot 0; must not panic.
        let _ = o.camera_at(ObjectId(0), -5.0);
    }
}
