//! Programmable diurnal/weekly arrival-rate profiles.
//!
//! §3.2/§3.4: the client arrival rate is non-stationary with a dominant
//! 24-hour period (trough from 4am to 11am, evening peak) modulated by a
//! weaker weekly pattern (weekends slightly higher). GISMO's extension for
//! live media makes this profile *programmable* — any 15-minute shape can
//! be supplied — and `DiurnalProfile::paper` ships the shape read off
//! Fig 4 (right).

use lsw_stats::process::{PiecewisePoisson, PiecewiseRate};
use serde::{Deserialize, Serialize};

/// Number of 15-minute bins in a day.
pub const BINS_PER_DAY: usize = 96;

/// Relative audience level at the instant the service launched (used when
/// a day envelope is present): effectively a handful of early viewers.
pub(crate) const LAUNCH_LEVEL: f64 = 0.003;

/// A daily shape (96 × 15-minute relative weights) with per-weekday
/// multipliers, convertible into an absolute arrival-rate profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalProfile {
    /// Relative arrival intensity per 15-minute bin of the day (len 96).
    /// Only ratios matter; the absolute scale comes from a session target.
    pub shape: Vec<f64>,
    /// Multiplier per weekday, Sunday = 0.
    pub weekday_weights: [f64; 7],
    /// Day-of-week of t = 0.
    pub start_weekday: u8,
    /// Optional per-day audience envelope (index = day since trace start;
    /// days beyond the end reuse the last value). Models the show's
    /// ramp-up/decay visible in Fig 4 (left): the first days draw a far
    /// smaller audience than mid-run. Empty = flat envelope.
    pub day_envelope: Vec<f64>,
}

impl DiurnalProfile {
    /// Builds a profile; `shape` must have 96 positive entries.
    pub fn new(
        shape: Vec<f64>,
        weekday_weights: [f64; 7],
        start_weekday: u8,
    ) -> Result<Self, String> {
        if shape.len() != BINS_PER_DAY {
            return Err(format!(
                "shape must have {BINS_PER_DAY} bins, got {}",
                shape.len()
            ));
        }
        if shape.iter().any(|&v| !(v >= 0.0) || !v.is_finite()) {
            return Err("shape values must be finite and >= 0".into());
        }
        if shape.iter().sum::<f64>() <= 0.0 {
            return Err("shape must have positive total mass".into());
        }
        if weekday_weights.iter().any(|&w| !(w > 0.0)) {
            return Err("weekday weights must be positive".into());
        }
        if start_weekday > 6 {
            return Err("start_weekday must be 0..=6".into());
        }
        Ok(Self {
            shape,
            weekday_weights,
            start_weekday,
            day_envelope: Vec::new(),
        })
    }

    /// Attaches a per-day audience envelope (see [`DiurnalProfile::day_envelope`]).
    pub(crate) fn with_day_envelope(mut self, envelope: Vec<f64>) -> Result<Self, String> {
        if envelope.iter().any(|&v| !(v > 0.0) || !v.is_finite()) {
            return Err("day envelope values must be positive and finite".into());
        }
        self.day_envelope = envelope;
        Ok(self)
    }

    /// The paper's Fig 4 (left) inter-day envelope: a ramp over the first
    /// week-and-a-half of the show, a mid-run plateau, and a gentle decay.
    pub(crate) fn paper_day_envelope() -> Vec<f64> {
        // Day 0 starts near-dead: Fig 18 (left) shows mean interarrivals
        // spiking toward ~1,000 s in the opening hours, before word of the
        // webcast spread.
        vec![
            0.04, 0.12, 0.22, 0.35, 0.50, 0.62, 0.75, 0.85, 0.95, 1.00, 1.00, 0.95, 0.90, 0.92,
            0.88, 0.85, 0.90, 0.85, 0.80, 0.85, 0.80, 0.75, 0.80, 0.78, 0.75, 0.72, 0.70, 0.68,
        ]
    }

    /// The paper's Fig 4 (right) shape: near-dead 4am–11am, climbing
    /// through the afternoon, peaking 20:00–23:00, easing overnight.
    ///
    /// Values are relative concurrent-client levels read off the figure at
    /// 15-minute resolution (piecewise-linear between the listed anchor
    /// hours).
    pub(crate) fn paper_shape() -> Vec<f64> {
        // (hour, relative level) anchors from Fig 4 (right).
        const ANCHORS: [(f64, f64); 13] = [
            (0.0, 700.0),
            (2.0, 450.0),
            (4.0, 150.0),
            (6.0, 80.0),
            (9.0, 120.0),
            (11.0, 400.0),
            (13.0, 700.0),
            (15.0, 800.0),
            (17.0, 900.0),
            (19.0, 1_100.0),
            (21.0, 1_400.0),
            (22.5, 1_500.0),
            (24.0, 700.0),
        ];
        let mut shape = Vec::with_capacity(BINS_PER_DAY);
        for bin in 0..BINS_PER_DAY {
            let h = (bin as f64 + 0.5) * 24.0 / BINS_PER_DAY as f64;
            // Linear interpolation between anchors.
            let mut v = ANCHORS[ANCHORS.len() - 1].1;
            for w in ANCHORS.windows(2) {
                let (h0, v0) = w[0];
                let (h1, v1) = w[1];
                if h >= h0 && h <= h1 {
                    v = v0 + (v1 - v0) * (h - h0) / (h1 - h0);
                    break;
                }
            }
            shape.push(v);
        }
        shape
    }

    /// The paper profile with the given weekday modulation.
    pub(crate) fn paper(weekday_weights: [f64; 7], start_weekday: u8) -> Self {
        Self::new(Self::paper_shape(), weekday_weights, start_weekday)
            .expect("static shape is valid") // lsw::allow(L005): fixed valid table
    }

    /// A flat (stationary) profile — the §3.4 null model and the classic
    /// stored-media GISMO default.
    pub fn flat() -> Self {
        // lsw::allow(L005): a constant positive shape is always valid
        Self::new(vec![1.0; BINS_PER_DAY], [1.0; 7], 0).expect("static shape is valid")
    }

    /// Relative intensity at time `t` seconds (period: one week).
    pub(crate) fn relative_rate(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        let day = (t / 86_400.0) as u64;
        let weekday = ((self.start_weekday as u64) + day) % 7;
        let sec_of_day = t - (day as f64) * 86_400.0;
        let bin = ((sec_of_day / 900.0) as usize).min(BINS_PER_DAY - 1);
        self.shape[bin] * self.weekday_weights[weekday as usize] * self.envelope_at(t)
    }

    /// The audience envelope at time `t`: day values interpolated
    /// linearly between day midpoints, starting from [`LAUNCH_LEVEL`] at
    /// t = 0 (the service had essentially no audience the moment it went
    /// live — Fig 18 left shows interarrivals near 1,000 s at the start).
    fn envelope_at(&self, t: f64) -> f64 {
        if self.day_envelope.is_empty() {
            return 1.0;
        }
        let day_f = t / 86_400.0;
        let n = self.day_envelope.len();
        // Envelope defined at day midpoints d + 0.5.
        if day_f <= 0.5 {
            // Launch ramp: from LAUNCH_LEVEL at t=0 to the day-0 value.
            let frac = (day_f / 0.5).clamp(0.0, 1.0);
            return LAUNCH_LEVEL + (self.day_envelope[0] - LAUNCH_LEVEL) * frac;
        }
        let pos = day_f - 0.5;
        let i = pos as usize;
        if i + 1 >= n {
            return self.day_envelope[n - 1];
        }
        let frac = pos - i as f64;
        self.day_envelope[i] + (self.day_envelope[i + 1] - self.day_envelope[i]) * frac
    }

    /// Integral of the relative rate over `[0, horizon)` seconds.
    pub(crate) fn relative_mass(&self, horizon: f64) -> f64 {
        // Sum whole 15-minute bins; the tail partial bin is pro-rated.
        let mut mass = 0.0;
        let mut t = 0.0;
        while t < horizon {
            let step = 900f64.min(horizon - t);
            mass += self.relative_rate(t + 0.5 * step.min(900.0)) * step;
            t += step;
        }
        mass
    }

    /// Converts to an absolute [`PiecewisePoisson`] arrival process whose
    /// expected arrival count over `[0, horizon)` equals `target_arrivals`.
    ///
    /// The profile is laid out as explicit 15-minute windows over the whole
    /// horizon (non-periodic), so weekly modulation is baked in.
    pub(crate) fn to_process(&self, horizon_secs: u32, target_arrivals: usize) -> PiecewisePoisson {
        let horizon = f64::from(horizon_secs);
        let mass = self.relative_mass(horizon);
        assert!(mass > 0.0, "profile has zero mass over the horizon");
        let scale = target_arrivals as f64 / mass;
        let nbins = (horizon / 900.0).ceil() as usize;
        let rates: Vec<f64> = (0..nbins)
            .map(|i| self.relative_rate((i as f64 + 0.5) * 900.0) * scale)
            .collect();
        // lsw::allow(L005): rates are finite non-negative by construction
        let profile = PiecewiseRate::new(rates, 900.0, false).expect("validated rates");
        PiecewisePoisson::new(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_stats::SeedStream;

    #[test]
    fn paper_shape_has_expected_structure() {
        let p = DiurnalProfile::paper([1.0; 7], 0);
        // Trough in the paper's dead zone (4am–11am), peak in the evening.
        let hour = |bin: usize| bin as f64 * 24.0 / BINS_PER_DAY as f64;
        let by_shape = |a: &(usize, &f64), b: &(usize, &f64)| a.1.total_cmp(b.1);
        let trough = hour(p.shape.iter().enumerate().min_by(by_shape).unwrap().0);
        assert!((4.0..11.0).contains(&trough), "trough at {trough}");
        let peak = hour(p.shape.iter().enumerate().max_by(by_shape).unwrap().0);
        assert!((19.0..24.0).contains(&peak), "peak at {peak}");
        // Peak-to-trough dynamic range is large (Fig 4 right: ~80 → ~1500).
        let max = p.shape.iter().cloned().fold(0.0, f64::max);
        let min = p.shape.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 10.0, "dynamic range {}", max / min);
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(DiurnalProfile::new(vec![1.0; 95], [1.0; 7], 0).is_err());
        assert!(DiurnalProfile::new(vec![0.0; 96], [1.0; 7], 0).is_err());
        assert!(DiurnalProfile::new(vec![-1.0; 96], [1.0; 7], 0).is_err());
        assert!(DiurnalProfile::new(vec![1.0; 96], [0.0; 7], 0).is_err());
        assert!(DiurnalProfile::new(vec![1.0; 96], [1.0; 7], 7).is_err());
    }

    #[test]
    fn weekday_modulation_wraps() {
        let mut ww = [1.0; 7];
        ww[0] = 2.0; // Sunday
        let p = DiurnalProfile::new(vec![1.0; 96], ww, 6).unwrap(); // starts Saturday
                                                                    // Day 0 is Saturday (weight 1), day 1 is Sunday (weight 2).
        assert_eq!(p.relative_rate(3_600.0), 1.0);
        assert_eq!(p.relative_rate(86_400.0 + 3_600.0), 2.0);
        // Week wraps: day 8 is Sunday again.
        assert_eq!(p.relative_rate(8.0 * 86_400.0 + 60.0), 2.0);
    }

    #[test]
    fn flat_profile_is_uniform() {
        let p = DiurnalProfile::flat();
        assert_eq!(p.relative_rate(0.0), p.relative_rate(55_123.0));
        assert!((p.relative_mass(86_400.0) - 86_400.0).abs() < 1e-6);
    }

    #[test]
    fn to_process_hits_target_count() {
        let p = DiurnalProfile::paper([1.08, 0.97, 0.96, 0.97, 0.98, 1.0, 1.04], 0);
        let proc_ = p.to_process(7 * 86_400, 50_000);
        // Expected count equals the target by construction.
        let expected = proc_.expected_count(0.0, 7.0 * 86_400.0);
        assert!((expected - 50_000.0).abs() < 1.0, "expected {expected}");
        // The realized draw is Poisson around it.
        let mut rng = SeedStream::new(31).rng("diurnal");
        let arrivals = proc_.generate(&mut rng, 0.0, 7.0 * 86_400.0);
        let n = arrivals.len() as f64;
        assert!((n - 50_000.0).abs() < 4.0 * 50_000f64.sqrt(), "n = {n}");
    }

    #[test]
    fn generated_arrivals_follow_diurnal_shape() {
        let p = DiurnalProfile::paper([1.0; 7], 0);
        let proc_ = p.to_process(86_400, 100_000);
        let mut rng = SeedStream::new(32).rng("diurnal2");
        let arrivals = proc_.generate(&mut rng, 0.0, 86_400.0);
        // Count arrivals in the trough (5–9h) vs the peak (20–23h).
        let trough = arrivals
            .iter()
            .filter(|&&t| (5.0 * 3_600.0..9.0 * 3_600.0).contains(&t))
            .count();
        let peak = arrivals
            .iter()
            .filter(|&&t| (20.0 * 3_600.0..23.0 * 3_600.0).contains(&t))
            .count();
        assert!(
            peak as f64 > 5.0 * trough as f64,
            "peak {peak} vs trough {trough}: diurnal shape lost"
        );
    }

    #[test]
    fn relative_mass_scales_with_horizon() {
        let p = DiurnalProfile::paper([1.0; 7], 0);
        let one_day = p.relative_mass(86_400.0);
        let two_days = p.relative_mass(2.0 * 86_400.0);
        assert!((two_days - 2.0 * one_day).abs() < 1e-6 * one_day);
    }
}
