//! Marginal-distribution bundles: the three-panel figure unit.
//!
//! Nearly every figure in the paper is the same triptych: a (log-binned)
//! frequency histogram, a cumulative distribution and a CCDF.
//! [`Marginal`] computes all three plus a moment summary, with plot-ready
//! `(x, y)` series decimated to a sane point count.

use lsw_stats::empirical::{Binning, Ecdf, Histogram, Summary};
use serde::{Deserialize, Serialize};

/// Maximum points kept per CDF/CCDF series (decimation preserves shape;
/// the paper's plots resolve far fewer pixels).
const MAX_POINTS: usize = 2_000;

/// A marginal distribution: the paper's frequency/CDF/CCDF triptych.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Marginal {
    /// Moment and quantile summary.
    pub summary: Summary,
    /// `(bin center, relative frequency)` — the left panel.
    pub frequency: Vec<(f64, f64)>,
    /// `(x, P[X <= x])` — the middle panel.
    pub cdf: Vec<(f64, f64)>,
    /// `(x, P[X >= x])` — the right panel.
    pub ccdf: Vec<(f64, f64)>,
}

impl Marginal {
    /// Builds a marginal with log-spaced frequency bins (for positive,
    /// spread-out data like durations and interarrivals).
    ///
    /// Returns `None` on empty input. Non-positive values are excluded
    /// from the log histogram but kept in the ECDF and summary — callers
    /// that applied `⌊t⌋+1` have none anyway.
    pub fn log_binned(data: &[f64], per_decade: usize) -> Option<Self> {
        let ecdf = Ecdf::new(data.to_vec());
        let summary = Summary::with_ecdf(data, &ecdf)?;
        let positive_min = data
            .iter()
            .copied()
            .filter(|&x| x > 0.0)
            .fold(f64::INFINITY, f64::min);
        let frequency = if positive_min.is_finite() && summary.max > positive_min {
            let hist = Histogram::from_data(
                Binning::Log {
                    lo: positive_min,
                    hi: summary.max,
                    per_decade,
                },
                data,
            );
            hist.frequency_points()
        } else {
            // Degenerate spread: one atom.
            vec![(summary.max.max(positive_min), 1.0)]
        };
        Some(Self {
            summary,
            frequency,
            cdf: decimate(ecdf.points()),
            ccdf: decimate(ecdf.ccdf_points()),
        })
    }

    /// Builds a marginal with linear frequency bins (for counts like
    /// concurrency, Figs 3/15).
    pub fn linear_binned(data: &[f64], nbins: usize) -> Option<Self> {
        let ecdf = Ecdf::new(data.to_vec());
        let summary = Summary::with_ecdf(data, &ecdf)?;
        let (lo, hi) = (summary.min, summary.max);
        let frequency = if hi > lo {
            Histogram::from_data(Binning::Linear { lo, hi, nbins }, data).frequency_points()
        } else {
            vec![(lo, 1.0)]
        };
        Some(Self {
            summary,
            frequency,
            cdf: decimate(ecdf.points()),
            ccdf: decimate(ecdf.ccdf_points()),
        })
    }
}

/// Applies the paper's `⌊t⌋+1` log-display transform to a series of
/// second-resolution measurements.
pub fn display_transform(data: &[f64]) -> Vec<f64> {
    data.iter()
        .map(|&t| lsw_stats::paper::log_display_time(t))
        .collect()
}

/// Decimates a sorted point series to at most [`MAX_POINTS`] entries,
/// always keeping the first and last.
fn decimate(points: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    if points.len() <= MAX_POINTS {
        return points;
    }
    let n = points.len();
    let step = n as f64 / (MAX_POINTS - 1) as f64;
    let mut out = Vec::with_capacity(MAX_POINTS);
    let mut idx = 0.0;
    while (idx as usize) < n - 1 {
        out.push(points[idx as usize]);
        idx += step;
    }
    out.push(points[n - 1]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_binned_basic() {
        let data: Vec<f64> = (1..=1_000).map(|i| i as f64).collect();
        let m = Marginal::log_binned(&data, 5).unwrap();
        assert_eq!(m.summary.n, 1_000);
        assert!(!m.frequency.is_empty());
        // Frequencies sum to ~1 (nothing excluded).
        let s: f64 = m.frequency.iter().map(|&(_, f)| f).sum();
        assert!((s - 1.0).abs() < 1e-9);
        // CDF endpoints.
        assert_eq!(m.cdf.last().unwrap().1, 1.0);
        assert_eq!(m.ccdf.first().unwrap().1, 1.0);
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(Marginal::log_binned(&[], 5).is_none());
        assert!(Marginal::linear_binned(&[], 10).is_none());
    }

    #[test]
    fn degenerate_single_value() {
        let m = Marginal::log_binned(&[5.0, 5.0, 5.0], 5).unwrap();
        assert_eq!(m.frequency, vec![(5.0, 1.0)]);
        assert_eq!(m.summary.mean, 5.0);
    }

    #[test]
    fn display_transform_matches_paper() {
        assert_eq!(
            display_transform(&[0.0, 0.4, 1.0, 2.7]),
            vec![1.0, 1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn decimation_bounds_points() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let m = Marginal::linear_binned(&data, 20).unwrap();
        assert!(m.cdf.len() <= 2_000);
        assert!(m.ccdf.len() <= 2_000);
        // First/last preserved.
        assert_eq!(m.ccdf.first().unwrap().1, 1.0);
        assert_eq!(m.cdf.last().unwrap().1, 1.0);
    }
}
