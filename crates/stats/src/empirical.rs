//! Empirical statistics: summaries, ECDF/CCDF, histograms, rank-frequency.
//!
//! These are the building blocks of every marginal-distribution figure in
//! the paper: the *frequency* panels are (log-binned) histograms, the
//! *cumulative* panels are ECDFs, the *CCDF* panels are their complements,
//! and the Fig 2 / Fig 7 popularity-vs-rank panels are [`RankFrequency`]
//! tables.

use serde::{Deserialize, Serialize};

/// Moment and quantile summary of a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Population variance (divides by n).
    pub variance: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation (σ/μ); `NaN` when the mean is 0.
    pub cv: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 25th percentile.
    pub p25: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Sample skewness (third standardized moment).
    pub skewness: f64,
}

impl Summary {
    /// Computes a summary of `data`. Returns `None` for empty input.
    pub fn from_data(data: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = data.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Self::from_data_sorted(data, &sorted)
    }

    /// Computes a summary of `data` whose ECDF is already built, reading
    /// the quantiles from its sorted copy instead of sorting another. The
    /// result equals [`from_data`](Self::from_data) exactly.
    ///
    /// # Panics
    /// If `ecdf` holds a different number of observations than `data`.
    pub fn with_ecdf(data: &[f64], ecdf: &Ecdf) -> Option<Self> {
        assert_eq!(ecdf.n(), data.len(), "the ECDF must be built from data");
        Self::from_data_sorted(data, ecdf.sorted())
    }

    /// The shared body. Moments are summed in `data`'s own order, which
    /// sets their bits; quantiles come from `sorted`, which is `data`
    /// sorted by `f64::total_cmp`.
    fn from_data_sorted(data: &[f64], sorted: &[f64]) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let n = data.len();
        let nf = n as f64;
        let mean = data.iter().sum::<f64>() / nf;
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in data {
            let d = x - mean;
            m2 += d * d;
            m3 += d * d * d;
            min = min.min(x);
            max = max.max(x);
        }
        let variance = m2 / nf;
        let std_dev = variance.sqrt();
        let skewness = if std_dev > 0.0 {
            (m3 / nf) / std_dev.powi(3)
        } else {
            0.0
        };
        let q = |p: f64| quantile_sorted(sorted, p);
        Some(Self {
            n,
            mean,
            variance,
            std_dev,
            cv: if mean != 0.0 {
                std_dev / mean
            } else {
                f64::NAN
            },
            min,
            max,
            median: q(0.5),
            p25: q(0.25),
            p75: q(0.75),
            p95: q(0.95),
            p99: q(0.99),
            skewness,
        })
    }
}

/// Linear-interpolation quantile of a pre-sorted slice.
pub(crate) fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let p = p.clamp(0.0, 1.0);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = pos - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Empirical cumulative distribution function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from observations (NaNs are rejected by debug assert
    /// and sorted to the end otherwise).
    pub fn new(mut data: Vec<f64>) -> Self {
        debug_assert!(data.iter().all(|x| !x.is_nan()), "ECDF input contains NaN");
        data.sort_unstable_by(f64::total_cmp);
        Self { sorted: data }
    }

    /// Number of observations.
    pub(crate) fn n(&self) -> usize {
        self.sorted.len()
    }

    /// `P[X <= x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// `P[X >= x]` — the paper plots CCDFs as `P[X >= x]`, hence the
    /// non-strict inequality.
    pub fn ccdf_ge(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let below = self.sorted.partition_point(|&v| v < x);
        (self.sorted.len() - below) as f64 / self.sorted.len() as f64
    }

    /// Step points `(x_i, i/n)` with duplicates collapsed — ready to plot.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let x = self.sorted[i];
            let mut j = i + 1;
            while j < n && self.sorted[j] == x {
                j += 1;
            }
            out.push((x, j as f64 / n as f64));
            i = j;
        }
        out
    }

    /// CCDF step points `(x_i, P[X >= x_i])` with duplicates collapsed.
    pub fn ccdf_points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let x = self.sorted[i];
            let mut j = i + 1;
            while j < n && self.sorted[j] == x {
                j += 1;
            }
            out.push((x, (n - i) as f64 / n as f64));
            i = j;
        }
        out
    }

    /// Sorted backing data (for fitters that want order statistics).
    pub(crate) fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

/// How histogram bin edges are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Binning {
    /// `nbins` equal-width bins covering `[lo, hi]`.
    Linear {
        /// Inclusive lower edge.
        lo: f64,
        /// Inclusive upper edge.
        hi: f64,
        /// Number of bins (>= 1).
        nbins: usize,
    },
    /// Logarithmically spaced bins covering `[lo, hi]`, `lo > 0`, with
    /// `per_decade` bins per factor of 10 — what the paper's log-x
    /// frequency panels effectively use.
    Log {
        /// Inclusive lower edge (> 0).
        lo: f64,
        /// Inclusive upper edge.
        hi: f64,
        /// Bins per decade (>= 1).
        per_decade: usize,
    },
}

/// A histogram with either linear or logarithmic bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    binning: Binning,
    edges: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    /// Observations falling below the first edge / above the last.
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given binning.
    pub(crate) fn new(binning: Binning) -> Self {
        let edges = match binning {
            Binning::Linear { lo, hi, nbins } => {
                assert!(lo < hi && nbins >= 1, "invalid linear binning");
                (0..=nbins)
                    .map(|i| lo + (hi - lo) * i as f64 / nbins as f64)
                    .collect::<Vec<f64>>()
            }
            Binning::Log { lo, hi, per_decade } => {
                assert!(
                    lo > 0.0 && lo < hi && per_decade >= 1,
                    "invalid log binning"
                );
                let decades = (hi / lo).log10();
                let nbins = (decades * per_decade as f64).ceil() as usize;
                let nbins = nbins.max(1);
                let mut edges: Vec<f64> = (0..=nbins)
                    .map(|i| lo * 10f64.powf(decades * i as f64 / nbins as f64))
                    .collect();
                // Pin the endpoints exactly so boundary observations are
                // never misclassified as under/overflow by powf round-off.
                edges[0] = lo;
                edges[nbins] = hi;
                edges
            }
        };
        let nbins = edges.len() - 1;
        Self {
            binning,
            edges,
            counts: vec![0; nbins],
            total: 0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Builds a histogram directly from data.
    pub fn from_data(binning: Binning, data: &[f64]) -> Self {
        let mut h = Self::new(binning);
        for &x in data {
            h.add(x);
        }
        h
    }

    /// Adds one observation.
    pub(crate) fn add(&mut self, x: f64) {
        self.total += 1;
        let first = self.edges[0];
        // lsw::allow(L005): constructor guarantees at least two edges
        let last = *self.edges.last().expect("edges non-empty");
        if x < first {
            self.underflow += 1;
            return;
        }
        if x > last {
            self.overflow += 1;
            return;
        }
        let idx = match self.binning {
            Binning::Linear { lo, hi, nbins } => {
                (((x - lo) / (hi - lo) * nbins as f64) as usize).min(nbins - 1)
            }
            Binning::Log { .. } => {
                // Binary search over the (sorted) edges.
                let i = self.edges.partition_point(|&e| e <= x);
                i.saturating_sub(1).min(self.counts.len() - 1)
            }
        };
        self.counts[idx] += 1;
    }

    /// Raw counts per bin.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations offered (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations below the first edge.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations above the last edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Geometric (log bins) or arithmetic (linear bins) bin centers.
    pub(crate) fn centers(&self) -> Vec<f64> {
        self.edges
            .windows(2)
            .map(|w| match self.binning {
                Binning::Linear { .. } => 0.5 * (w[0] + w[1]),
                Binning::Log { .. } => (w[0] * w[1]).sqrt(),
            })
            .collect()
    }

    /// Relative frequency per bin: `count / total`. This matches the
    /// "Frequency" axis of the paper's marginal plots.
    pub(crate) fn frequencies(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// `(center, frequency)` pairs with empty bins skipped — plot-ready.
    pub fn frequency_points(&self) -> Vec<(f64, f64)> {
        self.centers()
            .into_iter()
            .zip(self.frequencies())
            .filter(|&(_, f)| f > 0.0)
            .collect()
    }
}

/// Rank-frequency (popularity) table: entities sorted by descending count.
///
/// Drives Fig 2 (AS popularity) and Fig 7 (client interest profile).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RankFrequency {
    /// Counts sorted descending; rank `k` (1-based) has count `counts[k-1]`.
    counts: Vec<u64>,
    total: u64,
}

impl RankFrequency {
    /// Builds a rank-frequency table from per-entity counts (zeros dropped).
    pub fn from_counts(mut counts: Vec<u64>) -> Self {
        counts.retain(|&c| c > 0);
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total = counts.iter().sum();
        Self { counts, total }
    }

    /// Number of ranked entities.
    pub fn n(&self) -> usize {
        self.counts.len()
    }

    /// Total of all counts.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count at 1-based rank `k`.
    pub fn count_at(&self, k: usize) -> Option<u64> {
        self.counts.get(k - 1).copied()
    }

    /// `(rank, relative frequency)` pairs — the paper's Fig 7 axes.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| ((i + 1) as f64, c as f64 / self.total as f64))
            .collect()
    }

    /// `(rank, raw count)` pairs.
    pub fn count_points(&self) -> Vec<(f64, f64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| ((i + 1) as f64, c as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::from_data(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.variance, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!((s.skewness).abs() < 1e-12);
        assert!(Summary::from_data(&[]).is_none());
    }

    #[test]
    fn summary_skewness_sign() {
        let right = Summary::from_data(&[1.0, 1.0, 1.0, 10.0]).unwrap();
        assert!(right.skewness > 0.0);
        let left = Summary::from_data(&[-10.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(left.skewness < 0.0);
    }

    #[test]
    fn ecdf_cdf_and_ccdf() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.cdf(0.0), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.cdf(10.0), 1.0);
        // CCDF uses >= (paper convention).
        assert_eq!(e.ccdf_ge(2.0), 0.75);
        assert_eq!(e.ccdf_ge(3.0), 0.25);
        assert_eq!(e.ccdf_ge(3.1), 0.0);
        // CDF + strict-CCDF identity at non-atoms.
        assert!((e.cdf(2.5) + e.ccdf_ge(2.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_points_collapse_duplicates() {
        let e = Ecdf::new(vec![1.0, 1.0, 2.0]);
        assert_eq!(e.points(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
        assert_eq!(e.ccdf_points(), vec![(1.0, 1.0), (2.0, 1.0 / 3.0)]);
    }

    #[test]
    fn linear_histogram_counts() {
        let h = Histogram::from_data(
            Binning::Linear {
                lo: 0.0,
                hi: 10.0,
                nbins: 5,
            },
            &[0.5, 1.5, 2.5, 2.6, 9.9, 10.0, -1.0, 11.0],
        );
        assert_eq!(h.counts(), &[2, 2, 0, 0, 2]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn log_histogram_decades() {
        let h = Histogram::new(Binning::Log {
            lo: 1.0,
            hi: 1_000.0,
            per_decade: 2,
        });
        assert_eq!(h.counts().len(), 6);
        let mut h = h;
        h.add(1.0);
        h.add(5.0);
        h.add(500.0);
        h.add(1_000.0); // exactly the last edge: belongs to the last bin
        assert_eq!(h.counts().iter().sum::<u64>(), 4);
        assert_eq!(h.overflow(), 0);
        // Frequencies sum to 1 when nothing under/overflows.
        let s: f64 = h.frequencies().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_frequency_sorts_and_normalizes() {
        let rf = RankFrequency::from_counts(vec![5, 0, 20, 10]);
        assert_eq!(rf.n(), 3);
        assert_eq!(rf.total(), 35);
        assert_eq!(rf.count_at(1), Some(20));
        assert_eq!(rf.count_at(3), Some(5));
        assert_eq!(rf.count_at(4), None);
        let pts = rf.points();
        assert_eq!(pts[0], (1.0, 20.0 / 35.0));
    }
}
