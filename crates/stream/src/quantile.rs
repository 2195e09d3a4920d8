//! Log-bucketed quantile histogram (HDR-histogram style).
//!
//! Transfer lengths, ON times and interarrival gaps are heavy-tailed over
//! four to six decades, so a histogram whose buckets are geometric — one
//! power of two split into 2^7 = 128 sub-buckets — covers the whole range
//! with a bounded relative value error of `1/128` ≈ 0.78% per bucket while
//! storing only the non-empty buckets (at most a few thousand for 32-bit
//! second values). Quantiles read off the cumulative counts land within
//! one bucket of the exact order statistic, which keeps the rank error of
//! the reported quantiles under the 1% acceptance bound for the smooth
//! lognormal-ish marginals this crate summarizes.
//!
//! All state is a dense `Vec<u64>` indexed by bucket and grown on demand
//! (second-valued inputs stay under ~4k buckets; the absolute ceiling for
//! finite doubles is 2^17 buckets = 1 MB); merging adds counts per bucket,
//! so the sketch is exactly mergeable — shard splits cannot change a
//! single count. The dense layout keeps the per-insert cost at one
//! bounds-checked increment, an order of magnitude cheaper than the
//! `BTreeMap` walk it replaced — this sits on the ingest hot path, twice
//! per released entry.
//!
//! Inputs are expected to be display-transformed values `>= 1` (the
//! paper's `⌊t⌋ + 1` convention); smaller or non-finite values are clamped
//! into the first bucket so `insert` is total.

use crate::sketch::Sketch;
use serde::{Deserialize, Serialize};

/// Sub-bucket resolution bits: 2^7 linear sub-buckets per power of two.
const SUB_BITS: u32 = 7;
const SUB_MASK: u32 = (1 << SUB_BITS) - 1;

/// Selected quantiles of the summarized marginal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantileSummary {
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// A mergeable log-bucketed histogram over values `>= 1`.
#[derive(Debug, Clone, Default)]
pub struct LogQuantileSketch {
    /// Count per bucket, dense; indices past the end are empty buckets.
    counts: Vec<u64>,
    n: u64,
}

// Content equality: trailing empty buckets are not state, only capacity.
impl PartialEq for LogQuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        self.n == other.n
            && short[..] == long[..short.len()]
            && long[short.len()..].iter().all(|&c| c == 0)
    }
}

impl Eq for LogQuantileSketch {}

/// Bucket index of a value: IEEE-754 exponent and top 7 mantissa bits.
fn bucket_of(v: f64) -> u32 {
    let v = if v.is_finite() { v.max(1.0) } else { 1.0 };
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as u32 - 1023;
    let sub = ((bits >> (52 - SUB_BITS)) & u64::from(SUB_MASK)) as u32;
    (exp << SUB_BITS) | sub
}

/// Representative value of a bucket: the arithmetic bucket midpoint.
fn value_of(bucket: u32) -> f64 {
    let exp = bucket >> SUB_BITS;
    let sub = bucket & SUB_MASK;
    f64::powi(2.0, exp as i32) * (1.0 + (f64::from(sub) + 0.5) / 128.0)
}

impl LogQuantileSketch {
    /// The empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one value.
    pub fn insert_value(&mut self, v: f64) {
        let b = bucket_of(v) as usize;
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the owning bucket's midpoint,
    /// or `None` when empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        // 0-based target order statistic, same convention as sorting the
        // data and indexing at floor(q * (n-1)).
        let target = (q.clamp(0.0, 1.0) * (self.n - 1) as f64).floor() as u64;
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if c > 0 && cum > target {
                return Some(value_of(b as u32));
            }
        }
        // Unreachable: cum == n > target by construction.
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|b| value_of(b as u32))
    }

    /// CCDF points `(value, P[X >= value])`, one per non-empty bucket in
    /// ascending value order — the streaming analogue of
    /// `Ecdf::ccdf_points`, suitable for `two_regime_tail`.
    pub(crate) fn ccdf_points(&self) -> Vec<(f64, f64)> {
        let n = self.n as f64;
        let mut below = 0u64;
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| {
                let p = (self.n - below) as f64 / n;
                below += c;
                (value_of(b as u32), p)
            })
            .collect()
    }
}

impl Sketch for LogQuantileSketch {
    type Item = f64;
    type Estimate = Option<QuantileSummary>;

    fn insert(&mut self, item: &f64) {
        self.insert_value(*item);
    }

    fn merge(&mut self, other: &Self) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    fn estimate(&self) -> Option<QuantileSummary> {
        Some(QuantileSummary {
            p25: self.quantile(0.25)?,
            p50: self.quantile(0.50)?,
            p75: self.quantile(0.75)?,
            p95: self.quantile(0.95)?,
            p99: self.quantile(0.99)?,
        })
    }

    fn bytes(&self) -> usize {
        // len, not capacity: the audit must be a function of sketch
        // *content* so reports stay shard-count invariant.
        std::mem::size_of::<Self>() + self.counts.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact rank of `v` in sorted `data` (fraction strictly below).
    fn exact_rank(data: &[f64], v: f64) -> f64 {
        let below = data.iter().filter(|&&x| x < v).count();
        below as f64 / data.len() as f64
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for v in [1.0, 1.5, 7.0, 100.0, 12_345.6, 2.0e6] {
            let mid = value_of(bucket_of(v));
            assert!(
                ((mid - v) / v).abs() <= 1.0 / 128.0,
                "bucket midpoint {mid} too far from {v}"
            );
        }
    }

    #[test]
    fn quantiles_have_small_rank_error() {
        // A deterministic lognormal-ish sample via inverse-ish transform.
        let mut data: Vec<f64> = (0..50_000u64)
            .map(|i| {
                let u = (i as f64 + 0.5) / 50_000.0;
                (4.4 + 1.4 * (u / (1.0 - u)).ln() * 0.55).exp().floor() + 1.0
            })
            .collect();
        let mut sk = LogQuantileSketch::new();
        for &x in &data {
            sk.insert_value(x);
        }
        data.sort_by(f64::total_cmp);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let est = sk.quantile(q).unwrap();
            let rank = exact_rank(&data, est);
            assert!(
                (rank - q).abs() <= 0.01,
                "rank error at q={q}: estimate {est} has rank {rank}"
            );
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let vals: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 1.7).collect();
        let mut whole = LogQuantileSketch::new();
        let mut a = LogQuantileSketch::new();
        let mut b = LogQuantileSketch::new();
        for (i, &v) in vals.iter().enumerate() {
            whole.insert_value(v);
            if i % 3 == 0 {
                a.insert_value(v);
            } else {
                b.insert_value(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn ccdf_starts_at_one_and_decreases() {
        let mut sk = LogQuantileSketch::new();
        for v in [1.0, 2.0, 4.0, 8.0, 16.0] {
            sk.insert_value(v);
        }
        let pts = sk.ccdf_points();
        assert!((pts[0].1 - 1.0).abs() < 1e-12);
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 > w[1].1);
        }
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let sk = LogQuantileSketch::new();
        assert_eq!(sk.quantile(0.5), None);
        assert!(sk.ccdf_points().is_empty());
        assert!(sk.estimate().is_none());
    }
}
