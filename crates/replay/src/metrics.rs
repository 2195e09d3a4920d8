//! Lock-free replay observability: counters, gauges, and log-bucket
//! histograms behind a named registry.
//!
//! Hot paths touch only pre-acquired `Arc` handles — a metric update is
//! one relaxed atomic RMW, never a lock. The registry's mutex guards
//! *registration only* (done once, at startup) and snapshotting, which
//! runs on the exposition cadence, off every serving path.
//!
//! Histograms use the same power-law bucketing idea as
//! `lsw_stream::quantile` (geometric buckets, mid-bucket representative),
//! coarsened to power-of-two buckets so recording is a single atomic
//! increment at index `ilog2(v)`.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (active connections, backlog bytes, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one to the level.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one (saturating at zero under races only in value, not
    /// memory safety; callers pair inc/dec).
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets: values up to `2^63` land in-range.
const HIST_BUCKETS: usize = 64;

/// A log-bucket histogram of `u64` samples: bucket `b` covers
/// `[2^b, 2^(b+1))` (zero lands in bucket 0).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LogHistogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let b = if v == 0 { 0 } else { v.ilog2() as usize };
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Freezes the buckets for quantile math.
    pub fn freeze(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An immutable histogram capture.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// Total samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Quantile estimate: the geometric midpoint of the bucket holding
    /// rank `q * (n - 1)`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (n - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                let lo = if b == 0 {
                    0.0
                } else {
                    f64::powi(2.0, b as i32)
                };
                let hi = f64::powi(2.0, b as i32 + 1);
                return Some((lo * hi).max(1.0).sqrt());
            }
        }
        None
    }
}

/// A metric handle as held by the registry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LogHistogram>),
}

/// A snapshot value, one per registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(u64),
    /// Histogram summary: `(count, p50, p95, p99)`.
    Histogram(u64, f64, f64, f64),
}

/// Named metrics, registered once at startup, read on a cadence.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<(String, Metric)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-fetches) a counter by name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        // lsw::allow(L008): registration is a short bounded scan of a small fixed metric set
        let mut entries = self.entries.lock();
        for (n, m) in entries.iter() {
            if n == name {
                if let Metric::Counter(c) = m {
                    return Arc::clone(c);
                }
            }
        }
        let c = Arc::new(Counter::default());
        // lsw::allow(L009): bounded by the fixed set of registered metric names
        entries.push((name.to_string(), Metric::Counter(Arc::clone(&c))));
        c
    }

    /// Registers (or re-fetches) a gauge by name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock();
        for (n, m) in entries.iter() {
            if n == name {
                if let Metric::Gauge(g) = m {
                    return Arc::clone(g);
                }
            }
        }
        let g = Arc::new(Gauge::default());
        // lsw::allow(L009): bounded by the fixed set of registered metric names
        entries.push((name.to_string(), Metric::Gauge(Arc::clone(&g))));
        g
    }

    /// Registers (or re-fetches) a histogram by name.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        // lsw::allow(L008): registration is a short bounded scan of a small fixed metric set
        let mut entries = self.entries.lock();
        for (n, m) in entries.iter() {
            if n == name {
                if let Metric::Histogram(h) = m {
                    return Arc::clone(h);
                }
            }
        }
        let h = Arc::new(LogHistogram::default());
        // lsw::allow(L009): bounded by the fixed set of registered metric names
        entries.push((name.to_string(), Metric::Histogram(Arc::clone(&h))));
        h
    }

    /// Renders the aligned text exposition directly from the live
    /// metrics into a caller-owned buffer — the exposition-cadence
    /// twin of [`Snapshot::render`] that allocates nothing once the
    /// buffer has warmed up to the exposition's steady-state length
    /// (no name clones, no per-line `String`s, no `Snapshot`). The
    /// registration lock is held across the formatting, which is fine
    /// on the exposition cadence (registration is startup-only).
    pub fn render_text(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        let entries = self.entries.lock();
        let width = entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, m) in entries.iter() {
            let _ = match m {
                Metric::Counter(c) => writeln!(out, "{name:width$}  {}", c.get()),
                Metric::Gauge(g) => writeln!(out, "{name:width$}  {} (gauge)", g.get()),
                Metric::Histogram(h) => {
                    let f = h.freeze();
                    writeln!(
                        out,
                        "{name:width$}  n={} p50≈{:.0} p95≈{:.0} p99≈{:.0}",
                        f.count(),
                        f.quantile(0.50).unwrap_or(0.0),
                        f.quantile(0.95).unwrap_or(0.0),
                        f.quantile(0.99).unwrap_or(0.0),
                    )
                }
            };
        }
    }

    /// Captures every metric, in registration order.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock();
        let values = entries
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => SnapValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let f = h.freeze();
                        SnapValue::Histogram(
                            f.count(),
                            f.quantile(0.50).unwrap_or(0.0),
                            f.quantile(0.95).unwrap_or(0.0),
                            f.quantile(0.99).unwrap_or(0.0),
                        )
                    }
                };
                (name.clone(), v)
            })
            .collect();
        Snapshot { values }
    }
}

/// A point-in-time capture of every registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs in registration order.
    pub values: Vec<(String, SnapValue)>,
}

impl Snapshot {
    /// Aligned text exposition, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`render`](Self::render) into a caller-reused buffer (cleared
    /// first): no per-line allocations, and none at all once the buffer
    /// has seen its steady-state length.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        let width = self.values.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, v) in &self.values {
            let _ = match v {
                SnapValue::Counter(c) => writeln!(out, "{name:width$}  {c}"),
                SnapValue::Gauge(g) => writeln!(out, "{name:width$}  {g} (gauge)"),
                SnapValue::Histogram(n, p50, p95, p99) => {
                    writeln!(
                        out,
                        "{name:width$}  n={n} p50≈{p50:.0} p95≈{p95:.0} p99≈{p99:.0}"
                    )
                }
            };
        }
    }

    /// JSON object keyed by metric name.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        let fields = self
            .values
            .iter()
            .map(|(name, v)| {
                let jv = match v {
                    SnapValue::Counter(c) => Value::U64(*c),
                    SnapValue::Gauge(g) => Value::U64(*g),
                    SnapValue::Histogram(n, p50, p95, p99) => Value::Object(vec![
                        ("count".to_string(), Value::U64(*n)),
                        ("p50".to_string(), Value::F64(*p50)),
                        ("p95".to_string(), Value::F64(*p95)),
                        ("p99".to_string(), Value::F64(*p99)),
                    ]),
                };
                (name.clone(), jv)
            })
            .collect();
        Value::Object(fields)
    }

    /// Looks up a histogram by name: `(samples, p50, p95, p99)`.
    pub fn histogram(&self, name: &str) -> Option<(u64, f64, f64, f64)> {
        self.values.iter().find_map(|(n, v)| match v {
            SnapValue::Histogram(count, p50, p95, p99) if n == name => {
                Some((*count, *p50, *p95, *p99))
            }
            _ => None,
        })
    }

    /// Looks up a counter/gauge value by name.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| match v {
                SnapValue::Counter(c) => *c,
                SnapValue::Gauge(g) => *g,
                SnapValue::Histogram(n, ..) => *n,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("replay.connects");
        let g = r.gauge("replay.active");
        c.add(41);
        c.inc();
        g.set(7);
        g.inc();
        g.dec();
        let snap = r.snapshot();
        assert_eq!(snap.value("replay.connects"), Some(42));
        assert_eq!(snap.value("replay.active"), Some(7));
        assert!(snap.render().contains("replay.connects"));
    }

    #[test]
    fn reregistration_returns_the_same_metric() {
        let r = Registry::new();
        r.counter("x").add(5);
        r.counter("x").add(5);
        assert_eq!(r.snapshot().value("x"), Some(10));
        assert_eq!(r.snapshot().values.len(), 1);
    }

    #[test]
    fn histogram_quantiles_track_magnitude() {
        let h = LogHistogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let f = h.freeze();
        assert_eq!(f.count(), 1000);
        let p50 = f.quantile(0.5).unwrap();
        // Rank 499 is the sample 500, in bucket [256, 512); the estimate
        // is that bucket's geometric midpoint.
        assert!((256.0..512.0).contains(&p50), "p50 {p50}");
        assert!(f.quantile(0.99).unwrap() >= p50);
        assert!(LogHistogram::default().freeze().quantile(0.5).is_none());
    }

    #[test]
    fn exposition_reuses_the_buffer_after_warmup() {
        let r = Registry::new();
        let c = r.counter("a.count");
        let g = r.gauge("b.gauge");
        let h = r.histogram("c.hist");
        c.add(u64::MAX / 2); // widest the counter line will ever get
        g.set(123_456_789);
        for v in [1u64, 1000, 1 << 40] {
            h.record(v);
        }
        let mut buf = String::new();
        r.render_text(&mut buf); // warmup sizes the buffer once
        assert!(!buf.is_empty());
        let cap = buf.capacity();
        for i in 0..100u64 {
            c.inc();
            g.set(i);
            h.record(i);
            r.render_text(&mut buf);
        }
        assert_eq!(buf.capacity(), cap, "exposition must not grow after warmup");
        assert_eq!(buf, r.snapshot().render(), "both exposition paths agree");

        // The histogram quantiles are *on the wire*, not just in the
        // snapshot: the `--expose` loop prints exactly this buffer.
        let hist_line = buf
            .lines()
            .find(|l| l.starts_with("c.hist"))
            .expect("histogram line on the exposition wire");
        for field in ["n=", "p50≈", "p95≈", "p99≈"] {
            assert!(
                hist_line.contains(field),
                "histogram line must carry {field}: {hist_line:?}"
            );
        }
        // And they are the snapshot's values, rendered to the same
        // precision — the wire is not a stale or re-derived estimate.
        let (n, p50, p95, p99) = r.snapshot().histogram("c.hist").expect("c.hist registered");
        assert_eq!(n, 103); // 3 warmup records + 100 loop records
        let expect = format!("n={n} p50≈{p50:.0} p95≈{p95:.0} p99≈{p99:.0}");
        assert!(
            hist_line.ends_with(&expect),
            "wire {hist_line:?} must end with snapshot rendering {expect:?}"
        );
        // Sanity on the estimates themselves: the pow2-bucket midpoint
        // of the true quantile is within a factor of two, and the
        // ordering p50 <= p95 <= p99 always holds.
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 >= 1.0 && p99 <= 2.0 * (1u64 << 41) as f64);
    }

    #[test]
    fn zero_and_one_share_the_lowest_bucket() {
        let h = LogHistogram::default();
        h.record(0);
        h.record(1);
        let f = h.freeze();
        assert_eq!(f.count(), 2);
        // Bucket 0 covers [0, 2); its representative is floored at 1.
        assert_eq!(f.quantile(0.0), Some(1.0));
        assert_eq!(f.quantile(1.0), Some(1.0));
    }

    #[test]
    fn quantile_clamps_q_to_the_unit_interval() {
        let h = LogHistogram::default();
        for v in [3u64, 300, 30_000] {
            h.record(v);
        }
        let f = h.freeze();
        assert_eq!(f.quantile(-1.0), f.quantile(0.0));
        assert_eq!(f.quantile(7.0), f.quantile(1.0));
        assert!(f.quantile(0.0) < f.quantile(1.0));
    }

    #[test]
    fn snapshot_lookups_respect_the_metric_kind() {
        let r = Registry::new();
        r.counter("hits").add(3);
        let h = r.histogram("lat");
        h.record(10);
        h.record(20);
        let snap = r.snapshot();
        assert_eq!(snap.histogram("hits"), None);
        assert_eq!(snap.histogram("lat").map(|(n, ..)| n), Some(2));
        assert_eq!(
            snap.value("lat"),
            Some(2),
            "a histogram's value is its count"
        );
        assert_eq!(snap.value("missing"), None);
    }

    #[test]
    fn json_keys_follow_registration_order() {
        let r = Registry::new();
        r.gauge("z.level").set(4);
        r.counter("a.total").add(9);
        r.histogram("m.lat").record(100);
        let serde_json::Value::Object(fields) = r.snapshot().to_json() else {
            panic!("snapshot JSON is an object");
        };
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["z.level", "a.total", "m.lat"]);
        assert_eq!(fields[0].1, serde_json::Value::U64(4));
        assert_eq!(fields[1].1, serde_json::Value::U64(9));
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let r = Registry::new();
        let c = r.counter("n");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
