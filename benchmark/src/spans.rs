//! In-memory spans around the calls into each layer.
//!
//! A span is `{name, rep, start_ns, end_ns, parent}`; the workload is
//! stamped once on the dump. Spans are recorded from this benchmark's own
//! files, around public functions of the crates — nothing inside the
//! program is instrumented. A layer's busy time is its spans' *self*
//! time: duration minus what its direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

use crate::metrics::object;

/// One closed span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `trace.ltc.decode`.
    pub name: &'static str,
    /// Pass the span belongs to.
    pub rep: u32,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Name of the span that wraps one pass's timed region.
pub const PASS: &str = "pass";

/// Span recorder. When disabled, [`Spans::span`] only runs its closure:
/// the timed passes go through the same code with recording off.
#[derive(Debug)]
pub struct Spans {
    /// Whether spans are being recorded.
    pub enabled: bool,
    /// Pass number stamped on new spans.
    pub rep: u32,
    epoch: Instant,
    closed: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder, initially disabled.
    pub fn new() -> Self {
        Self {
            enabled: false,
            rep: 0,
            epoch: Instant::now(),
            closed: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the recorder it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.closed.len();
        self.closed.push(Span {
            name,
            rep: self.rep,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.closed[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Self seconds per span name within pass `rep`.
    pub fn busy_s(&self, rep: u32) -> BTreeMap<&'static str, f64> {
        let mut busy = BTreeMap::new();
        for (span, self_ns) in self.closed.iter().zip(self_times_ns(&self.closed)) {
            if span.rep == rep {
                *busy.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e9;
            }
        }
        busy
    }

    /// The dump written next to the results: one object per span.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .closed
            .iter()
            .map(|s| {
                object(vec![
                    ("name", Value::Str(s.name.into())),
                    ("workload", Value::Str(workload.into())),
                    ("rep", Value::U64(u64::from(s.rep))),
                    ("start_ns", Value::U64(s.start_ns)),
                    ("end_ns", Value::U64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                ])
            })
            .collect();
        Value::Array(spans)
    }
}

/// Self time of each span: its duration minus the durations of its direct
/// children (children of one parent never overlap: they are recorded by
/// one thread, one after another).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            rep: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(PASS, 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 60, 90, Some(0)),
            span("extra", 100, 140, None),
        ];
        assert_eq!(self_times_ns(&spans), [30, 30, 10, 30, 40]);
    }

    #[test]
    fn recorder_nests_and_sums_to_the_root() {
        let mut spans = Spans::new();
        spans.enabled = true;
        spans.rep = 3;
        let out = spans.span(PASS, |s| {
            let a = s.span("a", |s| s.span("a.inner", |_| 1) + 1);
            a + s.span("b", |_| 40)
        });
        assert_eq!(out, 42);
        let all = &spans.closed;
        let names: Vec<_> = all.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                (PASS, None),
                ("a", Some(0)),
                ("a.inner", Some(1)),
                ("b", Some(0))
            ]
        );
        assert!(all.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        let total: u64 = self_times_ns(all).iter().sum();
        assert_eq!(total, all[0].end_ns - all[0].start_ns);
        assert!(spans.busy_s(2).is_empty());
        assert_eq!(spans.busy_s(3).len(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new();
        assert_eq!(spans.span("a", |s| s.span("b", |_| 7)), 7);
        assert!(spans.closed.is_empty());
    }
}
