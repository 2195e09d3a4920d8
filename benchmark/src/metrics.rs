//! The metric tables `BENCHMARK.json` is generated from, the result line,
//! and the order statistics shared by the runner and `--compare`.

use serde_json::Value;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
/// Passes at full scale take 1.6 to 2.8 s, so a run holds four to six;
/// the driver's 158 runs, set-ups included, then take about 2,200 s of
/// the 3,420 s it allows.
pub const RUN_SECONDS: u64 = 10;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Share of `parent` by which `change` is worse (negative: better).
    pub fn worse_by(self, parent: f64, change: f64) -> f64 {
        match self {
            Better::Lower => (change - parent) / parent,
            Better::Higher => (parent - change) / parent,
        }
    }
}

/// An end-to-end metric: what a user of the loop sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these, each the median over the
/// run's passes (`setup_s`: over the run's three set-ups; `peak_rss_mib`:
/// the largest pass). Failures are
/// not a metric here because a metric may never read 0: they are the
/// `attempted` / `failed` counts of the result line, and `failed` may not
/// rise at all.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "transfers_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "io_gb_per_s",
        unit: "GB/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// A per-layer metric. A workload that does not run the layer reports 0.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name: `<crate>.<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, from the traced passes. `*.busy_s` is span self
/// time; `*_cpu_s` / `*_wait_s` come from the thread sampler; the rest
/// are counts and ratios read from returned values and `Registry`
/// snapshots. Which end-to-end metric each should move, on which
/// workload, is tabulated in `BENCHMARK.md`.
pub const PER_LAYER: [Layer; 73] = [
    // generate_matched7
    lower("core.generator.busy_s", "s"),
    higher("core.generator.transfers", "count"),
    lower("sim.run.busy_s", "s"),
    lower("sim.congested_transfers", "count"),
    higher("sim.bytes_delivered", "B"),
    lower("trace.wms.format.busy_s", "s"),
    higher("trace.wms.format.mb_per_s", "MB/s"),
    // stream_matched7
    lower("trace.wms.parse.busy_s", "s"),
    higher("trace.wms.parse.lines_per_s", "1/s"),
    lower("trace.ltc.encode.busy_s", "s"),
    lower("trace.ltc.bytes_per_record", "B"),
    lower("trace.ltc.decode.busy_s", "s"),
    lower("stream.ingest_text.busy_s", "s"),
    lower("stream.ingest_ltc.busy_s", "s"),
    lower("stream.finalize.busy_s", "s"),
    lower("stream.sketch_bytes", "B"),
    lower("stream.peak_heap_entries", "count"),
    lower("stream.peak_active_sessions", "count"),
    // batch_paper7
    lower("trace.sanitize.busy_s", "s"),
    lower("trace.session.busy_s", "s"),
    lower("analysis.client_layer.busy_s", "s"),
    lower("analysis.session_layer.busy_s", "s"),
    lower("analysis.transfer_layer.busy_s", "s"),
    lower("analysis.report.to_json.busy_s", "s"),
    lower("analysis.report.json_mb", "MB"),
    lower("analysis.columnar.busy_s", "s"),
    // virtual_loop_paper7
    lower("trace.schedule.from_ltc.busy_s", "s"),
    lower("stream.ingest_entries.busy_s", "s"),
    lower("replay.virt.busy_s", "s"),
    lower("replay.diff.busy_s", "s"),
    lower("replay.diff.max_rel_err", "ratio"),
    lower("edge.plan_feeds.busy_s", "s"),
    lower("edge.virt.busy_s", "s"),
    lower("edge.virt.egress_ratio", "ratio"),
    lower("edge.virt.subscriptions", "count"),
    // every workload: how the traced passes relate to the timed ones
    lower("trace.unattributed_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    // live_saturated, live_churn
    lower("replay.server.start.busy_s", "s"),
    lower("replay.drive.busy_s", "s"),
    lower("replay.server.finish.busy_s", "s"),
    lower("replay.server.reactor_cpu_s", "s"),
    lower("replay.server.reactor_wait_s", "s"),
    lower("replay.server.accept_cpu_s", "s"),
    lower("replay.server.cpu_ms_per_gb", "ms/GB"),
    lower("replay.server.cpu_us_per_conn", "us"),
    higher("replay.server.conns", "count"),
    lower("replay.server.pacing_error_p50_us", "us"),
    lower("replay.server.pacing_error_p99_us", "us"),
    lower("replay.server.transfer_wall_p99_ms", "ms"),
    lower("replay.server.backlog_p99_bytes", "B"),
    lower("replay.server.truncated", "count"),
    lower("replay.server.slow_dropped", "count"),
    lower("replay.server.bad_requests", "count"),
    higher("replay.server.bytes_sent", "B"),
    lower("replay.driver.cpu_s", "s"),
    lower("replay.driver.wait_s", "s"),
    lower("replay.driver.lateness_p99_ms", "ms"),
    higher("replay.driver.connects", "count"),
    higher("stream.tap.transfers", "count"),
    // edge_hot
    lower("edge.run_edge.busy_s", "s"),
    lower("edge.relay.cpu_s", "s"),
    lower("edge.relay.wait_s", "s"),
    lower("edge.origin.cpu_s", "s"),
    lower("edge.driver.cpu_s", "s"),
    lower("edge.egress_ratio", "ratio"),
    lower("edge.subscriptions", "count"),
    lower("edge.upstream_bytes", "B"),
    higher("edge.delivered_bytes", "B"),
    lower("edge.ring.laps", "count"),
    lower("edge.ring.lag_p99_bytes", "B"),
    lower("edge.truncated", "count"),
    lower("edge.upstream_busy", "count"),
    // every workload: passes the traced run made
    higher("trace.passes", "count"),
];

/// The benchmark directory, as `BENCHMARK.json` names it.
pub const BENCHMARK_DIR: &str = "benchmark";

/// A JSON object from `(key, value)` pairs, in the order given.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn string(s: &str) -> Value {
    Value::Str(s.into())
}

/// `BENCHMARK.json`, generated so the file and the program cannot drift
/// (`tests/manifest.rs` compares them).
pub fn manifest(workloads: &[(&str, &str)]) -> Value {
    let manifest_path = format!("{BENCHMARK_DIR}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &manifest_path,
        "--",
    ];
    object(vec![
        (
            "command",
            Value::Array(command.iter().map(|s| string(s)).collect()),
        ),
        ("paths", Value::Array(vec![string(BENCHMARK_DIR)])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                workloads
                    .iter()
                    .map(|(name, why)| object(vec![("name", string(name)), ("why", string(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", string(m.name)),
                            ("unit", string(m.unit)),
                            ("better", string(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", string(m.name)),
                            ("unit", string(m.unit)),
                            ("better", string(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The last line of a run's standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name,
                object(vec![("value", Value::F64(value)), ("unit", string(unit))]),
            )
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(true)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", object(metrics)),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}

/// Median; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — what the driver computes. `None`
/// for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 for fewer than two
/// values.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), Some((10.0, 30.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 0, &[("wall_s", "s", 1.25)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
