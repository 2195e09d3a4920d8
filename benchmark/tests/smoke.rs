//! Drives the whole suite at smoke scale, so every workload's code path
//! and correctness gate runs in seconds, and pins what the results must
//! look like: which layers a workload exercises, which it must not, and
//! that a smoke result cannot be passed off as a baseline.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lsw-benchmark"))
        .args(args)
        .output()
        .expect("spawn lsw-benchmark")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn number(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .fold(v, |v, key| {
            v.field(key).unwrap_or_else(|e| panic!("{path:?}: {e}"))
        })
        .as_f64()
        .unwrap_or_else(|| panic!("{path:?}: not a number"))
}

/// Layers a workload must show time in, and layers it must not touch:
/// the "must move" / "must not move" columns of BENCHMARK.md.
const LAYERS: [(&str, &[&str], &[&str]); 7] = [
    (
        "generate_matched7",
        &[
            "core.generator.busy_s",
            "sim.run.busy_s",
            "trace.wms.format.busy_s",
        ],
        &["trace.wms.parse.busy_s", "analysis.session_layer.busy_s"],
    ),
    (
        "batch_paper7",
        &[
            "trace.ltc.decode.busy_s",
            "trace.sanitize.busy_s",
            "trace.session.busy_s",
            "analysis.client_layer.busy_s",
            "analysis.session_layer.busy_s",
            "analysis.transfer_layer.busy_s",
            "analysis.report.to_json.busy_s",
            "analysis.columnar.busy_s",
        ],
        &[
            "trace.wms.parse.busy_s",
            "stream.ingest_ltc.busy_s",
            "core.generator.busy_s",
        ],
    ),
    (
        "stream_matched7",
        &[
            "trace.wms.parse.busy_s",
            "trace.ltc.encode.busy_s",
            "trace.ltc.decode.busy_s",
            "stream.ingest_text.busy_s",
            "stream.ingest_ltc.busy_s",
            "stream.finalize.busy_s",
            "stream.sketch_bytes",
        ],
        &["trace.sanitize.busy_s", "analysis.session_layer.busy_s"],
    ),
    (
        "virtual_loop_paper7",
        &[
            "trace.schedule.from_ltc.busy_s",
            "stream.ingest_entries.busy_s",
            "replay.virt.busy_s",
            "replay.diff.busy_s",
            "edge.plan_feeds.busy_s",
            "edge.virt.busy_s",
            "edge.virt.subscriptions",
        ],
        &["replay.drive.busy_s", "edge.run_edge.busy_s"],
    ),
    (
        "live_saturated",
        &[
            "replay.server.start.busy_s",
            "replay.drive.busy_s",
            "replay.server.finish.busy_s",
            "replay.server.bytes_sent",
            "replay.driver.connects",
            "stream.tap.transfers",
        ],
        &[
            "edge.run_edge.busy_s",
            "replay.virt.busy_s",
            "replay.server.truncated",
        ],
    ),
    (
        "live_churn",
        &[
            "replay.drive.busy_s",
            "replay.server.conns",
            "stream.tap.transfers",
        ],
        &["edge.run_edge.busy_s", "replay.server.bad_requests"],
    ),
    (
        "edge_hot",
        &[
            "edge.run_edge.busy_s",
            "edge.subscriptions",
            "edge.upstream_bytes",
            "edge.delivered_bytes",
            "edge.egress_ratio",
        ],
        &[
            "replay.drive.busy_s",
            "edge.truncated",
            "edge.upstream_busy",
        ],
    ),
];

#[test]
fn smoke_suite_runs_every_workload_and_is_not_comparable() {
    let out = scratch("smoke-suite");
    let dir = out.to_str().expect("utf-8 path");
    let run = bench(&[
        "--scale",
        "smoke",
        "--seed",
        "1",
        "--seconds",
        "0",
        "--reps",
        "2",
        "--out",
        dir,
    ]);
    assert!(
        run.status.success(),
        "suite failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(out.join("result.json")).expect("result.json");
    let result: Value = serde_json::from_str(&text).expect("result.json parses");
    assert_eq!(result.field("comparable").unwrap().as_bool(), Some(false));
    assert_eq!(result.field("scale").unwrap().as_str(), Some("smoke"));
    assert!(number(&result, &["host", "nproc"]) >= 2.0);
    let workloads = result.field("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), LAYERS.len());

    for (w, (name, busy, idle)) in workloads.iter().zip(LAYERS) {
        assert_eq!(w.field("name").unwrap().as_str(), Some(name));
        assert!(number(w, &["attempted"]) >= 1.0, "{name}");
        assert_eq!(number(w, &["failed"]), 0.0, "{name}");
        // cpu_s ticks in 10 ms steps, which a smoke pass may not reach.
        for metric in [
            "setup_s",
            "wall_s",
            "peak_rss_mib",
            "transfers_per_s",
            "io_gb_per_s",
        ] {
            let values = w.field("end_to_end").unwrap().field(metric).unwrap();
            let values = values.field("values").unwrap().as_array().unwrap();
            assert_eq!(values.len(), 2, "{name} {metric}");
            assert!(
                values.iter().all(|v| v.as_f64().unwrap() > 0.0),
                "{name} {metric}"
            );
        }
        for layer in busy {
            assert!(
                number(w, &["per_layer", layer, "value"]) > 0.0,
                "{name} {layer}"
            );
        }
        for layer in idle {
            assert_eq!(
                number(w, &["per_layer", layer, "value"]),
                0.0,
                "{name} {layer}"
            );
        }
        assert!(
            number(w, &["per_layer", "trace.passes", "value"]) >= 1.0,
            "{name}"
        );

        let spans = std::fs::read_to_string(out.join(format!("spans-{name}.json"))).expect("spans");
        let spans: Value = serde_json::from_str(&spans).expect("spans parse");
        let spans = spans.as_array().unwrap();
        assert!(spans
            .iter()
            .any(|s| s.field("name").unwrap().as_str() == Some("pass")));
        assert!(spans
            .iter()
            .all(|s| s.field("workload").unwrap().as_str() == Some(name)));
    }

    // The A/A comparison tool refuses a smoke result outright.
    let result_path = out.join("result.json");
    let path = result_path.to_str().unwrap();
    let compared = bench(&["--compare", path, path]);
    assert!(!compared.status.success());
    assert!(String::from_utf8_lossy(&compared.stderr).contains("comparable"));
    // No data directory survives its run.
    let leftovers = std::fs::read_dir(&out).unwrap().flatten();
    assert!(leftovers
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .all(|n| !n.starts_with("data-")));
}

#[test]
fn one_run_prints_the_contract_line_and_repeats_for_a_seed() {
    let out = scratch("smoke-one");
    let dir = out.to_str().expect("utf-8 path");
    let line = |seed: &str| {
        let run = bench(&[
            "--workload",
            "generate_matched7",
            "--seed",
            seed,
            "--seconds",
            "0",
            "--trace",
            "0",
            "--scale",
            "smoke",
            "--out",
            dir,
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).expect("utf-8");
        serde_json::from_str::<Value>(stdout.lines().last().expect("a line")).expect("json")
    };
    let (a, b, c) = (line("5"), line("5"), line("6"));
    let keys = |v: &Value| match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        _ => panic!("not an object"),
    };
    assert_eq!(keys(&a), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        keys(a.field("metrics").unwrap()),
        [
            "setup_s",
            "wall_s",
            "cpu_s",
            "peak_rss_mib",
            "transfers_per_s",
            "io_gb_per_s"
        ]
    );
    assert_eq!(a.field("correct").unwrap().as_bool(), Some(true));
    // Same seed, same inputs; another seed, another dataset.
    assert_eq!(number(&a, &["attempted"]), number(&b, &["attempted"]));
    assert_ne!(number(&a, &["attempted"]), number(&c, &["attempted"]));
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1"][..],
        &["--workload", "edge_hot", "--scale", "huge"],
        &["--workload", "edge_hot", "--seed", "minus-one"],
        &["--compare", "only-one.json"],
    ] {
        let run = bench(args);
        assert!(!run.status.success(), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}
