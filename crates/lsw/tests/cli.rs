//! Drives the built `lsw` binary: the only place flag validation and
//! run-to-run output determinism are checked at the real surface.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lsw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lsw"))
        .args(args)
        .output()
        .expect("the lsw binary runs")
}

/// A fresh per-test directory (tests run in parallel and must not share
/// files) holding one small generated `ltc` log.
fn generated_ltc(test: &str) -> (PathBuf, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the test directory is creatable");
    let log = dir.join("t.ltc").to_str().expect("utf-8 path").to_owned();
    let out = lsw(&[
        "generate",
        "--days",
        "0.25",
        "--clients",
        "300",
        "--sessions",
        "500",
        "--seed",
        "3",
        "--emit",
        "ltc",
        "--out",
        &log,
    ]);
    assert!(out.status.success(), "generate failed: {out:?}");
    (dir, log)
}

#[test]
fn characterize_json_is_byte_identical_run_to_run() {
    let (dir, log) = generated_ltc("determinism");
    let reports: Vec<Vec<u8>> = ["a.json", "b.json"]
        .iter()
        .map(|name| {
            let json = dir.join(name);
            let out = lsw(&["characterize", &log, "--json", json.to_str().unwrap()]);
            assert!(out.status.success(), "characterize failed: {out:?}");
            std::fs::read(json).unwrap()
        })
        .collect();
    assert!(reports[0].len() > 10_000, "report suspiciously small");
    assert!(reports[0] == reports[1], "two runs wrote different reports");
}

#[test]
fn generated_and_converted_text_logs_are_the_same_bytes() {
    // `generate --emit wms` and `convert` ltc -> wms both stream the text
    // through `wms::write_log`; from the same seed they must agree with
    // each other and with the in-memory `format_log`.
    let (dir, ltc) = generated_ltc("text");
    let direct = dir.join("direct.wms");
    let converted = dir.join("converted.wms");
    let out = lsw(&[
        "generate",
        "--days",
        "0.25",
        "--clients",
        "300",
        "--sessions",
        "500",
        "--seed",
        "3",
        "--out",
        direct.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "generate failed: {out:?}");
    let out = lsw(&["convert", &ltc, converted.to_str().unwrap()]);
    assert!(out.status.success(), "convert failed: {out:?}");

    let text = std::fs::read(&direct).unwrap();
    assert!(text.len() > 10_000, "log suspiciously small");
    assert!(text == std::fs::read(&converted).unwrap());
    let (entries, _) = lsw::trace::ltc::BlockReader::open(lsw::trace::ltc::SliceSource::new(
        &std::fs::read(&ltc).unwrap(),
    ))
    .and_then(|r| r.read_all())
    .unwrap();
    assert!(text[..] == lsw::trace::wms::format_log(&entries)[..]);
}

/// Runs every trace-reading mode on `log` with `flag` set to each of `bad`
/// (each must exit 2 naming the flag, without a panic) and to `boundary`
/// (each must succeed).
fn check_flag_in_every_mode(log: &str, flag: &str, bad: &[&str], boundary: &str) {
    let modes: [&[&str]; 4] = [
        &["characterize"],
        &["analyze"],
        &["analyze", "--stream"],
        &["analyze", "--compare"],
    ];
    for mode in modes {
        for value in bad.iter().chain([&boundary]) {
            let mut args = vec![mode[0], log];
            args.extend(&mode[1..]);
            args.extend([flag, value]);
            let out = lsw(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            if *value == boundary {
                assert!(out.status.success(), "{args:?} refused: {stderr}");
            } else {
                assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
                assert!(
                    stderr.contains(&format!("bad value for {flag}")),
                    "{args:?}: {stderr}"
                );
            }
        }
    }
}

#[test]
fn bad_timeout_exits_2_in_every_mode_without_panicking() {
    let (_dir, log) = generated_ltc("timeout");
    // The boundary itself is a valid timeout.
    check_flag_in_every_mode(&log, "--timeout", &["-5", "nan", "inf"], "0");
}

#[test]
fn bad_horizon_exits_2_in_every_mode_without_panicking() {
    let (_dir, log) = generated_ltc("horizon");
    // A one-second horizon drops every transfer and still characterizes.
    check_flag_in_every_mode(&log, "--horizon", &["0", "-1", "x"], "1");
}

#[test]
fn bad_days_exits_2_without_panicking() {
    // 100000 days is more seconds than a u32 horizon holds; it used to
    // saturate silently to a 49,710-day run.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-days");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the test directory is creatable");
    let log = dir.join("t.wms").to_str().expect("utf-8 path").to_owned();
    for value in ["0", "-1", "nan", "100000", "1"] {
        let out = lsw(&[
            "generate",
            "--days",
            value,
            "--clients",
            "300",
            "--sessions",
            "500",
            "--out",
            &log,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "--days {value}: {stderr}");
        if value == "1" {
            assert!(out.status.success(), "--days 1 refused: {stderr}");
        } else {
            assert_eq!(out.status.code(), Some(2), "--days {value}: {stderr}");
            assert!(
                stderr.contains("bad value for --days"),
                "--days {value}: {stderr}"
            );
        }
    }
}

#[test]
fn unknown_flags_exit_2_without_panicking() {
    // Flags are looked up by name, so without this check an unknown one
    // is ignored: a retired `--sampler alias` would quietly generate the
    // default workload and `--data-plane tick` would quietly serve on the
    // reactor.
    let (dir, log) = generated_ltc("unknown-flags");
    let out = dir.join("never.wms");
    let out = out.to_str().expect("utf-8 path");
    let cases: [(&str, &str, &[&str]); 4] = [
        (
            "generate",
            "--sampler",
            &["generate", "--sampler", "alias", "--out", out],
        ),
        (
            "generate",
            "--seeds",
            &["generate", "--seeds", "3", "--out", out],
        ),
        (
            "replay",
            "--data-plane",
            &["replay", &log, "--virtual-time", "--data-plane", "tick"],
        ),
        (
            "serve",
            "--data-plane",
            &["serve", &log, "--data-plane", "tick", "--for", "0"],
        ),
    ];
    for (cmd, flag, args) in cases {
        let run = lsw(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag} for {cmd}")),
            "{args:?}: {stderr}"
        );
    }
    assert!(!dir.join("never.wms").exists(), "generate ran anyway");
}

/// Runs each argument list in `dir` and requires it to succeed.
fn accepted(dir: &Path, runs: &[&[&str]]) {
    for args in runs {
        let out = Command::new(env!("CARGO_BIN_EXE_lsw"))
            .args(*args)
            .current_dir(dir)
            .output()
            .expect("the lsw binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} refused: {stderr}");
    }
}

#[test]
fn ci_generate_and_analyze_flags_are_accepted() {
    // The flag sets the CI workflow passes, at a tiny scale.
    let (dir, _log) = generated_ltc("ci-generate");
    accepted(
        &dir,
        &[
            &[
                "generate",
                "--threads",
                "2",
                "--seed",
                "7",
                "--sessions",
                "500",
                "--clients",
                "300",
                "--days",
                "0.25",
                "--out",
                "a.wms",
            ],
            &[
                "generate",
                "--simulate",
                "--threads",
                "1",
                "--seed",
                "7",
                "--sessions",
                "500",
                "--clients",
                "300",
                "--days",
                "0.25",
                "--out",
                "sim.wms",
            ],
            &["characterize", "a.wms", "--json", "report.json"],
            &["analyze", "a.wms", "--stream"],
            &["convert", "a.wms", "a.ltc"],
            &["convert", "a.ltc", "round.wms"],
            &["analyze", "a.ltc", "--stream", "--shards", "4"],
        ],
    );
    assert_eq!(
        std::fs::read(dir.join("a.wms")).expect("generated log"),
        std::fs::read(dir.join("round.wms")).expect("round-tripped log"),
    );
}

#[test]
fn ci_replay_flags_are_accepted() {
    // The virtual-time flag sets the CI workflow passes, at a tiny scale.
    let (dir, log) = generated_ltc("ci-replay");
    accepted(
        &dir,
        &[
            &["replay", &log, "--virtual-time", "--json", "v.json"],
            &[
                "replay",
                &log,
                "--virtual-time",
                "--topology",
                "origin:3:country",
                "--json",
                "e.json",
            ],
        ],
    );
    for json in ["v.json", "e.json"] {
        assert!(dir.join(json).exists(), "{json} not written");
    }
}

#[test]
fn every_subcommand_prints_its_usage_on_help() {
    // Each subcommand's flags, as its table in `lsw.rs` declares them.
    let commands: [(&str, &[&str]); 7] = [
        (
            "generate",
            &[
                "--days",
                "--clients",
                "--sessions",
                "--seed",
                "--threads",
                "--emit",
                "--out",
                "--simulate",
                "--scale-matched",
            ],
        ),
        (
            "characterize",
            &["--format", "--horizon", "--timeout", "--json"],
        ),
        (
            "analyze",
            &[
                "--format",
                "--shards",
                "--memory-budget",
                "--horizon",
                "--timeout",
                "--json",
                "--stream",
                "--compare",
            ],
        ),
        ("summary", &["--format", "--horizon"]),
        ("convert", &["--format"]),
        (
            "replay",
            &[
                "--format",
                "--compression",
                "--admission",
                "--workers",
                "--topology",
                "--origin-admission",
                "--expose",
                "--json",
                "--virtual-time",
                "--no-assert",
            ],
        ),
        (
            "serve",
            &[
                "--format",
                "--listen",
                "--compression",
                "--admission",
                "--workers",
                "--for",
                "--expose",
            ],
        ),
    ];
    let top = lsw(&["--help"]);
    assert!(top.status.success(), "lsw --help: {top:?}");
    let top = String::from_utf8_lossy(&top.stdout).into_owned();
    for (cmd, flags) in commands {
        for help in ["--help", "-h"] {
            let out = lsw(&[cmd, help]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!stderr.contains("panicked"), "lsw {cmd} {help}: {stderr}");
            assert!(out.status.success(), "lsw {cmd} {help}: {stderr}");
            let line = stdout
                .trim()
                .strip_prefix("usage: ")
                .unwrap_or_else(|| panic!("lsw {cmd} {help} printed no usage: {stdout}"));
            assert!(line.starts_with(&format!("lsw {cmd} ")), "{line}");
            for flag in flags {
                assert!(
                    line.contains(&format!("[{flag} ")) || line.contains(&format!("[{flag}]")),
                    "lsw {cmd} {help} omits {flag}: {line}"
                );
            }
            assert_eq!(line.matches("[--").count(), flags.len(), "{line}");
            assert!(top.contains(line), "lsw --help lacks `{line}`");
        }
    }
}
