//! Pins the bytes of the artefacts the `lsw` binary writes.
//!
//! One small seeded trace is generated as `ltc`, and six outputs are
//! rendered from it through the built binary:
//!
//! - the `ltc` bytes of `generate --emit ltc`;
//! - the `analyze --stream --json` report of that log;
//! - the `replay --virtual-time --json` report, flat;
//! - the same with `--topology origin:2:as` (`edge` section included);
//! - both replays again under admission caps (`--admission 4`, and
//!   `--origin-admission 2` for the overlay), so the release-before-
//!   arrival order reaches admission: the flat run rejects 818 of the
//!   1,509 transfers, the overlay rejects 534 and truncates 386.
//!
//! Each output's `(len, crc32)` is compared with constants captured on the
//! commit before the tick data plane, the alias sampler and the legacy WMS
//! parser were deleted (the two capped replays: on the commit before the
//! virtual executors left the timing wheel), so a refactor of any layer
//! these reach that moves a single byte fails here. The five reports were
//! re-cut when the client sample's table began to grow with the clients
//! seen: only their `sketch_bytes` values moved. The four replay reports
//! were re-cut again when the virtual executors began to log each
//! transfer at its arrival: only their `peak_heap_entries` values moved.
//!
//! The stream and replay reports record their shard count, which defaults
//! to the thread count, so every command runs with `LSW_THREADS=2`.
//!
//! Regenerate: `cargo test -p lsw --test artefacts`; the failure message
//! prints every artefact's actual `(len, crc32)`. A PR that changes an
//! artefact on purpose updates its constant and says why in CHANGES.md.

use lsw::trace::ltc::codec::crc32;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `(artefact, len, crc32)` captured on the parent commit.
const PINNED: [(&str, usize, u32); 6] = [
    ("generate --emit ltc", 43_620, 91_040_523),
    ("analyze --stream --json", 5_659, 1_348_436_908),
    ("replay --virtual-time --json", 8_849, 1_633_383_157),
    (
        "replay --virtual-time --topology origin:2:as --json",
        23_380,
        1_136_136_078,
    ),
    (
        "replay --virtual-time --admission 4 --json",
        7_995,
        3_894_884_529,
    ),
    (
        "replay --virtual-time --topology origin:2:as --admission 4 --origin-admission 2 --json",
        18_048,
        2_918_515_383,
    ),
];

/// Runs `lsw` with a fixed thread count, asserts success, and returns the
/// bytes it wrote to `out`.
fn render(args: &[&str], out: &Path) -> Vec<u8> {
    let run = Command::new(env!("CARGO_BIN_EXE_lsw"))
        .args(args)
        .env("LSW_THREADS", "2")
        .output()
        .expect("the lsw binary runs");
    assert!(run.status.success(), "{args:?} failed: {run:?}");
    std::fs::read(out).expect("the artefact was written")
}

#[test]
fn artefact_bytes_match_the_pinned_parent() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("artefacts");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the test directory is creatable");
    let path = |name: &str| dir.join(name);
    let arg = |p: &Path| p.to_str().expect("utf-8 path").to_owned();
    let (log, stream, flat, edge, flat_capped, edge_capped) = (
        path("t.ltc"),
        path("stream.json"),
        path("flat.json"),
        path("edge.json"),
        path("flat_capped.json"),
        path("edge_capped.json"),
    );

    let generate = render(
        &[
            "generate",
            "--days",
            "0.5",
            "--clients",
            "600",
            "--sessions",
            "1000",
            "--seed",
            "11",
            "--emit",
            "ltc",
            "--out",
            &arg(&log),
        ],
        &log,
    );
    let artefacts = [
        generate,
        render(
            &["analyze", &arg(&log), "--stream", "--json", &arg(&stream)],
            &stream,
        ),
        render(
            &[
                "replay",
                &arg(&log),
                "--virtual-time",
                "--json",
                &arg(&flat),
            ],
            &flat,
        ),
        render(
            &[
                "replay",
                &arg(&log),
                "--virtual-time",
                "--topology",
                "origin:2:as",
                "--json",
                &arg(&edge),
            ],
            &edge,
        ),
        render(
            &[
                "replay",
                &arg(&log),
                "--virtual-time",
                "--admission",
                "4",
                "--no-assert",
                "--json",
                &arg(&flat_capped),
            ],
            &flat_capped,
        ),
        render(
            &[
                "replay",
                &arg(&log),
                "--virtual-time",
                "--topology",
                "origin:2:as",
                "--admission",
                "4",
                "--origin-admission",
                "2",
                "--no-assert",
                "--json",
                &arg(&edge_capped),
            ],
            &edge_capped,
        ),
    ];

    let actual: Vec<(&str, usize, u32)> = PINNED
        .iter()
        .zip(&artefacts)
        .map(|(&(name, _, _), bytes)| (name, bytes.len(), crc32(bytes)))
        .collect();
    assert_eq!(
        actual, PINNED,
        "artefact bytes changed: (len, crc32) differ from the pinned parent"
    );
}
