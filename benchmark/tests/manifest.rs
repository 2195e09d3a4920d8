//! `BENCHMARK.json` at the repository root is generated by `--manifest`;
//! this keeps the file and the program's tables from drifting apart.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_json_is_what_the_program_prints() {
    let printed = Command::new(env!("CARGO_BIN_EXE_lsw-benchmark"))
        .arg("--manifest")
        .output()
        .expect("spawn lsw-benchmark");
    assert!(printed.status.success());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        String::from_utf8_lossy(&printed.stdout).trim(),
        on_disk.trim(),
        "regenerate with: lsw-benchmark --manifest > BENCHMARK.json"
    );
}
