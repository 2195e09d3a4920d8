//! Workspace file discovery, classification, and the `--diff-only`
//! changed-file filter.

use crate::rules::FileClass;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Modules blessed to use unordered reductions: the deterministic k-way
/// merge implementations themselves (they establish the order everyone
/// else must preserve).
const BLESSED_REDUCTION_FILES: &[&str] = &["crates/stream/src/coord.rs"];

/// Per-record ingest hot paths, where L006 forbids allocating text
/// conversions: the wms byte scanner, the ltc block codec, and the
/// streaming ingest loop with its reorder buffer.
const INGEST_HOT_FILES: &[&str] = &[
    "crates/trace/src/wms.rs",
    "crates/stream/src/ingest.rs",
    "crates/stream/src/reorder.rs",
];

/// Directory prefixes whose every file is an ingest hot path.
const INGEST_HOT_DIRS: &[&str] = &["crates/trace/src/ltc/"];

/// Crates whose non-bin sources participate in the L007 lock-order
/// graph and seed the L008 reachability walk: the multithreaded replay
/// harness, the shard-parallel streaming pipeline, and the relay
/// overlay.
const LOCK_SCOPE_CRATES: &[&str] = &["replay", "stream", "edge"];

/// Files under the bounded-memory contract (L009): streaming ingest
/// state, the replay backlog/driver/metrics, and the shard coordinator.
const BOUNDED_MEM_FILES: &[&str] = &[
    "crates/replay/src/server.rs",
    "crates/replay/src/driver.rs",
    "crates/replay/src/metrics.rs",
    "crates/replay/src/payload.rs",
    "crates/replay/src/reactor.rs",
    "crates/replay/src/slab.rs",
    "crates/replay/src/wheel.rs",
    "crates/stream/src/ingest.rs",
    "crates/stream/src/reorder.rs",
    "crates/stream/src/coord.rs",
    "crates/edge/src/ring.rs",
    "crates/edge/src/relay.rs",
];

/// Blessed bounded containers: growth bounded by construction (the
/// fixed-k reservoir/top-k structures), so L009 stays silent inside.
const BOUNDED_CONTAINER_FILES: &[&str] = &["crates/stream/src/sample.rs"];

/// Wire-format/codec files where L011 polices lossy `as` casts.
const WIRE_PATH_FILES: &[&str] = &["crates/replay/src/proto.rs", "crates/trace/src/wms.rs"];

/// Directory prefixes whose every file is a wire path (the ltc codec).
const WIRE_PATH_DIRS: &[&str] = &["crates/trace/src/ltc/"];

/// Locates the workspace root: the directory two levels above this
/// crate's manifest (`crates/xtask` → repo root).
pub fn workspace_root() -> PathBuf {
    let manifest = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// One file selected for linting.
#[derive(Debug, Clone)]
pub struct LintFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    pub class: FileClass,
}

/// Classifies a workspace-relative path (`crates/<name>/src/…`).
pub fn classify(rel_path: &str) -> FileClass {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or_default()
        .to_owned();
    let is_bin = rel_path.contains("/src/bin/") || rel_path.ends_with("/src/main.rs");
    let blessed_reduction = BLESSED_REDUCTION_FILES.contains(&rel_path)
        || rel_path
            .rsplit('/')
            .next()
            .is_some_and(|f| f.contains("merge"));
    let ingest_hot = INGEST_HOT_FILES.contains(&rel_path)
        || INGEST_HOT_DIRS.iter().any(|d| rel_path.starts_with(d));
    let lock_scope = !is_bin && LOCK_SCOPE_CRATES.contains(&crate_name.as_str());
    let bounded_mem = BOUNDED_MEM_FILES.contains(&rel_path);
    let bounded_container = BOUNDED_CONTAINER_FILES.contains(&rel_path);
    let wire_path = WIRE_PATH_FILES.contains(&rel_path)
        || WIRE_PATH_DIRS.iter().any(|d| rel_path.starts_with(d));
    FileClass {
        crate_name,
        is_bin,
        blessed_reduction,
        ingest_hot,
        lock_scope,
        bounded_mem,
        bounded_container,
        wire_path,
    }
}

/// True for paths the linter covers at all: first-party crate sources,
/// excluding each crate's own `tests/` and `benches/` trees (test code is
/// exempt) and the vendored stand-ins.
pub fn in_scope(rel_path: &str) -> bool {
    rel_path.starts_with("crates/") && rel_path.ends_with(".rs") && rel_path.contains("/src/")
}

/// Collects every in-scope `.rs` file under `root`, sorted by path so
/// output order is stable.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<LintFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut stack = vec![crates_dir];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue, // e.g. crates/ missing in a partial checkout
        };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = rel_to(root, &path);
                if in_scope(&rel) {
                    out.push(LintFile {
                        class: classify(&rel),
                        rel_path: rel,
                        abs_path: path,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

fn rel_to(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Returns the set of files changed relative to `base` (a git rev;
/// defaults to `HEAD`), plus untracked files. Used by `--diff-only` so CI
/// can lint just a PR's delta.
pub fn changed_files(root: &Path, base: &str) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    let diff = git(root, &["diff", "--name-only", base])?;
    files.extend(diff.lines().map(str::to_owned));
    let status = git(root, &["status", "--porcelain"])?;
    for line in status.lines() {
        if let Some(path) = line.strip_prefix("?? ") {
            files.push(path.trim().to_owned());
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .map_err(|e| format!("failed to run git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let c = classify("crates/stream/src/hll.rs");
        assert_eq!(c.crate_name, "stream");
        assert!(!c.is_bin);
        assert!(!c.blessed_reduction);

        assert!(classify("crates/lsw/src/bin/lsw.rs").is_bin);
        assert!(classify("crates/xtask/src/main.rs").is_bin);
        assert!(classify("crates/stream/src/coord.rs").blessed_reduction);
        assert!(classify("crates/core/src/kway_merge.rs").blessed_reduction);

        assert!(classify("crates/trace/src/wms.rs").ingest_hot);
        assert!(classify("crates/trace/src/ltc/codec.rs").ingest_hot);
        assert!(classify("crates/stream/src/ingest.rs").ingest_hot);
        assert!(!classify("crates/stream/src/hll.rs").ingest_hot);

        // Interprocedural scopes.
        assert!(classify("crates/replay/src/server.rs").lock_scope);
        assert!(classify("crates/stream/src/coord.rs").lock_scope);
        assert!(classify("crates/edge/src/relay.rs").lock_scope);
        assert!(!classify("crates/replay/src/bin/lsw-replay.rs").lock_scope);
        assert!(!classify("crates/core/src/session.rs").lock_scope);

        assert!(classify("crates/replay/src/server.rs").bounded_mem);
        assert!(classify("crates/replay/src/payload.rs").bounded_mem);
        assert!(classify("crates/replay/src/slab.rs").bounded_mem);
        assert!(classify("crates/replay/src/wheel.rs").bounded_mem);
        assert!(classify("crates/stream/src/ingest.rs").bounded_mem);
        assert!(classify("crates/edge/src/ring.rs").bounded_mem);
        assert!(!classify("crates/stream/src/hll.rs").bounded_mem);
        assert!(classify("crates/stream/src/sample.rs").bounded_container);

        assert!(classify("crates/replay/src/proto.rs").wire_path);
        assert!(classify("crates/trace/src/ltc/codec.rs").wire_path);
        assert!(classify("crates/trace/src/wms.rs").wire_path);
        assert!(!classify("crates/replay/src/server.rs").wire_path);
    }

    #[test]
    fn scope_excludes_tests_and_vendor() {
        assert!(in_scope("crates/stream/src/hll.rs"));
        assert!(!in_scope("crates/stream/tests/accuracy.rs"));
        assert!(!in_scope("vendor/rand/src/lib.rs"));
        assert!(!in_scope("tests/tests/stream_accuracy.rs"));
        assert!(!in_scope("crates/stream/src/data.txt"));
    }

    #[test]
    fn workspace_root_exists() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").exists());
    }
}
