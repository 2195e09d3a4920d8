//! `lsw-xtask`: workspace static analysis for the lsw determinism and
//! soundness invariants.
//!
//! Entry point is `cargo xtask lint` (aliased in `.cargo/config.toml`).
//! The pass walks every first-party crate's `src/` tree, tokenizes each
//! file with the scanner in [`lexer`], extracts brace-matched items with
//! [`items`], applies the per-file rules in [`rules`] (L001–L003, L005,
//! L006, L009, L011), and runs the interprocedural rules in [`graph`]
//! (L007 lock order, L008 blocking-call reachability) over the whole file
//! set at once. Allow-comment bookkeeping lives here: [`analyze_sources`]
//! counts which `lsw::allow` annotations actually suppress something,
//! reports the stale ones as L010, surfaces the used ones as auditable
//! exemptions in `--json`/SARIF, and plans the `--fix` edits that strip
//! stale annotations. See `DESIGN.md` §10 and §14 for the rule catalog.

pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod workspace;

use rules::{Diagnostic, FileClass, RuleId};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One input file: classified source text, not yet lexed.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub rel_path: String,
    pub class: FileClass,
    pub src: String,
}

/// A fully lexed and item-extracted file, the unit the interprocedural
/// rules in [`graph`] consume.
#[derive(Debug)]
pub struct AnalyzedFile {
    pub rel_path: String,
    pub class: FileClass,
    pub src: String,
    pub lexed: lexer::Lexed,
    pub items: items::Items,
    /// Inclusive line ranges of `#[cfg(test)]` / `#[test]` items.
    pub test_spans: Vec<(usize, usize)>,
}

/// Lexes and item-extracts every source file.
fn analyze(sources: &[SourceFile]) -> Vec<AnalyzedFile> {
    sources
        .iter()
        .map(|s| {
            let lexed = lexer::lex(&s.src);
            let items = items::extract(&lexed.tokens);
            let test_spans = rules::test_spans(&lexed.tokens);
            AnalyzedFile {
                rel_path: s.rel_path.clone(),
                class: s.class.clone(),
                src: s.src.clone(),
                lexed,
                items,
                test_spans,
            }
        })
        .collect()
}

/// Every function L008's walk reaches from its roots across `sources`,
/// as `(path, impl owner, name)`; see [`graph::l008_reachable`].
pub fn l008_reachable(sources: &[SourceFile]) -> BTreeSet<(String, Option<String>, String)> {
    let analyzed = analyze(sources);
    graph::l008_reachable(&analyzed)
        .into_iter()
        .map(|(file, owner, name)| (analyzed[file].rel_path.clone(), owner, name))
        .collect()
}

/// A diagnostic bound to the file it was found in.
#[derive(Debug, Clone)]
pub struct FileDiagnostic {
    /// Workspace-relative path.
    pub path: String,
    pub diag: Diagnostic,
}

/// A finding waived by an in-source allow (kept for SARIF suppressions).
#[derive(Debug, Clone)]
pub struct WaivedDiagnostic {
    pub path: String,
    pub diag: Diagnostic,
    /// The reason text of the allow that waived it.
    pub reason: String,
}

/// One *used* allow annotation, surfaced so JSON/SARIF consumers can
/// audit every exemption in force.
#[derive(Debug, Clone)]
pub struct Exemption {
    /// The waived rule's id string (`"L005"`).
    pub rule: &'static str,
    pub path: String,
    /// 1-based line of the carrying comment.
    pub line: usize,
    pub file_wide: bool,
    pub reason: String,
}

/// Planned `--fix` edit: byte spans to delete from one file, each a
/// stale allow comment (expanded to the whole line when nothing else is
/// on it). Spans are disjoint and sorted ascending.
#[derive(Debug, Clone)]
pub struct FileFix {
    pub path: String,
    pub spans: Vec<(usize, usize)>,
}

/// Outcome of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    pub findings: Vec<FileDiagnostic>,
    /// Findings waived by in-source allows (for SARIF suppressions).
    pub waived: Vec<WaivedDiagnostic>,
    /// Every allow annotation that suppressed at least one finding.
    pub exemptions: Vec<Exemption>,
    /// Planned removals of stale allow comments, for `--fix`.
    pub fixes: Vec<FileFix>,
    /// Number of files scanned.
    pub scanned: usize,
}

impl LintReport {
    /// True when no rule fired.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report, one `path:line:col` row per
    /// finding plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: {} {}\n",
                f.path,
                f.diag.line,
                f.diag.col,
                f.diag.rule.id(),
                f.diag.message
            ));
        }
        let files: BTreeSet<&str> = self.findings.iter().map(|f| f.path.as_str()).collect();
        out.push_str(&format!(
            "lsw-xtask lint: {} violation(s) in {} file(s); {} file(s) scanned; \
             {} finding(s) waived by {} exemption(s)\n",
            self.findings.len(),
            files.len(),
            self.scanned,
            self.waived.len(),
            self.exemptions.len()
        ));
        out
    }

    /// Renders the machine-readable report. Hand-rolled JSON keeps the
    /// tool free of serializer dependencies; field order and array order
    /// are deterministic (findings sorted by path then position,
    /// exemptions likewise).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}{}\n",
                f.diag.rule.id(),
                json_escape(&f.path),
                f.diag.line,
                f.diag.col,
                json_escape(&f.diag.message),
                if i + 1 == self.findings.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"exemptions\": [\n");
        for (i, e) in self.exemptions.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"file_wide\": {}, \"reason\": \"{}\"}}{}\n",
                e.rule,
                json_escape(&e.path),
                e.line,
                e.file_wide,
                json_escape(&e.reason),
                if i + 1 == self.exemptions.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"total\": {},\n  \"waived\": {},\n  \"files_scanned\": {}\n}}\n",
            self.findings.len(),
            self.waived.len(),
            self.scanned
        ));
        out
    }

    /// Renders the SARIF 2.1.0 report (see [`sarif`]).
    pub fn render_sarif(&self) -> String {
        sarif::render(self)
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs the whole analysis pipeline over an in-memory file set:
/// per-file rules, interprocedural rules, allow accounting, stale-allow
/// detection (L010), exemption surfacing, and `--fix` planning.
///
/// This is the engine behind [`run_lint`]; tests drive it directly with
/// synthetic files. Note the interprocedural rules see only the files
/// given: under `--diff-only` or explicit paths, reachability and lock
/// closures under-approximate (documented in `DESIGN.md` §14) — CI runs
/// the full set.
pub fn analyze_sources(sources: &[SourceFile]) -> LintReport {
    let analyzed = analyze(sources);
    let allows: Vec<Vec<rules::Allow>> = analyzed
        .iter()
        .map(|f| rules::collect_allows(&f.lexed))
        .collect();

    // Phase 1: raw diagnostics — per-file rules plus the call-graph rules.
    let mut raw: Vec<(usize, Diagnostic)> = Vec::new();
    for (fi, f) in analyzed.iter().enumerate() {
        for d in rules::file_rules(&f.class, &f.lexed, &f.items) {
            raw.push((fi, d));
        }
    }
    raw.extend(graph::graph_rules(&analyzed));

    // Phase 2: allow filtering with usage accounting.
    let mut used: Vec<Vec<bool>> = allows.iter().map(|a| vec![false; a.len()]).collect();
    let mut report = LintReport {
        scanned: analyzed.len(),
        ..LintReport::default()
    };
    for (fi, d) in raw {
        let mut reason = None;
        for (ai, a) in allows[fi].iter().enumerate() {
            if a.covers(d.rule, d.line) {
                used[fi][ai] = true;
                reason.get_or_insert_with(|| a.reason.clone());
            }
        }
        match reason {
            Some(reason) => report.waived.push(WaivedDiagnostic {
                path: analyzed[fi].rel_path.clone(),
                diag: d,
                reason,
            }),
            None => report.findings.push(FileDiagnostic {
                path: analyzed[fi].rel_path.clone(),
                diag: d,
            }),
        }
    }

    // Phase 3: L010 — allows that suppressed nothing are themselves
    // findings. Test-code allows are skipped (test code is rule-exempt,
    // so its allows are definitionally unused), and `allow(L010)`
    // annotations are excluded from generation so a stale one cannot
    // suppress the report of its own staleness.
    let mut stale: Vec<(usize, usize)> = Vec::new();
    for (fi, f) in analyzed.iter().enumerate() {
        for (ai, a) in allows[fi].iter().enumerate() {
            if used[fi][ai] || a.rule == RuleId::L010.id() {
                continue;
            }
            if f.test_spans
                .iter()
                .any(|&(x, y)| x <= a.line && a.line <= y)
            {
                continue;
            }
            let d = Diagnostic {
                rule: RuleId::L010,
                line: a.line,
                col: a.col,
                message: format!(
                    "stale `lsw::allow{}({})` — it suppresses no finding; delete it or run \
                     `cargo xtask lint --fix`",
                    if a.file_wide { "-file" } else { "" },
                    a.rule
                ),
            };
            let mut reason = None;
            for (aj, other) in allows[fi].iter().enumerate() {
                if other.covers(RuleId::L010, d.line) {
                    used[fi][aj] = true;
                    reason.get_or_insert_with(|| other.reason.clone());
                }
            }
            match reason {
                Some(reason) => report.waived.push(WaivedDiagnostic {
                    path: f.rel_path.clone(),
                    diag: d,
                    reason,
                }),
                None => {
                    report.findings.push(FileDiagnostic {
                        path: f.rel_path.clone(),
                        diag: d,
                    });
                    stale.push((fi, ai));
                }
            }
        }
    }

    // Phase 4: exemptions — every allow that earned its keep.
    for (fi, f) in analyzed.iter().enumerate() {
        for (ai, a) in allows[fi].iter().enumerate() {
            if used[fi][ai] {
                report.exemptions.push(Exemption {
                    rule: a.rule,
                    path: f.rel_path.clone(),
                    line: a.line,
                    file_wide: a.file_wide,
                    reason: a.reason.clone(),
                });
            }
        }
    }

    // Phase 5: `--fix` planning. A comment is removed only when every
    // allow it carries is unused (one comment can carry several), and at
    // least one of them was reported stale; the span grows to the whole
    // line when nothing but whitespace surrounds the comment.
    let stale_set: BTreeSet<(usize, usize)> = stale.into_iter().collect();
    for (fi, f) in analyzed.iter().enumerate() {
        let mut by_comment: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (ai, a) in allows[fi].iter().enumerate() {
            by_comment.entry(a.comment_span).or_default().push(ai);
        }
        let mut spans = Vec::new();
        for (span, ais) in by_comment {
            let any_stale = ais.iter().any(|&ai| stale_set.contains(&(fi, ai)));
            let all_unused = ais.iter().all(|&ai| !used[fi][ai]);
            if any_stale && all_unused {
                spans.push(expand_fix_span(&f.src, span));
            }
        }
        if !spans.is_empty() {
            spans.sort_unstable();
            report.fixes.push(FileFix {
                path: f.rel_path.clone(),
                spans,
            });
        }
    }

    report.findings.sort_by(|a, b| {
        (&a.path, a.diag.line, a.diag.col, a.diag.rule).cmp(&(
            &b.path,
            b.diag.line,
            b.diag.col,
            b.diag.rule,
        ))
    });
    report
        .exemptions
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}

/// Expands a comment's byte span for deletion: the whole line (newline
/// included) when only whitespace surrounds it, otherwise the comment
/// plus the run of spaces before it (so `code(); // lsw::allow…` loses
/// its trailing blob cleanly).
fn expand_fix_span(src: &str, (start, end): (usize, usize)) -> (usize, usize) {
    let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
    let line_end = src[end..].find('\n').map_or(src.len(), |i| end + i + 1);
    let prefix_blank = src[line_start..start]
        .bytes()
        .all(|b| b == b' ' || b == b'\t');
    let suffix_blank = src[end..line_end]
        .bytes()
        .all(|b| b == b' ' || b == b'\t' || b == b'\n');
    if prefix_blank && suffix_blank {
        return (line_start, line_end);
    }
    let mut s = start;
    while s > line_start && matches!(src.as_bytes()[s - 1], b' ' | b'\t') {
        s -= 1;
    }
    (s, end)
}

/// Applies the report's planned `--fix` edits under `root`, deleting
/// stale allow comments bottom-up so earlier spans stay valid. Returns
/// the number of files rewritten. Idempotent: a second run plans no
/// edits because the stale comments are gone.
pub fn apply_fixes(root: &Path, report: &LintReport) -> Result<usize, String> {
    for fix in &report.fixes {
        let abs = root.join(&fix.path);
        let mut src =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", fix.path))?;
        for &(start, end) in fix.spans.iter().rev() {
            if end <= src.len() {
                src.replace_range(start..end, "");
            }
        }
        std::fs::write(&abs, src).map_err(|e| format!("writing {}: {e}", fix.path))?;
    }
    Ok(report.fixes.len())
}

/// Options for a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Lint only files changed relative to `diff_base` (plus untracked).
    pub diff_only: bool,
    /// Git rev to diff against; defaults to `HEAD`.
    pub diff_base: Option<String>,
    /// Explicit file list (workspace-relative); overrides discovery.
    pub paths: Vec<String>,
}

/// Runs the full lint pass over the workspace rooted at `root`.
pub fn run_lint(root: &Path, opts: &LintOptions) -> Result<LintReport, String> {
    // Explicit paths are linted verbatim — the caller named them, so the
    // default "first-party src only" scope filter does not apply (a missing
    // path is an error, not a silent zero-file scan).
    let files = if !opts.paths.is_empty() {
        let mut files = Vec::new();
        for p in &opts.paths {
            let abs = root.join(p);
            if !abs.is_file() {
                return Err(format!("no such file: {p}"));
            }
            files.push(workspace::LintFile {
                class: workspace::classify(p),
                rel_path: p.clone(),
                abs_path: abs,
            });
        }
        files
    } else {
        workspace::workspace_files(root).map_err(|e| format!("walking crates/: {e}"))?
    };
    let mut files = files;
    if opts.paths.is_empty() && opts.diff_only {
        let base = opts.diff_base.as_deref().unwrap_or("HEAD");
        let changed = workspace::changed_files(root, base)?;
        let changed: BTreeSet<String> = changed.into_iter().collect();
        files.retain(|f| changed.contains(&f.rel_path));
    }

    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let src = std::fs::read_to_string(&file.abs_path)
            .map_err(|e| format!("reading {}: {e}", file.rel_path))?;
        sources.push(SourceFile {
            rel_path: file.rel_path.clone(),
            class: file.class.clone(),
            src,
        });
    }
    Ok(analyze_sources(&sources))
}

/// Renders the `--list-rules` catalog.
pub fn render_rules() -> String {
    let mut out = String::new();
    for rule in RuleId::all() {
        out.push_str(&format!("{}  {}\n", rule.id(), rule.summary()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: path.to_owned(),
            class: FileClass {
                crate_name: krate.to_owned(),
                ..FileClass::default()
            },
            src: src.to_owned(),
        }
    }

    #[test]
    fn used_allow_becomes_exemption_not_finding() {
        let r = analyze_sources(&[file(
            "crates/core/src/a.rs",
            "core",
            "// lsw::allow(L005): infallible by construction\nfn f() { x.unwrap(); }\n",
        )]);
        assert!(r.clean(), "{:?}", r.findings);
        assert_eq!(r.waived.len(), 1);
        assert_eq!(r.exemptions.len(), 1);
        assert_eq!(r.exemptions[0].rule, "L005");
        assert_eq!(r.exemptions[0].reason, "infallible by construction");
        assert!(!r.exemptions[0].file_wide);
        assert!(r.fixes.is_empty());
    }

    #[test]
    fn stale_allow_is_l010_and_fixable() {
        let src = "// lsw::allow(L005): nothing here actually unwraps\nfn f() -> u8 { 3 }\n";
        let r = analyze_sources(&[file("crates/core/src/a.rs", "core", src)]);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].diag.rule, RuleId::L010);
        assert_eq!(r.findings[0].diag.line, 1);
        assert!(r.exemptions.is_empty());
        // The fix removes the whole line.
        assert_eq!(r.fixes.len(), 1);
        let (s, e) = r.fixes[0].spans[0];
        let fixed = format!("{}{}", &src[..s], &src[e..]);
        assert_eq!(fixed, "fn f() -> u8 { 3 }\n");
        // Idempotence: the fixed source plans no further edits.
        let r2 = analyze_sources(&[file("crates/core/src/a.rs", "core", &fixed)]);
        assert!(r2.clean() && r2.fixes.is_empty());
    }

    #[test]
    fn trailing_stale_allow_strips_comment_only() {
        let src = "fn f() -> u8 { 3 } // lsw::allow(L005): stale tail\n";
        let r = analyze_sources(&[file("crates/core/src/a.rs", "core", src)]);
        assert_eq!(r.fixes.len(), 1);
        let (s, e) = r.fixes[0].spans[0];
        let fixed = format!("{}{}", &src[..s], &src[e..]);
        assert_eq!(fixed, "fn f() -> u8 { 3 }\n");
    }

    #[test]
    fn stale_allows_in_test_code_are_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n    // lsw::allow(L005): test-side\n    \
                   #[test]\n    fn t() { x.unwrap(); }\n}\n";
        let r = analyze_sources(&[file("crates/core/src/a.rs", "core", src)]);
        assert!(r.clean(), "{:?}", r.findings);
        assert!(r.fixes.is_empty());
    }

    #[test]
    fn json_includes_exemptions() {
        let r = analyze_sources(&[file(
            "crates/core/src/a.rs",
            "core",
            "// lsw::allow-file(L005): generated shim\nfn f() { x.unwrap(); }\n",
        )]);
        let json = r.render_json();
        assert!(json.contains("\"exemptions\""));
        assert!(json.contains("\"rule\": \"L005\""));
        assert!(json.contains("\"file_wide\": true"));
        assert!(json.contains("\"reason\": \"generated shim\""));
    }

    #[test]
    fn allow_of_l010_waives_staleness() {
        // An allow kept for documentation value can itself be allowed.
        let src = "// lsw::allow(L010): kept while the feature is gated off\n\
                   // lsw::allow(L005): gated unwrap returns next PR\n\
                   fn f() -> u8 { 3 }\n";
        let r = analyze_sources(&[file("crates/core/src/a.rs", "core", src)]);
        assert!(r.clean(), "{:?}", r.findings);
        assert!(
            r.fixes.is_empty(),
            "waived staleness must not be fixed away"
        );
    }
}
