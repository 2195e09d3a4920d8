//! Fixture tests: each known-violating file fires exactly the expected
//! rule ids at the expected lines, the clean file stays silent, and the
//! workspace itself lints clean (the acceptance invariant the CI job
//! enforces).

use std::path::Path;
use xtask::rules::{lint_source, FileClass, RuleId};
use xtask::{analyze_sources, run_lint, workspace, LintOptions, LintReport, SourceFile};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Fixtures are linted as library code of a deterministic-path crate, so
/// every rule is in scope.
fn fixture_class() -> FileClass {
    FileClass {
        crate_name: "stream".to_owned(),
        ..FileClass::default()
    }
}

fn fired(name: &str) -> Vec<(RuleId, usize)> {
    lint_source(&fixture_class(), &fixture(name))
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn l001_fires_on_hash_iteration() {
    assert_eq!(fired("l001.rs"), [(RuleId::L001, 5), (RuleId::L001, 11)]);
}

#[test]
fn l002_fires_on_ambient_nondeterminism() {
    assert_eq!(
        fired("l002.rs"),
        [(RuleId::L002, 5), (RuleId::L002, 10), (RuleId::L002, 15)]
    );
}

#[test]
fn l003_fires_on_float_accumulation_in_merge_participant() {
    assert_eq!(fired("l003.rs"), [(RuleId::L003, 11), (RuleId::L003, 15)]);
}

#[test]
fn l004_fires_on_unordered_rayon_reductions() {
    assert_eq!(fired("l004.rs"), [(RuleId::L004, 4), (RuleId::L004, 8)]);
}

#[test]
fn l005_fires_on_panicking_calls() {
    assert_eq!(
        fired("l005.rs"),
        [(RuleId::L005, 4), (RuleId::L005, 4), (RuleId::L005, 9)]
    );
}

#[test]
fn l005_unwrap_before_expect_on_same_line() {
    let diags = lint_source(&fixture_class(), &fixture("l005.rs"));
    assert!(diags[0].message.contains("unwrap"));
    assert!(diags[1].message.contains("expect"));
    assert!(diags[0].col < diags[1].col);
}

#[test]
fn l006_fires_on_ingest_hot_allocations() {
    // The fixture represents an ingest hot-path file, so lint it as one.
    let hot = FileClass {
        ingest_hot: true,
        ..fixture_class()
    };
    let diags: Vec<(RuleId, usize)> = lint_source(&hot, &fixture("l006.rs"))
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect();
    assert_eq!(diags, [(RuleId::L006, 5), (RuleId::L006, 9)]);
    // The same source is silent outside the hot-path scope.
    assert!(lint_source(&fixture_class(), &fixture("l006.rs")).is_empty());
}

#[test]
fn clean_fixture_is_clean() {
    assert_eq!(fired("clean.rs"), []);
}

#[test]
fn rules_respect_cli_exemptions() {
    // The same violating source is exempt in a binary target…
    let bin = FileClass {
        is_bin: true,
        ..fixture_class()
    };
    assert!(lint_source(&bin, &fixture("l005.rs")).is_empty());
    assert!(lint_source(&bin, &fixture("l002.rs")).is_empty());
    // …but hash iteration (L001) applies even to binaries: report output
    // produced by a bin must be deterministic too.
    assert!(!lint_source(&bin, &fixture("l001.rs")).is_empty());
}

#[test]
fn blessed_merge_module_may_reduce() {
    let blessed = FileClass {
        blessed_reduction: true,
        ..fixture_class()
    };
    assert!(lint_source(&blessed, &fixture("l004.rs")).is_empty());
}

/// Runs the whole-workspace analyzer over a single fixture file with the
/// given class (the interprocedural rules need [`analyze_sources`], not
/// the per-file [`lint_source`] path).
fn analyze_fixture(name: &str, class: FileClass) -> LintReport {
    analyze_sources(&[SourceFile {
        rel_path: format!("crates/fixture/src/{name}"),
        class,
        src: fixture(name),
    }])
}

fn finding_lines(report: &LintReport, rule: RuleId) -> Vec<usize> {
    report
        .findings
        .iter()
        .filter(|f| f.diag.rule == rule)
        .map(|f| f.diag.line)
        .collect()
}

fn waived_lines(report: &LintReport, rule: RuleId) -> Vec<usize> {
    report
        .waived
        .iter()
        .filter(|w| w.diag.rule == rule)
        .map(|w| w.diag.line)
        .collect()
}

fn lock_scope_class() -> FileClass {
    FileClass {
        crate_name: "replay".to_owned(),
        lock_scope: true,
        ..FileClass::default()
    }
}

#[test]
fn l007_fires_once_per_cycle_and_honors_allows() {
    let report = analyze_fixture("l007.rs", lock_scope_class());
    // One cycle between `a`/`b`, reported at the smallest witness site;
    // the consistent `c`→`d` order is silent; the `e`/`f` cycle is waived.
    assert_eq!(finding_lines(&report, RuleId::L007), [15], "{report:?}");
    assert_eq!(waived_lines(&report, RuleId::L007), [43]);
    assert!(report
        .exemptions
        .iter()
        .any(|e| e.rule == "L007" && e.reason.contains("startup barrier")));
    assert!(report.findings[0].diag.message.contains("`a`"));
    assert!(report.findings[0].diag.message.contains("`b`"));
}

#[test]
fn l008_flags_only_reachable_blocking_sites() {
    let report = analyze_fixture("l008.rs", lock_scope_class());
    // recv + sleep in worker_loop, plus the lock wait reached through
    // helper(); the allowed lock wait is waived; cold() is unreachable.
    assert_eq!(
        finding_lines(&report, RuleId::L008),
        [11, 12, 19],
        "{report:?}"
    );
    assert_eq!(waived_lines(&report, RuleId::L008), [14]);
    let helper_site = report
        .findings
        .iter()
        .find(|f| f.diag.line == 19)
        .expect("helper lock site");
    assert!(
        helper_site.diag.message.contains("reactor_loop → helper"),
        "call path named: {}",
        helper_site.diag.message
    );
}

#[test]
fn l009_fixture_positive_allowed_negative() {
    let class = FileClass {
        bounded_mem: true,
        ..fixture_class()
    };
    let report = analyze_fixture("l009.rs", class);
    assert_eq!(finding_lines(&report, RuleId::L009), [11], "{report:?}");
    assert_eq!(waived_lines(&report, RuleId::L009), [23]);
    assert!(report.exemptions.iter().any(|e| e.rule == "L009"));
}

fn l009_lines(class: &FileClass, src: &str) -> Vec<usize> {
    lint_source(class, src)
        .into_iter()
        .filter(|d| d.rule == RuleId::L009)
        .map(|d| d.line)
        .collect()
}

fn bounded_class() -> FileClass {
    FileClass {
        bounded_mem: true,
        ..fixture_class()
    }
}

#[test]
fn l009_probe_on_another_container_is_no_guard() {
    let src = "struct Backlog { q: Vec<u8> }\n\
               impl Backlog {\n\
                   fn add(&mut self, b: u8, other: &[u8]) {\n\
                       if other.len() > 4 { return; }\n\
                       self.q.push(b);\n\
                   }\n\
               }";
    assert_eq!(l009_lines(&bounded_class(), src), [5]);
}

#[test]
fn l009_probe_on_the_growing_field_against_a_bound_is_a_guard() {
    let src = "struct Backlog { q: Vec<u8> }\n\
               impl Backlog {\n\
                   fn add(&mut self, b: u8) {\n\
                       if self.q.len() < MAX {\n\
                           self.q.push(b);\n\
                       }\n\
                   }\n\
               }";
    assert!(l009_lines(&bounded_class(), src).is_empty());
}

/// A real workspace file rather than a synthetic fixture: the broadcast
/// ring evicts down to `MAX_CHUNKS` before it appends. Moving the append
/// ahead of that check must make L009 fire at the append in
/// `Broadcast::push`, although the method's parameter is named `len`.
#[test]
fn l009_fires_when_the_ring_appends_before_its_eviction_check() {
    let rel = "crates/edge/src/ring.rs";
    let path = workspace::workspace_root().join(rel);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let class = workspace::classify(rel);
    assert!(class.bounded_mem, "{rel} left the bounded-memory contract");
    assert!(l009_lines(&class, &src).is_empty());

    let append = "        self.chunks.push_back(chunk);\n";
    let counted = "        self.retained += len;\n";
    assert_eq!(src.matches(append).count(), 1, "append moved in {rel}");
    assert_eq!(src.matches(counted).count(), 1, "accounting moved in {rel}");
    let unguarded = src
        .replacen(append, "", 1)
        .replacen(counted, &format!("{counted}{append}"), 1);
    let push_line = 1 + unguarded[..unguarded.find(append).expect("append kept")]
        .matches('\n')
        .count();
    let push_fn = unguarded
        .find("pub fn push(")
        .map(|at| 1 + unguarded[..at].matches('\n').count())
        .expect("Broadcast::push");
    assert!(push_fn < push_line && push_line < push_fn + 20);
    assert_eq!(l009_lines(&class, &unguarded), [push_line]);
}

/// A `Backlog` whose `add` runs `check` and then pushes onto `q` (the
/// push sits on line 5). `other` is a second growable field.
fn backlog_with_check(check: &str) -> String {
    format!(
        "struct Backlog {{ q: Vec<u8>, other: Vec<u8>, ceiling: usize }}\n\
         impl Backlog {{\n\
             fn add(&mut self, b: u8) {{\n\
                 {check}\n\
                 self.q.push(b);\n\
             }}\n\
         }}"
    )
}

#[test]
fn l009_capacity_probe_on_the_growing_field_is_a_guard() {
    let src = backlog_with_check("if self.q.capacity() == self.q.len() { return; }");
    assert!(l009_lines(&bounded_class(), &src).is_empty());
}

#[test]
fn l009_is_full_probe_on_the_growing_field_is_a_guard() {
    let src = backlog_with_check("if self.q.is_full() { return; }");
    assert!(l009_lines(&bounded_class(), &src).is_empty());
}

#[test]
fn l009_truncate_on_the_growing_field_is_a_guard() {
    let src = backlog_with_check("self.q.truncate(self.ceiling);");
    assert!(l009_lines(&bounded_class(), &src).is_empty());
}

#[test]
fn l009_probe_on_a_sibling_field_is_no_guard() {
    let src = backlog_with_check("if self.other.len() >= self.ceiling { return; }");
    assert_eq!(l009_lines(&bounded_class(), &src), [5]);
}

#[test]
fn l009_a_named_limit_is_a_guard() {
    let src = backlog_with_check("if self.ceiling >= QUEUE_LIMIT { return; }");
    assert!(l009_lines(&bounded_class(), &src).is_empty());
}

#[test]
fn l009_a_named_budget_is_a_guard() {
    let src = backlog_with_check("if !self.budget.admit(1) { return; }");
    assert!(l009_lines(&bounded_class(), &src).is_empty());
}

#[test]
fn l009_check_after_the_growth_site_is_no_guard() {
    let src = "struct Backlog { q: Vec<u8> }\n\
               impl Backlog {\n\
                   fn add(&mut self, b: u8) {\n\
                       self.q.push(b);\n\
                       if self.q.len() > MAX { self.q.clear(); }\n\
                   }\n\
               }";
    assert_eq!(l009_lines(&bounded_class(), src), [4]);
}

#[test]
fn l009_check_in_another_fn_is_no_guard() {
    let src = "struct Backlog { q: Vec<u8> }\n\
               impl Backlog {\n\
                   fn full(&self) -> bool { self.q.len() >= MAX }\n\
                   fn add(&mut self, b: u8) {\n\
                       if self.full() { return; }\n\
                       self.q.push(b);\n\
                   }\n\
               }";
    assert_eq!(l009_lines(&bounded_class(), src), [6]);
}

#[test]
fn l009_growth_of_a_non_growable_field_is_silent() {
    let src = "struct Backlog { q: Ring<u8> }\n\
               impl Backlog {\n\
                   fn add(&mut self, b: u8) {\n\
                       self.q.push(b);\n\
                   }\n\
               }";
    assert!(l009_lines(&bounded_class(), src).is_empty());
}

#[test]
fn l009_fires_for_every_growth_method() {
    let src = "struct Backlog { v: Vec<u8>, d: VecDeque<u8>, m: BTreeMap<u8, u8>, s: String }\n\
               impl Backlog {\n\
                   fn add(&mut self, b: u8, more: &[u8]) {\n\
                       self.v.extend_from_slice(more);\n\
                       self.v.resize(9, b);\n\
                       self.d.push_front(b);\n\
                       self.d.extend(more.iter().copied());\n\
                       self.m.insert(b, b);\n\
                       self.s.push('x');\n\
                   }\n\
               }";
    assert_eq!(l009_lines(&bounded_class(), src), [4, 5, 6, 7, 8, 9]);
}

#[test]
fn l010_fixture_positive_allowed_negative() {
    let report = analyze_fixture("l010.rs", fixture_class());
    // The line-4 allow is stale; the line-9 allow is used; the line-13
    // staleness is waived by the allow(L010) above it.
    assert_eq!(finding_lines(&report, RuleId::L010), [4], "{report:?}");
    assert_eq!(waived_lines(&report, RuleId::L010), [13]);
    assert!(report
        .exemptions
        .iter()
        .any(|e| e.rule == "L005" && e.line == 9));
    assert!(report
        .exemptions
        .iter()
        .any(|e| e.rule == "L010" && e.line == 12));
}

#[test]
fn l010_fix_is_idempotent() {
    let report = analyze_fixture("l010.rs", fixture_class());
    assert_eq!(report.fixes.len(), 1);
    // Apply the planned spans bottom-up to the in-memory source.
    let mut src = fixture("l010.rs");
    for &(s, e) in report.fixes[0].spans.iter().rev() {
        src.replace_range(s..e, "");
    }
    assert!(!src.contains("nothing on the next line can panic"));
    assert!(src.contains("guarded by the caller"), "used allow survives");
    assert!(src.contains("lsw::allow(L010)"), "waiving allow survives");
    let fixed = analyze_sources(&[SourceFile {
        rel_path: "crates/fixture/src/l010.rs".to_owned(),
        class: fixture_class(),
        src,
    }]);
    assert!(fixed.clean(), "{:?}", fixed.findings);
    assert!(fixed.fixes.is_empty(), "second --fix plans no edits");
}

#[test]
fn l011_fixture_positive_allowed_negative() {
    let class = FileClass {
        wire_path: true,
        crate_name: "trace".to_owned(),
        ..FileClass::default()
    };
    let report = analyze_fixture("l011.rs", class);
    assert_eq!(finding_lines(&report, RuleId::L011), [5], "{report:?}");
    assert_eq!(waived_lines(&report, RuleId::L011), [18]);
}

#[test]
fn sarif_output_carries_results_and_suppressions() {
    let report = analyze_fixture("l010.rs", fixture_class());
    let sarif = report.render_sarif();
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"ruleId\": \"L010\""));
    assert!(sarif.contains("\"kind\": \"inSource\""));
    assert!(sarif.contains("guarded by the caller"));
}

#[test]
fn json_exposes_exemptions_for_audit() {
    let report = analyze_fixture("l010.rs", fixture_class());
    let json = report.render_json();
    assert!(json.contains("\"exemptions\""));
    assert!(json.contains("\"reason\": \"the unwrap below is guarded by the caller\""));
}

#[test]
fn json_output_is_well_formed_and_ordered() {
    let root = workspace::workspace_root();
    let report = run_lint(&root, &LintOptions::default()).expect("lint run");
    let json = report.render_json();
    assert!(json.starts_with("{\n  \"violations\": ["));
    assert!(json.contains("\"files_scanned\""));
    // Two runs over identical input render identically (stable order).
    let report2 = run_lint(&root, &LintOptions::default()).expect("lint run");
    assert_eq!(json, report2.render_json());
}

/// L008 finds its roots by name and returns quietly when none matches, so
/// a renamed or deleted data-plane loop would switch the rule off unseen.
#[test]
fn every_l008_root_is_defined_in_a_lock_scope_file() {
    let root = workspace::workspace_root();
    let files = workspace::workspace_files(&root).expect("workspace walk");
    let defined: Vec<String> = files
        .iter()
        .filter(|f| f.class.lock_scope)
        .flat_map(|f| {
            let src = std::fs::read_to_string(&f.abs_path).expect("readable source");
            xtask::items::extract(&xtask::lexer::lex(&src).tokens).fns
        })
        .map(|item| item.name)
        .collect();
    for name in xtask::graph::L008_ENTRY_FNS {
        assert!(
            defined.iter().any(|d| d == name),
            "L008 root `{name}` is not defined in any lock-scope file"
        );
    }
}

/// L008 resolves a method call by name, and only within one crate, so a
/// lifecycle step reached through a callback or a trait object would drop
/// out of its walk without any finding. Every per-connection step of both
/// serving nodes, and every function of the lifecycle they share, must
/// stay reachable from an `L008_ENTRY_FNS` root. Constructors (`new`)
/// run before a node's loop starts and are the only exception.
#[test]
fn l008_reaches_both_nodes_and_the_shared_lifecycle() {
    const REACTOR: &str = "crates/replay/src/reactor.rs";
    let root = workspace::workspace_root();
    let sources: Vec<SourceFile> = workspace::workspace_files(&root)
        .expect("workspace walk")
        .into_iter()
        .map(|f| SourceFile {
            src: std::fs::read_to_string(&f.abs_path).expect("readable source"),
            rel_path: f.rel_path,
            class: f.class,
        })
        .collect();
    let reached = xtask::l008_reachable(&sources);
    let is_reached =
        |path: &str, name: &str| reached.iter().any(|(p, _, n)| p == path && n == name);

    let steps: [(&str, &[&str]); 2] = [
        (
            "crates/replay/src/server.rs",
            &[
                "reactor_loop",
                "step_conn",
                "advance_reactor",
                "stream_step",
                "close",
                "log_tap",
                "account_backlog",
                "rate_for",
            ],
        ),
        (
            "crates/edge/src/relay.rs",
            &[
                "relay_loop",
                "step_conn",
                "settle",
                "client_done",
                "step_subscribers",
                "advance_client",
                "ensure_feed",
                "open_upstream",
                "serve_client",
                "advance_upstream",
                "close",
                "log_tap",
            ],
        ),
    ];
    for (path, names) in steps {
        for name in names {
            assert!(
                is_reached(path, name),
                "L008 no longer reaches `{name}` in {path}"
            );
        }
    }

    let reactor = sources
        .iter()
        .find(|f| f.rel_path == REACTOR)
        .expect("the shared lifecycle module");
    let lexed = xtask::lexer::lex(&reactor.src);
    let tests = xtask::rules::test_spans(&lexed.tokens);
    let fns: Vec<_> = xtask::items::extract(&lexed.tokens)
        .fns
        .into_iter()
        .filter(|f| f.name != "new" && !tests.iter().any(|&(a, b)| a <= f.line && f.line <= b))
        .collect();
    assert!(fns.len() >= 8, "found only {} lifecycle fns", fns.len());
    for f in fns {
        assert!(
            reached
                .iter()
                .any(|(p, owner, n)| p == REACTOR && *n == f.name && *owner == f.owner),
            "L008 no longer reaches `{}` in {REACTOR}",
            f.name
        );
    }
}

/// The acceptance invariant: the workspace's own first-party code passes
/// every rule. If this test fails, either fix the violation or annotate
/// it with `// lsw::allow(L00X): <reason>` — see DESIGN.md §10.
#[test]
fn workspace_lints_clean() {
    let root = workspace::workspace_root();
    let report = run_lint(&root, &LintOptions::default()).expect("lint run");
    assert!(
        report.clean(),
        "workspace lint violations:\n{}",
        report.render_text()
    );
    assert!(
        report.scanned > 50,
        "walker found only {} files",
        report.scanned
    );
}
