//! CLI for the workspace static-analysis pass: `cargo xtask lint`.

use xtask::{apply_fixes, render_rules, run_lint, workspace, LintOptions};

const USAGE: &str = "\
Usage: cargo xtask <command> [options]

Commands:
  lint          Run the lsw static-analysis rules (L001–L003, L005–L011)
                over the workspace's first-party crates.
  rules         List the rules with one-line summaries.

Lint options:
  --json            Emit machine-readable JSON instead of text.
  --sarif           Emit a SARIF 2.1.0 document instead of text.
  --fix             Delete stale allow comments (L010 findings) in place,
                    then report what remains. Idempotent.
  --diff-only       Lint only files changed vs. --base (default HEAD),
                    plus untracked files. Intended for CI on PR deltas.
                    Note: the interprocedural rules (L007/L008) see only
                    the selected files and under-approximate there.
  --base <rev>      Git rev for --diff-only (e.g. origin/main).
  [paths…]          Explicit workspace-relative files to lint.

Exit status: 0 clean, 1 violations found, 2 usage or I/O error.";

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    match command.as_str() {
        "rules" | "--list-rules" => {
            print!("{}", render_rules());
            0
        }
        "lint" => lint(&args[1..]),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            0
        }
        other => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            2
        }
    }
}

fn lint(args: &[String]) -> i32 {
    let mut opts = LintOptions::default();
    let mut json = false;
    let mut sarif = false;
    let mut fix = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--fix" => fix = true,
            "--diff-only" => opts.diff_only = true,
            "--base" => match it.next() {
                Some(rev) => opts.diff_base = Some(rev.clone()),
                None => {
                    eprintln!("--base requires a git rev");
                    return 2;
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("unknown lint option `{flag}`\n\n{USAGE}");
                return 2;
            }
            path => opts.paths.push(path.replace('\\', "/")),
        }
    }
    let root = workspace::workspace_root();
    let mut report = match run_lint(&root, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lsw-xtask lint: {e}");
            return 2;
        }
    };
    if fix && !report.fixes.is_empty() {
        let fixed = match apply_fixes(&root, &report) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("lsw-xtask lint --fix: {e}");
                return 2;
            }
        };
        eprintln!("lsw-xtask lint --fix: rewrote {fixed} file(s)");
        // Re-lint so the printed report reflects the fixed tree.
        report = match run_lint(&root, &opts) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("lsw-xtask lint: {e}");
                return 2;
            }
        };
    }
    if sarif {
        print!("{}", report.render_sarif());
    } else if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    i32::from(!report.clean())
}
