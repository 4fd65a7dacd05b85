//! The analyzer's actions behind `repro lint`: list findings, print the
//! canonical JSON report, or print the fork-label table. `repro lint`
//! parses its flags and fills [`Options`].

use crate::engine::{analyze_files, collect_workspace, Finding, Report};
use appvsweb_json::encode_pretty;
use std::path::PathBuf;

/// What one `repro lint` run does. With no action flag it analyzes the
/// workspace, lists every finding and exits 1 if there is any. When
/// both are set, `json` wins over `labels_only`.
#[derive(Debug)]
pub struct Options {
    /// Workspace root; `None` discovers it from the cwd.
    pub root: Option<PathBuf>,
    /// Print the full report as canonical JSON (always exits 0).
    pub json: bool,
    /// Print only the D3 fork-label table.
    pub labels_only: bool,
}

/// Run the analyzer as `opts` says; returns the process exit code
/// (0 clean, 1 findings, 2 I/O error).
pub fn run(opts: &Options) -> i32 {
    let root = match opts.root.clone().or_else(discover_root) {
        Some(root) => root,
        None => {
            eprintln!(
                "repro lint: could not find the workspace root (no Cargo.toml + \
                 crates/ above the cwd); pass --root"
            );
            return 2;
        }
    };

    let files = match collect_workspace(&root) {
        Ok(files) => files,
        Err(err) => {
            eprintln!(
                "repro lint: cannot read workspace at {}: {err}",
                root.display()
            );
            return 2;
        }
    };
    let report = analyze_files(&files);

    if opts.json {
        // Machine-readable mode: the canonical report (findings sorted
        // by path, line, rule), documented in DESIGN §10. Always exits
        // 0 so pipelines distinguish "ran and reported" from crashes.
        println!("{}", encode_pretty(&report));
        return 0;
    }
    if opts.labels_only {
        print_labels(&report);
        return 0;
    }

    println!(
        "appvsweb-lint: {} files, {} tokens, {} allow annotation(s)",
        report.files, report.tokens, report.allows
    );
    if !report.suppressed.is_empty() {
        let parts: Vec<String> = report
            .suppressed
            .iter()
            .map(|rc| format!("{} {}", rc.rule, rc.count))
            .collect();
        println!("suppressed by allow: {}", parts.join(", "));
    }
    print_findings(&report.findings);
    print_labels(&report);
    i32::from(!report.findings.is_empty())
}

fn entries(n: usize) -> &'static str {
    if n == 1 {
        "entry"
    } else {
        "entries"
    }
}

fn print_findings(findings: &[Finding]) {
    if findings.is_empty() {
        println!("findings: none");
        return;
    }
    println!("findings: {}", findings.len());
    for f in findings {
        println!("  [{}] {}:{} — {}", f.rule, f.path, f.line, f.message);
    }
}

fn print_labels(report: &Report) {
    let n = report.labels.len();
    println!("fork-label table ({n} {}):", entries(n));
    for site in &report.labels {
        println!("  {:<24} {}:{}", site.label, site.path, site.line);
    }
}

/// Walk up from the cwd to the first directory that looks like the
/// workspace root (has both `Cargo.toml` and `crates/`).
fn discover_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
