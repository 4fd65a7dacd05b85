//! The analyzer's actions behind `repro lint`: list findings, check
//! them against the baseline, print the canonical JSON report, rewrite
//! the baseline, or print the fork-label table. `repro lint`
//! parses its flags and fills [`Options`].

use crate::baseline::Baseline;
use crate::engine::{analyze_files, collect_workspace, Report};
use appvsweb_json::encode_pretty;
use std::path::{Path, PathBuf};

/// The committed baseline file name, at the workspace root.
pub const BASELINE_FILE: &str = "lint.baseline.json";

/// What one `repro lint` run does. With no action flag set it analyzes
/// the workspace and lists every finding. When several are set, `json`
/// wins, then `labels_only`, `fix_baseline` and `check`.
#[derive(Debug)]
pub struct Options {
    /// Workspace root; `None` discovers it from the cwd.
    pub root: Option<PathBuf>,
    /// Diff findings against the baseline; exit 1 on new ones.
    pub check: bool,
    /// Print the full report as canonical JSON (always exits 0).
    pub json: bool,
    /// Rewrite the baseline to accept the current findings.
    pub fix_baseline: bool,
    /// Print only the D3 fork-label table.
    pub labels_only: bool,
}

/// Run the analyzer as `opts` says; returns the process exit code
/// (0 clean, 1 findings/new findings, 2 I/O error).
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
    if opts.fix_baseline {
        let baseline = Baseline::from_report(&report);
        let path = root.join(BASELINE_FILE);
        if let Err(err) = std::fs::write(&path, baseline.to_json_text()) {
            eprintln!("repro lint: cannot write {}: {err}", path.display());
            return 2;
        }
        println!(
            "baseline rewritten: {} accepted finding(s) -> {}",
            baseline.findings.len(),
            path.display()
        );
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
    if opts.check {
        return check_against_baseline(&root, &report);
    }

    print_findings(&report.findings, "findings");
    print_labels(&report);
    i32::from(!report.findings.is_empty())
}

/// `--check`: diff `report` against the committed baseline. A missing
/// baseline file reads as an empty baseline.
fn check_against_baseline(root: &Path, report: &Report) -> i32 {
    let path = root.join(BASELINE_FILE);
    let baseline = match std::fs::read_to_string(&path) {
        Ok(text) => match Baseline::from_json_text(&text) {
            Ok(baseline) => baseline,
            Err(err) => {
                eprintln!("repro lint: bad baseline {}: {err:?}", path.display());
                return 2;
            }
        },
        Err(_) => Baseline::default(),
    };
    let diff = baseline.diff(report);
    if !diff.stale.is_empty() {
        let n = diff.stale.len();
        println!(
            "note: {n} stale baseline {} (fixed or moved); run --fix-baseline to drop",
            entries(n)
        );
    }
    if diff.new.is_empty() {
        println!(
            "check passed: no findings outside the baseline ({} baselined)",
            baseline.findings.len()
        );
        0
    } else {
        print_findings(&diff.new, "NEW findings (not in baseline)");
        println!("fix these, add a `// lint:allow(RULE) reason`, or run --fix-baseline");
        1
    }
}

fn entries(n: usize) -> &'static str {
    if n == 1 {
        "entry"
    } else {
        "entries"
    }
}

fn print_findings(findings: &[crate::engine::Finding], heading: &str) {
    if findings.is_empty() {
        println!("{heading}: none");
        return;
    }
    println!("{heading}: {}", findings.len());
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
