//! The lint must pass its own rules: analyzing the `crates/lint`
//! sources with the full pipeline yields zero findings. The whole
//! workspace must too, which is the same gate plain `repro lint` (exit
//! 1 on any finding) applies in CI.

use appvsweb_lint::{analyze_files, collect_workspace};
use std::path::Path;

#[test]
fn lint_crate_passes_its_own_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the workspace root");
    let files: Vec<_> = collect_workspace(root)
        .expect("workspace readable")
        .into_iter()
        .filter(|f| f.path.starts_with("crates/lint/"))
        .collect();
    assert!(!files.is_empty(), "lint sources not found");
    let report = analyze_files(&files);
    assert!(
        report.findings.is_empty(),
        "the lint does not pass its own rules: {:#?}",
        report.findings
    );
}

#[test]
fn whole_workspace_is_clean() {
    // Any finding fails both this test and `repro lint`; a reviewed
    // site is accepted only by an inline `lint:allow(RULE) reason`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let files = collect_workspace(root).expect("workspace readable");
    let report = analyze_files(&files);
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings: {:#?}",
        report.findings
    );
}
