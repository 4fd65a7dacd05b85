//! Workspace-level tests for the interprocedural analyzer: determinism
//! across worker counts and cache states, seeded synthetic leaks for
//! each pass (T1 / R1x / D3x), and the `lint:allow` edge cases.
//!
//! These run the *real* workspace through the public API (the same code
//! path as `repro lint --json`), so "byte-identical" here means exactly
//! what CI relies on.

use appvsweb_lint::{
    analyze_files, analyze_files_with, collect_workspace, is_manifest, AnalysisOptions, Report,
    SourceFile,
};
use std::path::{Path, PathBuf};

fn workspace_files() -> Vec<SourceFile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    collect_workspace(root).expect("workspace readable")
}

fn report_json(report: &Report) -> String {
    appvsweb::json::encode_pretty(report)
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lint-it-{tag}-{}", std::process::id()))
}

fn files(entries: &[(&str, &str)]) -> Vec<SourceFile> {
    entries
        .iter()
        .map(|(p, s)| SourceFile {
            path: p.to_string(),
            text: s.to_string(),
        })
        .collect()
}

// ----------------------------------------------------------------------
// Determinism
// ----------------------------------------------------------------------

#[test]
fn workspace_report_is_byte_identical_across_workers_and_repeats() {
    let files = workspace_files();
    let no_cache = |workers| AnalysisOptions {
        workers,
        cache_dir: None,
    };
    let one = report_json(&analyze_files_with(&files, &no_cache(1)));
    let one_again = report_json(&analyze_files_with(&files, &no_cache(1)));
    let two = report_json(&analyze_files_with(&files, &no_cache(2)));
    let eight = report_json(&analyze_files_with(&files, &no_cache(8)));
    assert_eq!(one, one_again, "repeat runs must be byte-identical");
    assert_eq!(one, two, "2 workers changed the report");
    assert_eq!(one, eight, "8 workers changed the report");
}

#[test]
fn cache_cold_and_warm_runs_are_byte_identical() {
    let files = workspace_files();
    let dir = temp_dir("warmth");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = AnalysisOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
    };
    let cold = report_json(&analyze_files_with(&files, &opts));
    let cached: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir created")
        .collect();
    // Manifests feed the crate graph and are not analyzed, so only the
    // Rust sources are cached.
    let sources = files.iter().filter(|f| !is_manifest(&f.path)).count();
    assert_eq!(cached.len(), sources, "one cache entry per Rust source");
    let warm = report_json(&analyze_files_with(&files, &opts));
    let uncached = report_json(&analyze_files_with(
        &files,
        &AnalysisOptions {
            workers: 1,
            cache_dir: None,
        },
    ));
    assert_eq!(cold, warm, "warm run diverged from cold run");
    assert_eq!(cold, uncached, "cached run diverged from uncached run");
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Seeded synthetic leaks: each pass must catch its planted violation.
// ----------------------------------------------------------------------

#[test]
fn seeded_pii_flow_around_mitm_is_caught() {
    // A PII carrier that serializes through a helper instead of the
    // audited mitm recorder — T1 must flag the carrier, not the clean
    // sibling that goes through mitm.
    let report = analyze_files(&files(&[
        (
            "crates/pii/src/profile.rs",
            "pub struct GroundTruth { pub email: String }\n",
        ),
        (
            "crates/json/src/lib.rs",
            "pub fn encode(_v: &str) -> String { String::new() }\n",
        ),
        (
            "crates/mitm/src/har.rs",
            "pub fn record(v: &str) { appvsweb_json::encode(v); }\n",
        ),
        (
            "crates/demo/src/lib.rs",
            "use appvsweb_pii::profile::GroundTruth;\n\
             pub fn exfil(truth: &GroundTruth) { relay(&truth.email); }\n\
             fn relay(v: &str) { appvsweb_json::encode(v); }\n\
             pub fn audited(truth: &GroundTruth) { appvsweb_mitm::har::record(&truth.email); }\n",
        ),
    ]));
    let t1: Vec<_> = report.findings.iter().filter(|f| f.rule == "T1").collect();
    assert_eq!(
        t1.len(),
        1,
        "exactly the planted leak: {:?}",
        report.findings
    );
    assert_eq!(t1[0].path, "crates/demo/src/lib.rs");
    assert!(t1[0].message.contains("exfil"), "{}", t1[0].message);
}

#[test]
fn seeded_unwrap_under_serve_runner_is_caught() {
    // An unwrap three calls below the worker loop — R1x must follow the
    // chain; the same unwrap behind catch_unwind must not fire.
    let report = analyze_files(&files(&[
        (
            "crates/serve/src/runner.rs",
            "pub fn supervise() { crate::exec::step(); crate::exec::shielded(); }\n",
        ),
        (
            "crates/serve/src/exec.rs",
            "pub fn step() { inner() }\n\
             fn inner() { parse_header() }\n\
             fn parse_header() { let v: Vec<u8> = Vec::new(); v.first().unwrap(); }\n\
             pub fn shielded() { let _ = std::panic::catch_unwind(|| absorbed()); }\n\
             fn absorbed() { panic!(\"contained\") }\n",
        ),
    ]));
    let r1x: Vec<_> = report.findings.iter().filter(|f| f.rule == "R1x").collect();
    assert_eq!(
        r1x.len(),
        1,
        "exactly the planted panic: {:?}",
        report.findings
    );
    assert!(
        r1x[0].message.contains("parse_header"),
        "{}",
        r1x[0].message
    );
    assert!(r1x[0].message.contains("supervise"), "{}", r1x[0].message);
    // The file-local R1 rule also sees the raw unwrap sites — only the
    // *reachable* one may carry the R1x finding.
    assert!(!r1x.iter().any(|f| f.message.contains("absorbed")));
}

#[test]
fn seeded_duplicate_fork_label_is_caught() {
    // The same rng_labels constant forked from two different scopes —
    // D3x must flag the second scope in path order.
    let report = analyze_files(&files(&[
        (
            "crates/alpha/src/lib.rs",
            "pub fn seed_world(r: &mut SimRng) { r.fork(rng_labels::WORLD); }\n",
        ),
        (
            "crates/beta/src/lib.rs",
            "pub fn reseed(r: &mut SimRng) { r.fork(rng_labels::WORLD); }\n",
        ),
    ]));
    let d3x: Vec<_> = report.findings.iter().filter(|f| f.rule == "D3x").collect();
    assert_eq!(
        d3x.len(),
        1,
        "exactly the second scope: {:?}",
        report.findings
    );
    assert_eq!(d3x[0].path, "crates/beta/src/lib.rs");
    assert!(d3x[0].message.contains("WORLD"), "{}", d3x[0].message);
}

// ----------------------------------------------------------------------
// lint:allow edge cases
// ----------------------------------------------------------------------

#[test]
fn allow_on_the_last_line_of_a_file_applies() {
    // Annotation and violation share the final line; no trailing newline.
    let report = analyze_files(&files(&[(
        "crates/x/src/lib.rs",
        "fn f(v: Option<u8>) -> u8 { v.unwrap() } // lint:allow(R1) reviewed: caller guarantees Some",
    )]));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.allows, 1);
    assert!(report
        .suppressed
        .iter()
        .any(|rc| rc.rule == "R1" && rc.count == 1));
}

#[test]
fn one_annotation_can_name_multiple_rules() {
    let report = analyze_files(&files(&[(
        "crates/x/src/lib.rs",
        "// lint:allow(R1, D1) reviewed: bench-adjacent probe, panic acceptable\n\
         fn probe() -> u64 { let t = SystemTime::now(); t.elapsed().unwrap().as_secs() }\n",
    )]));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let count = |rule: &str| {
        report
            .suppressed
            .iter()
            .find(|rc| rc.rule == rule)
            .map_or(0, |rc| rc.count)
    };
    assert_eq!(count("R1"), 1, "{:?}", report.suppressed);
    assert_eq!(count("D1"), 1, "{:?}", report.suppressed);
}

#[test]
fn malformed_annotations_are_findings_not_suppressions() {
    let report = analyze_files(&files(&[(
        "crates/x/src/lib.rs",
        "// lint:allow(R1)\n\
         fn a(v: Option<u8>) -> u8 { v.unwrap() }\n\
         // lint:allow(BOGUS) not a rule id\n\
         fn b(v: Option<u8>) -> u8 { v.unwrap() }\n\
         // lint:allow() no rules at all\n\
         fn c(v: Option<u8>) -> u8 { v.unwrap() }\n",
    )]));
    let lint: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "LINT")
        .collect();
    assert_eq!(lint.len(), 3, "{:?}", report.findings);
    // None of the malformed annotations suppressed anything: all three
    // unwraps are still findings.
    let r1 = report.findings.iter().filter(|f| f.rule == "R1").count();
    assert_eq!(r1, 3, "{:?}", report.findings);
    assert_eq!(report.allows, 0);
}

#[test]
fn allows_inside_macro_bodies_still_apply() {
    // The annotation miner works on the raw comment stream, so an allow
    // inside a macro_rules body covers the line below it even though the
    // item parser skips macro bodies wholesale.
    let report = analyze_files(&files(&[(
        "crates/x/src/lib.rs",
        "macro_rules! grab {\n\
             ($x:expr) => {\n\
                 // lint:allow(R1) reviewed: macro callers pass infallible exprs\n\
                 $x.unwrap()\n\
             };\n\
         }\n",
    )]));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.allows, 1);
    assert!(report
        .suppressed
        .iter()
        .any(|rc| rc.rule == "R1" && rc.count == 1));
}
