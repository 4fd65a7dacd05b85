//! Workspace-level tests for the analyzer: repeat-run determinism,
//! seeded synthetic violations of the T1 pass and the R1/D3 rules, and
//! the `lint:allow` edge cases.
//!
//! These run the *real* workspace through the public API (the same code
//! path as `repro lint --json`), so "byte-identical" here means exactly
//! what CI relies on.

use appvsweb_lint::{analyze_files, collect_workspace, Report, SourceFile};
use std::path::Path;

fn workspace_files() -> Vec<SourceFile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    collect_workspace(root).expect("workspace readable")
}

fn report_json(report: &Report) -> String {
    appvsweb::json::encode_pretty(report)
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
fn workspace_report_is_byte_identical_across_repeats() {
    let files = workspace_files();
    let first = report_json(&analyze_files(&files));
    let again = report_json(&analyze_files(&files));
    assert_eq!(first, again, "repeat runs must be byte-identical");
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
    // An unwrap three calls below the worker loop is an R1 finding at
    // its own line. R1 flags every panic site in library code, so the
    // panic behind catch_unwind is a finding too: a caught panic still
    // aborts the cell it runs in.
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
    let r1: Vec<(&str, u64)> = report
        .findings
        .iter()
        .filter(|f| f.rule == "R1")
        .map(|f| (f.path.as_str(), f.line))
        .collect();
    assert_eq!(
        r1,
        [
            ("crates/serve/src/exec.rs", 3), // parse_header's unwrap
            ("crates/serve/src/exec.rs", 5), // absorbed's panic!
        ],
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
}

#[test]
fn seeded_duplicate_fork_label_is_caught() {
    // The same rng_labels constant forked from two different scopes —
    // D3 must flag the second scope in path order.
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
    let d3: Vec<_> = report.findings.iter().filter(|f| f.rule == "D3").collect();
    assert_eq!(
        d3.len(),
        1,
        "exactly the second scope: {:?}",
        report.findings
    );
    assert_eq!(
        (d3[0].path.as_str(), d3[0].line),
        ("crates/beta/src/lib.rs", 1)
    );
    assert!(d3[0].message.contains("WORLD"), "{}", d3[0].message);
}

#[test]
fn seeded_rng_field_outside_netsim_is_caught() {
    // A SimRng stashed in a struct field outside netsim outlives its
    // fork scope — D3 flags the struct; netsim's own fields and test
    // code are exempt.
    let report = analyze_files(&files(&[
        (
            "crates/alpha/src/lib.rs",
            "pub struct Stash { n: u64, rng: SimRng }
             #[cfg(test)]
             mod tests { struct Fixture { rng: SimRng } }
",
        ),
        (
            "crates/netsim/src/faults.rs",
            "pub struct Injector { rng: SimRng }
",
        ),
    ]));
    let found: Vec<(&str, &str, u64)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.path.as_str(), f.line))
        .collect();
    assert_eq!(
        found,
        [("D3", "crates/alpha/src/lib.rs", 1)],
        "{:?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("Stash"));
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
         fn c(v: Option<u8>) -> u8 { v.unwrap() }\n\
         // lint:allow(R1x) retired rule id: R1 covers it\n\
         fn d(v: Option<u8>) -> u8 { v.unwrap() }\n\
         // lint:allow(D3x) retired rule id: D3 covers it\n\
         fn e(r: &mut SimRng, n: u32) { r.fork(&format!(\"s{n}\")); }\n",
    )]));
    let lint: Vec<u64> = report
        .findings
        .iter()
        .filter(|f| f.rule == "LINT")
        .map(|f| f.line)
        .collect();
    assert_eq!(lint, [1, 3, 5, 7, 9], "{:?}", report.findings);
    // None of the malformed annotations suppressed anything: every
    // unwrap and the dynamic fork label are still findings.
    let r1 = report.findings.iter().filter(|f| f.rule == "R1").count();
    assert_eq!(r1, 4, "{:?}", report.findings);
    let d3 = report.findings.iter().filter(|f| f.rule == "D3").count();
    assert_eq!(d3, 1, "{:?}", report.findings);
    assert_eq!(report.allows, 0);
}

#[test]
fn annotations_that_waive_nothing_are_findings() {
    // A stale waiver is a LINT finding at its own line. A waiver that
    // the cross-file T1 pass uses is not, and an annotation quoted in a
    // doc comment is an example, not a waiver.
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
            "crates/demo/src/lib.rs",
            "//! Waive a site with `// lint:allow(R1) reason`.\n\
             use appvsweb_pii::profile::GroundTruth;\n\
             // lint:allow(T1) reviewed: the encoded email stays in-process\n\
             pub fn exfil(truth: &GroundTruth) { appvsweb_json::encode(&truth.email); }\n\
             // lint:allow(R1) reviewed: was an unwrap once\n\
             pub fn total(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n\
             /// Doc example: `lint:allow(D1) reason`.\n\
             pub fn documented() {}\n",
        ),
    ]));
    let found: Vec<(&str, &str, u64)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.path.as_str(), f.line))
        .collect();
    assert_eq!(
        found,
        [("LINT", "crates/demo/src/lib.rs", 5)],
        "{:?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("unused lint:allow"));
    assert_eq!(report.allows, 2, "doc comments carry no annotations");
    assert!(report
        .suppressed
        .iter()
        .any(|rc| rc.rule == "T1" && rc.count == 1));
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
