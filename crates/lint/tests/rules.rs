//! Per-rule fixture tests: one positive and one negative fixture per
//! rule, all run through the real [`analyze_files`] pipeline so the
//! classification, test-region, and annotation layers are exercised too.
//!
//! Fixtures live in string literals, which the workspace-wide lint run
//! lexes as single opaque tokens — so nothing here pollutes the real
//! label table or findings.

use appvsweb_lint::{analyze_files, SourceFile};

fn file(path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }
}

/// Rules of every finding when analyzing a single library file.
fn lib_rules(text: &str) -> Vec<String> {
    rules_of(&[file("crates/x/src/lib.rs", text)])
}

fn rules_of(files: &[SourceFile]) -> Vec<String> {
    analyze_files(files)
        .findings
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// ---------------------------------------------------------------- D1 --

#[test]
fn d1_flags_wall_clocks_in_library_code() {
    assert_eq!(
        lib_rules("fn f() { let t = std::time::Instant::now(); }"),
        ["D1"]
    );
    // Two hits on one line collapse into one finding.
    assert_eq!(
        lib_rules("fn f() -> SystemTime { SystemTime::now() }"),
        ["D1"]
    );
}

#[test]
fn d1_waived_for_bench_and_test_code() {
    let body = "fn f() { let t = std::time::Instant::now(); }";
    assert!(rules_of(&[file("crates/bench/src/repro.rs", body)]).is_empty());
    assert!(rules_of(&[file("crates/x/benches/speed.rs", body)]).is_empty());
    assert!(rules_of(&[file("crates/x/tests/integration.rs", body)]).is_empty());
    // In-file test regions are exempt too.
    let in_test_mod =
        "#[cfg(test)]\nmod tests {\n    fn f() { let t = std::time::Instant::now(); }\n}\n";
    assert!(lib_rules(in_test_mod).is_empty());
}

#[test]
fn d1_not_waived_under_cfg_not_test() {
    let live = "#[cfg(not(test))]\nfn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(lib_rules(live), ["D1"]);
}

// ---------------------------------------------------------------- D2 --

#[test]
fn d2_flags_unordered_hash_iteration() {
    let src = "use std::collections::HashMap;\n\
               fn sum(m: HashMap<String, u32>) -> u32 {\n\
                   let mut total = 0;\n\
                   for (_k, v) in m.iter() { total += v; }\n\
                   total\n\
               }\n";
    assert_eq!(lib_rules(src), ["D2"]);
}

#[test]
fn d2_accepts_sorted_iteration_and_btreemap() {
    let sorted = "use std::collections::HashMap;\n\
                  fn keys(m: HashMap<String, u32>) -> Vec<String> {\n\
                      let mut out: Vec<String> = m.keys().cloned().collect();\n\
                      out.sort();\n\
                      out\n\
                  }\n";
    assert!(lib_rules(sorted).is_empty());
    let btree = "use std::collections::BTreeMap;\n\
                 fn sum(m: BTreeMap<String, u32>) -> u32 { m.values().sum() }\n";
    assert!(lib_rules(btree).is_empty());
}

// ---------------------------------------------------------------- D3 --

#[test]
fn d3_flags_ad_hoc_dynamic_fork_labels() {
    let src = "fn f(rng: &mut SimRng, n: u32) {\n\
                   let child = rng.fork(&format!(\"stream-{n}\"));\n\
               }\n";
    assert_eq!(lib_rules(src), ["D3"]);
}

#[test]
fn d3_accepts_literals_and_rng_labels_builders() {
    let src = "fn f(rng: &mut SimRng) {\n\
                   let a = rng.fork(\"alpha\");\n\
                   let b = rng.fork(rng_labels::WORLD);\n\
                   let c = rng.fork(&rng_labels::session(\"svc\", 1, 2));\n\
               }\n";
    let report = analyze_files(&[file("crates/x/src/lib.rs", src)]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    // The literal label lands in the table; the rng_labels uses do not
    // (they are declared once in rng_labels.rs).
    assert_eq!(report.labels.len(), 1);
    assert_eq!(report.labels[0].label, "alpha");
}

#[test]
fn d3_collects_rng_labels_constants_and_rejects_duplicates() {
    let consts = "pub const A: &str = \"alpha\";\npub const B: &str = \"beta\";\n";
    let user = "fn f(rng: &mut SimRng) { let r = rng.fork(\"alpha\"); }\n";
    let report = analyze_files(&[
        file("crates/netsim/src/rng_labels.rs", consts),
        file("crates/x/src/lib.rs", user),
    ]);
    // "alpha" appears both as a constant and as a raw fork literal: a
    // duplicate, caught by the cross-file uniqueness pass.
    let labels: Vec<&str> = report.labels.iter().map(|l| l.label.as_str()).collect();
    assert_eq!(labels, ["alpha", "alpha", "beta"]);
    assert_eq!(rules_of_report(&report), ["D3"]);
}

fn rules_of_report(report: &appvsweb_lint::Report) -> Vec<String> {
    report.findings.iter().map(|f| f.rule.clone()).collect()
}

// ---------------------------------------------------------------- R1 --

#[test]
fn r1_flags_panicking_paths() {
    assert_eq!(
        lib_rules("fn f(v: Option<u8>) -> u8 { v.unwrap() }"),
        ["R1"]
    );
    assert_eq!(
        lib_rules("fn f(v: Option<u8>) -> u8 { v.expect(\"present\") }"),
        ["R1"]
    );
    assert_eq!(lib_rules("fn f() { panic!(\"boom\"); }"), ["R1"]);
    assert_eq!(lib_rules("fn f() { unreachable!(\"state\"); }"), ["R1"]);
    assert_eq!(lib_rules("fn f() { todo!() }"), ["R1"]);
    assert_eq!(lib_rules("fn f() { unimplemented!() }"), ["R1"]);
    assert_eq!(lib_rules("fn f(v: &[u8]) -> u8 { v[0] }"), ["R1"]);
}

#[test]
fn r1_ignores_non_panicking_lookalikes() {
    // A parser's `self.expect(b'{')` is not Option::expect.
    assert!(lib_rules("fn f(p: &mut P) { p.expect(b'{'); }").is_empty());
    // Variable indices are usually loop-bounded; only literals flagged.
    assert!(lib_rules("fn f(v: &[u8], i: usize) -> u8 { v[i] }").is_empty());
    // Panic-free alternatives pass.
    assert!(lib_rules("fn f(v: &[u8]) -> u8 { v.first().copied().unwrap_or(0) }").is_empty());
}

#[test]
fn r1_sites_on_one_line_dedup_to_the_least_message() {
    // The unwrap comes first in the source, but ties on (path, line,
    // rule) keep the finding whose message sorts first.
    let report = analyze_files(&[file(
        "crates/x/src/lib.rs",
        "fn f(v: Option<u8>, w: &[u8]) -> u8 { v.unwrap() + w[0] }\n",
    )]);
    let found: Vec<(&str, u64, &str)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.line, f.message.as_str()))
        .collect();
    assert_eq!(
        found,
        [(
            "R1",
            1,
            "indexing by literal `[0]` can panic; use .first()/.get(0)"
        )]
    );
}

#[test]
fn r1_respects_inline_allow_annotations() {
    let annotated = "fn f(v: Option<u8>) -> u8 {\n\
                     // lint:allow(R1) reviewed invariant: v is Some by construction\n\
                     v.unwrap()\n\
                     }\n";
    assert!(lib_rules(annotated).is_empty());
}

#[test]
fn malformed_allow_annotations_are_findings() {
    // Unknown rule id.
    let unknown = "// lint:allow(R9) not a rule\nfn f() {}\n";
    assert_eq!(lib_rules(unknown), ["LINT"]);
    // Missing reason.
    let reasonless = "fn f(v: Option<u8>) -> u8 {\n\
                      // lint:allow(R1)\n\
                      v.unwrap()\n\
                      }\n";
    assert_eq!(lib_rules(reasonless), ["LINT", "R1"]);
}

// ---------------------------------------------------------------- R2 --

#[test]
fn r2_flags_hand_rolled_json_impls_outside_json_crate() {
    let src = "impl appvsweb_json::ToJson for Foo {\n\
                   fn to_json(&self) -> Json { Json::Null }\n\
               }\n";
    assert_eq!(lib_rules(src), ["R2"]);
    // The json crate itself provides the blanket impls.
    assert!(rules_of(&[file("crates/json/src/convert.rs", src)]).is_empty());
}

#[test]
fn r2_accepts_impl_json_macro() {
    let src = "appvsweb_json::impl_json!(struct Foo { a, b });\n";
    assert!(lib_rules(src).is_empty());
}

// ---------------------------------------------------------------- S1 --

#[test]
fn s1_flags_partial_cmp_in_analysis_only() {
    let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
    let in_analysis = rules_of(&[file("crates/analysis/src/stats.rs", src)]);
    assert_eq!(in_analysis, ["R1", "S1"]);
    // Outside the analysis crate only the unwrap is an issue.
    assert_eq!(lib_rules(src), ["R1"]);
    // total_cmp passes.
    let total = "fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }";
    assert!(rules_of(&[file("crates/analysis/src/stats.rs", total)]).is_empty());
}
