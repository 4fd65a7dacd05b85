//! Benchmarks the `appvsweb-lint` analyzer over the real workspace,
//! phase by phase: lexing alone, the per-file parse (item tables), the
//! call-graph build, the interprocedural passes, and the full pipeline
//! both cold (no cache) and warm (content-hash cache hit on every
//! file). The artifact's `meta` block records scan size, derived
//! throughput, and the per-rule finding counts — open *and*
//! suppressed-by-allow — so the lint's cost and the workspace's debt
//! are both tracked per PR.

use appvsweb_bench::repo_root;
use appvsweb_json::Json;
use appvsweb_lint::callgraph::{CallGraph, CrateGraph};
use appvsweb_lint::{
    analyze_files, analyze_files_with, analyze_one, collect_workspace, is_manifest, lex,
    AnalysisOptions, SourceFile,
};
use appvsweb_testkit::BenchRunner;
use std::collections::BTreeMap;

fn main() {
    let root = repo_root();
    let files = collect_workspace(&root).expect("workspace readable");
    let report = analyze_files(&files);
    println!(
        "lint: {} files, {} tokens, {} findings, {} labels",
        report.files,
        report.tokens,
        report.findings.len(),
        report.labels.len()
    );

    // Shared inputs for the phase benches. The phase rows see what the
    // analyzer does: Rust sources are lexed and parsed, the manifests
    // only scope the call graph's method resolution.
    let (manifests, sources): (Vec<&SourceFile>, Vec<&SourceFile>) =
        files.iter().partition(|f| is_manifest(&f.path));
    let crates = CrateGraph::from_manifests(&manifests);
    let analyses: Vec<_> = sources.iter().map(|f| analyze_one(f)).collect();
    let tables: Vec<_> = analyses.iter().map(|a| a.table.clone()).collect();
    let cache_dir = root.join("target").join("lint-cache-bench");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let warm_opts = AnalysisOptions {
        workers: 1,
        cache_dir: Some(cache_dir.clone()),
    };
    analyze_files_with(&files, &warm_opts); // prime the cache

    let mut runner = BenchRunner::new("lint").with_samples(2, 10);
    runner.bench("lex_workspace", || {
        sources.iter().map(|f| lex(&f.text).len()).sum::<usize>()
    });
    runner.bench("parse_workspace", || {
        sources
            .iter()
            .map(|f| analyze_one(f).table.fns.len())
            .sum::<usize>()
    });
    runner.bench("callgraph", || {
        CallGraph::build_with(&tables, &crates).fns.len()
    });
    runner.bench("analyze_workspace", || analyze_files(&files));
    runner.bench("analyze_workspace_warm", || {
        analyze_files_with(&files, &warm_opts)
    });
    let _ = std::fs::remove_dir_all(&cache_dir);

    runner.meta("files_scanned", report.files);
    runner.meta("tokens", report.tokens);
    runner.meta("labels", report.labels.len() as u64);
    runner.meta("allows", report.allows);
    let analyze_ns = runner
        .results()
        .iter()
        .find(|r| r.name == "analyze_workspace")
        .map(|r| r.median_ns)
        .unwrap_or(f64::NAN);
    runner.meta(
        "tokens_per_sec",
        (report.tokens as f64 / (analyze_ns / 1e9)).round(),
    );

    // Per-rule debt: open findings and allow-suppressed sites, in one
    // object so a PR that trades one for the other is visible.
    let mut by_rule: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (rule, n) in report.counts_by_rule() {
        by_rule.entry(rule).or_default().0 = n;
    }
    for rc in &report.suppressed {
        by_rule.entry(rc.rule.clone()).or_default().1 = rc.count;
    }
    runner.meta(
        "findings_by_rule",
        Json::Obj(
            by_rule
                .into_iter()
                .map(|(rule, (open, suppressed))| {
                    (
                        rule,
                        Json::Obj(vec![
                            ("open".to_string(), Json::Uint(open)),
                            ("suppressed".to_string(), Json::Uint(suppressed)),
                        ]),
                    )
                })
                .collect(),
        ),
    );

    runner
        .write_json(&repo_root())
        .expect("write bench artifact");
}
