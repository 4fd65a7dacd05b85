//! Shared helpers for the reproduction benches and the `repro` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod fuzz_cli;
pub mod fuzz_targets;
pub mod lint_cli;
pub mod obs_cli;
pub mod population_cli;
pub mod serve_cli;

/// The repository root, where `BENCH_*.json` artifacts are written so
/// successive PRs can diff them in place.
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// Read one benchmark's committed median from a `BENCH_<suite>.json`
/// artifact. `None` when the file, the entry, or the field is missing —
/// a fresh checkout without artifacts must not trip the regression
/// gate.
pub fn committed_median_ns(path: &std::path::Path, name: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = appvsweb_json::parse(&text).ok()?;
    json.get("results")?
        .items()
        .ok()?
        .iter()
        .find(|r| matches!(r.get("name"), Some(appvsweb_json::Json::Str(s)) if s == name))?
        .field::<f64>("median_ns")
        .ok()
}

/// The `BENCH_GATE=1` perf-regression gate: with that variable set,
/// this run's `fresh` median of benchmark `name` may exceed the
/// committed `baseline` (read before the artifact was overwritten) by
/// at most 25%. Reports the verdict on stderr and returns whether the
/// bench passes; without `BENCH_GATE`, or without a baseline, it does.
pub fn perf_gate(name: &str, baseline: Option<f64>, fresh: Option<f64>) -> bool {
    if std::env::var_os("BENCH_GATE").is_none() {
        return true;
    }
    match (baseline, fresh) {
        (Some(base), Some(now)) if now > base * 1.25 => {
            eprintln!(
                "BENCH GATE: {name} median regressed {:.1}% \
                 ({:.1}ms -> {:.1}ms, threshold 25%)",
                (now / base - 1.0) * 100.0,
                base / 1e6,
                now / 1e6,
            );
            false
        }
        (Some(base), Some(now)) => {
            eprintln!(
                "BENCH GATE: {name} median {:.1}ms vs committed {:.1}ms — ok",
                now / 1e6,
                base / 1e6,
            );
            true
        }
        _ => {
            eprintln!("BENCH GATE: no committed baseline for {name}; skipping");
            true
        }
    }
}
