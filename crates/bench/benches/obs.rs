//! Observability overhead bench: the full quick campaign with the
//! instrumentation idle, and again with a journal capture running.
//!
//! Emits `BENCH_obs.json` at the repo root. The `meta` block compares
//! the idle-instrumentation campaign against the committed
//! `BENCH_pipeline.json` baseline (`full_campaign_1min_sessions`):
//! `idle_overhead_pct` is the cost of the compiled-in-but-dormant
//! instrumentation sites and must stay under the 3% budget, and
//! `capture_overhead_pct` is the cost of recording a full 196-cell
//! journal. Machine throughput drifts between sessions by far more
//! than the budget, so the cross-artifact percentages are only
//! meaningful when both artifacts were regenerated back-to-back —
//! regenerate `study_pipeline` first, then this bench.
//! `capture_vs_idle_pct` is intra-process and robust on its own.

use appvsweb_bench::{quick_config, repo_root};
use appvsweb_core::study::run_study;
use appvsweb_json::Json;
use appvsweb_testkit::BenchRunner;

fn main() {
    let cfg = quick_config();
    let mut runner = BenchRunner::new("obs").with_samples(1, 10);

    // Instrumentation compiled in but no capture armed: every obs site
    // costs one constant-folded feature test plus a thread-local flag read.
    runner.bench("full_campaign_idle", || run_study(&cfg));

    // The same campaign with every cell journaled end to end.
    runner.bench("full_campaign_captured", || {
        appvsweb_obs::capture_begin();
        let study = run_study(&cfg);
        let journal = appvsweb_obs::capture_end();
        (study, journal)
    });

    let median = |name: &str| {
        runner
            .results()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    };
    let idle = median("full_campaign_idle");
    let captured = median("full_campaign_captured");
    if let (Some(idle), Some(captured)) = (idle, captured) {
        runner.meta("capture_vs_idle_pct", (captured / idle - 1.0) * 100.0);
    }
    if let Some(baseline) = pipeline_baseline() {
        runner.meta("baseline_pipeline_median_ns", baseline);
        if let Some(idle) = idle {
            runner.meta("idle_overhead_pct", (idle / baseline - 1.0) * 100.0);
        }
        if let Some(captured) = captured {
            runner.meta("capture_overhead_pct", (captured / baseline - 1.0) * 100.0);
        }
    }

    runner
        .write_json(&repo_root())
        .expect("write bench artifact");
}

/// Median ns of `full_campaign_1min_sessions` from the committed
/// pipeline bench artifact, if present and well-formed.
fn pipeline_baseline() -> Option<f64> {
    let text = std::fs::read_to_string(repo_root().join("BENCH_pipeline.json")).ok()?;
    let doc = appvsweb_json::parse(&text).ok()?;
    doc.get("results")?
        .items()
        .ok()?
        .iter()
        .find(|row| {
            matches!(row.get("name"), Some(Json::Str(s)) if s == "full_campaign_1min_sessions")
        })
        .and_then(|row| row.field::<f64>("median_ns").ok())
}
