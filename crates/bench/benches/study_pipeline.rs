//! End-to-end pipeline benches: single cells and the full campaign,
//! fault-free with the instrumentation idle, with a journal capture
//! running, and under the `light` and `moderate` fault presets.
//!
//! Emits `BENCH_pipeline.json` at the repo root with median/p95 ns per
//! stage, so PRs can diff the perf trajectory of the whole pipeline.
//! `meta.capture_vs_idle_pct` is the cost of journaling all 196 cells,
//! from two rows of the same process (machine throughput drifts between
//! sessions by far more than the obs budget).
//!
//! With `BENCH_GATE=1` in the environment (ci.sh sets it), the run
//! doubles as a perf-regression gate: the freshly measured
//! `full_campaign_1min_sessions` median is compared against the
//! committed artifact *before* it is overwritten, and a regression of
//! more than 25% fails the process.

use appvsweb_bench::{committed_median_ns, perf_gate, repo_root};
use appvsweb_core::study::{run_cell, run_study, StudyConfig};
use appvsweb_netsim::{FaultPlan, Os};
use appvsweb_services::{Catalog, Medium};
use appvsweb_testkit::fixtures::quick_study_config;
use appvsweb_testkit::BenchRunner;

fn main() {
    let catalog = Catalog::paper();
    let cfg = quick_study_config();
    let mut runner = BenchRunner::new("pipeline").with_samples(1, 10);

    // One app cell and one web cell (capture + detection + classification).
    let weather = catalog.get("weather-channel").unwrap();
    runner.bench("cell_app_weather_1min", || {
        run_cell(weather, Os::Android, Medium::App, &cfg, None)
    });
    runner.bench("cell_web_weather_1min", || {
        run_cell(weather, Os::Android, Medium::Web, &cfg, None)
    });
    let bbc = catalog.get("bbc-news").unwrap();
    runner.bench("cell_web_bbc_heavy_1min", || {
        run_cell(bbc, Os::Ios, Medium::Web, &cfg, None)
    });

    // The full 196-cell campaign at 1 simulated minute per session, with
    // every obs site compiled in but no capture armed.
    const CAMPAIGN: &str = "full_campaign_1min_sessions";
    let baseline = committed_median_ns(&repo_root().join("BENCH_pipeline.json"), CAMPAIGN);
    runner.bench(CAMPAIGN, || run_study(&cfg));

    // The same campaign with every cell journaled end to end.
    const CAPTURED: &str = "full_campaign_1min_captured";
    runner.bench(CAPTURED, || {
        appvsweb_obs::capture_begin();
        let study = run_study(&cfg);
        (study, appvsweb_obs::capture_end())
    });

    // The same campaign under fault injection. Failed connections cut
    // sessions short while retries add work, so these rows may read
    // faster than the fault-free one.
    for (name, faults) in [
        ("full_campaign_1min_faults_light", FaultPlan::light()),
        ("full_campaign_1min_faults_moderate", FaultPlan::moderate()),
    ] {
        let faulty = StudyConfig {
            faults,
            ..quick_study_config()
        };
        runner.bench(name, || run_study(&faulty));
    }

    let median = |name: &str| {
        runner
            .results()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    };
    let fresh = median(CAMPAIGN);
    if let (Some(idle), Some(captured)) = (fresh, median(CAPTURED)) {
        runner.meta("capture_vs_idle_pct", (captured / idle - 1.0) * 100.0);
    }
    runner
        .write_json(&repo_root())
        .expect("write bench artifact");

    if !perf_gate(CAMPAIGN, baseline, fresh) {
        std::process::exit(1);
    }
}
