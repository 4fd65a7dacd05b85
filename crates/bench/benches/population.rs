//! Population-campaign benches: 10k / 100k / 1M users over one
//! measured quick study.
//!
//! Emits `BENCH_population.json` at the repo root. The metadata records
//! the peak shard-state footprint at each scale — the constant-memory
//! witness: the bytes must not grow with the user count.
//!
//! With `BENCH_GATE=1` in the environment (ci.sh sets it), the run
//! doubles as a perf-regression gate: the freshly measured
//! `campaign_100k_users` median is compared against the committed
//! artifact *before* it is overwritten, and a regression of more than
//! 25% fails the process.

use appvsweb_bench::{committed_median_ns, perf_gate, repo_root};
use appvsweb_core::study::run_study;
use appvsweb_population::{run_campaign_on, CampaignConfig};
use appvsweb_testkit::fixtures::quick_study_config;
use appvsweb_testkit::BenchRunner;

fn main() {
    const GATED: &str = "campaign_100k_users";
    let baseline = committed_median_ns(&repo_root().join("BENCH_population.json"), GATED);
    let study = run_study(&quick_study_config());
    let mut runner = BenchRunner::new("population").with_samples(1, 5);

    let cfg = |users: u64| CampaignConfig {
        users,
        ..CampaignConfig::default()
    };
    for (name, users) in [
        ("campaign_10k_users", 10_000u64),
        ("campaign_100k_users", 100_000),
        ("campaign_1m_users", 1_000_000),
    ] {
        let cfg = cfg(users);
        let report = run_campaign_on(&study, &cfg);
        runner.meta(
            &format!("peak_state_bytes_{users}_users"),
            report.peak_state_bytes,
        );
        runner.bench(name, || run_campaign_on(&study, &cfg));
    }
    // One extra scale, meta-only: from 1M to 2M users the footprint
    // must be flat — the sketches have saturated the fixed cell/org
    // universe, the structural bound that makes memory independent of
    // user count.
    let saturated = run_campaign_on(&study, &cfg(2_000_000));
    runner.meta("peak_state_bytes_2000000_users", saturated.peak_state_bytes);

    let base = cfg(10_000);
    runner.meta("shards", base.shards);
    runner.meta("workers", base.workers as u64);
    runner.bench("campaign_10k_users_1_worker", || {
        run_campaign_on(
            &study,
            &CampaignConfig {
                workers: 1,
                ..base.clone()
            },
        )
    });

    let fresh = runner
        .results()
        .iter()
        .find(|r| r.name == GATED)
        .map(|r| r.median_ns);
    runner
        .write_json(&repo_root())
        .expect("write bench artifact");
    if !perf_gate(GATED, baseline, fresh) {
        std::process::exit(1);
    }
}
