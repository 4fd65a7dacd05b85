//! The `repro population` subcommand: population-scale campaigns.
//!
//! * `repro population` measures the base study, scales it to the
//!   configured user count, and prints the population renderings of
//!   Tables 3–5 plus the Figure 2–7 CDF summaries.
//! * `repro population --smoke` is the CI gate: a 1k-user campaign on
//!   the quick study, asserting the determinism contract end to end —
//!   1, 2 and 8 workers byte-identical, and shard partitioning
//!   invisible to the aggregate (the merge law through the real ingest
//!   path). Exits non-zero on any violation. `tests/population_laws.rs`
//!   asserts the same [`contract`] on studies measured under chaos.

use crate::cli::Value::{Int, Switch, Text};
use crate::cli::{report, Args, Check, Command, Flag, U64, WORKERS};
use appvsweb_analysis::population::render_population_report;
use appvsweb_analysis::{PopulationReport, Study};
use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::SimDuration;
use appvsweb_population::{run_campaign_on, CampaignConfig};
use appvsweb_services::Catalog;
use appvsweb_testkit::fixtures::quick_study_config;

/// The flags of `repro population`.
#[rustfmt::skip]
pub const COMMAND: Command = Command {
    name: "population",
    flags: &[
        Flag::new("--users", Int("N", 1, u64::MAX), "simulated users (default 10000)"),
        Flag::new("--shards", Int("N", 1, u32::MAX as u64), "fixed shard count (default 64)"),
        Flag::new("--workers", WORKERS, "threads racing over shards (default: cores, ≤ 16)"),
        Flag::new("--seed", U64, "population seed (default 2016)"),
        Flag::new("--minutes", U64, "base-study session length (default 4)"),
        Flag::new("--smoke", Switch, "CI gate: 1k users, determinism contract asserted"),
        Flag::new("--json", Text("FILE"), "also write the population report as JSON"),
    ],
    subcommands: &[],
    run,
};

/// Entry point for `repro population`. Returns the process exit code.
pub fn run(args: &Args) -> i32 {
    if args.switch("--smoke") {
        return smoke();
    }
    let defaults = CampaignConfig::default();
    let cfg = CampaignConfig {
        users: args.int("--users").unwrap_or(defaults.users),
        shards: args.int("--shards").unwrap_or(defaults.shards),
        workers: args.int("--workers").unwrap_or(defaults.workers),
        seed: args.int("--seed").unwrap_or(defaults.seed),
    };
    let minutes = args.int("--minutes").unwrap_or(4);
    let study_cfg = StudyConfig {
        duration: SimDuration::from_mins(minutes),
        ..StudyConfig::default()
    };
    if let Err(err) = study_cfg.validate(&Catalog::paper()) {
        return args.refuse(format_args!("--minutes {minutes}: {err}"));
    }
    eprintln!(
        "measuring the base study ({minutes} min sessions), then scaling to {} users ...",
        cfg.users
    );
    let study = run_study(&study_cfg);
    let report = run_campaign_on(&study, &cfg);
    println!("{}", render_population_report(&report));
    if let Some(path) = args.text("--json") {
        if let Err(e) = std::fs::write(path, appvsweb_json::encode_pretty(&report)) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        eprintln!("population report written to {path}");
    }
    0
}

/// The CI smoke gate: the determinism contract of a 1k-user, 16-shard
/// campaign on the quick study.
fn smoke() -> i32 {
    let study = run_study(&quick_study_config());
    let base = CampaignConfig {
        users: 1_000,
        shards: 16,
        workers: 1,
        seed: 2016,
    };
    let (one, checks) = contract(&study, &base);
    match report(&checks) {
        0 => {
            eprintln!(
                "population --smoke: determinism contract holds ({} users, {} sessions)",
                one.aggregate.users, one.aggregate.sessions
            );
            0
        }
        failures => {
            eprintln!("population --smoke: FAIL ({failures} gates)");
            1
        }
    }
}

/// The determinism contract of a campaign over `study` at `base`'s
/// users, shards and seed: the report is byte-identical at 1, 2 and 8
/// workers; one shard gives the same aggregate (the merge law through
/// the real ingest path); the top-k sketches stayed exact; every user
/// is counted; and the peak shard state was measured. Returns the
/// 1-worker report with the verdicts.
pub fn contract(study: &Study, base: &CampaignConfig) -> (PopulationReport, Vec<Check>) {
    let run = |workers, shards| {
        run_campaign_on(
            study,
            &CampaignConfig {
                workers,
                shards,
                ..base.clone()
            },
        )
    };
    let one = run(1, base.shards);
    let encoded = appvsweb_json::encode(&one);
    let same_at = |workers| appvsweb_json::encode(&run(workers, base.shards)) == encoded;
    let single_shard = run(1, 1);
    let checks = vec![
        Check::new("1/2/8 workers byte-identical", same_at(2) && same_at(8)),
        Check::new(
            "shard partitioning invisible to the aggregate",
            appvsweb_json::encode(&one.aggregate) == appvsweb_json::encode(&single_shard.aggregate),
        ),
        Check::new(
            "top-k summaries stayed in the exact regime",
            one.aggregate.is_exact(),
        ),
        Check::new("every user accounted", one.aggregate.users == base.users),
        Check::new("constant-memory witness present", one.peak_state_bytes > 0),
    ];
    (one, checks)
}
