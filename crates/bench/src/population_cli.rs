//! The `repro population` subcommand: population-scale campaigns.
//!
//! * `repro population` measures the base study, scales it to the
//!   configured user count, and prints the population renderings of
//!   Tables 3–5 plus the Figure 2–7 CDF summaries.
//! * `repro population --smoke` is the CI gate: a 1k-user campaign on
//!   the quick study, asserting the determinism contract end to end —
//!   1 and 2 workers byte-identical, and shard partitioning invisible
//!   to the aggregate (the merge law through the real ingest path).
//!   Exits non-zero on any violation.

use crate::cli::Value::{Int, Switch, Text};
use crate::cli::{Args, Command, Flag, U64, WORKERS};
use appvsweb_analysis::population::render_population_report;
use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::SimDuration;
use appvsweb_population::{run_campaign_on, CampaignConfig};
use appvsweb_services::Catalog;

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

/// The CI smoke gate: a 1k-user campaign on the quick study with the
/// determinism contract asserted end to end.
fn smoke() -> i32 {
    let study = run_study(&crate::quick_config());
    let base = CampaignConfig {
        users: 1_000,
        shards: 16,
        workers: 1,
        seed: 2016,
    };
    let one = run_campaign_on(&study, &base);
    let mut failures = 0usize;
    let mut gate = |name: &str, ok: bool| {
        eprintln!("  [{}] {name}", if ok { " ok " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    let two = run_campaign_on(
        &study,
        &CampaignConfig {
            workers: 2,
            ..base.clone()
        },
    );
    gate(
        "1 and 2 workers byte-identical",
        appvsweb_json::encode(&one) == appvsweb_json::encode(&two),
    );

    let single_shard = run_campaign_on(
        &study,
        &CampaignConfig {
            shards: 1,
            ..base.clone()
        },
    );
    gate(
        "shard partitioning invisible to the aggregate",
        appvsweb_json::encode(&one.aggregate) == appvsweb_json::encode(&single_shard.aggregate),
    );
    gate(
        "top-k summaries stayed in the exact regime",
        one.aggregate.is_exact(),
    );
    gate("every user accounted", one.aggregate.users == base.users);
    gate("constant-memory witness present", one.peak_state_bytes > 0);

    if failures > 0 {
        eprintln!("population --smoke: FAIL ({failures} gates)");
        1
    } else {
        eprintln!(
            "population --smoke: determinism contract holds ({} users, {} sessions)",
            one.aggregate.users, one.aggregate.sessions
        );
        0
    }
}
