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

use appvsweb_analysis::population::render_population_report;
use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::SimDuration;
use appvsweb_population::{run_campaign_on, CampaignConfig};

struct Args {
    cfg: CampaignConfig,
    minutes: u64,
    smoke: bool,
    json: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, i32> {
    let mut parsed = Args {
        cfg: CampaignConfig::default(),
        minutes: 4,
        smoke: false,
        json: None,
    };
    let usage = |msg: String| {
        eprintln!("repro population: {msg}");
        2
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--users" => parsed.cfg.users = crate::numeric_flag(arg, it.next()).map_err(usage)?,
            "--shards" => parsed.cfg.shards = crate::numeric_flag(arg, it.next()).map_err(usage)?,
            "--workers" => {
                parsed.cfg.workers = crate::numeric_flag(arg, it.next()).map_err(usage)?
            }
            "--seed" => parsed.cfg.seed = crate::numeric_flag(arg, it.next()).map_err(usage)?,
            "--minutes" => parsed.minutes = crate::numeric_flag(arg, it.next()).map_err(usage)?,
            "--smoke" => parsed.smoke = true,
            "--json" => parsed.json = it.next().cloned(),
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro population [--users N] [--shards N] [--workers N] \
                     [--seed N] [--minutes N] [--smoke] [--json FILE]"
                );
                return Err(0);
            }
            other => {
                eprintln!("unknown population argument: {other}");
                return Err(2);
            }
        }
    }
    Ok(parsed)
}

/// Entry point for `repro population`. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    if args.smoke {
        return smoke();
    }
    let study_cfg = StudyConfig {
        duration: SimDuration::from_mins(args.minutes),
        ..StudyConfig::default()
    };
    eprintln!(
        "measuring the base study ({} min sessions), then scaling to {} users ...",
        args.minutes, args.cfg.users
    );
    let study = run_study(&study_cfg);
    let report = run_campaign_on(&study, &args.cfg);
    println!("{}", render_population_report(&report));
    if let Some(path) = &args.json {
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
