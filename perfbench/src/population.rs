//! The `population` workload: `run_campaign_on` over a base study that
//! was measured during set-up. Model sampling, sketch ingestion and the
//! reduction tree do all of the timed work; the simulator does none.

use crate::campaign::{self, Setup, RUN_GROUP};
use crate::ledger::{Spans, Tracer};
use crate::Report;
use appvsweb_analysis::{PopulationReport, Study};
use appvsweb_netsim::Os;
use appvsweb_population::{run_campaign_on, CampaignConfig, Universe, UserModel};
use std::collections::{BTreeMap, BTreeSet};

/// Shards the users are split into; fixed, as in `repro population`.
pub const SHARDS: u32 = 64;
/// Users per campaign, sized so that one campaign takes a few seconds.
pub const USERS: u64 = 200_000;
/// Users whose model is generated on its own in the traced run.
const MODEL_SAMPLE: u64 = 20_000;

/// Set-up for the population workload: the campaign set-up plus the
/// base study, measured at the workload seed.
pub fn base_study(seed: u64, workers: usize, tracer: Option<&Tracer>) -> Study {
    let setup = Setup::new(seed, workers, tracer);
    match tracer {
        Some(t) => t.time("population.base_study", RUN_GROUP, None, || {
            campaign::run(&setup)
        }),
        None => campaign::run(&setup),
    }
}

pub fn config(seed: u64, workers: usize) -> CampaignConfig {
    CampaignConfig {
        users: USERS,
        shards: SHARDS,
        workers,
        seed,
    }
}

/// The report must describe exactly the users that were asked for.
pub fn check(report: &PopulationReport, cfg: &CampaignConfig, out: &mut Report) -> bool {
    let ok = report.users == cfg.users && report.aggregate.users == cfg.users;
    out.flag("check.population_users", ok);
    ok
}

/// The adoption universe the campaign builds from the base study:
/// services ranked best first, per OS.
fn universe(study: &Study) -> Universe {
    let mut ranked: BTreeMap<Os, BTreeSet<(u32, &str)>> = BTreeMap::new();
    for cell in &study.cells {
        ranked
            .entry(cell.os)
            .or_default()
            .insert((cell.rank, cell.service_id.as_str()));
    }
    let ordered = |os: Os| -> Vec<String> {
        ranked
            .get(&os)
            .map(|set| set.iter().map(|(_, id)| id.to_string()).collect())
            .unwrap_or_default()
    };
    Universe {
        android: ordered(Os::Android),
        ios: ordered(Os::Ios),
    }
}

/// The traced campaign, then a replay of `UserModel::generate` over a
/// fixed sample of users. Writes the `population` layer metrics.
pub fn run_traced(
    study: &Study,
    cfg: &CampaignConfig,
    tracer: &Tracer,
    out: &mut Report,
) -> PopulationReport {
    let report = tracer.time("population.campaign", RUN_GROUP, None, || {
        run_campaign_on(study, cfg)
    });
    let universe = universe(study);
    tracer.time("population.model", RUN_GROUP, None, || {
        for user in 0..MODEL_SAMPLE {
            std::hint::black_box(UserModel::generate(cfg.seed, user, &universe));
        }
    });
    let spans = Spans::new(tracer.spans());
    let per_user = |name: &str, users: u64| spans.total_ms(name) * 1e6 / users.max(1) as f64;
    out.num("campaign_ms", spans.total_ms("population.campaign"));
    out.num(
        "population.base_study_ms",
        spans.total_ms("population.base_study"),
    );
    out.num("pii.recon_train_ms", spans.total_ms("pii.recon_train"));
    out.num(
        "population.campaign_ns_per_user",
        per_user("population.campaign", cfg.users),
    );
    out.num(
        "population.model_ns_per_user",
        per_user("population.model", MODEL_SAMPLE),
    );
    out.count("population.sessions", report.aggregate.sessions);
    out.count("population.peak_state_bytes", report.peak_state_bytes);
    report
}
