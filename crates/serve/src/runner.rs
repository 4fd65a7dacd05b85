//! The supervised queue/worker executor.
//!
//! One job = one campaign, executed as **rounds** of cell attempts on
//! the same work-stealing substrate the batch runner uses
//! (`core::exec::run_indexed`, index-ordered results). Each round runs
//! every pending cell once inside `run_cell_caught`'s panic boundary,
//! then a **sequential fold** plays supervisor: it charges each
//! attempt's simulated cost, reaps workers whose sim-clock heartbeat
//! went stale, draws retry backoff from the shared
//! [`RetryPolicy`](crate::job::RetryPolicy) (one jitter stream per job,
//! `rng_labels::serve_retry`), and quarantines poison cells once they
//! have spent the config's `cell_attempts` — preserving the panic
//! payload in the `StudyHealth` ledger.
//!
//! A job's cells live in **one ledger**, a `Vec<CellOutcome>` built
//! from the work list and updated in place: every attempt result bumps
//! the cell's `attempts` (which is also the index of its next attempt),
//! a panic or stall records its message, and a quarantine or deadline
//! skip writes its own. `core::study::fold_outcomes` folds the ledger
//! into the study. [`run_job`] hands back the journal records the job
//! owes — reaps, quarantines, a deadline skip, then `Finish` — and the
//! server assigns each its `seq` as it logs it.
//!
//! Because rounds are deterministic (pending order is submit order,
//! results come back index-ordered, backoff draws happen in the fold),
//! the record stream and the folded study are byte-identical across
//! worker counts — the property the `--smoke` gate asserts.
//!
//! Every ReCon job is scored by the paper's classifier: ReCon trained
//! at [`PAPER_SEED`] for the job's session length, whatever the job's
//! own seed. Training depends only on that seed and the length, so the
//! server trains it once per session length and keeps it in its
//! [`ReconSlot`]. A warm slot, a cold one and a recovered server give
//! the same bytes.

use crate::job::RetryPolicy;
use crate::state::{JobEntry, Revision};
use crate::wal::{WalKind, WalRecord};
use appvsweb_analysis::drift::{headline_stats, profiles_of};
use appvsweb_analysis::Study;
use appvsweb_core::study::{
    campaign_cells, fold_outcomes, run_cell_caught, train_recon, CellOutcome, StudyConfig,
    PAPER_SEED,
};
use appvsweb_json::ToJson;
use appvsweb_netsim::{rng_labels, Os, SimRng};
use appvsweb_pii::recon::ReconClassifier;
use appvsweb_services::{cell_label, Catalog, Medium, ServiceSpec};
use std::collections::BTreeSet;

/// Sim-clock heartbeat budget: a worker silent for this long is
/// presumed stuck, reaped, and its cell rescheduled.
pub const HEARTBEAT_TIMEOUT_MS: u64 = 30_000;

/// A server's one trained model: the paper classifier and the session
/// length, in minutes, it was trained for. Empty until the first ReCon
/// job; a job with another length replaces it.
pub type ReconSlot = Option<(u64, ReconClassifier)>;

enum Attempt {
    Ok(Box<appvsweb_analysis::CellAnalysis>),
    Panicked(String),
    /// The worker stopped heartbeating (injected via
    /// [`JobSpec::stall_cells`](crate::JobSpec::stall_cells)); it never
    /// produced a result.
    Stalled,
}

/// Execute one job under supervision and return the journal records
/// it owes, in emission order and ending in its `Finish`; the server
/// assigns their `seq` as it logs them. `Err` is the reason the job
/// fails as a whole. A ReCon job reads its model from `recon`,
/// training it there first when the slot is empty or holds another
/// session length.
pub fn run_job(
    entry: &JobEntry,
    workers: usize,
    recon: &mut ReconSlot,
) -> Result<Vec<WalRecord>, String> {
    let cfg = entry
        .spec
        .to_study_config(workers, entry.shed_stride)
        .map_err(|e| e.to_string())?;
    let catalog = Catalog::paper();
    let work = campaign_cells(&catalog, &cfg.cells).map_err(|e| e.to_string())?;
    let recon = if cfg.use_recon {
        paper_recon(recon, &catalog, &cfg, entry.spec.minutes)
    } else {
        None
    };
    Ok(supervise(entry, &cfg, &work, recon))
}

/// The paper classifier for `minutes`-long sessions, trained into
/// `slot` unless it already holds one for that length.
fn paper_recon<'a>(
    slot: &'a mut ReconSlot,
    catalog: &Catalog,
    cfg: &StudyConfig,
    minutes: u64,
) -> Option<&'a ReconClassifier> {
    if slot.as_ref().map(|(held, _)| *held) != Some(minutes) {
        appvsweb_obs::counter!("serve.recon_trains");
        let paper = StudyConfig {
            seed: PAPER_SEED,
            ..cfg.clone()
        };
        *slot = Some((minutes, train_recon(catalog, &paper)));
    }
    slot.as_ref().map(|(_, model)| model)
}

/// A mid-job record; [`Server`](crate::Server) assigns its `seq`.
fn record(kind: WalKind, job: u64, detail: String, attempt: u32) -> WalRecord {
    WalRecord {
        detail,
        attempt,
        ..WalRecord::new(0, kind, job)
    }
}

fn supervise(
    entry: &JobEntry,
    cfg: &StudyConfig,
    work: &[(&ServiceSpec, Os, Medium)],
    recon: Option<&ReconClassifier>,
) -> Vec<WalRecord> {
    let (job, spec) = (entry.id, &entry.spec);
    let _span = appvsweb_obs::span!("serve.job", "job={job} cells={}", work.len());
    let stall: BTreeSet<&str> = spec.stall_cells.iter().map(String::as_str).collect();
    let attempt_ms = cfg.duration.as_millis();
    let policy = RetryPolicy::standard();
    // One jitter stream per job, keyed by the stable job id: queue
    // order and worker count can never re-key another job's schedule.
    let mut rng = SimRng::new(spec.seed).fork(&rng_labels::serve_retry(job));

    let mut records = Vec::new();
    let mut cost_ms = 0u64;
    // The one ledger: a cell's attempts spent, panics and last message
    // so far. Its `attempts` is also the index of the cell's next one.
    let mut ledger: Vec<CellOutcome> = work
        .iter()
        .map(|&(s, os, medium)| CellOutcome {
            label: cell_label(s.id, os, medium),
            cell: None,
            attempts: 0,
            panics: 0,
            panic_msg: None,
        })
        .collect();
    // Ledger indices still owed an attempt, submit order.
    let mut pending: Vec<usize> = (0..work.len()).collect();

    while !pending.is_empty() {
        if spec.deadline_ms > 0 && cost_ms >= spec.deadline_ms {
            // Budget exhausted: the remaining cells are skipped, not
            // run — recorded as failed so the ledger stays honest.
            records.push(WalRecord {
                detail: "deadline budget exhausted".to_string(),
                count: pending.len() as u32,
                ..WalRecord::new(0, WalKind::DeadlineSkip, job)
            });
            for &idx in &pending {
                ledger[idx].panic_msg = Some("skipped: job deadline budget exhausted".to_string());
            }
            break;
        }

        // One round: every pending cell attempts once, in parallel,
        // results back in pending order.
        let results = appvsweb_core::exec::run_indexed(&pending, cfg.workers, 1, |_, &idx| {
            let (s, os, medium) = work[idx];
            let attempt = ledger[idx].attempts;
            if attempt == 0 && stall.contains(ledger[idx].label.as_str()) {
                Attempt::Stalled
            } else {
                match run_cell_caught(s, os, medium, cfg, recon, attempt) {
                    Ok(cell) => Attempt::Ok(Box::new(cell)),
                    Err(msg) => Attempt::Panicked(msg),
                }
            }
        });

        // Sequential supervisor fold: deterministic event order and
        // rng draws regardless of worker interleaving.
        for (idx, result) in std::mem::take(&mut pending).into_iter().zip(results) {
            let outcome = &mut ledger[idx];
            let attempt = outcome.attempts;
            outcome.attempts = attempt.saturating_add(1);
            let msg = match result {
                Attempt::Ok(cell) => {
                    cost_ms = cost_ms.saturating_add(attempt_ms);
                    outcome.cell = Some(*cell);
                    continue;
                }
                Attempt::Stalled => {
                    // The heartbeat went stale: charge the timeout,
                    // reap the worker, reschedule the cell.
                    cost_ms = cost_ms.saturating_add(HEARTBEAT_TIMEOUT_MS);
                    appvsweb_obs::counter!("serve.supervisor_reaps");
                    records.push(record(WalKind::Reap, job, outcome.label.clone(), attempt));
                    "worker reaped: sim-clock heartbeat expired".to_string()
                }
                Attempt::Panicked(msg) => {
                    cost_ms = cost_ms.saturating_add(attempt_ms);
                    outcome.panics = outcome.panics.saturating_add(1);
                    msg
                }
            };
            if outcome.attempts < cfg.cell_attempts {
                // Capped, jittered backoff from the one shared implementation.
                let backoff = policy.backoff_ms(attempt, &mut rng);
                appvsweb_obs::histogram!("serve.backoff_ms", backoff);
                cost_ms = cost_ms.saturating_add(backoff);
                pending.push(idx);
            } else {
                appvsweb_obs::counter!("serve.cells_quarantined");
                let detail = format!("{}: {msg}", outcome.label);
                records.push(record(WalKind::Quarantine, job, detail, attempt));
            }
            outcome.panic_msg = Some(msg);
        }
    }

    let count = |kind| records.iter().filter(|r| r.kind == kind).count() as u64;
    let (reaps, quarantined) = (count(WalKind::Reap), count(WalKind::Quarantine));
    let mut study = fold_outcomes(ledger);
    study.health.supervisor_reaps = reaps;
    study.health.cells_quarantined = quarantined;
    appvsweb_obs::histogram!("serve.job_cost_ms", cost_ms);
    records.push(WalRecord {
        cost_ms,
        revision: Some(revision(entry, &study)),
        ..WalRecord::new(0, WalKind::Finish, job)
    });
    records
}

/// The durable revision a finished study becomes. `id`, `job`, and
/// `at_ms` are assigned by [`ServeState::apply`](crate::ServeState::apply)
/// when the `Finish` record folds in, keeping the construction
/// replay-stable.
fn revision(entry: &JobEntry, study: &Study) -> Revision {
    let profiles = profiles_of(study);
    let profile_json = profiles.to_json().to_compact();
    Revision {
        id: 0,
        job: entry.id,
        name: entry.spec.name.clone(),
        seed: entry.spec.seed,
        at_ms: 0,
        headlines: headline_stats(study),
        profiles,
        health: study.health.clone(),
        digest: appvsweb_pii::hash::md5_hex(profile_json.as_bytes()),
    }
}
