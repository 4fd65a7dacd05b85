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
//! `rng_labels::serve_retry`), and quarantines poison cells after
//! `max_retries` supervised retries — preserving the panic payload in
//! the `StudyHealth` ledger.
//!
//! Because rounds are deterministic (pending order is submit order,
//! results come back index-ordered, backoff draws happen in the fold),
//! the event stream and the folded study are byte-identical across
//! worker counts — the property the `--smoke` gate asserts.
//!
//! Every ReCon job is scored by the paper's classifier: ReCon trained
//! at [`PAPER_SEED`] for the job's session length, whatever the job's
//! own seed. Training depends only on that seed and the length, so the
//! server trains it once per session length and keeps it in its
//! [`ReconSlot`]. A warm slot, a cold one and a recovered server give
//! the same bytes.

use crate::job::{JobSpec, RetryPolicy};
use crate::state::JobEntry;
use crate::wal::WalKind;
use appvsweb_analysis::Study;
use appvsweb_core::study::{
    campaign_cells, fold_outcomes, run_cell_caught, train_recon, CellOutcome, StudyConfig,
    PAPER_SEED,
};
use appvsweb_netsim::{rng_labels, Os, SimRng};
use appvsweb_pii::recon::ReconClassifier;
use appvsweb_services::{Catalog, Medium, ServiceSpec};
use std::collections::BTreeSet;

/// Sim-clock heartbeat budget: a worker silent for this long is
/// presumed stuck, reaped, and its cell rescheduled.
pub const HEARTBEAT_TIMEOUT_MS: u64 = 30_000;

/// A server's one trained model: the paper classifier and the session
/// length, in minutes, it was trained for. Empty until the first ReCon
/// job; a job with another length replaces it.
pub type ReconSlot = Option<(u64, ReconClassifier)>;

/// One supervisor event discovered while running a job, in emission
/// order. The server lowers each onto a WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunEvent {
    /// `Reap`, `Quarantine`, or `DeadlineSkip`.
    pub kind: WalKind,
    /// Cell label (reap/quarantine) or reason.
    pub detail: String,
    /// Cell attempt the event refers to.
    pub attempt: u32,
    /// Cells affected (`DeadlineSkip`).
    pub count: u32,
}

/// Everything one job execution produced.
#[derive(Clone, Debug)]
pub struct JobRunResult {
    /// The folded campaign, `None` when the job failed wholesale.
    pub study: Option<Study>,
    /// Supervisor events, deterministic order.
    pub events: Vec<RunEvent>,
    /// Total simulated cost: attempts + heartbeat timeouts + backoffs.
    pub cost_ms: u64,
    /// Failure reason when `study` is `None`.
    pub error: String,
}

enum Attempt {
    Ok(Box<appvsweb_analysis::CellAnalysis>),
    Panicked(String),
    /// The worker stopped heartbeating (injected via
    /// [`JobSpec::stall_cells`]); it never produced a result.
    Stalled,
}

fn cell_label(spec: &ServiceSpec, os: Os, medium: Medium) -> String {
    format!("{}/{:?}/{:?}", spec.id, os, medium)
}

/// Execute one job under supervision. A ReCon job reads its model
/// from `recon`, training it there first when the slot is empty or
/// holds another session length.
pub fn run_job(entry: &JobEntry, workers: usize, recon: &mut ReconSlot) -> JobRunResult {
    let spec = &entry.spec;
    let cfg = match spec.to_study_config(workers, entry.shed_stride) {
        Ok(cfg) => cfg,
        Err(err) => {
            return JobRunResult {
                study: None,
                events: Vec::new(),
                cost_ms: 0,
                error: err.to_string(),
            }
        }
    };
    let catalog = Catalog::paper();
    let work = match campaign_cells(&catalog, &cfg.cells) {
        Ok(work) => work,
        Err(err) => {
            return JobRunResult {
                study: None,
                events: Vec::new(),
                cost_ms: 0,
                error: err.to_string(),
            }
        }
    };
    let recon = if cfg.use_recon {
        paper_recon(recon, &catalog, &cfg, spec.minutes)
    } else {
        None
    };
    supervise(entry.id, spec, &cfg, &work, recon)
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

fn supervise(
    job_id: u64,
    spec: &JobSpec,
    cfg: &StudyConfig,
    work: &[(&ServiceSpec, Os, Medium)],
    recon: Option<&ReconClassifier>,
) -> JobRunResult {
    let _span = appvsweb_obs::span!("serve.job", "job={job_id} cells={}", work.len());
    let stall: BTreeSet<&str> = spec.stall_cells.iter().map(String::as_str).collect();
    let attempt_ms = cfg.duration.as_millis();
    let allowed = spec.max_retries.saturating_add(1);
    let policy = RetryPolicy {
        max_attempts: allowed,
        ..RetryPolicy::standard()
    };
    // One jitter stream per job, keyed by the stable job id: queue
    // order and worker count can never re-key another job's schedule.
    let mut rng = SimRng::new(spec.seed).fork(&rng_labels::serve_retry(job_id));

    let mut events = Vec::new();
    let mut cost_ms = 0u64;
    let mut outcomes: Vec<Option<CellOutcome>> = vec![None; work.len()];
    let mut panics: Vec<u64> = vec![0; work.len()];
    let mut last_msg: Vec<Option<String>> = vec![None; work.len()];
    // (work index, attempt) pairs still owed a result, submit order.
    let mut pending: Vec<(usize, u32)> = (0..work.len()).map(|i| (i, 0)).collect();

    while !pending.is_empty() {
        if spec.deadline_ms > 0 && cost_ms >= spec.deadline_ms {
            // Budget exhausted: the remaining cells are skipped, not
            // run — recorded as failed so the ledger stays honest.
            events.push(RunEvent {
                kind: WalKind::DeadlineSkip,
                detail: "deadline budget exhausted".to_string(),
                attempt: 0,
                count: pending.len() as u32,
            });
            for &(idx, attempt) in &pending {
                if let Some((s, os, medium)) = work.get(idx) {
                    outcomes[idx] = Some(CellOutcome {
                        label: cell_label(s, *os, *medium),
                        cell: None,
                        attempts: attempt,
                        panics: panics[idx],
                        panic_msg: Some("skipped: job deadline budget exhausted".to_string()),
                    });
                }
            }
            break;
        }

        // One round: every pending cell attempts once, in parallel,
        // results back in pending order.
        let results =
            appvsweb_core::exec::run_indexed(&pending, cfg.workers, 1, |_, &(idx, attempt)| {
                match work.get(idx) {
                    Some((s, os, medium)) => {
                        let label = cell_label(s, *os, *medium);
                        if attempt == 0 && stall.contains(label.as_str()) {
                            Attempt::Stalled
                        } else {
                            match run_cell_caught(s, *os, *medium, cfg, recon, attempt) {
                                Ok(cell) => Attempt::Ok(Box::new(cell)),
                                Err(msg) => Attempt::Panicked(msg),
                            }
                        }
                    }
                    None => Attempt::Panicked("work index out of range".to_string()),
                }
            });

        // Sequential supervisor fold: deterministic event order and
        // rng draws regardless of worker interleaving.
        let round: Vec<(usize, u32)> = std::mem::take(&mut pending);
        for (&(idx, attempt), result) in round.iter().zip(results) {
            let label = match work.get(idx) {
                Some((s, os, medium)) => cell_label(s, *os, *medium),
                None => continue,
            };
            match result {
                Attempt::Ok(cell) => {
                    cost_ms = cost_ms.saturating_add(attempt_ms);
                    outcomes[idx] = Some(CellOutcome {
                        label,
                        cell: Some(*cell),
                        attempts: attempt.saturating_add(1),
                        panics: panics[idx],
                        panic_msg: last_msg[idx].take(),
                    });
                }
                Attempt::Stalled => {
                    // The heartbeat went stale: charge the timeout,
                    // reap the worker, reschedule the cell.
                    cost_ms = cost_ms.saturating_add(HEARTBEAT_TIMEOUT_MS);
                    appvsweb_obs::counter!("serve.supervisor_reaps");
                    events.push(RunEvent {
                        kind: WalKind::Reap,
                        detail: label.clone(),
                        attempt,
                        count: 0,
                    });
                    let msg = "worker reaped: sim-clock heartbeat expired".to_string();
                    retry_or_quarantine(
                        idx,
                        attempt,
                        allowed,
                        label,
                        msg,
                        &policy,
                        &mut rng,
                        &mut cost_ms,
                        &mut pending,
                        &mut events,
                        &mut outcomes,
                        &panics,
                        &mut last_msg,
                    );
                }
                Attempt::Panicked(msg) => {
                    cost_ms = cost_ms.saturating_add(attempt_ms);
                    panics[idx] = panics[idx].saturating_add(1);
                    retry_or_quarantine(
                        idx,
                        attempt,
                        allowed,
                        label,
                        msg,
                        &policy,
                        &mut rng,
                        &mut cost_ms,
                        &mut pending,
                        &mut events,
                        &mut outcomes,
                        &panics,
                        &mut last_msg,
                    );
                }
            }
        }
    }

    let reaps = events.iter().filter(|e| e.kind == WalKind::Reap).count() as u64;
    let quarantined = events
        .iter()
        .filter(|e| e.kind == WalKind::Quarantine)
        .count() as u64;
    let folded: Vec<CellOutcome> = outcomes
        .into_iter()
        .zip(work)
        .map(|(o, (s, os, medium))| {
            o.unwrap_or_else(|| CellOutcome {
                label: cell_label(s, *os, *medium),
                cell: None,
                attempts: 0,
                panics: 0,
                panic_msg: Some("cell never scheduled".to_string()),
            })
        })
        .collect();
    let mut study = fold_outcomes(folded);
    study.health.supervisor_reaps = reaps;
    study.health.cells_quarantined = quarantined;
    appvsweb_obs::histogram!("serve.job_cost_ms", cost_ms);
    JobRunResult {
        study: Some(study),
        events,
        cost_ms,
        error: String::new(),
    }
}

#[allow(clippy::too_many_arguments)]
fn retry_or_quarantine(
    idx: usize,
    attempt: u32,
    allowed: u32,
    label: String,
    msg: String,
    policy: &RetryPolicy,
    rng: &mut SimRng,
    cost_ms: &mut u64,
    pending: &mut Vec<(usize, u32)>,
    events: &mut Vec<RunEvent>,
    outcomes: &mut [Option<CellOutcome>],
    panics: &[u64],
    last_msg: &mut [Option<String>],
) {
    if let Some(slot) = last_msg.get_mut(idx) {
        *slot = Some(msg.clone());
    }
    let next = attempt.saturating_add(1);
    if next < allowed {
        // Capped, jittered backoff from the one shared implementation.
        let backoff = policy.backoff_ms(attempt, rng);
        appvsweb_obs::histogram!("serve.backoff_ms", backoff);
        *cost_ms = cost_ms.saturating_add(backoff);
        pending.push((idx, next));
    } else {
        appvsweb_obs::counter!("serve.cells_quarantined");
        events.push(RunEvent {
            kind: WalKind::Quarantine,
            detail: format!("{label}: {msg}"),
            attempt,
            count: 0,
        });
        if let Some(slot) = outcomes.get_mut(idx) {
            *slot = Some(CellOutcome {
                label,
                cell: None,
                attempts: allowed,
                panics: panics.get(idx).copied().unwrap_or(0),
                panic_msg: Some(msg),
            });
        }
    }
}
