//! The service's materialized state: a pure fold over the WAL.
//!
//! [`ServeState::apply`] is the **only** way state changes — the live
//! server appends a record to the journal and then applies it; recovery
//! replays the journal through the same function. Because `apply` is a
//! pure, total function of `(state, record)`, live and recovered state
//! can never disagree (DESIGN §9).
//!
//! Crash-resume convergence is carried by two invariants:
//!
//! 1. **Only `Finish`/`JobFail` advance the sim clock** (by the job's
//!    deterministic simulated cost). Mid-job records (`Start`, `Reap`,
//!    `Quarantine`, `DeadlineSkip`) cost nothing, so replaying a
//!    half-finished job and then re-running it lands on the same clock.
//! 2. **Mid-job records only touch job-scoped transients** (reap /
//!    quarantine / skip counters), and [`ServeState::requeue_inflight`]
//!    resets those when it re-queues an interrupted job — the re-run
//!    emits them again, converging on the uninterrupted totals.

use crate::drift_alarms_for;
use crate::job::JobSpec;
use crate::wal::{WalKind, WalRecord};
use appvsweb_analysis::drift::{DriftAlarm, HeadlineStats, LeakProfile};
use appvsweb_analysis::StudyHealth;

/// Simulated milliseconds the admission path charges per submission
/// (the cost of validating + journaling a spec).
pub const SUBMIT_TICK_MS: u64 = 10;

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    #[default]
    Queued,
    /// A worker is executing it.
    Running,
    /// Completed; its revision is in the store.
    Done,
    /// Failed as a whole.
    Failed,
    /// Refused at admission (queue hard cap).
    Rejected,
}

appvsweb_json::impl_json!(
    enum JobStatus {
        Queued,
        Running,
        Done,
        Failed,
        Rejected,
    }
);

/// One job's ledger entry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobEntry {
    /// Stable job id (allocation order).
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Lifecycle position.
    pub status: JobStatus,
    /// Effective coverage stride after load-shedding (1 = full).
    pub shed_stride: u32,
    /// Sim-clock time of admission.
    pub submitted_ms: u64,
    /// Sim-clock time of completion/failure (0 until then).
    pub finished_ms: u64,
    /// Revision id produced by this job, if finished.
    pub revision: Option<u64>,
    /// Workers the supervisor reaped while running this job.
    /// Job-scoped transient: reset by [`ServeState::requeue_inflight`].
    pub reaps: u32,
    /// Cells quarantined as poison. Job-scoped transient.
    pub quarantined: u32,
    /// Cells skipped past the deadline budget. Job-scoped transient.
    pub deadline_skipped: u32,
    /// Failure reason (`Failed`/`Rejected`).
    pub error: String,
}

appvsweb_json::impl_json!(struct JobEntry {
    id,
    spec,
    status,
    shed_stride,
    submitted_ms,
    finished_ms,
    revision,
    reaps,
    quarantined,
    deadline_skipped,
    error,
});

/// One completed campaign revision: the drift-relevant distillation of
/// the study a job produced, stored durably (it rides inside the
/// `Finish` WAL record).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Revision {
    /// Stable revision id (allocation order).
    pub id: u64,
    /// The job that produced it.
    pub job: u64,
    /// Monitoring-series name (from the spec).
    pub name: String,
    /// Campaign seed.
    pub seed: u64,
    /// Sim-clock completion time.
    pub at_ms: u64,
    /// The four golden headline rates.
    pub headlines: HeadlineStats,
    /// Per-cell leak profiles, in study cell order.
    pub profiles: Vec<LeakProfile>,
    /// The campaign's health ledger (reaps/quarantines included).
    pub health: StudyHealth,
    /// MD5 of the canonical profile JSON — a cheap byte-identity
    /// witness two revisions can be compared by.
    pub digest: String,
}

appvsweb_json::impl_json!(struct Revision {
    id,
    job,
    name,
    seed,
    at_ms,
    headlines,
    profiles,
    health,
    digest,
});

/// The whole service state. Everything is reconstructible from
/// checkpoint + WAL suffix; JSON-serializable for checkpoints and the
/// `/health` endpoint.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeState {
    /// The service's sim clock, milliseconds.
    pub clock_ms: u64,
    /// Next job id to allocate.
    pub next_job: u64,
    /// Queued job ids, execution order.
    pub queued: Vec<u64>,
    /// Every job ever admitted or rejected, by id.
    pub jobs: Vec<JobEntry>,
    /// Completed revisions, by id.
    pub revisions: Vec<Revision>,
    /// Drift alarms, in (revision, cell, kind) emission order.
    pub alarms: Vec<DriftAlarm>,
}

appvsweb_json::impl_json!(struct ServeState {
    clock_ms,
    next_job,
    queued,
    jobs,
    revisions,
    alarms,
});

impl ServeState {
    /// Look up a job entry.
    pub fn job(&self, id: u64) -> Option<&JobEntry> {
        self.jobs.iter().find(|j| j.id == id)
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut JobEntry> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    /// Apply one WAL record. Pure and total: unknown job ids are
    /// ignored (a checkpointed prefix may reference jobs the suffix
    /// re-describes), and every arithmetic saturates.
    pub fn apply(&mut self, rec: &WalRecord) {
        appvsweb_cover::cover!();
        match rec.kind {
            WalKind::Submit | WalKind::Shed | WalKind::Reject => {
                // Admission decisions are *in* the WAL: the live server
                // decided once; replay only re-applies.
                if self.job(rec.job).is_some() {
                    return;
                }
                let spec = rec.spec.clone().unwrap_or_default();
                let status = match rec.kind {
                    WalKind::Reject => JobStatus::Rejected,
                    _ => JobStatus::Queued,
                };
                self.clock_ms = self.clock_ms.saturating_add(SUBMIT_TICK_MS);
                self.jobs.push(JobEntry {
                    id: rec.job,
                    spec,
                    status,
                    shed_stride: rec.stride.max(1),
                    submitted_ms: self.clock_ms,
                    error: match rec.kind {
                        WalKind::Reject => rec.detail.clone(),
                        _ => String::new(),
                    },
                    ..JobEntry::default()
                });
                if status == JobStatus::Queued {
                    self.queued.push(rec.job);
                }
                self.next_job = self.next_job.max(rec.job.saturating_add(1));
            }
            WalKind::Start => {
                self.queued.retain(|&id| id != rec.job);
                if let Some(job) = self.job_mut(rec.job) {
                    job.status = JobStatus::Running;
                }
            }
            WalKind::Reap => {
                if let Some(job) = self.job_mut(rec.job) {
                    job.reaps = job.reaps.saturating_add(1);
                }
            }
            WalKind::Quarantine => {
                if let Some(job) = self.job_mut(rec.job) {
                    job.quarantined = job.quarantined.saturating_add(1);
                }
            }
            WalKind::DeadlineSkip => {
                if let Some(job) = self.job_mut(rec.job) {
                    job.deadline_skipped = job.deadline_skipped.saturating_add(rec.count);
                }
            }
            WalKind::Finish => {
                self.clock_ms = self.clock_ms.saturating_add(rec.cost_ms);
                let rev_id = self.revisions.len() as u64;
                let clock = self.clock_ms;
                if let Some(job) = self.job_mut(rec.job) {
                    job.status = JobStatus::Done;
                    job.finished_ms = clock;
                    job.revision = Some(rev_id);
                }
                if let Some(rev) = &rec.revision {
                    let mut rev = rev.clone();
                    rev.id = rev_id;
                    rev.job = rec.job;
                    rev.at_ms = clock;
                    // Drift alarms are *derived*, not journaled: the
                    // previous revision is already in the state, and
                    // the diff is deterministic, so replay recomputes
                    // the identical alarm list.
                    let prev = self
                        .revisions
                        .iter()
                        .rev()
                        .find(|r| r.name == rev.name && r.id != rev_id);
                    self.alarms.extend(drift_alarms_for(prev, &rev));
                    self.revisions.push(rev);
                }
            }
            WalKind::JobFail => {
                self.clock_ms = self.clock_ms.saturating_add(rec.cost_ms);
                let clock = self.clock_ms;
                if let Some(job) = self.job_mut(rec.job) {
                    job.status = JobStatus::Failed;
                    job.finished_ms = clock;
                    job.error = rec.detail.clone();
                }
            }
        }
    }

    /// Re-queue jobs that were mid-flight when the process died:
    /// `Running` entries go back to `Queued` (original submit order)
    /// with their job-scoped transients reset, so the re-run's
    /// re-emitted records converge on the uninterrupted totals.
    pub fn requeue_inflight(&mut self) {
        let mut requeued = Vec::new();
        for job in &mut self.jobs {
            if job.status == JobStatus::Running {
                job.status = JobStatus::Queued;
                job.reaps = 0;
                job.quarantined = 0;
                job.deadline_skipped = 0;
                job.error = String::new();
                requeued.push(job.id);
            }
        }
        if !requeued.is_empty() {
            self.queued.extend(requeued);
            self.queued.sort_unstable();
            self.queued.dedup();
        }
    }
}

/// A periodic snapshot: the state as of `wal_seq`, so recovery only
/// replays the journal suffix written after it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// Sequence number of the last record folded into `state`.
    pub wal_seq: u64,
    /// The materialized state at that point.
    pub state: ServeState,
}

appvsweb_json::impl_json!(struct Checkpoint { wal_seq, state });

#[cfg(test)]
mod tests {
    use super::*;
    use appvsweb_json::{FromJson, ToJson};

    fn submit(seq: u64, job: u64) -> WalRecord {
        let mut r = WalRecord::new(seq, WalKind::Submit, job);
        r.spec = Some(JobSpec::default());
        r
    }

    #[test]
    fn submit_start_finish_lifecycle() {
        let mut s = ServeState::default();
        s.apply(&submit(1, 0));
        assert_eq!(s.queued, vec![0]);
        assert_eq!(s.clock_ms, SUBMIT_TICK_MS);

        s.apply(&WalRecord::new(2, WalKind::Start, 0));
        assert!(s.queued.is_empty());
        assert_eq!(s.job(0).map(|j| j.status), Some(JobStatus::Running));

        let mut fin = WalRecord::new(3, WalKind::Finish, 0);
        fin.cost_ms = 1000;
        fin.revision = Some(Revision {
            name: "campaign".to_string(),
            ..Revision::default()
        });
        s.apply(&fin);
        assert_eq!(s.job(0).map(|j| j.status), Some(JobStatus::Done));
        assert_eq!(s.clock_ms, SUBMIT_TICK_MS + 1000);
        assert_eq!(s.revisions.len(), 1);
        assert_eq!(s.revisions[0].id, 0);
    }

    #[test]
    fn requeue_resets_job_scoped_transients() {
        let mut s = ServeState::default();
        s.apply(&submit(1, 0));
        s.apply(&WalRecord::new(2, WalKind::Start, 0));
        s.apply(&WalRecord::new(3, WalKind::Reap, 0));
        s.apply(&WalRecord::new(4, WalKind::Quarantine, 0));
        assert_eq!(s.job(0).map(|j| (j.reaps, j.quarantined)), Some((1, 1)));

        s.requeue_inflight();
        assert_eq!(s.queued, vec![0]);
        assert_eq!(s.job(0).map(|j| j.status), Some(JobStatus::Queued));
        assert_eq!(s.job(0).map(|j| (j.reaps, j.quarantined)), Some((0, 0)));
        // Clock unchanged: mid-job records cost nothing.
        assert_eq!(s.clock_ms, SUBMIT_TICK_MS);
    }

    #[test]
    fn rejected_jobs_never_queue() {
        let mut s = ServeState::default();
        let mut r = submit(1, 0);
        r.kind = WalKind::Reject;
        r.detail = "queue full".to_string();
        s.apply(&r);
        assert!(s.queued.is_empty());
        assert_eq!(s.job(0).map(|j| j.status), Some(JobStatus::Rejected));
        assert_eq!(s.job(0).map(|j| j.error.as_str()), Some("queue full"));
    }

    #[test]
    fn state_roundtrips_through_json() {
        let mut s = ServeState::default();
        s.apply(&submit(1, 0));
        s.apply(&WalRecord::new(2, WalKind::Start, 0));
        let back = ServeState::from_json(&s.to_json()).expect("roundtrip");
        assert_eq!(back, s);
        let cp = Checkpoint {
            wal_seq: 2,
            state: s,
        };
        let back = Checkpoint::from_json(&cp.to_json()).expect("checkpoint");
        assert_eq!(back, cp);
    }
}
