//! The resident server: WAL-first orchestration of submit → run →
//! revision → drift, plus file-backed recovery.
//!
//! Every state change follows the same two-step: **append the record,
//! then apply it** ([`Server::log`]). The journal sink is pluggable
//! ([`WalSink`]) — the crash-point suite uses the in-memory
//! [`MemWal`] and truncates it at every boundary; `repro serve` uses
//! [`FileWal`] under a state directory managed by [`ServeDir`].

use crate::job::JobSpec;
use crate::queue::{Admission, QueueConfig};
use crate::runner::{self, ReconSlot};
use crate::state::{Checkpoint, ServeState};
use crate::wal::{replay_lines, WalError, WalKind, WalRecord};
use appvsweb_core::study::StudyConfigError;
use appvsweb_json::{FromJson, ToJson};
use appvsweb_pii::recon::ReconClassifier;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Why a server operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The submitted spec does not validate.
    Config(StudyConfigError),
    /// The journal is unreadable.
    Wal(WalError),
    /// Filesystem failure, stringified.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid job spec: {e}"),
            ServeError::Wal(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

/// Where journal lines go. Appends must be durable before `apply` —
/// that ordering is the whole crash-safety argument.
pub trait WalSink {
    /// Append one record line (no trailing newline in `line`).
    fn append_line(&mut self, line: &str) -> Result<(), ServeError>;
}

/// In-memory journal for tests and the smoke gate: the accumulated
/// text is exactly what a [`FileWal`] would hold on disk.
#[derive(Clone, Debug, Default)]
pub struct MemWal {
    /// The journal text, one record per line.
    pub text: String,
}

impl WalSink for MemWal {
    fn append_line(&mut self, line: &str) -> Result<(), ServeError> {
        self.text.push_str(line);
        self.text.push('\n');
        Ok(())
    }
}

/// File-backed journal: append + flush per record.
#[derive(Debug)]
pub struct FileWal {
    path: PathBuf,
}

impl FileWal {
    /// Open (creating if absent) the journal at `path`.
    pub fn new(path: impl Into<PathBuf>) -> FileWal {
        FileWal { path: path.into() }
    }
}

impl WalSink for FileWal {
    fn append_line(&mut self, line: &str) -> Result<(), ServeError> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        file.write_all(line.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.flush())
            .map_err(|e| ServeError::Io(e.to_string()))
    }
}

/// Replay a journal (plus optional checkpoint) into recovered state.
///
/// Returns the state with in-flight jobs re-queued, and the last
/// applied sequence number (0 when the journal is empty).
pub fn recover(
    wal_text: &str,
    checkpoint: Option<&Checkpoint>,
) -> Result<(ServeState, u64), WalError> {
    let records = replay_lines(wal_text)?;
    let (mut state, from_seq) = match checkpoint {
        Some(cp) => (cp.state.clone(), cp.wal_seq),
        None => (ServeState::default(), 0),
    };
    let mut last = from_seq;
    for rec in records.iter().filter(|r| r.seq > from_seq) {
        state.apply(rec);
        last = rec.seq;
    }
    state.requeue_inflight();
    Ok((state, last))
}

/// The resident service.
pub struct Server<S: WalSink> {
    /// Materialized state (pure fold of the journal).
    pub state: ServeState,
    /// Admission bounds.
    pub queue: QueueConfig,
    /// Worker threads for campaign execution.
    pub workers: usize,
    sink: S,
    last_seq: u64,
    /// The paper classifier, trained by the first ReCon job. Not
    /// journaled: a recovered server starts empty and retrains the
    /// same model.
    recon: ReconSlot,
}

impl<S: WalSink> Server<S> {
    /// A fresh server over an empty journal.
    pub fn new(sink: S, queue: QueueConfig, workers: usize) -> Server<S> {
        Server {
            state: ServeState::default(),
            queue,
            workers: workers.max(1),
            sink,
            last_seq: 0,
            recon: None,
        }
    }

    /// A server resuming from recovered state; `last_seq` is the last
    /// sequence number already in the journal.
    pub fn recovered(
        sink: S,
        state: ServeState,
        last_seq: u64,
        queue: QueueConfig,
        workers: usize,
    ) -> Server<S> {
        Server {
            state,
            queue,
            workers: workers.max(1),
            sink,
            last_seq,
            recon: None,
        }
    }

    /// The underlying journal sink (tests inspect [`MemWal::text`]).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The session length, in minutes, and the paper classifier held
    /// for it; `None` until a ReCon job has run.
    pub fn recon(&self) -> Option<(u64, &ReconClassifier)> {
        self.recon
            .as_ref()
            .map(|(minutes, model)| (*minutes, model))
    }

    /// Last journal sequence number written.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Append-then-apply: the only way state changes. Assigns the
    /// record the next sequence number.
    fn log(&mut self, mut rec: WalRecord) -> Result<(), ServeError> {
        self.last_seq = self.last_seq.saturating_add(1);
        rec.seq = self.last_seq;
        self.sink.append_line(&rec.encode())?;
        self.state.apply(&rec);
        Ok(())
    }

    /// Admit (possibly shedding) or reject one submission. Invalid
    /// specs error out before anything is journaled.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(u64, Admission), ServeError> {
        spec.to_study_config(self.workers, 1)
            .map_err(ServeError::Config)?;
        let admission = self.queue.admit(self.state.queued.len());
        let job = self.state.next_job;
        let mut rec = match admission {
            Admission::Admit => WalRecord::new(0, WalKind::Submit, job),
            Admission::Shed(stride) => {
                let mut r = WalRecord::new(0, WalKind::Shed, job);
                r.stride = stride;
                r
            }
            Admission::Reject => {
                let mut r = WalRecord::new(0, WalKind::Reject, job);
                r.detail = "queue at hard cap".to_string();
                r
            }
        };
        rec.spec = Some(spec);
        self.log(rec)?;
        appvsweb_obs::counter!("serve.jobs_submitted");
        if admission == Admission::Reject {
            appvsweb_obs::counter!("serve.jobs_rejected");
        }
        appvsweb_obs::histogram!("serve.queue_depth", self.state.queued.len() as u64);
        Ok((job, admission))
    }

    /// Run the next queued job to completion. `Ok(None)` when idle.
    pub fn run_next(&mut self) -> Result<Option<u64>, ServeError> {
        let Some(&job_id) = self.state.queued.first() else {
            return Ok(None);
        };
        self.log(WalRecord::new(0, WalKind::Start, job_id))?;
        let Some(entry) = self.state.job(job_id).cloned() else {
            // Queue/ledger disagreement can only come from a corrupt
            // journal that still replayed; fail the job explicitly.
            self.log(job_fail(
                job_id,
                "job entry missing from ledger".to_string(),
            ))?;
            return Ok(Some(job_id));
        };
        let records = runner::run_job(&entry, self.workers, &mut self.recon)
            .unwrap_or_else(|error| vec![job_fail(job_id, error)]);
        for rec in records {
            self.log(rec)?;
        }
        appvsweb_obs::counter!("serve.jobs_completed");
        Ok(Some(job_id))
    }

    /// Drain the queue; returns how many jobs ran.
    pub fn run_pending(&mut self) -> Result<u32, ServeError> {
        let mut ran = 0u32;
        while self.run_next()?.is_some() {
            ran = ran.saturating_add(1);
        }
        Ok(ran)
    }

    /// Snapshot the current state for a checkpoint.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            wal_seq: self.last_seq,
            state: self.state.clone(),
        }
    }
}

/// The record that fails `job` as a whole, for `detail`.
fn job_fail(job: u64, detail: String) -> WalRecord {
    WalRecord {
        detail,
        ..WalRecord::new(0, WalKind::JobFail, job)
    }
}

/// A state directory holding `wal.jsonl` + `checkpoint.json`.
#[derive(Clone, Debug)]
pub struct ServeDir {
    dir: PathBuf,
}

impl ServeDir {
    /// Manage state under `dir` (created on first append/checkpoint).
    pub fn new(dir: impl Into<PathBuf>) -> ServeDir {
        ServeDir { dir: dir.into() }
    }

    /// Path of the journal file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.jsonl")
    }

    /// Path of the checkpoint file.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.json")
    }

    /// Open the directory's server: recover from checkpoint + journal
    /// when present, start fresh otherwise.
    pub fn open(&self, queue: QueueConfig, workers: usize) -> Result<Server<FileWal>, ServeError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| ServeError::Io(e.to_string()))?;
        let checkpoint = match read_optional(&self.checkpoint_path())? {
            Some(text) => {
                let value = appvsweb_json::parse(&text)
                    .map_err(|e| ServeError::Wal(WalError::Codec(e.to_string())))?;
                Some(
                    Checkpoint::from_json(&value)
                        .map_err(|e| ServeError::Wal(WalError::Codec(e.to_string())))?,
                )
            }
            None => None,
        };
        let wal_text = read_optional(&self.wal_path())?.unwrap_or_default();
        let (state, last_seq) = recover(&wal_text, checkpoint.as_ref())?;
        Ok(Server::recovered(
            FileWal::new(self.wal_path()),
            state,
            last_seq,
            queue,
            workers,
        ))
    }

    /// Write a checkpoint atomically (temp file + rename).
    pub fn write_checkpoint(&self, cp: &Checkpoint) -> Result<(), ServeError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| ServeError::Io(e.to_string()))?;
        let tmp = self.dir.join("checkpoint.json.tmp");
        std::fs::write(&tmp, cp.to_json().to_pretty())
            .and_then(|()| std::fs::rename(&tmp, self.checkpoint_path()))
            .map_err(|e| ServeError::Io(e.to_string()))
    }
}

fn read_optional(path: &Path) -> Result<Option<String>, ServeError> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(ServeError::Io(e.to_string())),
    }
}
