//! # appvsweb-serve
//!
//! The supervised resident service (`repro serve`): the paper's
//! "services change over time, so keep measuring" story turned into a
//! crash-recoverable daemon.
//!
//! * [`job`] — campaign job specs, lowered onto `core::study`'s
//!   queue/worker substrate; retry backoff is the *same*
//!   `RetryPolicy` the session layer uses (re-exported, not copied)
//! * [`queue`] — bounded admission: admit, load-shed to reduced cell
//!   coverage, or reject at the hard cap
//! * [`wal`] — the append-only journal of job state transitions; one
//!   self-delimiting JSON line per record, torn-tail tolerant
//! * [`state`] — the materialized state as a pure fold of the WAL
//!   (live apply ≡ recovery replay, by construction), plus periodic
//!   checkpoints
//! * [`runner`] — the supervisor: rounds of panic-isolated cell
//!   attempts, sim-clock heartbeat reaping, capped-backoff retry,
//!   poison-cell quarantine into the `StudyHealth` ledger, all kept in
//!   one `CellOutcome` per cell; returns the job's journal records,
//!   ending in `Finish` with the revision. ReCon jobs share the
//!   server's one trained paper classifier ([`runner::ReconSlot`])
//! * [`service`] — the server: WAL-first submit/run orchestration (it
//!   assigns every record's `seq`), file-backed recovery
//! * [`http`] — a minimal, fuzz-hardened std-only HTTP/1.1 surface
//!   (submit/status/report/health/drift)
//! * [`fuzz`] — the `serve` fuzz target over the parser and the
//!   journal codec
//!
//! Everything is sim-clock driven and byte-deterministic: the same
//! submissions produce the same journal, state, revisions, and drift
//! alarms at any worker count, and killing the process at any journal
//! record boundary recovers the exact same state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod http;
pub mod job;
pub mod queue;
pub mod runner;
pub mod service;
pub mod state;
pub mod wal;

pub use job::{JobSpec, RetryPolicy};
pub use queue::{Admission, QueueConfig};
pub use service::{recover, FileWal, MemWal, ServeDir, ServeError, Server, WalSink};
pub use state::{Checkpoint, JobEntry, JobStatus, Revision, ServeState};
pub use wal::{replay_lines, WalError, WalKind, WalRecord};

use appvsweb_analysis::drift::{diff_profiles, DriftAlarm};

/// Drift alarms for a new revision against its predecessor in the same
/// monitoring series (none when it has no predecessor). Deterministic,
/// so [`ServeState::apply`] can derive alarms during replay instead of
/// journaling them.
pub fn drift_alarms_for(prev: Option<&Revision>, new: &Revision) -> Vec<DriftAlarm> {
    match prev {
        Some(prev) => diff_profiles(&prev.profiles, &new.profiles),
        None => Vec::new(),
    }
}
