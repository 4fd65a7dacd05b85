//! Deterministic observability: per-cell event and metric journals.
//!
//! The study pipeline computes the paper's aggregates (flows, bytes,
//! leaks per cell) but until this crate recorded nothing about *how* it
//! got them. `appvsweb-obs` adds that substrate in the style of
//! `appvsweb-cover`: zero dependencies beyond the in-repo JSON crate,
//! no wall clock anywhere, and no process-wide state — everything it
//! records lives in thread-locals and in the capture that owns it.
//!
//! One plane, the **cell journal** ([`journal`]). A worker installs a
//! [`journal::CellScope`]; every [`span!`]/[`event!`] fired on that
//! thread lands in the scope's journal with a `(cell, seq)` key and a
//! timestamp copied from the **sim clock** (instrumentation sites call
//! [`stamp`] as simulated time advances), and every [`counter!`]/
//! [`histogram!`] folds into the same journal's per-cell totals.
//! Completed journals drain into the sink of the capture their thread
//! belongs to; [`capture_end`] sorts them by cell id, so the serialized
//! study journal is byte-identical regardless of worker count or thread
//! interleaving. Campaign-wide totals are a fold of that journal
//! ([`metrics::of`]), not a second store.
//!
//! A capture belongs to the thread that calls [`capture_begin`] and to
//! the worker threads that [`journal::join`] it, so concurrent captures
//! on different threads never mix.
//!
//! There is one build: the layer is always compiled in, and whether a
//! site records anything is decided at run time by whether its thread
//! belongs to a capture. Outside a capture every macro costs one
//! thread-local read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod journal;
pub mod metrics;

pub use journal::{cell_scope, CellScope, SpanGuard, StudyJournal};

/// Whether a capture is running on this thread.
///
/// Every macro body checks this first: when no capture is active the
/// only cost of an instrumentation site is one thread-local flag read.
#[inline]
pub fn capturing() -> bool {
    journal::is_capturing()
}

/// Record the current simulated time, in milliseconds since the sim
/// epoch, for the journal on this thread.
///
/// Instrumentation sites call this as their simulated clock advances;
/// every subsequent journal entry on the thread is stamped with the
/// value. The obs crate deliberately does not depend on `netsim`, so
/// callers pass `SimTime::as_millis()` rather than the type itself.
#[inline]
pub fn stamp(at_ms: u64) {
    if capturing() {
        journal::set_now(at_ms);
    }
}

/// Start a study capture on this thread with a fresh, empty sink.
///
/// Not reentrant — one capture at a time per thread; threads doing the
/// capture's work enter it through [`journal::join`].
pub fn capture_begin() {
    journal::begin();
}

/// Finish this thread's capture and return the sorted journal.
///
/// Cells are ordered by their id string, so the result is byte-identical
/// across worker counts.
pub fn capture_end() -> StudyJournal {
    journal::end()
}

/// Open a span in the active cell journal; the returned [`SpanGuard`]
/// records the matching close when dropped (exactly once, including
/// during unwinding).
///
/// `span!("name")` or `span!("name", "detail {}", arg)`. The detail
/// format arguments are only evaluated while a capture is running.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::journal::SpanGuard::open($name, String::new())
    };
    ($name:expr, $($arg:tt)*) => {
        $crate::journal::SpanGuard::open(
            $name,
            if $crate::capturing() { format!($($arg)*) } else { String::new() },
        )
    };
}

/// Record a point event in the active cell journal.
///
/// `event!("name")` or `event!("name", "detail {}", arg)`. Format
/// arguments are only evaluated while a capture is running; outside a
/// [`cell_scope`] the event is dropped.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        if $crate::capturing() {
            $crate::journal::record_event($name, String::new());
        }
    };
    ($name:expr, $($arg:tt)*) => {
        if $crate::capturing() {
            $crate::journal::record_event($name, format!($($arg)*));
        }
    };
}

/// Add to a counter in the active cell journal.
///
/// `counter!("name")` adds 1; `counter!("name", n)` adds `n`. While a
/// capture runs outside every cell scope the increment lands in a
/// [`journal::UNSCOPED`] journal rather than being dropped; with no
/// capture it records nothing.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1u64)
    };
    ($name:expr, $n:expr) => {
        $crate::journal::cell_counter($name, $n as u64)
    };
}

/// Record a value in a log2-bucket histogram of the active cell journal
/// (scoping as for [`counter!`]).
///
/// `histogram!("name", value)`. Buckets are fixed powers of two, so the
/// aggregate is deterministic and mergeable without configuration.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $v:expr) => {
        $crate::journal::cell_histogram($name, $v as u64)
    };
}
