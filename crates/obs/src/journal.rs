//! Per-cell event journals with deterministic `(cell, seq)` ordering.
//!
//! A worker thread wraps each unit of work (a study cell, a training
//! session) in a [`CellScope`]. While the scope is alive, every span,
//! event, counter and histogram increment fired on that thread is
//! recorded into the scope's private journal, keyed by a per-cell
//! monotone sequence number and stamped with the last value passed to
//! [`crate::stamp`] — simulated time, never the wall clock. When the
//! scope drops, the finished [`CellJournal`] is pushed into the sink of
//! the thread's running [`Capture`]; [`crate::capture_end`] drains that
//! sink and sorts by cell id.
//!
//! A capture belongs to the thread that began it. Worker threads enter
//! it explicitly ([`current`] on the spawner, [`join`] on the worker —
//! `appvsweb_core::exec::run_indexed` does both), so two threads
//! capturing at once never see each other's cells. All state here is
//! thread-local; the crate keeps nothing process-wide.
//!
//! Two properties fall out of this design:
//!
//! * **Worker-count independence.** A cell runs start-to-finish on one
//!   thread, so its journal depends only on the cell's own deterministic
//!   execution. Thread interleaving can only permute whole cells in the
//!   sink, and the final sort erases that. Nothing thread-identifying is
//!   ever journaled.
//! * **Balanced spans.** [`SpanGuard`] records the close in `Drop`, so a
//!   panic that unwinds through `catch_unwind` still closes every span
//!   opened inside the unwound closure, exactly once.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// What a journal entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened; the matching close carries the same name.
    SpanOpen,
    /// A span closed.
    SpanClose,
    /// A point event.
    Event,
}

/// One journal entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Per-cell monotone sequence number, starting at 0.
    pub seq: u64,
    /// Simulated milliseconds since the sim epoch (last [`crate::stamp`]).
    pub at_ms: u64,
    /// Entry kind.
    pub kind: EventKind,
    /// Span nesting depth at which the entry was recorded.
    pub depth: u64,
    /// Instrumentation-site name, e.g. `"mitm.exchange"`.
    pub name: String,
    /// Free-form detail text (empty when the site supplied none).
    pub detail: String,
}

/// A named counter total within one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellCounter {
    /// Counter name.
    pub name: String,
    /// Sum of increments recorded while the cell's scope was active.
    pub value: u64,
}

/// A named histogram within one cell (log2 buckets; see [`bucket_index`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellHistogram {
    /// Histogram name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts; bucket `i` holds values with `floor(log2)+1 == i`
    /// (bucket 0 is exactly zero), saturating in the last bucket.
    pub buckets: Vec<u64>,
}

/// The full journal of one cell (or training pseudo-cell).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellJournal {
    /// Cell id, e.g. `"weather-channel/Android/App"`.
    pub cell: String,
    /// Entries in `seq` order.
    pub events: Vec<Event>,
    /// Counter totals, sorted by name.
    pub counters: Vec<CellCounter>,
    /// Histograms, sorted by name.
    pub histograms: Vec<CellHistogram>,
}

/// A whole study capture: every cell journal, sorted by cell id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StudyJournal {
    /// Cell journals in cell-id order.
    pub cells: Vec<CellJournal>,
}

appvsweb_json::impl_json!(
    enum EventKind {
        SpanOpen,
        SpanClose,
        Event,
    }
);
appvsweb_json::impl_json!(struct Event { seq, at_ms, kind, depth, name, detail });
appvsweb_json::impl_json!(struct CellCounter { name, value });
appvsweb_json::impl_json!(struct CellHistogram { name, count, sum, buckets });
appvsweb_json::impl_json!(struct CellJournal { cell, events, counters, histograms });
appvsweb_json::impl_json!(struct StudyJournal { cells });

impl CellJournal {
    /// Look up a counter total by name (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Count entries with the given name and kind.
    pub fn count_kind(&self, name: &str, kind: EventKind) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind == kind && e.name == name)
            .count() as u64
    }

    /// Whether every span open has exactly one matching close and the
    /// nesting depth returns to zero (per-name and overall).
    pub fn spans_balanced(&self) -> bool {
        let mut depth = 0i64;
        let mut per_name: BTreeMap<&str, i64> = BTreeMap::new();
        for ev in &self.events {
            match ev.kind {
                EventKind::SpanOpen => {
                    depth += 1;
                    *per_name.entry(ev.name.as_str()).or_insert(0) += 1;
                }
                EventKind::SpanClose => {
                    depth -= 1;
                    *per_name.entry(ev.name.as_str()).or_insert(0) -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                EventKind::Event => {}
            }
        }
        depth == 0 && per_name.values().all(|&n| n == 0)
    }
}

impl StudyJournal {
    /// Look up a cell journal by id.
    pub fn cell(&self, id: &str) -> Option<&CellJournal> {
        self.cells.iter().find(|c| c.cell == id)
    }

    /// Sum a counter across every cell journal.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.cells.iter().map(|c| c.counter(name)).sum()
    }
}

// ---------------------------------------------------------------------
// Recording machinery.
// ---------------------------------------------------------------------

struct HistAcc {
    count: u64,
    sum: u64,
    buckets: [u64; BUCKETS],
}

/// Number of log2 buckets (bucket 0 = zero, last bucket saturates).
pub const BUCKETS: usize = 17;

/// Bucket index for a recorded value.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

struct Recorder {
    cell: String,
    seq: u64,
    now_ms: u64,
    depth: u64,
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistAcc>,
}

impl Recorder {
    fn new(cell: String) -> Self {
        Recorder {
            cell,
            seq: 0,
            now_ms: 0,
            depth: 0,
            events: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    fn push(&mut self, kind: EventKind, depth: u64, name: &str, detail: String) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Event {
            seq,
            at_ms: self.now_ms,
            kind,
            depth,
            name: name.to_string(),
            detail,
        });
    }

    fn finish(self) -> CellJournal {
        CellJournal {
            cell: self.cell,
            events: self.events,
            counters: self
                .counters
                .into_iter()
                .map(|(name, value)| CellCounter { name, value })
                .collect(),
            histograms: self
                .histograms
                .into_iter()
                .map(|(name, acc)| CellHistogram {
                    name,
                    count: acc.count,
                    sum: acc.sum,
                    buckets: acc.buckets.to_vec(),
                })
                .collect(),
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static CAPTURE: RefCell<Option<Capture>> = const { RefCell::new(None) };
}

/// Cell id of the journal that metrics fired during a capture but
/// outside every [`cell_scope`] land in. A correct pipeline never
/// produces one; `repro metrics --check` asserts that.
pub const UNSCOPED: &str = "(unscoped)";

/// A running capture's sink of finished cell journals.
///
/// [`crate::capture_begin`] creates one for the calling thread; worker
/// threads enter it with [`join`], so a capture collects exactly the
/// cells of the thread that began it and of the workers it fanned out
/// to, never those of an unrelated thread capturing at the same time.
#[derive(Clone)]
pub struct Capture(Arc<Mutex<Vec<CellJournal>>>);

impl Capture {
    fn push(&self, cell: CellJournal) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).push(cell);
    }
}

pub(crate) fn is_capturing() -> bool {
    CAPTURING.with(Cell::get)
}

/// The capture running on this thread, for handing to worker threads
/// (see [`join`]). `None` when this thread is not capturing.
pub fn current() -> Option<Capture> {
    if !crate::capturing() {
        return None;
    }
    CAPTURE.with(|slot| slot.borrow().clone())
}

/// Make this thread record into `capture` (a value from [`current`] on
/// the spawning thread); `None` leaves the thread idle.
pub fn join(capture: Option<Capture>) {
    CAPTURING.with(|flag| flag.set(capture.is_some()));
    CAPTURE.with(|slot| *slot.borrow_mut() = capture);
}

pub(crate) fn begin() {
    join(Some(Capture(Arc::default())));
}

pub(crate) fn end() -> StudyJournal {
    CAPTURING.with(|flag| flag.set(false));
    let mut cells = CAPTURE
        .with(|slot| slot.borrow_mut().take())
        .map(|capture| std::mem::take(&mut *capture.0.lock().unwrap_or_else(|e| e.into_inner())))
        .unwrap_or_default();
    cells.sort_by(|a, b| a.cell.cmp(&b.cell));
    StudyJournal { cells }
}

pub(crate) fn set_now(at_ms: u64) {
    with_recorder(|rec| rec.now_ms = at_ms);
}

fn with_recorder<F: FnOnce(&mut Recorder)>(f: F) {
    if !is_capturing() {
        return;
    }
    RECORDER.with(|slot| {
        if let Some(rec) = slot.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Like [`with_recorder`], but while capturing outside every cell scope
/// the record lands in a one-entry [`UNSCOPED`] journal, not nowhere.
fn with_metric_recorder<F: FnOnce(&mut Recorder)>(f: F) {
    let _stray = (is_capturing() && RECORDER.with(|slot| slot.borrow().is_none()))
        .then(|| cell_scope(UNSCOPED));
    with_recorder(f);
}

/// Record a point event (used by the [`crate::event!`] macro).
pub fn record_event(name: &str, detail: String) {
    with_recorder(|rec| {
        let depth = rec.depth;
        rec.push(EventKind::Event, depth, name, detail);
    });
}

/// Fold a counter increment into the active cell journal (used by the
/// [`crate::counter!`] macro).
pub fn cell_counter(name: &str, n: u64) {
    with_metric_recorder(|rec| {
        *rec.counters.entry(name.to_string()).or_insert(0) += n;
    });
}

/// Fold a histogram sample into the active cell journal (used by the
/// [`crate::histogram!`] macro).
pub fn cell_histogram(name: &str, v: u64) {
    with_metric_recorder(|rec| {
        let acc = rec.histograms.entry(name.to_string()).or_insert(HistAcc {
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        });
        acc.count += 1;
        acc.sum += v;
        if let Some(slot) = acc.buckets.get_mut(bucket_index(v)) {
            *slot += 1;
        }
    });
}

/// Guard installing a fresh journal for one cell on the current thread.
///
/// Created by [`cell_scope`]. On drop the finished journal is pushed
/// into the capture the scope was opened under and any previously
/// active recorder (scopes nest) is restored. Inert when this thread is
/// not capturing.
pub struct CellScope {
    prev: Option<Recorder>,
    sink: Option<Capture>,
}

/// Begin recording a cell journal on this thread.
///
/// `cell` becomes the journal's sort key — study cells use their
/// `"service/Os/Medium"` label, training sessions a `"train/…"` prefix.
pub fn cell_scope(cell: &str) -> CellScope {
    let Some(sink) = current() else {
        return CellScope {
            prev: None,
            sink: None,
        };
    };
    let prev = RECORDER.with(|slot| slot.borrow_mut().replace(Recorder::new(cell.to_string())));
    CellScope {
        prev,
        sink: Some(sink),
    }
}

impl Drop for CellScope {
    fn drop(&mut self) {
        let Some(sink) = self.sink.take() else {
            return;
        };
        let rec = RECORDER.with(|slot| {
            let mut slot = slot.borrow_mut();
            let rec = slot.take();
            *slot = self.prev.take();
            rec
        });
        if let Some(rec) = rec {
            sink.push(rec.finish());
        }
    }
}

/// Guard for one open span (created by the [`crate::span!`] macro).
///
/// Records `SpanOpen` on creation and the matching `SpanClose` when
/// dropped — including during unwinding — so journals always balance.
pub struct SpanGuard {
    name: &'static str,
    active: bool,
}

impl SpanGuard {
    /// Open a span in the active cell journal. Inert (and free) when no
    /// capture is running or no cell scope is installed on this thread.
    pub fn open(name: &'static str, detail: String) -> SpanGuard {
        let mut active = false;
        with_recorder(|rec| {
            let depth = rec.depth;
            rec.push(EventKind::SpanOpen, depth, name, detail);
            rec.depth += 1;
            active = true;
        });
        SpanGuard { name, active }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        with_recorder(|rec| {
            rec.depth = rec.depth.saturating_sub(1);
            let depth = rec.depth;
            rec.push(EventKind::SpanClose, depth, self.name, String::new());
        });
    }
}

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

/// Render one cell journal as an indented span tree.
///
/// Total on arbitrary (even adversarial, fuzz-decoded) journals: the
/// indent tracks opens/closes with saturating arithmetic and is capped,
/// so unbalanced input renders rather than panicking.
pub fn render_tree(cell: &CellJournal) -> String {
    let mut out = String::new();
    out.push_str("cell ");
    out.push_str(&cell.cell);
    out.push('\n');
    let mut indent: usize = 0;
    for ev in &cell.events {
        let (glyph, at_indent) = match ev.kind {
            EventKind::SpanOpen => {
                let at = indent;
                indent += 1;
                ('>', at)
            }
            EventKind::SpanClose => {
                indent = indent.saturating_sub(1);
                ('<', indent)
            }
            EventKind::Event => ('*', indent),
        };
        out.push_str(&"  ".repeat(at_indent.min(64)));
        out.push(glyph);
        out.push(' ');
        out.push_str(&ev.name);
        if !ev.detail.is_empty() {
            out.push_str("  ");
            out.push_str(&ev.detail);
        }
        out.push_str(&format!("  [t={}ms seq={}]\n", ev.at_ms, ev.seq));
    }
    if !cell.counters.is_empty() {
        out.push_str("counters:\n");
        for c in &cell.counters {
            out.push_str(&format!("  {} = {}\n", c.name, c.value));
        }
    }
    if !cell.histograms.is_empty() {
        out.push_str("histograms:\n");
        for h in &cell.histograms {
            out.push_str(&format!("  {}  count={} sum={}\n", h.name, h.count, h.sum));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    #[test]
    fn scope_records_events_spans_and_counters_in_seq_order() {
        crate::capture_begin();
        {
            let _scope = cell_scope("svc/Android/App");
            crate::stamp(5);
            let _span = crate::span!("outer", "d={}", 1);
            crate::event!("hello", "x");
            crate::counter!("test.journal.hits", 3);
            crate::histogram!("test.journal.sizes", 9u64);
        }
        let journal = crate::capture_end();
        assert_eq!(journal.cells.len(), 1);
        let cell = journal.cell("svc/Android/App").expect("cell present");
        let kinds: Vec<EventKind> = cell.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::SpanOpen, EventKind::Event, EventKind::SpanClose]
        );
        for (i, ev) in cell.events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64, "seq must be dense");
            assert_eq!(ev.at_ms, 5, "stamp applies to later entries");
        }
        assert!(cell.spans_balanced());
        assert_eq!(cell.counter("test.journal.hits"), 3);
        assert_eq!(cell.histograms.len(), 1);
        let tree = render_tree(cell);
        assert!(tree.contains("> outer"));
        assert!(tree.contains("* hello"));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn cells_sort_by_id_regardless_of_completion_order() {
        crate::capture_begin();
        {
            let _scope = cell_scope("zz");
            crate::event!("late");
        }
        {
            let _scope = cell_scope("aa");
            crate::event!("early");
        }
        let journal = crate::capture_end();
        let ids: Vec<&str> = journal.cells.iter().map(|c| c.cell.as_str()).collect();
        assert_eq!(ids, vec!["aa", "zz"]);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_close_exactly_once_under_unwinding() {
        crate::capture_begin();
        {
            let _scope = cell_scope("panicky");
            let _outer = crate::span!("outer");
            let unwound = std::panic::catch_unwind(|| {
                let _inner = crate::span!("inner");
                crate::event!("before-panic");
                panic!("boom");
            });
            assert!(unwound.is_err());
        }
        let journal = crate::capture_end();
        let cell = journal.cell("panicky").expect("cell present");
        assert!(cell.spans_balanced(), "unwound span must still close");
        assert_eq!(cell.count_kind("inner", EventKind::SpanClose), 1);
        assert_eq!(cell.count_kind("outer", EventKind::SpanClose), 1);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn events_outside_a_scope_are_dropped() {
        crate::capture_begin();
        crate::event!("orphan");
        let journal = crate::capture_end();
        assert!(journal.cells.is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn metrics_outside_a_scope_land_in_the_unscoped_journal() {
        crate::capture_begin();
        crate::counter!("test.journal.stray", 2);
        crate::histogram!("test.journal.stray_sizes", 4u64);
        {
            let _scope = cell_scope("scoped");
            crate::counter!("test.journal.stray");
        }
        let journal = crate::capture_end();
        let ids: Vec<&str> = journal.cells.iter().map(|c| c.cell.as_str()).collect();
        assert_eq!(
            ids,
            vec![UNSCOPED, UNSCOPED, "scoped"],
            "one per stray record"
        );
        let unscoped = || journal.cells.iter().filter(|c| c.cell == UNSCOPED);
        assert_eq!(
            unscoped()
                .map(|c| c.counter("test.journal.stray"))
                .sum::<u64>(),
            2
        );
        assert_eq!(unscoped().map(|c| c.histograms.len()).sum::<usize>(), 1);
        assert_eq!(journal.counter_total("test.journal.stray"), 3);

        // With no capture running, the same sites record nothing at all.
        crate::counter!("test.journal.stray");
        crate::histogram!("test.journal.stray_sizes", 4u64);
        assert!(crate::capture_end().cells.is_empty());
    }

    #[test]
    fn disabled_or_idle_capture_is_empty_and_inert() {
        // No capture armed: scopes are inert and record nothing.
        {
            let _scope = cell_scope("idle");
            crate::event!("dropped");
        }
        let journal = crate::capture_end();
        assert!(journal.cells.is_empty());
    }

    #[test]
    fn journal_json_round_trips() {
        let journal = StudyJournal {
            cells: vec![CellJournal {
                cell: "svc/Ios/Web".to_string(),
                events: vec![Event {
                    seq: 0,
                    at_ms: 12,
                    kind: EventKind::Event,
                    depth: 0,
                    name: "n".to_string(),
                    detail: "d".to_string(),
                }],
                counters: vec![CellCounter {
                    name: "c".to_string(),
                    value: 2,
                }],
                histograms: vec![CellHistogram {
                    name: "h".to_string(),
                    count: 1,
                    sum: 9,
                    buckets: vec![0; BUCKETS],
                }],
            }],
        };
        let text = appvsweb_json::encode(&journal);
        let back: StudyJournal = appvsweb_json::decode(&text).expect("round trip");
        assert_eq!(back, journal);
    }

    #[test]
    fn render_tree_is_total_on_unbalanced_journals() {
        let cell = CellJournal {
            cell: "hostile".to_string(),
            events: vec![Event {
                seq: 7,
                at_ms: 0,
                kind: EventKind::SpanClose,
                depth: 3,
                name: "never-opened".to_string(),
                detail: String::new(),
            }],
            counters: Vec::new(),
            histograms: Vec::new(),
        };
        assert!(!cell.spans_balanced());
        let tree = render_tree(&cell);
        assert!(tree.contains("never-opened"));
    }

    #[test]
    fn bucket_index_is_log2_with_saturation() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }
}
