//! The `repro trace` and `repro metrics` subcommands: surface the
//! observability layer from the command line.
//!
//! * `repro trace --cell SERVICE/OS/MEDIUM` runs one cell under capture
//!   and prints its span tree; without `--cell` it runs the quick
//!   campaign and prints a one-line journal summary per cell.
//! * `repro metrics` runs the quick campaign under capture and dumps the
//!   journal's metrics, summed over cells, as JSON; `repro metrics
//!   --check` additionally verifies the cross-layer conservation laws
//!   (flow, retry, fault and byte accounting must agree between the obs
//!   counters and the study's own health ledger, and every metric must
//!   fire inside a cell scope) and exits non-zero on any violation — the
//!   CI gate for silent instrumentation drift.
//!
//! The law checks run under fault plans with `cell_panic` held at zero:
//! a panicked attempt unwinds out of the proxy before `finish_session`,
//! so its flow/retry ledgers are legitimately incomplete and the laws
//! below would not be exact.
//!
//! [`laws`] is the one definition of the conservation laws: `--check`
//! feeds it a study's capture and health ledger, and
//! `tests/obs_invariants.rs` feeds it one session's capture and trace.

use crate::cli::Value::{Switch, Text};
use crate::cli::{report, Args, Check, Command, Flag};
use appvsweb_analysis::Study;
use appvsweb_core::study::{run_cell_journal, run_study, StudyConfig};
use appvsweb_core::CellId;
use appvsweb_netsim::FaultPlan;
use appvsweb_obs::journal::{render_tree, EventKind, UNSCOPED};
use appvsweb_obs::metrics;
use appvsweb_obs::StudyJournal;
use appvsweb_services::Catalog;
use appvsweb_testkit::fixtures::quick_study_config;

/// The flags of `repro trace`.
#[rustfmt::skip]
pub const TRACE: Command = Command {
    name: "trace",
    flags: &[Flag::new("--cell", Text("SERVICE/OS/MEDIUM"), "one cell's span tree (default: all)")],
    subcommands: &[],
    run: run_trace,
};

/// The flags of `repro metrics`.
#[rustfmt::skip]
pub const METRICS: Command = Command {
    name: "metrics",
    flags: &[Flag::new("--check", Switch, "verify the conservation laws; exit 1 on a violation")],
    subcommands: &[],
    run: run_metrics,
};

/// Entry point for `repro trace`. Returns the process exit code.
pub fn run_trace(args: &Args) -> i32 {
    let cfg = quick_study_config();
    match args.text("--cell") {
        Some(label) => trace_one_cell(label, &cfg),
        None => trace_campaign(&cfg),
    }
}

/// Run a single cell under capture and print every journal it produced
/// (the cell itself, plus training pseudo-cells when ReCon is on).
fn trace_one_cell(label: &str, cfg: &StudyConfig) -> i32 {
    let Ok(cell) = CellId::parse(label) else {
        eprintln!(
            "repro trace: bad --cell {label:?} (expected SERVICE/OS/MEDIUM, \
             e.g. weather-channel/Android/App)"
        );
        return 2;
    };
    let catalog = Catalog::paper();
    let Some(spec) = catalog.get(&cell.service) else {
        eprintln!(
            "unknown service id: {} (see the catalog in crates/services)",
            cell.service
        );
        return 2;
    };
    let (analysis, journal) = run_cell_journal(spec, cell.os, cell.medium, cfg, None);
    for cell in &journal.cells {
        println!("{}", render_tree(cell));
    }
    if analysis.is_none() {
        eprintln!("cell exhausted its attempts; the journal above covers every attempt");
        return 1;
    }
    0
}

/// Run the quick campaign under capture and summarize each journal.
fn trace_campaign(cfg: &StudyConfig) -> i32 {
    appvsweb_obs::capture_begin();
    let study = run_study(cfg);
    let journal = appvsweb_obs::capture_end();
    println!(
        "{:<44} {:>7} {:>7} {:>9} {:>10}",
        "cell", "events", "spans", "counters", "last_t_ms"
    );
    for cell in &journal.cells {
        let spans = cell
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SpanOpen)
            .count();
        let last_ms = cell.events.last().map_or(0, |e| e.at_ms);
        println!(
            "{:<44} {:>7} {:>7} {:>9} {:>10}",
            cell.cell,
            cell.events.len(),
            spans,
            cell.counters.len(),
            last_ms
        );
    }
    let total_events: usize = journal.cells.iter().map(|c| c.events.len()).sum();
    println!(
        "\n{} cell journals, {} events; {}",
        journal.cells.len(),
        total_events,
        study.health.summary()
    );
    0
}

/// Entry point for `repro metrics`. Returns the process exit code: 0 on
/// success, 1 when `--check` finds a conservation-law violation.
pub fn run_metrics(args: &Args) -> i32 {
    if args.switch("--check") {
        return check_laws();
    }
    appvsweb_obs::capture_begin();
    let study = run_study(&quick_study_config());
    let snap = metrics::of(&appvsweb_obs::capture_end());
    println!("{}", appvsweb_json::encode_pretty(&snap));
    eprintln!("({})", study.health.summary());
    0
}

/// Run the conservation-law suite under two fault plans and report.
fn check_laws() -> i32 {
    let moderate = {
        let mut plan = FaultPlan::preset("moderate").unwrap_or_default();
        // Exactness requires no panicked attempts; see the module docs.
        plan.cell_panic = 0.0;
        plan
    };
    let plans = [
        ("none".to_string(), FaultPlan::none()),
        ("moderate, cell_panic=0".to_string(), moderate),
    ];
    let mut violations = 0usize;
    for (label, faults) in plans {
        appvsweb_obs::capture_begin();
        let study = run_study(&StudyConfig {
            faults,
            ..quick_study_config()
        });
        let journal = appvsweb_obs::capture_end();
        println!("== plan {label}: {} ==", study.health.summary());
        violations += report(&plan_laws(&study, &journal));
    }
    if violations > 0 {
        eprintln!("metrics --check: FAIL ({violations} law violations)");
        1
    } else {
        eprintln!("metrics --check: every conservation law holds");
        0
    }
}

/// Every law over one campaign's capture: every attempted cell
/// completed (with `cell_panic = 0` nothing can fail, so a failure is
/// itself a bug), then [`laws`] against the study's health ledger.
pub fn plan_laws(study: &Study, journal: &StudyJournal) -> Vec<Check> {
    let h = &study.health;
    let mut checks = vec![Check::with(
        "cell accounting",
        h.all_accounted() && h.cells_failed == 0,
        format!(
            "{} attempted = {} completed + {} failed",
            h.cells_attempted, h.cells_completed, h.cells_failed
        ),
    )];
    // The ledger also books one `cell_panics` entry per panicked
    // attempt; those never pass through `FaultCounts::record`.
    let faults = h.faults.total() - h.faults.cell_panics;
    checks.extend(laws(journal, h.session_retries, faults));
    checks
}

/// The conservation laws of a capture whose ledger counted `retries`
/// client retries and `faults` injected faults (cell panics excluded).
pub fn laws(journal: &StudyJournal, retries: u64, faults: u64) -> Vec<Check> {
    let snap = metrics::of(journal);
    let unbalanced = journal.cells.iter().filter(|c| !c.spans_balanced()).count();
    // `finish_session` sweeps the pool, so every flow opened closed.
    let opened = snap.counter("mitm.flows_opened");
    let closed = snap.counter("mitm.flows_closed");
    // Every retry drew exactly one backoff delay.
    let counted = snap.counter("session.retries");
    let backoffs = snap
        .histograms
        .iter()
        .find(|h| h.name == "session.backoff_ms")
        .map_or(0, |h| h.count);
    let injected = snap.counter("netsim.faults.injected");
    // Every byte a simulated TCP connection moved is accounted for by
    // exactly one producer — HTTP codec output, TLS record framing,
    // handshake flights, failed handshake flights — minus bytes a
    // connection fault destroyed.
    let moved = snap.counter("netsim.conn.bytes_up") + snap.counter("netsim.conn.bytes_down");
    let lost = snap.counter("mitm.bytes_lost");
    let produced = snap.counter("httpsim.codec_bytes")
        + snap.counter("tlssim.record_overhead_bytes")
        + snap.counter("mitm.handshake_bytes")
        + snap.counter("mitm.tls_failed_bytes");
    // A metric recorded outside a cell scope lands in an `(unscoped)`
    // journal, where no per-cell law could see it.
    let stray = journal.cells.iter().filter(|c| c.cell == UNSCOPED).count();
    vec![
        Check::with(
            "balanced spans",
            unbalanced == 0,
            format!(
                "{unbalanced} of {} journals unbalanced",
                journal.cells.len()
            ),
        ),
        Check::with(
            "flow conservation",
            opened == closed,
            format!("opened {opened} == closed {closed}"),
        ),
        Check::with(
            "retry conservation",
            counted == retries,
            format!("obs {counted} == health ledger {retries}"),
        ),
        Check::with(
            "backoff histogram",
            backoffs == counted,
            format!("backoff samples {backoffs} == retries {counted}"),
        ),
        Check::with(
            "fault conservation",
            injected == faults,
            format!("obs {injected} == health ledger {faults}"),
        ),
        Check::with(
            "byte conservation",
            moved + lost == produced,
            format!("moved {moved} + lost {lost} == produced {produced}"),
        ),
        Check::with(
            "every metric scoped to a cell",
            stray == 0,
            format!(
                "{} counters and {} histograms; {stray} {UNSCOPED} journals",
                snap.counters.len(),
                snap.histograms.len()
            ),
        ),
    ]
}
