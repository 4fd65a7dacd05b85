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

use crate::cli::Value::{Switch, Text};
use crate::cli::{Args, Command, Flag};
use appvsweb_analysis::Study;
use appvsweb_core::study::{run_cell_journal, run_study, StudyConfig};
use appvsweb_core::CellId;
use appvsweb_netsim::FaultPlan;
use appvsweb_obs::journal::{render_tree, EventKind, UNSCOPED};
use appvsweb_obs::metrics::{self, MetricsSnapshot};
use appvsweb_obs::StudyJournal;
use appvsweb_services::Catalog;

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
    let cfg = crate::quick_config();
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
    let study = run_study(&crate::quick_config());
    let snap = metrics::of(&appvsweb_obs::capture_end());
    println!("{}", appvsweb_json::encode_pretty(&snap));
    eprintln!("({})", study.health.summary());
    0
}

/// Run the conservation-law suite under two fault plans and report.
fn check_laws() -> i32 {
    let quick = crate::quick_config();
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
        let cfg = StudyConfig {
            faults,
            ..quick.clone()
        };
        violations += check_plan(&label, &cfg);
    }
    if violations > 0 {
        eprintln!("metrics --check: FAIL ({violations} law violations)");
        1
    } else {
        eprintln!("metrics --check: every conservation law holds");
        0
    }
}

/// Run one campaign and verify every law; returns the violation count.
fn check_plan(label: &str, cfg: &StudyConfig) -> usize {
    appvsweb_obs::capture_begin();
    let study = run_study(cfg);
    let journal = appvsweb_obs::capture_end();
    let snap = metrics::of(&journal);
    println!("== plan {label}: {} ==", study.health.summary());

    let mut failed = 0usize;
    let mut law = |name: &str, ok: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if ok { " ok " } else { "FAIL" });
        if !ok {
            failed += 1;
        }
    };

    law_accounting(&study, &mut law);
    law_spans(&journal, &mut law);
    law_flows(&snap, &mut law);
    law_retries(&study, &snap, &mut law);
    law_faults(&study, &snap, &mut law);
    law_bytes(&snap, &mut law);
    law_metrics_scoped(&journal, &snap, &mut law);
    failed
}

/// Every attempted cell completed (exactness precondition: with
/// `cell_panic = 0` nothing can fail, so a failure is itself a bug).
fn law_accounting(study: &Study, law: &mut impl FnMut(&str, bool, String)) {
    let h = &study.health;
    law(
        "cell accounting",
        h.all_accounted() && h.cells_failed == 0,
        format!(
            "{} attempted = {} completed + {} failed",
            h.cells_attempted, h.cells_completed, h.cells_failed
        ),
    );
}

/// Every span opened in every journal closed exactly once.
fn law_spans(journal: &StudyJournal, law: &mut impl FnMut(&str, bool, String)) {
    let unbalanced = journal.cells.iter().filter(|c| !c.spans_balanced()).count();
    law(
        "balanced spans",
        unbalanced == 0,
        format!(
            "{} of {} journals unbalanced",
            unbalanced,
            journal.cells.len()
        ),
    );
}

/// Every flow the proxy opened was closed (`finish_session` sweeps the
/// pool).
fn law_flows(snap: &MetricsSnapshot, law: &mut impl FnMut(&str, bool, String)) {
    let opened = snap.counter("mitm.flows_opened");
    let closed = snap.counter("mitm.flows_closed");
    law(
        "flow conservation",
        opened == closed,
        format!("opened {opened} == closed {closed}"),
    );
}

/// Client retries counted at the session layer match the study ledger.
fn law_retries(study: &Study, snap: &MetricsSnapshot, law: &mut impl FnMut(&str, bool, String)) {
    let counted = snap.counter("session.retries");
    law(
        "retry conservation",
        counted == study.health.session_retries,
        format!(
            "obs {counted} == health ledger {}",
            study.health.session_retries
        ),
    );
    // Every retry drew exactly one backoff delay.
    let backoffs = snap
        .histograms
        .iter()
        .find(|h| h.name == "session.backoff_ms")
        .map_or(0, |h| h.count);
    law(
        "backoff histogram",
        backoffs == counted,
        format!("backoff samples {backoffs} == retries {counted}"),
    );
}

/// Faults counted at the injection choke point match the study ledger
/// (which additionally books one `cell_panics` entry per panicked
/// attempt — those never pass through `FaultCounts::record`).
fn law_faults(study: &Study, snap: &MetricsSnapshot, law: &mut impl FnMut(&str, bool, String)) {
    let injected = snap.counter("netsim.faults.injected");
    let ledger = study.health.faults.total() - study.health.faults.cell_panics;
    law(
        "fault conservation",
        injected == ledger,
        format!("obs {injected} == health ledger {ledger}"),
    );
}

/// Byte conservation across layers: every byte a simulated TCP
/// connection moved is accounted for by exactly one producer —
/// HTTP codec output, TLS record framing, handshake flights, failed
/// handshake flights — minus bytes a connection fault destroyed.
fn law_bytes(snap: &MetricsSnapshot, law: &mut impl FnMut(&str, bool, String)) {
    let moved = snap.counter("netsim.conn.bytes_up") + snap.counter("netsim.conn.bytes_down");
    let lost = snap.counter("mitm.bytes_lost");
    let produced = snap.counter("httpsim.codec_bytes")
        + snap.counter("tlssim.record_overhead_bytes")
        + snap.counter("mitm.handshake_bytes")
        + snap.counter("mitm.tls_failed_bytes");
    law(
        "byte conservation",
        moved + lost == produced,
        format!("moved {moved} + lost {lost} == produced {produced}"),
    );
}

/// Every counter and histogram fired inside a cell scope: a metric
/// recorded outside one would land in an `(unscoped)` journal, where no
/// per-cell law could see it.
fn law_metrics_scoped(
    journal: &StudyJournal,
    snap: &MetricsSnapshot,
    law: &mut impl FnMut(&str, bool, String),
) {
    let stray = journal.cells.iter().filter(|c| c.cell == UNSCOPED).count();
    law(
        "every metric scoped to a cell",
        stray == 0,
        format!(
            "{} counters and {} histograms; {stray} {UNSCOPED} journals",
            snap.counters.len(),
            snap.histograms.len()
        ),
    );
}
