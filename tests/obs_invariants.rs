//! Cross-layer accounting properties for the observability layer.
//!
//! The journal is only trustworthy if it agrees with the artifacts the
//! pipeline already produces. Under arbitrary (panic-free) fault plans,
//! one session's journal must reconcile with the mitm trace; under
//! forced cell panics, every span must still close exactly once and the
//! swallowed panic payload must surface in the journal and the study
//! health ledger; and at study
//! scale the obs counters must equal the health ledger's. The
//! conservation laws are `obs_cli::laws`, the function `repro metrics
//! --check` gates on; these tests feed it one session's trace and the
//! gate's own moderate plan, and add the laws only a trace can check.
//! A capture belongs to the thread that began it, so these tests run
//! in parallel and two threads capturing at once each get exactly
//! their own cells.

use appvsweb::core::study::{run_cell_journal, run_study};
use appvsweb::core::Testbed;
use appvsweb::netsim::{FaultPlan, Os, SimDuration};
use appvsweb::obs;
use appvsweb::obs::journal::EventKind;
use appvsweb::services::{Catalog, Medium, SessionConfig};
use appvsweb_bench::cli::report;
use appvsweb_bench::obs_cli::{laws as metrics_laws, plan_laws};
use appvsweb_testkit::fixtures::{fault_plans, quick_study_config_with, with_quiet_panics};
use appvsweb_testkit::{check_with, gen, PropConfig};

/// Run one session in a `test/…` pseudo-cell and return the capture
/// alongside the trace the pipeline produced. The §3.2 background
/// filter is disabled: it removes OS-chatter flows from the trace
/// *after* capture, and these laws reconcile the journal against the
/// raw record of what the proxy actually did.
fn captured_session(
    service: &str,
    os: Os,
    medium: Medium,
    plan: FaultPlan,
) -> (appvsweb::mitm::Trace, obs::StudyJournal) {
    let catalog = Catalog::paper();
    let spec = catalog.get(service).expect("catalog service");
    let cfg = SessionConfig {
        duration: SimDuration::from_mins(1),
        faults: plan,
        strip_background: false,
        ..SessionConfig::default()
    };
    obs::capture_begin();
    let trace = {
        let _scope = obs::cell_scope("test/session");
        let mut tb = Testbed::for_cell(spec, os, 2016);
        tb.run_session(spec, os, medium, &cfg)
    };
    (trace, obs::capture_end())
}

#[test]
fn session_journals_reconcile_with_trace_under_arbitrary_plans() {
    let cells = [
        ("weather-channel", Os::Android, Medium::App),
        ("bbc-news", Os::Ios, Medium::Web),
        ("grubhub", Os::Android, Medium::Web),
    ];
    check_with(
        &PropConfig {
            cases: 9,
            ..PropConfig::default()
        },
        "session_journal_accounting",
        &(fault_plans(), gen::u64s(0..=1_000_000)),
        |case| {
            let (plan, pick) = case.clone();
            let (service, os, medium) = cells[pick as usize % cells.len()];
            let (trace, journal) = captured_session(service, os, medium, plan);

            // The laws `repro metrics --check` gates on, with the trace
            // as the ledger (plans here never panic cells): balanced
            // spans, flow, retry, backoff, fault and byte conservation.
            let laws = metrics_laws(&journal, trace.retries, trace.faults.total());
            assert_eq!(report(&laws), 0, "a conservation law failed");

            // The laws below need the trace itself.
            let cell = journal.cell("test/session").expect("scoped journal");
            for (i, ev) in cell.events.iter().enumerate() {
                assert_eq!(ev.seq, i as u64, "seq must be dense");
            }

            // Flow law: one open counter and one open event per
            // connection record.
            let opened = cell.counter("mitm.flows_opened");
            assert_eq!(opened, trace.connections.len() as u64, "flow law: opens");
            assert_eq!(
                opened,
                cell.count_kind("flow.open", EventKind::Event),
                "flow law: events"
            );

            // Abort law: a connection record carries an error exactly
            // when a connection fault or an injected TLS abort killed
            // it, so nothing a fault killed vanishes from the trace and
            // nothing is invented; and every completed transaction was
            // counted as captured.
            let aborted = trace
                .connections
                .iter()
                .filter(|c| c.error.is_some())
                .count() as u64;
            assert_eq!(
                aborted,
                cell.count_kind("conn.fault", EventKind::Event) + cell.counter("tlssim.aborts"),
                "abort law"
            );
            assert_eq!(
                cell.counter("mitm.transactions"),
                trace.transactions.len() as u64,
                "har law: journal"
            );

            // Exchange-size histogram: one sample per exchange that got
            // a response, so at least one per recorded transaction.
            let wire = cell
                .histograms
                .iter()
                .find(|h| h.name == "mitm.exchange_wire_bytes")
                .map_or(0, |h| h.count);
            assert!(
                wire >= trace.transactions.len() as u64,
                "histogram law: wire samples {wire} < transactions {}",
                trace.transactions.len()
            );

            // Stats law: the trace's per-connection byte counters (what
            // Fig. 1c reads) add up to the bytes the journal saw move.
            let up: u64 = trace.connections.iter().map(|c| c.stats.bytes_up).sum();
            let down: u64 = trace.connections.iter().map(|c| c.stats.bytes_down).sum();
            assert_eq!(up, cell.counter("netsim.conn.bytes_up"), "stats law: up");
            assert_eq!(
                down,
                cell.counter("netsim.conn.bytes_down"),
                "stats law: down"
            );
        },
    );
}

#[test]
fn panicked_attempts_balance_spans_and_surface_the_payload() {
    let catalog = Catalog::paper();
    let spec = catalog.get("weather-channel").expect("catalog service");
    let mut plan = FaultPlan::moderate();
    plan.cell_panic = 1.0; // every attempt unwinds mid-session
    let cfg = quick_study_config_with(plan);
    let (cell, journal) =
        with_quiet_panics(|| run_cell_journal(spec, Os::Android, Medium::App, &cfg, None));
    assert!(cell.is_none(), "a pinned panic rate must fail the cell");

    let j = journal
        .cell("weather-channel/Android/App")
        .expect("failed cell still journals");
    assert!(
        j.spans_balanced(),
        "spans opened before the panic must close exactly once during unwind"
    );
    let attempts = u64::from(cfg.cell_attempts.max(1));
    assert_eq!(
        j.count_kind("study.cell_attempt", EventKind::SpanOpen),
        attempts
    );
    assert_eq!(
        j.count_kind("study.cell_attempt", EventKind::SpanClose),
        attempts
    );
    assert_eq!(j.counter("study.cell_panics"), attempts);
    // The payload the runner used to swallow is now journaled verbatim.
    assert!(
        j.events
            .iter()
            .any(|e| e.name == "study.cell_panic" && e.detail.contains("injected")),
        "panic payload must appear in the journal"
    );
}

#[test]
fn study_retry_counter_matches_the_health_ledger() {
    // The `moderate, cell_panic=0` plan of `repro metrics --check`.
    let cfg = quick_study_config_with(FaultPlan::moderate());
    assert_eq!(cfg.faults.cell_panic, 0.0);
    obs::capture_begin();
    let study = run_study(&cfg);
    let journal = obs::capture_end();
    assert_eq!(report(&plan_laws(&study, &journal)), 0);
    assert!(study.health.session_retries > 0, "moderate plan must retry");

    // One journal per measurement cell, in sorted order.
    assert_eq!(journal.cells.len() as u64, study.health.cells_attempted);
    let ids: Vec<&str> = journal.cells.iter().map(|c| c.cell.as_str()).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "capture_end must sort journals by cell id");
}

/// Every cell panics on every attempt, before any session runs, so this
/// study is cheap; the mixed study where most cells survive is
/// `chaos::panicking_cells_are_isolated_and_ledgered`.
#[test]
fn failed_cells_carry_their_panic_payload_in_the_health_ledger() {
    let plan = FaultPlan {
        cell_panic: 1.0,
        ..FaultPlan::none()
    };
    let study = with_quiet_panics(|| run_study(&quick_study_config_with(plan)));
    let h = &study.health;
    assert!(h.cells_attempted > 0);
    assert_eq!(
        h.cells_failed, h.cells_attempted,
        "a pinned panic fails every cell"
    );
    assert_eq!(h.failures.len() as u64, h.cells_failed);
    let labels: Vec<&str> = h.failures.iter().map(|f| f.cell.as_str()).collect();
    let mut sorted = labels.clone();
    sorted.sort_unstable();
    assert_eq!(labels, sorted, "failures are sorted by cell label");
    assert_eq!(
        labels,
        h.failed_cells
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
        "failures and failed_cells describe the same set"
    );
    for failure in &h.failures {
        assert!(
            failure.error.contains("injected") && failure.error.contains("attempt"),
            "payload must be the real panic message, got {:?}",
            failure.error
        );
    }
}

/// Two threads capture concurrently, each in a tight loop of one-cell
/// captures; every capture must hold exactly its own cell and counter.
/// With one process-wide sink, a `capture_begin` on one thread cleared
/// the other's cells and each drained the other's.
#[test]
fn concurrent_captures_hold_exactly_their_own_cells() {
    let start = std::sync::Barrier::new(2);
    let capture_rounds = |tag: &'static str| {
        let start = &start;
        move || {
            start.wait();
            for round in 0..20_000 {
                let id = format!("{tag}/{round}");
                obs::capture_begin();
                {
                    let _scope = obs::cell_scope(&id);
                    obs::counter!("test.isolation.rounds");
                }
                let journal = obs::capture_end();
                let ids: Vec<&str> = journal.cells.iter().map(|c| c.cell.as_str()).collect();
                assert_eq!(
                    ids,
                    vec![id.as_str()],
                    "capture must hold only its own cell"
                );
                assert_eq!(journal.counter_total("test.isolation.rounds"), 1);
            }
        }
    };
    std::thread::scope(|s| {
        let a = s.spawn(capture_rounds("a"));
        let b = s.spawn(capture_rounds("b"));
        a.join().expect("thread a's captures were isolated");
        b.join().expect("thread b's captures were isolated");
    });
}
