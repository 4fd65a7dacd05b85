//! Cross-layer accounting properties for the observability layer.
//!
//! The journal is only trustworthy if it agrees with the artifacts the
//! pipeline already produces. Under arbitrary (panic-free) fault plans,
//! one session's journal must reconcile with the mitm trace; under
//! forced cell panics, every span must still close exactly once and the
//! swallowed panic payload must surface in both the journal and the
//! study health ledger; and at study scale the obs retry counter must
//! equal the health ledger's. `repro metrics
//! --check` runs the same laws as a CI gate; these tests pin them
//! per-session and under panics, where the CLI gate cannot. A capture
//! belongs to the thread that began it, so these tests run in parallel
//! and two threads capturing at once each get exactly their own cells.

use appvsweb::core::study::{run_cell_journal, run_study};
use appvsweb::core::Testbed;
use appvsweb::netsim::{FaultPlan, Os, SimDuration};
use appvsweb::obs;
use appvsweb::obs::journal::EventKind;
use appvsweb::services::{Catalog, Medium, SessionConfig};
use appvsweb_testkit::fixtures::{fault_plans, quick_study_config_with, with_quiet_panics};
use appvsweb_testkit::{check_with, gen, PropConfig};

/// Run one session in a `test/…` pseudo-cell and return its journal
/// alongside the trace the pipeline produced. The §3.2 background
/// filter is disabled: it removes OS-chatter flows from the trace
/// *after* capture, and these laws reconcile the journal against the
/// raw record of what the proxy actually did.
fn captured_session(
    service: &str,
    os: Os,
    medium: Medium,
    plan: FaultPlan,
) -> (appvsweb::mitm::Trace, obs::journal::CellJournal) {
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
    let journal = obs::capture_end();
    let cell = journal
        .cell("test/session")
        .expect("scoped journal")
        .clone();
    (trace, cell)
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
            let (trace, cell) = captured_session(service, os, medium, plan);

            // Sequence numbers are dense and spans balance.
            for (i, ev) in cell.events.iter().enumerate() {
                assert_eq!(ev.seq, i as u64, "seq must be dense");
            }
            assert!(cell.spans_balanced(), "every span closes exactly once");

            // Flow law: one open event per connection record, every open
            // matched by a close (finish_session sweeps the pool).
            let opened = cell.counter("mitm.flows_opened");
            assert_eq!(opened, trace.connections.len() as u64, "flow law: opens");
            assert_eq!(
                opened,
                cell.counter("mitm.flows_closed"),
                "flow law: closes"
            );
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

            // Retry law: the obs counter and the trace ledger increment
            // at the same site, and every retry drew one backoff delay.
            assert_eq!(cell.counter("session.retries"), trace.retries, "retry law");
            let backoffs = cell
                .histograms
                .iter()
                .find(|h| h.name == "session.backoff_ms")
                .map_or(0, |h| h.count);
            assert_eq!(backoffs, trace.retries, "retry law: backoff histogram");

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

            // Fault law: everything the injectors recorded was counted
            // at the single choke point (plans here never panic cells).
            assert_eq!(
                cell.counter("netsim.faults.injected"),
                trace.faults.total(),
                "fault law"
            );

            // Byte law: bytes moved by simulated TCP == bytes produced
            // by the HTTP codecs + TLS framing + handshake flights,
            // minus bytes destroyed by connection faults.
            let moved =
                cell.counter("netsim.conn.bytes_up") + cell.counter("netsim.conn.bytes_down");
            let produced = cell.counter("httpsim.codec_bytes")
                + cell.counter("tlssim.record_overhead_bytes")
                + cell.counter("mitm.handshake_bytes")
                + cell.counter("mitm.tls_failed_bytes");
            assert_eq!(
                moved + cell.counter("mitm.bytes_lost"),
                produced,
                "byte conservation across netsim/httpsim/tlssim/mitm"
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
    let cfg = quick_study_config_with(FaultPlan::moderate());
    obs::capture_begin();
    let study = run_study(&cfg);
    let journal = obs::capture_end();

    assert!(study.health.session_retries > 0, "moderate plan must retry");
    assert_eq!(
        journal.counter_total("session.retries"),
        study.health.session_retries,
        "obs retry events must equal the StudyHealth retry ledger"
    );
    assert_eq!(
        journal.counter_total("netsim.faults.injected"),
        study.health.faults.total() - study.health.faults.cell_panics,
        "obs fault events must equal the StudyHealth fault ledger"
    );
    assert!(
        study.health.failures.is_empty(),
        "no panics under a panic-free plan"
    );
    // One journal per measurement cell, in sorted order.
    assert_eq!(journal.cells.len() as u64, study.health.cells_attempted);
    let ids: Vec<&str> = journal.cells.iter().map(|c| c.cell.as_str()).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "capture_end must sort journals by cell id");
}

#[test]
fn failed_cells_carry_their_panic_payload_in_the_health_ledger() {
    let mut plan = FaultPlan::moderate();
    plan.cell_panic = 0.3;
    let study = with_quiet_panics(|| run_study(&quick_study_config_with(plan)));
    let h = &study.health;
    assert!(
        h.cells_failed > 0,
        "0.3^2 per cell over 196 cells must fail some"
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
