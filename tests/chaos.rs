//! Chaos suite: the robustness contract of the pipeline under seeded
//! fault injection.
//!
//! Three guarantees, checked end to end:
//!
//! 1. no fault plan (panics excluded) can crash a cell — sessions
//!    complete and the analysis invariants hold under arbitrary rates,
//! 2. the study runner isolates deliberately panicking cells: they are
//!    recorded as failed in the health ledger with their panic payload,
//!    every other cell survives, and completed + failed always equals
//!    attempted,
//! 3. the same `(seed, FaultPlan)` produces a byte-identical dataset
//!    regardless of worker count,
//! 4. a retried exchange puts the byte-identical request on the wire on
//!    every attempt (the tunnel hands the request back with the error
//!    instead of the client keeping a copy).

use appvsweb::core::dataset;
use appvsweb::core::study::{run_cell, run_cell_caught, run_study, StudyConfig};
use appvsweb::core::Testbed;
use appvsweb::httpsim::wire::{request_wire_len, serialize_request};
use appvsweb::httpsim::{Body, Request, Url};
use appvsweb::mitm::ReusePolicy;
use appvsweb::netsim::{FaultPlan, Os, SimDuration, SimRng, SimTime};
use appvsweb::obs;
use appvsweb::services::session::RetryPolicy;
use appvsweb::services::{Catalog, Medium, SessionConfig};
use appvsweb::tlssim::PinSet;
use appvsweb_testkit::fixtures::{
    fault_plans as plans, quick_study_config_with, with_quiet_panics,
};
use appvsweb_testkit::{check_with, gen, prop_test, PropConfig};

#[test]
fn single_cells_never_panic_under_arbitrary_plans() {
    let catalog = Catalog::paper();
    let mut cells: Vec<(&str, Os, Medium)> = Vec::new();
    for os in [Os::Android, Os::Ios] {
        for spec in catalog.testable_on(os) {
            for medium in Medium::BOTH {
                cells.push((spec.id, os, medium));
            }
        }
    }
    // Each case is a full 1-minute session; 24 cases keep the suite
    // inside tier-1 time while still sweeping the plan space.
    check_with(
        &PropConfig {
            cases: 24,
            ..PropConfig::default()
        },
        "single_cells_never_panic",
        &(plans(), gen::u64s(0..=1_000_000)),
        |case| {
            let (plan, pick) = case.clone();
            let (id, os, medium) = cells[pick as usize % cells.len()];
            let spec = catalog.get(id).unwrap();
            let cell = run_cell(spec, os, medium, &quick_study_config_with(plan), None);
            assert!(cell.aa_flows <= cell.total_flows);
            assert_eq!(cell.service_id, id);
            // Leak accounting stays internally consistent even when the
            // session was degraded mid-flight.
            assert!(cell.leak_domains.len() <= cell.leaks.len().max(1));
        },
    );
}

prop_test! {
    fn uniform_plans_are_well_formed(milli in gen::u64s(0..=2_000)) {
        let plan = FaultPlan::uniform(milli as f64 / 1_000.0);
        assert_eq!(plan.cell_panic, 0.0, "no shipping preset panics cells");
        assert!(plan.packet_loss <= 1.0, "rates must clamp to [0, 1]");
        assert_eq!(plan.is_none(), milli == 0);
    }
}

#[test]
fn retry_budget_is_never_exceeded_under_any_plan() {
    // The session's retry ledger is bounded by the policy's budget no
    // matter how hostile the fault plan is, and a no-retry policy keeps
    // the ledger at zero.
    let catalog = Catalog::paper();
    let spec = catalog.get("bbc-news").unwrap();
    check_with(
        &PropConfig {
            cases: 10,
            ..PropConfig::default()
        },
        "retry_budget_is_never_exceeded",
        &(plans(), gen::u64s(0..=15)),
        |case| {
            let (plan, budget) = case.clone();
            let retry = RetryPolicy {
                session_budget: budget as u32,
                ..RetryPolicy::standard()
            };
            let cfg = SessionConfig {
                duration: SimDuration::from_mins(1),
                faults: plan.clone(),
                retry,
                ..SessionConfig::default()
            };
            let mut tb = Testbed::for_cell(spec, Os::Android, 2016);
            let trace = tb.run_session(spec, Os::Android, Medium::Web, &cfg);
            assert!(
                trace.retries <= budget,
                "spent {} retries with a budget of {budget}",
                trace.retries
            );

            let none_cfg = SessionConfig {
                duration: SimDuration::from_mins(1),
                faults: plan,
                retry: RetryPolicy::none(),
                ..SessionConfig::default()
            };
            let mut tb = Testbed::for_cell(spec, Os::Android, 2016);
            let trace = tb.run_session(spec, Os::Android, Medium::Web, &none_cfg);
            assert_eq!(trace.retries, 0, "RetryPolicy::none() must never retry");
        },
    );
}

#[test]
fn panicking_cells_are_isolated_and_ledgered() {
    let mut plan = FaultPlan::moderate();
    plan.cell_panic = 0.3; // ~9% of cells fail even after one retry
    let study = with_quiet_panics(|| run_study(&quick_study_config_with(plan)));
    let h = &study.health;

    assert_eq!(h.cells_attempted, 196);
    assert!(
        h.all_accounted(),
        "completed ({}) + failed ({}) must equal attempted ({})",
        h.cells_completed,
        h.cells_failed,
        h.cells_attempted
    );
    assert_eq!(study.cells.len() as u64, h.cells_completed);
    assert!(h.cells_failed > 0, "P(double panic) = 9% per cell");
    assert!(h.cells_retried > 0, "some cells must recover on retry");
    assert_eq!(h.failed_cells.len() as u64, h.cells_failed);
    assert!(h.faults.cell_panics > 0);

    // Each failure carries the real panic payload, sorted by cell
    // label, and describes the same set as `failed_cells`.
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

    // A failed cell is genuinely absent from the dataset — and only
    // failed cells are.
    for label in &h.failed_cells {
        let mut parts = label.split('/');
        let (id, os, medium) = (
            parts.next().unwrap(),
            parts.next().unwrap(),
            parts.next().unwrap(),
        );
        assert!(
            !study.cells.iter().any(|c| c.service_id == id
                && format!("{:?}", c.os) == os
                && format!("{:?}", c.medium) == medium),
            "failed cell {label} must not appear in the dataset"
        );
    }
}

#[test]
fn run_cell_caught_surfaces_panic_payloads() {
    let catalog = Catalog::paper();
    let spec = catalog.get("yelp").unwrap();
    let cfg = quick_study_config_with(FaultPlan {
        cell_panic: 1.0,
        ..FaultPlan::none()
    });
    let result =
        with_quiet_panics(|| run_cell_caught(spec, Os::Android, Medium::App, &cfg, None, 0));
    let err = result.expect_err("pinned cell_panic must fire");
    assert!(err.contains("injected"), "payload preserved: {err}");
}

#[test]
fn chaotic_study_is_identical_across_worker_counts() {
    let mut plan = FaultPlan::moderate();
    plan.cell_panic = 0.2;
    let (a, b) = with_quiet_panics(|| {
        let a = run_study(&StudyConfig {
            workers: 1,
            ..quick_study_config_with(plan.clone())
        });
        let b = run_study(&StudyConfig {
            workers: 5,
            ..quick_study_config_with(plan)
        });
        (a, b)
    });
    assert_eq!(
        dataset::to_json(&a),
        dataset::to_json(&b),
        "same (seed, plan) must serialize byte-identically at any worker count"
    );
    assert!(a.health.faults.total() > 0);
}

/// Only retriable connection faults: packet-loss timeouts and resets.
fn conn_fault_plan() -> FaultPlan {
    FaultPlan {
        packet_loss: 0.2,
        connection_reset: 0.2,
        ..FaultPlan::none()
    }
}

#[test]
fn retried_exchanges_resend_the_identical_request() {
    let catalog = Catalog::paper();
    let spec = catalog.get("bbc-news").unwrap();

    // Tunnel level: every failed attempt hands back exactly the request
    // it was given, and the transaction finally recorded carries it.
    let mut tb = Testbed::for_cell(spec, Os::Android, 2016);
    tb.meddle.set_faults(conn_fault_plan(), &SimRng::new(2016));
    let mut sent = Vec::new();
    let mut retried = 0;
    for i in 0..40u64 {
        let url = Url::parse(&format!(
            "https://t{}.tracker.example/beacon?uid={i}",
            i % 3
        ))
        .unwrap();
        let mut req = if i % 2 == 0 {
            Request::get(url)
        } else {
            Request::post(
                url,
                Body::form(&[("email", "jane@example.com"), ("n", "7")]),
            )
        }
        .with_user_agent("RetryLaw/1.0");
        let wire = serialize_request(&req);
        let mut attempts = 0u64;
        loop {
            let at = SimTime(i * 10_000 + attempts * 500);
            let failed = match tb.meddle.exchange(
                &tb.device_trust,
                &PinSet::none(),
                &mut tb.world,
                req,
                at,
                ReusePolicy::app(),
            ) {
                Ok(()) => break,
                Err(failed) => failed,
            };
            assert!(failed.error.retriable(), "{:?}", failed.error);
            assert_eq!(request_wire_len(&failed.request), wire.len());
            assert_eq!(
                serialize_request(&failed.request),
                wire,
                "attempt {attempts}"
            );
            req = *failed.request;
            attempts += 1;
            assert!(attempts < 100, "a 40% fault rate cannot fail 100 times");
        }
        retried += usize::from(attempts > 0);
        sent.push(wire);
    }
    assert!(retried > 5, "the plan must force retries ({retried})");
    let trace = tb.meddle.finish_session(SimTime(1_000_000));
    let recorded: Vec<Vec<u8>> = trace
        .transactions
        .iter()
        .map(|t| t.request_bytes())
        .collect();
    assert_eq!(recorded, sent);

    // Session level (the client retry loop): in the cell journal every
    // attempt of a retried exchange logs the same `{host} bytes=N`
    // request line, and each recorded transaction has those bytes.
    let cfg = SessionConfig {
        duration: SimDuration::from_mins(1),
        faults: conn_fault_plan(),
        strip_background: false,
        retry: RetryPolicy {
            session_budget: 10_000,
            ..RetryPolicy::standard()
        },
        ..SessionConfig::default()
    };
    obs::capture_begin();
    let trace = {
        let _scope = obs::cell_scope("retry-law");
        let mut tb = Testbed::for_cell(spec, Os::Android, 2016);
        tb.run_session(spec, Os::Android, Medium::Web, &cfg)
    };
    let journal = obs::capture_end();
    let events = &journal.cells[0].events;
    let (mut first_attempt, mut retrying) = (String::new(), false);
    let (mut resent, mut last_request, mut recorded) = (0, String::new(), Vec::new());
    for e in events {
        match e.name.as_str() {
            "http.request" => {
                if retrying {
                    assert_eq!(e.detail, first_attempt, "a retry changed the request");
                    resent += 1;
                } else {
                    first_attempt = e.detail.clone();
                }
                retrying = false;
                last_request = e.detail.clone();
            }
            "session.retry" => retrying = true,
            "har.entry" => recorded.push(last_request.clone()),
            _ => {}
        }
    }
    assert!(resent > 5, "the session must retry requests ({resent})");
    assert!(trace.retries >= resent);
    let expected: Vec<String> = trace
        .transactions
        .iter()
        .map(|t| format!("{} bytes={}", t.host, t.request_bytes().len()))
        .collect();
    assert_eq!(recorded, expected);
}
