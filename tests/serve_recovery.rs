//! Crash-recovery and supervision properties of the resident service.
//!
//! The load-bearing claim: the WAL is the *only* state. Killing the
//! server after any journaled record and recovering must land, after
//! the client re-submits whatever never reached the journal, on a
//! final state **byte-identical** to the uninterrupted run — at every
//! single record boundary, torn final lines included.
//!
//! Those sweeps are gates 1–3 and 8 of `repro serve --smoke`; the tests
//! below run the gates' own functions on the smoke workload and assert
//! every verdict, so the CLI and tier-1 check one definition. The smoke
//! journal itself is pinned in `tests/golden/serve_smoke_wal.jsonl`, so
//! its bytes cannot drift between commits either; after an intentional
//! change, regenerate it with
//!
//! REGEN_GOLDEN=1 cargo test --test serve_recovery

use appvsweb::serve::{JobSpec, MemWal, QueueConfig, Server, WalKind, WalRecord};
use appvsweb_bench::cli::{report, Check};
use appvsweb_bench::serve_cli::{self, quick_spec, recon_spec, small_cells, smoke_server};
use appvsweb_testkit::fixtures::with_quiet_panics;
use appvsweb_testkit::{gen, prop_test, SimRng};

/// Run `gate` on the golden (1-worker) smoke server; every check holds.
fn gate_holds(gate: impl FnOnce(&Server<MemWal>) -> Vec<Check>) {
    let checks = with_quiet_panics(|| gate(&smoke_server(1)));
    assert_eq!(report(&checks), 0, "a serve smoke gate failed");
}

#[test]
fn smoke_journal_matches_committed_snapshot() {
    let wal = with_quiet_panics(|| smoke_server(1)).sink().text.clone();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_smoke_wal.jsonl");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &wal).expect("write golden snapshot");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        wal, committed,
        "the smoke journal drifted from the committed snapshot; if the \
         change is intentional, regenerate with REGEN_GOLDEN=1"
    );
}

#[test]
fn final_state_is_identical_across_worker_counts() {
    gate_holds(serve_cli::worker_checks);
}

#[test]
fn crash_at_every_record_boundary_recovers_byte_identically() {
    gate_holds(|golden| vec![serve_cli::crash_check(golden)]);
}

#[test]
fn checkpoint_plus_suffix_equals_full_replay_at_quiescent_points() {
    gate_holds(|golden| vec![serve_cli::checkpoint_check(golden)]);
}

#[test]
fn a_warm_classifier_slot_never_changes_a_result() {
    assert_eq!(report(&[serve_cli::warm_recon_check()]), 0);
}

#[test]
fn the_paper_classifier_trains_once_per_session_length() {
    let mut server = Server::new(MemWal::default(), QueueConfig::default(), 2);
    let jobs = [
        recon_spec(7),
        recon_spec(8),
        JobSpec {
            minutes: 2,
            ..recon_spec(9)
        },
        quick_spec("plain", 10),
    ];
    let mut trains = 0;
    let mut after = Vec::new();
    for spec in jobs {
        appvsweb::obs::capture_begin();
        server.submit(spec).expect("submit");
        server.run_pending().expect("run");
        trains += appvsweb::obs::capture_end().counter_total("serve.recon_trains");
        after.push(trains);
    }
    assert_eq!(after, vec![1, 1, 2, 2], "trainings after each job");
    assert_eq!(
        server.recon().map(|(minutes, _)| minutes),
        Some(2),
        "a job without ReCon leaves the slot alone"
    );
}

#[test]
fn stalled_cells_are_reaped_then_succeed_on_retry() {
    with_quiet_panics(|| {
        let stall: Vec<String> = small_cells()
            .first()
            .map(|c| c.to_string())
            .into_iter()
            .collect();
        let mut server = Server::new(MemWal::default(), QueueConfig::default(), 2);
        server
            .submit(JobSpec {
                stall_cells: stall.clone(),
                ..quick_spec("stalls", 9)
            })
            .expect("submit");
        server.run_pending().expect("run");
        let rev = server.state.revisions.first().expect("revision");
        assert_eq!(rev.health.supervisor_reaps, 1, "exactly one reap");
        assert_eq!(rev.health.cells_quarantined, 0);
        // The stalled cell recovered on its supervised retry: the
        // revision still covers the full cell grid.
        assert!(rev.health.is_complete(), "health: {:?}", rev.health);
        assert_eq!(rev.profiles.len(), small_cells().len());
        // The reap is journaled with the cell's label.
        let wal = &server.sink().text;
        let reap = wal
            .lines()
            .filter_map(|l| WalRecord::decode(l).ok())
            .find(|r| r.kind == WalKind::Reap)
            .expect("reap record journaled");
        assert_eq!(Some(reap.detail), stall.first().cloned());
    });
}

prop_test! {
    // A poison cell (panics on every attempt) is retried exactly
    // `max_retries` times — each retry drawing capped backoff from the
    // shared session RetryPolicy — then quarantined, with the panic
    // payload preserved in the revision's StudyHealth ledger. The job
    // as a whole still completes and produces a revision.
    fn poison_cells_quarantine_after_exact_retry_budget(
        case in gen::from_fn(|rng: &mut SimRng| (rng.below(3) as u32, rng.below(1000)))
    ) {
        let (max_retries, seed) = case;
        with_quiet_panics(|| {
            let mut server = Server::new(MemWal::default(), QueueConfig::default(), 2);
            let cells = small_cells();
            server
                .submit(JobSpec {
                    cell_panic: 1.0,
                    max_retries,
                    ..quick_spec("poison", seed)
                })
                .expect("submit");
            server.run_pending().expect("run");
            let rev = server.state.revisions.first().expect("revision");
            assert_eq!(
                rev.health.cells_quarantined,
                cells.len() as u64,
                "every always-panicking cell must be quarantined"
            );
            assert_eq!(rev.health.failures.len(), cells.len());
            for failure in &rev.health.failures {
                assert!(
                    failure.error.contains("injected CellPanic"),
                    "panic payload lost: {:?}",
                    failure.error
                );
            }
            // Exact retry accounting, straight from the journal: each
            // cell's quarantine names its final attempt index.
            let quarantines: Vec<WalRecord> = server
                .sink()
                .text
                .lines()
                .filter_map(|l| WalRecord::decode(l).ok())
                .filter(|r| r.kind == WalKind::Quarantine)
                .collect();
            assert_eq!(quarantines.len(), cells.len());
            for q in &quarantines {
                assert_eq!(
                    q.attempt, max_retries,
                    "quarantine must happen on the last allowed attempt"
                );
            }
        });
    }
}
