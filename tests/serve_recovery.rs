//! Crash-recovery and supervision properties of the resident service.
//!
//! The load-bearing claim: the WAL is the *only* state. Killing the
//! server after any journaled record and recovering must land, after
//! the client re-submits whatever never reached the journal, on a
//! final state **byte-identical** to the uninterrupted run — at every
//! single record boundary, torn final lines included.

use appvsweb::core::study::{train_recon, StudyConfig, PAPER_SEED};
use appvsweb::core::CellId;
use appvsweb::json::ToJson;
use appvsweb::netsim::{Os, SimDuration};
use appvsweb::serve::{
    recover, Checkpoint, JobSpec, MemWal, QueueConfig, ServeState, Server, WalKind, WalRecord,
};
use appvsweb::services::{Catalog, Medium};
use appvsweb_testkit::fixtures::with_quiet_panics;
use appvsweb_testkit::{gen, prop_test, SimRng};

/// Two Android services as app+web cells: small enough that the whole
/// crash-point sweep stays inside the tier-1 test budget.
fn tiny_cells() -> Vec<CellId> {
    Catalog::paper()
        .testable_on(Os::Android)
        .take(2)
        .flat_map(|s| {
            [
                CellId::new(s.id, Os::Android, Medium::App),
                CellId::new(s.id, Os::Android, Medium::Web),
            ]
        })
        .collect()
}

fn tiny_spec(name: &str, seed: u64) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        seed,
        minutes: 1,
        use_recon: false,
        cells: tiny_cells(),
        ..JobSpec::default()
    }
}

/// The standard two-job workload: a healthy revision and a supervised
/// one with an injected stall (first cell) plus panics under the
/// moderate fault plan.
fn workload() -> Vec<JobSpec> {
    let stall = tiny_cells()
        .first()
        .map(|c| c.to_string())
        .into_iter()
        .collect();
    vec![
        tiny_spec("series", 5),
        JobSpec {
            faults: "moderate".to_string(),
            stall_cells: stall,
            max_retries: 1,
            ..tiny_spec("series", 5)
        },
    ]
}

fn run_workload(workers: usize) -> Server<MemWal> {
    let mut server = Server::new(MemWal::default(), QueueConfig::default(), workers);
    for spec in workload() {
        server.submit(spec).expect("submit");
    }
    server.run_pending().expect("run");
    server
}

fn state_bytes(state: &ServeState) -> String {
    state.to_json().to_compact()
}

fn recon_spec(seed: u64, minutes: u64) -> JobSpec {
    JobSpec {
        minutes,
        use_recon: true,
        ..tiny_spec("recon", seed)
    }
}

/// A server that has run `specs`, one after another.
fn served(specs: Vec<JobSpec>) -> Server<MemWal> {
    let mut server = Server::new(MemWal::default(), QueueConfig::default(), 2);
    for spec in specs {
        server.submit(spec).expect("submit");
        server.run_pending().expect("run");
    }
    server
}

/// The revision of the job with `seed`, reduced to what the job
/// measured: `digest`, `profiles`, `headlines` and `health`.
fn measured(server: &Server<MemWal>, seed: u64) -> String {
    let rev = server
        .state
        .revisions
        .iter()
        .find(|r| r.seed == seed)
        .expect("the job produced a revision");
    format!(
        "{} {} {} {}",
        rev.digest,
        rev.profiles.to_json().to_compact(),
        rev.headlines.to_json().to_compact(),
        rev.health.to_json().to_compact()
    )
}

/// The `Finish` record of the job with `seed`.
fn finish_record(server: &Server<MemWal>, seed: u64) -> WalRecord {
    server
        .sink()
        .text
        .lines()
        .filter_map(|l| WalRecord::decode(l).ok())
        .find(|r| r.kind == WalKind::Finish && r.revision.as_ref().is_some_and(|v| v.seed == seed))
        .expect("the job finished")
}

#[test]
fn the_paper_classifier_trains_once_per_session_length() {
    let mut server = Server::new(MemWal::default(), QueueConfig::default(), 2);
    let jobs = [
        recon_spec(7, 1),
        recon_spec(8, 1),
        recon_spec(9, 2),
        tiny_spec("plain", 10),
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
fn a_warm_classifier_slot_never_changes_a_result() {
    // A runs seed 7 then seed 8 (warm slot for 8); B runs only seed 8.
    let a = served(vec![recon_spec(7, 1), recon_spec(8, 1)]);
    let b = served(vec![recon_spec(8, 1)]);
    assert_eq!(measured(&a, 8), measured(&b, 8), "warm vs cold revision");
    // The Finish lines match once placed at the same journal position.
    let cold = finish_record(&b, 8);
    let mut warm = finish_record(&a, 8);
    warm.seq = cold.seq;
    warm.job = cold.job;
    if let Some(rev) = warm.revision.as_mut() {
        rev.job = cold.job;
    }
    assert_eq!(warm.encode(), cold.encode(), "warm vs cold Finish line");

    // Crash A after job 7: the recovered server starts with an empty
    // slot, retrains, and writes the same journal and state.
    let lines: Vec<&str> = a.sink().text.lines().collect();
    let job7_done = lines
        .iter()
        .position(|l| WalRecord::decode(l).is_ok_and(|r| r.kind == WalKind::Finish))
        .expect("job 7 finished");
    let text: String = lines[..=job7_done]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    let (state, last_seq) = recover(&text, None).expect("recover");
    let mut revived =
        Server::recovered(MemWal { text }, state, last_seq, QueueConfig::default(), 2);
    assert!(revived.recon().is_none(), "a recovered server starts cold");
    revived.submit(recon_spec(8, 1)).expect("submit");
    revived.run_pending().expect("run");
    assert_eq!(revived.sink().text, a.sink().text, "recovered journal");
    assert_eq!(state_bytes(&revived.state), state_bytes(&a.state));

    // The slot holds the paper's classifier for 1-minute sessions.
    let paper = train_recon(
        &Catalog::paper(),
        &StudyConfig {
            seed: PAPER_SEED,
            duration: SimDuration::from_mins(1),
            ..StudyConfig::default()
        },
    );
    let (minutes, model) = a.recon().expect("A trained a model");
    assert_eq!(minutes, 1);
    assert_eq!(
        appvsweb::json::encode(model),
        appvsweb::json::encode(&paper),
        "the slot holds the seed-{PAPER_SEED} model"
    );
}

#[test]
fn final_state_is_identical_across_worker_counts() {
    with_quiet_panics(|| {
        let one = run_workload(1);
        let two = run_workload(2);
        let eight = run_workload(8);
        assert_eq!(
            one.sink().text,
            two.sink().text,
            "WAL diverged at 2 workers"
        );
        assert_eq!(
            one.sink().text,
            eight.sink().text,
            "WAL diverged at 8 workers"
        );
        assert_eq!(state_bytes(&one.state), state_bytes(&two.state));
        assert_eq!(state_bytes(&one.state), state_bytes(&eight.state));
    });
}

#[test]
fn crash_at_every_record_boundary_recovers_byte_identically() {
    with_quiet_panics(|| {
        let golden = run_workload(1);
        let golden_state = state_bytes(&golden.state);
        let lines: Vec<&str> = golden.sink().text.lines().collect();
        assert!(lines.len() >= 6, "workload journal suspiciously short");

        for cut in 0..=lines.len() {
            let mut prefix: String = lines.iter().take(cut).map(|l| format!("{l}\n")).collect();
            // Exercise the torn-final-line path too: append half of the
            // record that was being written when the "crash" hit.
            let torn = lines.get(cut).map(|next| {
                let mut t = prefix.clone();
                t.push_str(&next[..next.len() / 2]);
                t
            });
            for text in std::iter::once(std::mem::take(&mut prefix)).chain(torn) {
                let (state, last_seq) =
                    recover(&text, None).expect("every crash prefix must recover");
                let mut server =
                    Server::recovered(MemWal { text }, state, last_seq, QueueConfig::default(), 1);
                // The client's crash protocol: re-submit any job whose
                // Submit record never became durable. Journaled jobs
                // keep their ledger entries and are not re-submitted.
                for (id, spec) in workload().into_iter().enumerate() {
                    if server.state.job(id as u64).is_none() {
                        server.submit(spec).expect("re-submit");
                    }
                }
                server.run_pending().expect("resume");
                assert_eq!(
                    state_bytes(&server.state),
                    golden_state,
                    "divergence after crash at record boundary {cut}"
                );
            }
        }
    });
}

#[test]
fn checkpoint_plus_suffix_equals_full_replay_at_quiescent_points() {
    with_quiet_panics(|| {
        let golden = run_workload(1);
        let wal = &golden.sink().text;
        let lines: Vec<&str> = wal.lines().collect();
        let (full, _) = recover(wal, None).expect("full replay");

        // Quiescent points: no job mid-run (Start count == Finish +
        // JobFail count). These are exactly where the server writes
        // checkpoints, and the only places checkpoint-equivalence can
        // hold: `requeue_inflight` rewinds mid-job progress by design.
        let mut open = 0i64;
        let mut checked = 0usize;
        for (i, line) in lines.iter().enumerate() {
            match WalRecord::decode(line)
                .expect("golden journal decodes")
                .kind
            {
                WalKind::Start => open += 1,
                WalKind::Finish | WalKind::JobFail => open -= 1,
                _ => {}
            }
            if open != 0 {
                continue;
            }
            checked += 1;
            let prefix: String = lines.iter().take(i + 1).map(|l| format!("{l}\n")).collect();
            let (state, wal_seq) = recover(&prefix, None).expect("prefix replay");
            let cp = Checkpoint { wal_seq, state };
            let (resumed, _) = recover(wal, Some(&cp)).expect("checkpoint + suffix");
            assert_eq!(
                state_bytes(&resumed),
                state_bytes(&full),
                "checkpoint divergence at quiescent line {}",
                i + 1
            );
        }
        assert!(
            checked >= 3,
            "expected several quiescent points, got {checked}"
        );
    });
}

#[test]
fn stalled_cells_are_reaped_then_succeed_on_retry() {
    with_quiet_panics(|| {
        let stall: Vec<String> = tiny_cells()
            .first()
            .map(|c| c.to_string())
            .into_iter()
            .collect();
        let mut server = Server::new(MemWal::default(), QueueConfig::default(), 2);
        server
            .submit(JobSpec {
                stall_cells: stall.clone(),
                ..tiny_spec("stalls", 9)
            })
            .expect("submit");
        server.run_pending().expect("run");
        let rev = server.state.revisions.first().expect("revision");
        assert_eq!(rev.health.supervisor_reaps, 1, "exactly one reap");
        assert_eq!(rev.health.cells_quarantined, 0);
        // The stalled cell recovered on its supervised retry: the
        // revision still covers the full cell grid.
        assert!(rev.health.is_complete(), "health: {:?}", rev.health);
        assert_eq!(rev.profiles.len(), tiny_cells().len());
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
            let cells = tiny_cells();
            server
                .submit(JobSpec {
                    cell_panic: 1.0,
                    max_retries,
                    ..tiny_spec("poison", seed)
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
