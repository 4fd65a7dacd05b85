//! The `repro serve` subcommand: the supervised resident service.
//!
//! * `repro serve --listen PORT` runs the std-only HTTP server
//!   (submit/status/report/health/drift) over a state directory, with
//!   WAL + checkpoint recovery on startup.
//! * `repro serve --demo` runs the drift-alarm demonstration: two
//!   revisions of the same monitoring series, diffed.
//! * `repro serve --smoke` is the CI gate: worker-count byte-identity,
//!   crash/recover/resume equality at **every** WAL record boundary,
//!   load-shed degradation, supervisor reap + quarantine accounting,
//!   the golden-headline check on the no-fault serve path, and
//!   warm-vs-cold identity of the server's one ReCon model.
//!
//! Gates 1–3 and 8 are public: `tests/serve_recovery.rs` runs the same
//! functions on the same workload and asserts their verdicts.

use crate::cli::Value::{Int, Switch, Text};
use crate::cli::{report, Args, Check, Command, Flag, U64, WORKERS};
use appvsweb_core::study::{train_recon, StudyConfig, PAPER_SEED};
use appvsweb_core::CellId;
use appvsweb_json::ToJson;
use appvsweb_netsim::{Os, SimDuration};
use appvsweb_serve::{
    recover, Admission, Checkpoint, JobSpec, JobStatus, MemWal, QueueConfig, ServeDir, ServeState,
    Server, WalKind, WalRecord,
};
use appvsweb_services::{Catalog, Medium};

/// The flags of `repro serve`.
#[rustfmt::skip]
pub const COMMAND: Command = Command {
    name: "serve",
    flags: &[
        Flag::new("--smoke", Switch, "CI gate: worker identity, crash/recover at every record"),
        Flag::new("--demo", Switch, "run the drift-alarm demonstration"),
        Flag::new("--listen", Int("PORT", 0, u16::MAX as u64), "serve HTTP on 127.0.0.1:PORT"),
        Flag::new("--dir", Text("PATH"), "state directory for --listen (default serve-state)"),
        Flag::new("--workers", WORKERS, "cell threads per job (default 2)"),
        Flag::new("--max-requests", U64, "stop --listen after N requests (0: never)"),
    ],
    subcommands: &[],
    run,
};

/// The first three Android-testable services as app+web cells: a
/// small, stable explicit selection the gates run quickly on.
pub fn small_cells() -> Vec<CellId> {
    let catalog = Catalog::paper();
    let mut cells = Vec::new();
    for spec in catalog.testable_on(Os::Android).take(3) {
        cells.push(CellId::new(spec.id, Os::Android, Medium::App));
        cells.push(CellId::new(spec.id, Os::Android, Medium::Web));
    }
    cells
}

/// A 1-minute, matcher-only job over [`small_cells`].
pub fn quick_spec(name: &str, seed: u64) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        seed,
        minutes: 1,
        use_recon: false,
        cells: small_cells(),
        ..JobSpec::default()
    }
}

/// [`quick_spec`] scored with the server's ReCon model as well.
pub fn recon_spec(seed: u64) -> JobSpec {
    JobSpec {
        use_recon: true,
        ..quick_spec("recon", seed)
    }
}

/// The submissions every smoke/demo server receives, in order: two
/// revisions of the `monitor` series, the first degraded by the
/// moderate fault plan (so the healthy second revision surfaces "new"
/// domains and types as drift) with a stalled first cell that succeeds
/// on its retry; then a poison job whose every attempt panics, its
/// stalled cell included, so each cell is quarantined.
fn smoke_submissions() -> Vec<JobSpec> {
    let stall: Vec<String> = small_cells()
        .first()
        .map(|c| c.to_string())
        .into_iter()
        .collect();
    let degraded = JobSpec {
        faults: "moderate".to_string(),
        stall_cells: stall.clone(),
        ..quick_spec("monitor", 7)
    };
    let poison = JobSpec {
        stall_cells: stall,
        cell_panic: 1.0,
        ..quick_spec("poison", 11)
    };
    vec![degraded, quick_spec("monitor", 7), poison]
}

/// The smoke workload's server after it drained its queue on
/// `workers` threads; the `workers = 1` run is the golden every
/// crash gate compares against.
pub fn smoke_server(workers: usize) -> Server<MemWal> {
    run_specs(smoke_submissions(), workers)
}

/// A server that was submitted `specs`, then drained its queue.
fn run_specs(specs: Vec<JobSpec>, workers: usize) -> Server<MemWal> {
    let mut server = Server::new(MemWal::default(), QueueConfig::default(), workers);
    for spec in specs {
        if let Err(e) = server.submit(spec) {
            eprintln!("smoke submission rejected: {e}");
        }
    }
    if let Err(e) = server.run_pending() {
        eprintln!("smoke run failed: {e}");
    }
    server
}

/// A crashed server restarted on the journal `text`.
fn restart(text: String, workers: usize) -> Option<Server<MemWal>> {
    let (state, last_seq) = recover(&text, None).ok()?;
    let queue = QueueConfig::default();
    Some(Server::recovered(
        MemWal { text },
        state,
        last_seq,
        queue,
        workers,
    ))
}

/// The client's crash protocol: re-submit each job of `specs` whose
/// Submit record never became durable (journaled jobs keep their
/// ledger entries and are not re-submitted), then drain the queue.
fn resubmit(server: &mut Server<MemWal>, specs: &[JobSpec]) -> Option<()> {
    for (id, spec) in specs.iter().enumerate() {
        if server.state.job(id as u64).is_none() {
            server.submit(spec.clone()).ok()?;
        }
    }
    server.run_pending().ok().map(|_| ())
}

/// What the job with `seed` measured: its revision's digest, profiles,
/// headlines and health, without the journal position.
fn measured(server: &Server<MemWal>, seed: u64) -> Option<String> {
    let rev = server.state.revisions.iter().find(|r| r.seed == seed)?;
    Some(format!(
        "{} {} {} {}",
        rev.digest,
        rev.profiles.to_json().to_compact(),
        rev.headlines.to_json().to_compact(),
        rev.health.to_json().to_compact()
    ))
}

/// The `Finish` record of the job with `seed`.
fn finish_record(server: &Server<MemWal>, seed: u64) -> Option<WalRecord> {
    server
        .sink()
        .text
        .lines()
        .filter_map(|l| WalRecord::decode(l).ok())
        .find(|r| r.kind == WalKind::Finish && r.revision.as_ref().is_some_and(|v| v.seed == seed))
}

/// The journal text of the first `cut` WAL records.
fn wal_prefix(lines: &[&str], cut: usize) -> String {
    lines[..cut]
        .iter()
        .map(|line| format!("{line}\n"))
        .collect()
}

fn state_bytes(state: &ServeState) -> String {
    state.to_json().to_compact()
}

/// Entry point for `repro serve`. Returns the process exit code.
pub fn run(args: &Args) -> i32 {
    let workers = args.int("--workers").unwrap_or(2);
    if args.switch("--smoke") {
        return appvsweb_testkit::fixtures::with_quiet_panics(smoke);
    }
    if args.switch("--demo") {
        // The demo workload injects panics (faulted first revision,
        // poison job); keep their backtraces off the terminal.
        return appvsweb_testkit::fixtures::with_quiet_panics(|| demo(workers));
    }
    if let Some(port) = args.int("--listen") {
        let dir = args.text("--dir").unwrap_or("serve-state");
        return listen(port, dir, workers, args.int("--max-requests").unwrap_or(0));
    }
    eprintln!("nothing to do: pass --smoke, --demo, or --listen PORT");
    2
}

/// The drift-alarm demonstration: two revisions of the `monitor`
/// series, diffed into structured alarms.
fn demo(workers: usize) -> i32 {
    let server = smoke_server(workers);
    let state = &server.state;
    println!("== repro serve --demo: drift alarms ==");
    for rev in &state.revisions {
        println!(
            "revision {} job={} name={} cells={} digest={}",
            rev.id,
            rev.job,
            rev.name,
            rev.profiles.len(),
            rev.digest
        );
    }
    if state.alarms.is_empty() {
        println!("(no drift between revisions)");
    }
    for alarm in &state.alarms {
        println!("ALARM {}", alarm.render());
    }
    0
}

fn smoke() -> i32 {
    let golden = smoke_server(1);
    let mut checks = worker_checks(&golden);
    checks.extend([
        crash_check(&golden),
        checkpoint_check(&golden),
        supervisor_check(&golden),
        // Gate 5: drift alarms — the two monitor revisions differ.
        Check::new(
            "drift alarms fire between monitor revisions",
            !golden.state.alarms.is_empty(),
        ),
        shed_check(),
        headline_check(),
        warm_recon_check(),
    ]);
    match report(&checks) {
        0 => {
            eprintln!("serve smoke: all gates passed");
            0
        }
        failures => {
            eprintln!("serve smoke: {failures} gate(s) FAILED");
            1
        }
    }
}

/// Gate 1: worker-count invariance — the WAL and the state of the
/// smoke workload at 2 and 8 workers are byte-identical to `golden`'s.
pub fn worker_checks(golden: &Server<MemWal>) -> Vec<Check> {
    let others = [smoke_server(2), smoke_server(8)];
    let same_wal = others.iter().all(|s| s.sink().text == golden.sink().text);
    let golden_state = state_bytes(&golden.state);
    let same_state = others.iter().all(|s| state_bytes(&s.state) == golden_state);
    vec![
        Check::new("WAL byte-identical across 1/2/8 workers", same_wal),
        Check::new("state byte-identical across 1/2/8 workers", same_state),
    ]
}

/// Gate 2: crash/recover/resume at every record boundary — truncate
/// `golden`'s journal after each record (and mid-record, for the torn
/// tail), restart, follow the client's crash protocol, and require the
/// final state to equal the uninterrupted golden byte for byte.
pub fn crash_check(golden: &Server<MemWal>) -> Check {
    let golden_state = state_bytes(&golden.state);
    let lines: Vec<&str> = golden.sink().text.lines().collect();
    let specs = smoke_submissions();
    let mut points = 0usize;
    let mut all_resume = true;
    for cut in 0..=lines.len() {
        let prefix = wal_prefix(&lines, cut);
        let torn = lines
            .get(cut)
            .map(|next| format!("{prefix}{}", &next[..next.len() / 2]));
        for text in std::iter::once(prefix).chain(torn) {
            points += 1;
            let resumed = restart(text, 1).and_then(|mut server| {
                resubmit(&mut server, &specs)?;
                Some(state_bytes(&server.state))
            });
            all_resume &= resumed.as_ref() == Some(&golden_state);
        }
    }
    Check::all(
        format!("crash/recover/resume equals golden at all {points} truncation points"),
        &[
            ("the journal holds at least 6 records", lines.len() >= 6),
            ("every truncation resumes to the golden state", all_resume),
        ],
    )
}

/// Gate 3: checkpoint + suffix replay equals full replay, at every
/// quiescent boundary of `golden`'s journal (no job mid-run — the only
/// points the real server writes checkpoints, since `requeue_inflight`
/// deliberately rewinds mid-job progress that the suffix would then
/// double-count).
pub fn checkpoint_check(golden: &Server<MemWal>) -> Check {
    let wal = &golden.sink().text;
    let lines: Vec<&str> = wal.lines().collect();
    let mut decodes = true;
    let mut quiescent = Vec::new();
    let mut open = 0i64;
    for (i, line) in lines.iter().enumerate() {
        match WalRecord::decode(line).map(|r| r.kind) {
            Ok(WalKind::Start) => open += 1,
            Ok(WalKind::Finish | WalKind::JobFail) => open -= 1,
            Ok(_) => {}
            Err(_) => decodes = false,
        }
        if open == 0 {
            quiescent.push(i + 1);
        }
    }
    let full = recover(wal, None)
        .ok()
        .map(|(state, _)| state_bytes(&state));
    let resumes_like_full = |cut: usize| {
        let (state, wal_seq) = recover(&wal_prefix(&lines, cut), None).ok()?;
        let (from_cp, _) = recover(wal, Some(&Checkpoint { wal_seq, state })).ok()?;
        Some(state_bytes(&from_cp))
    };
    Check::all(
        format!(
            "checkpoint + WAL suffix equals full replay at all {} quiescent points",
            quiescent.len()
        ),
        &[
            ("the journal decodes", decodes),
            (
                "more than 3 quiescent points, the end among them",
                quiescent.len() > 3 && quiescent.contains(&lines.len()),
            ),
            (
                "every checkpoint resumes like the full replay",
                full.is_some() && quiescent.iter().all(|&cut| resumes_like_full(cut) == full),
            ),
        ],
    )
}

/// Gate 4: supervisor accounting — the degraded revision's stalled cell
/// was reaped and then completed; the poison job's cells were reaped
/// and quarantined with their panic payloads in the health ledger.
fn supervisor_check(golden: &Server<MemWal>) -> Check {
    let revision = |name: &str| golden.state.revisions.iter().find(|r| r.name == name);
    let stalled = revision("monitor")
        .is_some_and(|rev| rev.health.supervisor_reaps >= 1 && rev.health.is_complete());
    let poisoned = revision("poison").is_some_and(|rev| {
        rev.health.supervisor_reaps >= 1
            && rev.health.cells_quarantined >= 1
            && rev
                .health
                .failures
                .iter()
                .any(|f| f.error.contains("panic") || f.error.contains("injected"))
    });
    Check::all(
        "supervisor reaps + quarantines land in StudyHealth",
        &[
            ("the stalled cell was reaped, then completed", stalled),
            ("the poison cells were reaped and quarantined", poisoned),
        ],
    )
}

/// Gate 6: load-shedding — a queue past `depth` degrades coverage, and
/// past `hard_cap` rejects.
fn shed_check() -> Check {
    let mut shed_server = Server::new(
        MemWal::default(),
        QueueConfig {
            depth: 1,
            hard_cap: 2,
            shed_stride: 2,
        },
        1,
    );
    let admissions: Vec<Admission> = (0..3)
        .filter_map(|i| {
            shed_server
                .submit(quick_spec("shed", 20 + i))
                .ok()
                .map(|(_, a)| a)
        })
        .collect();
    let shed_ok = admissions == vec![Admission::Admit, Admission::Shed(2), Admission::Reject]
        && shed_server.run_pending().is_ok()
        && {
            let full = shed_server.state.revisions.iter().find(|r| r.job == 0);
            let shed = shed_server.state.revisions.iter().find(|r| r.job == 1);
            match (full, shed) {
                (Some(f), Some(s)) => s.profiles.len() < f.profiles.len(),
                _ => false,
            }
        }
        && shed_server
            .state
            .job(2)
            .is_some_and(|j| j.status == JobStatus::Rejected);
    Check::new("load-shed degrades coverage; hard cap rejects", shed_ok)
}

/// Gate 7: the no-fault serve path reproduces the golden headlines
/// (92.0 / 74.0 / 53.1 / 75.5) unchanged.
fn headline_check() -> Check {
    let mut full_server = Server::new(MemWal::default(), QueueConfig::default(), 0);
    let full_spec = JobSpec {
        name: "golden".to_string(),
        seed: 2016,
        minutes: 4,
        use_recon: true,
        ..JobSpec::default()
    };
    let headline_ok = full_server.submit(full_spec).is_ok()
        && full_server.run_pending().is_ok()
        && full_server.state.revisions.first().is_some_and(|rev| {
            let h = &rev.headlines;
            h.app_pct == 92.0
                && h.web_pct == 74.0
                && h.android_web_pct == 53.1
                && h.ios_web_pct == 75.5
                && rev.health.is_complete()
        });
    Check::new(
        "no-fault serve path reproduces golden headlines",
        headline_ok,
    )
}

/// Gate 8: the server's one ReCon model never changes a result. A warm
/// server (seed 7, then seed 8) and a cold one (seed 8 alone) hold the
/// same model and give job 8 the same revision, and the same `Finish`
/// line once both sit at the same journal position. The warm server,
/// crashed after job 7 and restarted, starts cold and rewrites the same
/// journal and state. The model is the paper's: seed `PAPER_SEED`.
pub fn warm_recon_check() -> Check {
    let specs = [recon_spec(7), recon_spec(8)];
    let warm = run_specs(specs.to_vec(), 2);
    let cold = run_specs(vec![recon_spec(8)], 2);
    let model = |server: &Server<MemWal>| {
        server
            .recon()
            .map(|(minutes, model)| (minutes, appvsweb_json::encode(model)))
    };
    let same_finish = match (finish_record(&warm, 8), finish_record(&cold, 8)) {
        (Some(mut warm), Some(cold)) => {
            warm.seq = cold.seq;
            warm.job = cold.job;
            if let Some(rev) = warm.revision.as_mut() {
                rev.job = cold.job;
            }
            warm.encode() == cold.encode()
        }
        _ => false,
    };
    let lines: Vec<&str> = warm.sink().text.lines().collect();
    let job7_done = lines
        .iter()
        .position(|l| WalRecord::decode(l).is_ok_and(|r| r.kind == WalKind::Finish));
    let mut revived = job7_done.and_then(|i| restart(wal_prefix(&lines, i + 1), 2));
    let starts_cold = revived.as_ref().is_some_and(|s| s.recon().is_none());
    let rewrites = revived.as_mut().and_then(|s| resubmit(s, &specs)).is_some()
        && revived.is_some_and(|s| {
            s.sink().text == warm.sink().text && state_bytes(&s.state) == state_bytes(&warm.state)
        });
    let paper = train_recon(
        &Catalog::paper(),
        &StudyConfig {
            seed: PAPER_SEED,
            duration: SimDuration::from_mins(1),
            ..StudyConfig::default()
        },
    );
    let paper_model = format!("the slot holds the seed-{PAPER_SEED} model");
    Check::all(
        "a warm ReCon model reproduces the cold server's model and revision",
        &[
            (
                "warm vs cold revision",
                measured(&cold, 8).is_some() && measured(&warm, 8) == measured(&cold, 8),
            ),
            (
                "warm vs cold model",
                model(&cold).is_some() && model(&warm) == model(&cold),
            ),
            ("warm vs cold Finish line", same_finish),
            ("a restarted server starts cold", starts_cold),
            (
                "the restarted server rewrites the journal and state",
                rewrites,
            ),
            (
                &paper_model,
                model(&warm) == Some((1, appvsweb_json::encode(&paper))),
            ),
        ],
    )
}

fn listen(port: u16, dir: &str, workers: usize, max_requests: u64) -> i32 {
    let dir = ServeDir::new(dir);
    let mut server = match dir.open(QueueConfig::default(), workers) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot open state dir: {e}");
            return 1;
        }
    };
    eprintln!(
        "recovered: {} job(s), {} revision(s), {} queued",
        server.state.jobs.len(),
        server.state.revisions.len(),
        server.state.queued.len()
    );
    let listener = match std::net::TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind 127.0.0.1:{port}: {e}");
            return 1;
        }
    };
    // Print the bound address, so a client of `--listen 0` learns the
    // port the system picked.
    match listener.local_addr() {
        Ok(addr) => eprintln!("repro serve listening on http://{addr}"),
        Err(e) => {
            eprintln!("cannot read the bound address: {e}");
            return 1;
        }
    }
    let mut handled = 0u64;
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let response = {
            use std::io::Read;
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            // Read until a full request parses or the peer stops.
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        match appvsweb_serve::http::parse_request(&buf) {
                            Err(appvsweb_serve::http::HttpError::Incomplete)
                            | Err(appvsweb_serve::http::HttpError::ShortBody) => continue,
                            _ => break,
                        }
                    }
                    Err(_) => break,
                }
            }
            appvsweb_serve::http::handle(&mut server, &buf)
        };
        {
            use std::io::Write;
            let _ = stream.write_all(response.as_bytes());
            let _ = stream.flush();
        }
        // Drain the queue between requests, then checkpoint. An injected
        // cell panic is kept in the job's health ledger, so the default
        // hook's report of it would only be noise.
        if let Err(e) = appvsweb_testkit::fixtures::with_quiet_panics(|| server.run_pending()) {
            eprintln!("job execution failed: {e}");
        }
        if let Err(e) = dir.write_checkpoint(&server.checkpoint()) {
            eprintln!("checkpoint failed: {e}");
        }
        handled += 1;
        if max_requests > 0 && handled >= max_requests {
            break;
        }
    }
    0
}
