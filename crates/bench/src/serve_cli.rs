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

use crate::cli::Value::{Int, Switch, Text};
use crate::cli::{Args, Command, Flag, U64, WORKERS};
use appvsweb_core::CellId;
use appvsweb_json::ToJson;
use appvsweb_netsim::Os;
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

/// First `n` Android-testable services as app+web cells: a small,
/// stable explicit selection the gates run quickly on.
fn small_cells(n: usize) -> Vec<CellId> {
    let catalog = Catalog::paper();
    let mut cells = Vec::new();
    for spec in catalog.testable_on(Os::Android).take(n) {
        cells.push(CellId::new(spec.id, Os::Android, Medium::App));
        cells.push(CellId::new(spec.id, Os::Android, Medium::Web));
    }
    cells
}

fn quick_spec(name: &str, seed: u64) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        seed,
        minutes: 1,
        use_recon: false,
        cells: small_cells(3),
        ..JobSpec::default()
    }
}

/// The submissions every smoke/demo server receives, in order: two
/// revisions of the same monitoring series (the first degraded by a
/// fault plan, so the healthy second revision surfaces "new" domains
/// and types as drift) plus a supervised job with an injected stall
/// and an always-panicking poison cell.
fn smoke_submissions() -> Vec<JobSpec> {
    let cells = small_cells(3);
    let stall = cells
        .first()
        .map(|c| c.to_string())
        .into_iter()
        .collect::<Vec<_>>();
    let degraded = JobSpec {
        faults: "moderate".to_string(),
        ..quick_spec("monitor", 7)
    };
    let poison = JobSpec {
        name: "poison".to_string(),
        stall_cells: stall,
        cell_panic: 1.0,
        max_retries: 2,
        ..quick_spec("poison", 11)
    };
    vec![degraded, quick_spec("monitor", 7), poison]
}

fn run_submissions(workers: usize) -> Server<MemWal> {
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
    let server = run_submissions(workers);
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
    let mut failures = 0usize;
    let mut gate = |name: &str, ok: bool| {
        eprintln!("  [{}] {name}", if ok { " ok " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    // Gate 1: worker-count invariance — the WAL and the state are
    // byte-identical at 1, 2, and 8 workers.
    let golden = run_submissions(1);
    let golden_wal = golden.sink().text.clone();
    let golden_state = state_bytes(&golden.state);
    let two = run_submissions(2);
    let eight = run_submissions(8);
    gate(
        "WAL byte-identical across 1/2/8 workers",
        golden_wal == two.sink().text && golden_wal == eight.sink().text,
    );
    gate(
        "state byte-identical across 1/2/8 workers",
        golden_state == state_bytes(&two.state) && golden_state == state_bytes(&eight.state),
    );

    // Gate 2: crash/recover/resume at every record boundary — truncate
    // the journal after each record (and mid-record for the torn tail),
    // recover, resume with the original submissions' jobs already
    // journaled, and require the final state to equal the uninterrupted
    // golden byte for byte.
    let lines: Vec<&str> = golden_wal.lines().collect();
    let mut resume_ok = true;
    let mut boundaries = 0usize;
    for cut in 0..=lines.len() {
        let prefix = wal_prefix(&lines, cut);
        // Also prove torn-tail tolerance: drop half of the next record.
        let torn = lines.get(cut).map(|next| {
            let mut t = prefix.clone();
            t.push_str(&next[..next.len() / 2]);
            t
        });
        for text in std::iter::once(prefix).chain(torn) {
            boundaries += 1;
            let Ok((state, last_seq)) = recover(&text, None) else {
                resume_ok = false;
                continue;
            };
            let mut server =
                Server::recovered(MemWal { text }, state, last_seq, QueueConfig::default(), 1);
            // Re-submit anything the truncated journal lost, exactly as
            // the client would after a crash (submissions are the
            // durable inputs; jobs already journaled are deduped by
            // the ledger).
            for (i, spec) in smoke_submissions().into_iter().enumerate() {
                if server.state.job(i as u64).is_none() && server.submit(spec).is_err() {
                    resume_ok = false;
                }
            }
            if server.run_pending().is_err() {
                resume_ok = false;
            }
            if state_bytes(&server.state) != golden_state {
                resume_ok = false;
            }
        }
    }
    gate(
        &format!("crash/recover/resume equals golden at all {boundaries} truncation points"),
        resume_ok && boundaries > 6,
    );

    // Gate 3: checkpoint + suffix replay equals full replay, at every
    // quiescent boundary (no job mid-run — the only points the real
    // server writes checkpoints, since `requeue_inflight` deliberately
    // rewinds mid-job progress that the suffix would then double-count).
    let quiescent: Vec<usize> = {
        let mut cuts = Vec::new();
        let mut open = 0i64;
        for (i, line) in lines.iter().enumerate() {
            match WalRecord::decode(line).map(|r| r.kind) {
                Ok(WalKind::Start) => open += 1,
                Ok(WalKind::Finish) | Ok(WalKind::JobFail) => open -= 1,
                _ => {}
            }
            if open == 0 {
                cuts.push(i + 1);
            }
        }
        cuts
    };
    let full = recover(&golden_wal, None).map(|(state, _)| state_bytes(&state));
    let resumes_like_full = |cut: usize| -> Option<bool> {
        let (state, wal_seq) = recover(&wal_prefix(&lines, cut), None).ok()?;
        let (from_cp, _) = recover(&golden_wal, Some(&Checkpoint { wal_seq, state })).ok()?;
        Some(state_bytes(&from_cp) == *full.as_ref().ok()?)
    };
    let checkpoint_ok = quiescent.len() > 3
        && quiescent.contains(&lines.len())
        && quiescent
            .iter()
            .all(|&cut| resumes_like_full(cut) == Some(true));
    gate(
        &format!(
            "checkpoint + WAL suffix equals full replay at all {} quiescent points",
            quiescent.len()
        ),
        checkpoint_ok,
    );

    // Gate 4: supervisor accounting — the stalled cell was reaped and
    // retried; the poison cell was quarantined with its payload in the
    // health ledger.
    let poison_rev = golden.state.revisions.iter().find(|r| r.name == "poison");
    let sup_ok = poison_rev.is_some_and(|rev| {
        rev.health.supervisor_reaps >= 1
            && rev.health.cells_quarantined >= 1
            && rev
                .health
                .failures
                .iter()
                .any(|f| f.error.contains("panic") || f.error.contains("injected"))
    });
    gate("supervisor reaps + quarantines land in StudyHealth", sup_ok);

    // Gate 5: drift alarms — the two monitor revisions differ.
    gate(
        "drift alarms fire between monitor revisions",
        !golden.state.alarms.is_empty(),
    );

    // Gate 6: load-shedding — a queue past `depth` degrades coverage,
    // and past `hard_cap` rejects.
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
    gate("load-shed degrades coverage; hard cap rejects", shed_ok);

    // Gate 7: the no-fault serve path reproduces the golden headlines
    // (92.0 / 74.0 / 53.1 / 75.5) unchanged.
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
    gate(
        "no-fault serve path reproduces golden headlines",
        headline_ok,
    );

    // Gate 8: the server's ReCon model, trained by its first job, is
    // the model a cold server trains for a later job, and gives that
    // job the cold server's revision.
    let recon_spec = |seed| JobSpec {
        use_recon: true,
        ..quick_spec("recon", seed)
    };
    let warm = run_specs(vec![recon_spec(7), recon_spec(8)], 1);
    let cold = run_specs(vec![recon_spec(8)], 1);
    let model = |server: &Server<MemWal>| {
        server
            .recon()
            .map(|(minutes, model)| (minutes, appvsweb_json::encode(model)))
    };
    let shared = measured(&cold, 8);
    gate(
        "a warm ReCon model reproduces the cold server's model and revision",
        shared.is_some()
            && measured(&warm, 8) == shared
            && model(&cold).is_some()
            && model(&warm) == model(&cold),
    );

    if failures == 0 {
        eprintln!("serve smoke: all gates passed");
        0
    } else {
        eprintln!("serve smoke: {failures} gate(s) FAILED");
        1
    }
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
    eprintln!("repro serve listening on http://127.0.0.1:{port}");
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
        // Drain the queue between requests, then checkpoint.
        if let Err(e) = server.run_pending() {
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
