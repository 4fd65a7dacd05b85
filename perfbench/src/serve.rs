//! The `serve_jobs` workload: one client in a closed loop against a
//! file-backed `repro serve` state directory, through the HTTP surface.
//!
//! Each job goes `POST /submit` → `Server::run_next` → `GET
//! /status/<id>`, `/report/latest` and `/drift`; the client submits the
//! next job only after the last answer. Every job is a small monitoring
//! campaign in one series: 2 services × 2 media, 1-minute sessions,
//! ReCon on, the `light` fault preset. At the end the client drops the
//! server and reopens the directory, timing the recovery.

use crate::campaign::RUN_GROUP;
use crate::ledger::{percentile, Spans, Tracer};
use crate::Report;
use appvsweb_core::study::train_recon;
use appvsweb_core::CellId;
use appvsweb_netsim::Os;
use appvsweb_serve::http::handle;
use appvsweb_serve::{
    recover, replay_lines, Checkpoint, FileWal, JobSpec, JobStatus, QueueConfig, ServeDir, Server,
};
use appvsweb_services::{Catalog, Medium};
use std::path::Path;
use std::time::Instant;

/// Jobs per process; `run.py` pools enough processes that at least ten
/// job latencies lie beyond the p90.
pub const JOBS: u32 = 20;
/// The client writes a checkpoint after every this many jobs.
pub const CHECKPOINT_EVERY: u32 = 8;
/// Times the directory is reopened at the end; the median is reported.
const REOPENS: usize = 5;
const SERIES: &str = "bench-series";
const SERVICES: [&str; 2] = ["yelp", "grubhub"];

/// The job's seed: a SplitMix64 step over the workload seed and index.
fn job_seed(seed: u64, job: u32) -> u64 {
    let mut z = seed ^ (u64::from(job) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn job_spec(seed: u64, job: u32) -> JobSpec {
    let cells = SERVICES
        .iter()
        .flat_map(|id| Medium::BOTH.map(|m| CellId::new(id, Os::Android, m)))
        .collect();
    JobSpec {
        name: SERIES.to_string(),
        seed: job_seed(seed, job),
        minutes: 1,
        faults: "light".to_string(),
        use_recon: true,
        cells,
        ..JobSpec::default()
    }
}

/// Send one raw request; returns the status code and the body.
fn request(server: &mut Server<FileWal>, method: &str, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let response = handle(server, raw.as_bytes());
    let status = response
        .get(9..12)
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    (status, body)
}

/// Set-up: the cold start of a resident server. A fresh state
/// directory is opened and the first job (index 0) is served, which pays
/// the process's one-time costs (catalog, EasyList engine, first journal
/// and file creation). Returns the server and whether every answer was
/// the expected one.
pub fn setup(dir: &Path, seed: u64, workers: usize) -> (Server<FileWal>, bool) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("stale state directory is removable");
    }
    let serve_dir = ServeDir::new(dir);
    let mut server = serve_dir
        .open(QueueConfig::default(), workers)
        .expect("a fresh state directory opens");
    let ok = one_job(&mut server, &serve_dir, &job_spec(seed, 0), false, None);
    (server, ok)
}

/// One job through the HTTP surface. Returns whether every answer was
/// the expected one.
fn one_job(
    server: &mut Server<FileWal>,
    dir: &ServeDir,
    spec: &JobSpec,
    checkpoint: bool,
    trace: Option<(&Tracer, u64)>,
) -> bool {
    let root = trace.map(|(t, g)| t.open("serve.job", g, None));
    let parent = root.as_ref().map(|s| s.id());
    let span = |name| trace.map(|(t, g)| t.open(name, g, parent));

    let submit = span("serve.submit");
    let (status, body) = request(server, "POST", "/submit", &appvsweb_json::encode(spec));
    drop(submit);
    let job = appvsweb_json::parse(&body)
        .ok()
        .and_then(|v| v.field::<u64>("job").ok());
    let mut ok = status == 202 && job.is_some();

    let run = span("serve.run");
    ok &= server.run_next().ok().flatten() == job && job.is_some();
    drop(run);

    if checkpoint {
        let _cp = span("serve.checkpoint");
        ok &= dir.write_checkpoint(&server.checkpoint()).is_ok();
    }

    let query = span("serve.query");
    let id = job.unwrap_or(u64::MAX);
    for path in [
        format!("/status/{id}"),
        "/report/latest".to_string(),
        "/drift".to_string(),
    ] {
        ok &= request(server, "GET", &path, "").0 == 200;
    }
    drop(query);
    ok &= server
        .state
        .job(id)
        .is_some_and(|j| j.status == JobStatus::Done);
    ok
}

/// The closed loop after the cold start: `JOBS` more jobs, checkpoints,
/// then the reopen. Writes the end-to-end samples and, when traced, the
/// `serve` layer metrics.
pub fn run(
    mut server: Server<FileWal>,
    dir_path: &Path,
    seed: u64,
    workers: usize,
    tracer: Option<&Tracer>,
    out: &mut Report,
) -> (u64, u64, bool) {
    let dir = ServeDir::new(dir_path);
    let mut latencies = Vec::with_capacity(JOBS as usize);
    let mut answers_ok = true;
    for j in 1..=JOBS {
        let spec = job_spec(seed, j);
        let t0 = Instant::now();
        let checkpoint = j % CHECKPOINT_EVERY == 0;
        answers_ok &= one_job(
            &mut server,
            &dir,
            &spec,
            checkpoint,
            tracer.map(|t| (t, u64::from(j))),
        );
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(t) = tracer {
            // What the job spent training ReCon, replayed after its
            // spans closed on a sibling seed so the dictionaries are
            // compiled cold, as they were inside the job.
            let replay = JobSpec {
                seed: spec.seed ^ 0x5245_504c,
                ..spec
            };
            let cfg = replay
                .to_study_config(workers, 1)
                .expect("the job spec validates");
            t.time("pii.recon_train", u64::from(j), None, || {
                std::hint::black_box(train_recon(&Catalog::paper(), &cfg))
            });
        }
    }
    // Ledger totals from the live state.
    let state = &server.state;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut retried, mut quarantined, mut reaps) = (0u64, 0u64, 0u64);
    let (mut session_retries, mut faults) = (0u64, 0u64);
    for entry in &state.jobs {
        reaps += u64::from(entry.reaps);
        quarantined += u64::from(entry.quarantined);
        let rev = entry
            .revision
            .and_then(|id| state.revisions.iter().find(|r| r.id == id));
        match rev {
            Some(rev) => {
                attempted += rev.health.cells_attempted;
                failed += rev.health.cells_failed;
                retried += rev.health.cells_retried;
                session_retries += rev.health.session_retries;
                faults += rev.health.faults.total();
            }
            None => {
                let cells = entry.spec.cells.len() as u64;
                attempted += cells;
                failed += cells;
            }
        }
    }

    // Drop the server and reopen the directory: the recovered state
    // must equal the live one.
    let live = appvsweb_json::encode(&server.state);
    drop(server);
    let mut recover_ms = Vec::with_capacity(REOPENS);
    let mut recovered_ok = true;
    for _ in 0..REOPENS {
        let t0 = Instant::now();
        let reopened = dir.open(QueueConfig::default(), workers);
        recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        recovered_ok &= reopened.is_ok_and(|s| appvsweb_json::encode(&s.state) == live);
    }

    out.num("job_p50_ms", percentile(&latencies, 0.5));
    out.num("serve.recover_ms", percentile(&recover_ms, 0.5));
    out.text("digest", &appvsweb_pii::hash::md5_hex(live.as_bytes()));
    out.list("job_ms", &latencies);
    out.flag("check.answers", answers_ok);
    out.flag("check.recovered_equals_live", recovered_ok);

    if let Some(t) = tracer {
        let wal_text = std::fs::read_to_string(dir.wal_path()).unwrap_or_default();
        let cp_text = std::fs::read_to_string(dir.checkpoint_path()).unwrap_or_default();
        let checkpoint: Option<Checkpoint> = appvsweb_json::decode(&cp_text).ok();
        let replayed = t.time("serve.wal_replay", RUN_GROUP, None, || {
            recover(&wal_text, checkpoint.as_ref())
        });
        let records = replay_lines(&wal_text).map_or(0, |r| r.len() as u64);
        let spans = Spans::new(t.spans());
        let per_job = |name: &str| percentile(&spans.durations_ms(name), 0.5);
        out.num("serve.submit_ms", per_job("serve.submit"));
        out.num("serve.run_ms", per_job("serve.run"));
        out.num("serve.query_ms", per_job("serve.query"));
        out.num("serve.checkpoint_ms", per_job("serve.checkpoint"));
        out.num("serve.wal_replay_ms", spans.total_ms("serve.wal_replay"));
        out.count("serve.wal_records", records);
        out.count("serve.wal_bytes", wal_text.len() as u64);
        out.count("serve.cells_retried", retried);
        out.count("serve.cells_quarantined", quarantined);
        out.count("serve.reaps", reaps);
        out.count("services.retries", session_retries);
        out.count("services.faults_injected", faults);
        out.num("pii.recon_train_ms", per_job("pii.recon_train"));
        out.flag(
            "check.wal_replay",
            replayed.is_ok_and(|(s, _)| appvsweb_json::encode(&s) == live),
        );
    }
    (attempted, failed, answers_ok && recovered_ok)
}
