//! One measured process of the repository benchmark.
//!
//! ```text
//! perfbench --workload paper_campaign|population|serve_jobs --seed N
//!           [--trace 0|1] [--state-dir DIR] [--spans FILE]
//! ```
//!
//! The process sets up, runs its workload once from a cold start, checks
//! the outputs and prints one JSON object of raw samples on its last
//! line. `perfbench/run.py` starts these processes one after another,
//! so no run inherits caches an earlier run filled, and aggregates them
//! into the benchmark's metrics. With `--trace 1` the process records
//! spans around each call into the program's crates and reports the
//! per-layer ledger instead.

mod campaign;
mod ledger;
mod population;
mod serve;

use appvsweb_json::Json;
use ledger::{Spans, Tracer};
use std::path::PathBuf;
use std::time::Instant;

/// Named samples of one process, in insertion order.
#[derive(Default)]
pub struct Report(Vec<(String, Json)>);

impl Report {
    fn put(&mut self, key: &str, value: Json) {
        self.0.push((key.to_string(), value));
    }
    pub fn num(&mut self, key: &str, value: f64) {
        self.put(key, Json::Float(value));
    }
    pub fn count(&mut self, key: &str, value: u64) {
        self.put(key, Json::Uint(value));
    }
    pub fn flag(&mut self, key: &str, value: bool) {
        self.put(key, Json::Bool(value));
    }
    pub fn text(&mut self, key: &str, value: &str) {
        self.put(key, Json::Str(value.to_string()));
    }
    pub fn list(&mut self, key: &str, values: &[f64]) {
        self.put(
            key,
            Json::Arr(values.iter().map(|v| Json::Float(*v)).collect()),
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    state_dir: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2016,
        trace: false,
        state_dir: PathBuf::from(format!(
            ".bench_build/perfbench/serve-{}",
            std::process::id()
        )),
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--trace" => args.trace = value == "1",
            "--state-dir" => args.state_dir = PathBuf::from(value),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn paper_campaign(args: &Args, workers: usize, tracer: Option<&Tracer>, out: &mut Report) -> bool {
    let t0 = Instant::now();
    let setup = campaign::Setup::new(args.seed, workers, tracer);
    out.num("setup_s", secs(t0));
    let (study, reconciled) = match tracer {
        None => {
            let t0 = Instant::now();
            let study = campaign::run(&setup);
            campaign::render(&study);
            out.num("campaign_ms", secs(t0) * 1e3);
            (study, true)
        }
        Some(t) => campaign::run_traced(&setup, t, out),
    };
    out.count("attempted", study.health.cells_attempted);
    out.count("failed", study.health.cells_failed);
    out.count("cells", study.cells.len() as u64);
    out.text("digest", &campaign::digest(&study));
    campaign::check(&study, args.seed, out) && reconciled
}

fn population(args: &Args, workers: usize, tracer: Option<&Tracer>, out: &mut Report) -> bool {
    let t0 = Instant::now();
    let base = population::base_study(args.seed, workers, tracer);
    out.num("setup_s", secs(t0));
    let cfg = population::config(args.seed, workers);
    let report = match tracer {
        None => {
            let t0 = Instant::now();
            let report = appvsweb_population::run_campaign_on(&base, &cfg);
            out.num("campaign_ms", secs(t0) * 1e3);
            report
        }
        Some(t) => population::run_traced(&base, &cfg, t, out),
    };
    out.count("attempted", cfg.users);
    out.count("failed", cfg.users.saturating_sub(report.aggregate.users));
    out.text("digest", &campaign::digest(&base));
    let base_ok = campaign::check(&base, args.seed, out);
    population::check(&report, &cfg, out) && base_ok
}

fn serve_jobs(args: &Args, workers: usize, tracer: Option<&Tracer>, out: &mut Report) -> bool {
    let t0 = Instant::now();
    let (server, cold_ok) = serve::setup(&args.state_dir, args.seed, workers);
    out.num("setup_s", secs(t0));
    let (attempted, failed, ok) =
        serve::run(server, &args.state_dir, args.seed, workers, tracer, out);
    out.count("attempted", attempted);
    out.count("failed", failed);
    // Best effort: the directory lives under the build directory.
    let _ = std::fs::remove_dir_all(&args.state_dir);
    cold_ok && ok
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tracer = args.trace.then(Tracer::new);
    let mut out = Report::default();
    out.text("workload", &args.workload);
    out.count("seed", args.seed);
    out.count("workers", workers as u64);
    out.flag("traced", args.trace);
    let run = match args.workload.as_str() {
        "paper_campaign" => paper_campaign,
        "population" => population,
        "serve_jobs" => serve_jobs,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let correct = run(&args, workers, tracer.as_ref(), &mut out);
    if let Some(t) = &tracer {
        if let Some(path) = &args.spans {
            let spans = Spans::new(t.spans());
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, spans.to_json_lines()) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            }
        }
    }
    out.num("peak_rss_mb", peak_rss_mb());
    out.flag("correct", correct);
    println!("{}", Json::Obj(out.0).to_compact());
}
