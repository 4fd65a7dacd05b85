//! The `repro fuzz` subcommand: drive the deterministic fuzzing engine
//! over the registered targets, persist discoveries to the committed
//! corpus, and emit `BENCH_testkit.json`.
//!
//! The engine itself never reads a clock; this module times each run
//! from outside, so `execs` / `edges` / discoveries are reproducible
//! while `execs_per_sec` reflects the machine it ran on.

use crate::cli::Value::{Switch, Text};
use crate::cli::{Args, Command, Flag, U64};
use crate::fuzz_targets;
use appvsweb_json::Json;
use appvsweb_testkit::bench::host_fingerprint;
use appvsweb_testkit::{fuzz, FuzzConfig, FuzzOutcome, FuzzTarget};
use std::time::Instant;

/// The flags of `repro fuzz`.
#[rustfmt::skip]
pub const COMMAND: Command = Command {
    name: "fuzz",
    flags: &[
        Flag::new("--target", Text("NAME"), "fuzz one registered target (default: all)"),
        Flag::new("--iters", U64, "mutations per target (default 4096; 256 with --smoke)"),
        Flag::new("--seed", U64, "mutation seed (default 2016)"),
        Flag::new("--smoke", Switch, "CI gate: corpus replay + a short burst, nothing saved"),
        Flag::new("--minimize", Switch, "drop corpus entries that add no coverage"),
    ],
    subcommands: &[],
    run,
};

/// Mutation iterations for `--smoke`: small enough for a CI gate on a
/// single core, large enough to exercise every mutator and the corpus.
const SMOKE_ITERS: u64 = 256;
/// Default mutation iterations for a full `repro fuzz` run.
const FULL_ITERS: u64 = 4_096;

/// Entry point for `repro fuzz`. Returns the process exit code: 0 when
/// every target is clean, 1 when any corpus entry fails to replay or
/// mutation finds a new crash, 2 on usage errors.
pub fn run(args: &Args) -> i32 {
    let smoke = args.switch("--smoke");
    let targets: Vec<FuzzTarget> = match args.text("--target") {
        None => fuzz_targets::all(),
        Some(name) => match fuzz_targets::find(name) {
            Some(target) => vec![target],
            None => {
                let known: Vec<&str> = fuzz_targets::all().iter().map(|t| t.name).collect();
                eprintln!("unknown target: {name} (known: {})", known.join(", "));
                return 2;
            }
        },
    };
    let cfg = FuzzConfig {
        seed: args.int("--seed").unwrap_or(2016),
        iters: args
            .int("--iters")
            .unwrap_or(if smoke { SMOKE_ITERS } else { FULL_ITERS }),
        ..FuzzConfig::default()
    };

    let mut rows: Vec<Json> = Vec::new();
    let mut dirty = false;
    let t_all = Instant::now();
    for target in &targets {
        let dir = fuzz_targets::corpus_dir(target.name);
        let mut named = match fuzz::load_corpus_dir(&dir) {
            Ok(entries) => entries,
            Err(err) => {
                eprintln!(
                    "{}: cannot read corpus {}: {err}",
                    target.name,
                    dir.display()
                );
                return 2;
            }
        };
        if args.switch("--minimize") {
            named = minimize_corpus(target, named, &dir);
        }
        let corpus: Vec<Vec<u8>> = named.iter().map(|(_, data)| data.clone()).collect();

        let t0 = Instant::now();
        let outcome = fuzz::fuzz(target, &corpus, &cfg);
        let wall = t0.elapsed();
        report(target, &outcome, &named, wall.as_secs_f64());
        if !outcome.is_clean() {
            dirty = true;
        }

        // Persist discoveries outside smoke mode: they replayed cleanly
        // (a discovery is by definition a non-crashing input), so they
        // extend the committed regression corpus.
        if !smoke && !outcome.discoveries.is_empty() {
            if let Err(err) = persist(&dir, &outcome.discoveries) {
                eprintln!("{}: cannot write corpus: {err}", target.name);
                return 2;
            }
        }
        rows.push(row_json(&outcome, corpus.len(), wall.as_secs_f64()));
    }

    let root = crate::repo_root();
    let artifact = Json::Obj(vec![
        ("suite".into(), Json::Str("testkit_fuzz".into())),
        (
            "config".into(),
            Json::Obj(vec![
                ("seed".into(), Json::Uint(cfg.seed)),
                ("iters".into(), Json::Uint(cfg.iters)),
                ("smoke".into(), Json::Bool(smoke)),
            ]),
        ),
        ("targets".into(), Json::Arr(rows)),
        (
            "wall_ms_total".into(),
            Json::Float(t_all.elapsed().as_secs_f64() * 1e3),
        ),
        (
            "meta".into(),
            Json::Obj(vec![("host".into(), host_fingerprint(&root))]),
        ),
    ]);
    let path = root.join("BENCH_testkit.json");
    if let Err(err) = std::fs::write(&path, artifact.to_pretty() + "\n") {
        eprintln!("cannot write {}: {err}", path.display());
        return 2;
    }
    eprintln!("fuzz artifact written to {}", path.display());

    if dirty {
        eprintln!("fuzz: FAIL (crash or non-reproducing corpus entry above)");
        1
    } else {
        0
    }
}

/// Distill the corpus: keep only entries that add coverage beyond the
/// built-in seeds, delete the rest from disk, and return the survivors.
fn minimize_corpus(
    target: &FuzzTarget,
    named: Vec<(String, Vec<u8>)>,
    dir: &std::path::Path,
) -> Vec<(String, Vec<u8>)> {
    let keep = fuzz::distill(target, &named);
    // `regress-*` entries pin previously fixed bugs; they stay committed
    // whether or not they still add coverage beyond the seeds.
    let (kept, dropped): (Vec<_>, Vec<_>) = named
        .into_iter()
        .partition(|(name, _)| name.starts_with("regress-") || keep.contains(name));
    for (name, _) in &dropped {
        let path = dir.join(name);
        if let Err(err) = std::fs::remove_file(&path) {
            eprintln!("{}: cannot remove {}: {err}", target.name, path.display());
        }
    }
    if !dropped.is_empty() {
        println!(
            "{:<16} minimize: dropped {} redundant corpus entries, kept {}",
            target.name,
            dropped.len(),
            kept.len()
        );
    }
    kept
}

/// Write each discovery as `<fnv1a-hash>.bin`; content-addressed names
/// dedupe re-discoveries across runs for free.
fn persist(dir: &std::path::Path, discoveries: &[Vec<u8>]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for data in discoveries {
        let name = format!("{:016x}.bin", fuzz::content_hash(data));
        std::fs::write(dir.join(name), data)?;
    }
    Ok(())
}

/// Executions per wall-clock second; 0 for a run too short to time.
fn execs_per_sec(outcome: &FuzzOutcome, secs: f64) -> f64 {
    if secs > 0.0 {
        outcome.execs as f64 / secs
    } else {
        0.0
    }
}

fn report(target: &FuzzTarget, outcome: &FuzzOutcome, named: &[(String, Vec<u8>)], secs: f64) {
    println!(
        "{:<16} execs {:>6}  edges {:>4}  corpus {:>3}  new {:>3}  {:>9.0} execs/sec",
        target.name,
        outcome.execs,
        outcome.edges,
        outcome.corpus_in,
        outcome.discoveries.len(),
        execs_per_sec(outcome, secs)
    );
    for crash in &outcome.replay_crashes {
        let name = named
            .iter()
            .find(|(_, data)| data == &crash.input)
            .map(|(name, _)| name.as_str())
            .unwrap_or("<built-in seed>");
        println!(
            "  REPLAY CRASH {name}: {} ({} bytes)",
            crash.message,
            crash.input.len()
        );
    }
    for crash in &outcome.crashes {
        println!(
            "  CRASH: {} (minimized {} -> {} bytes): {:?}",
            crash.message,
            crash.original_len,
            crash.input.len(),
            String::from_utf8_lossy(&crash.input)
        );
    }
}

fn row_json(outcome: &FuzzOutcome, corpus_files: usize, secs: f64) -> Json {
    Json::Obj(vec![
        ("target".into(), Json::Str(outcome.target.clone())),
        ("execs".into(), Json::Uint(outcome.execs)),
        ("edges".into(), Json::Uint(outcome.edges)),
        ("corpus_files".into(), Json::Uint(corpus_files as u64)),
        ("corpus_in".into(), Json::Uint(outcome.corpus_in as u64)),
        (
            "discoveries".into(),
            Json::Uint(outcome.discoveries.len() as u64),
        ),
        (
            "replay_crashes".into(),
            Json::Uint(outcome.replay_crashes.len() as u64),
        ),
        ("crashes".into(), Json::Uint(outcome.crashes.len() as u64)),
        (
            "execs_per_sec".into(),
            Json::Float(execs_per_sec(outcome, secs)),
        ),
        ("wall_ms".into(), Json::Float(secs * 1e3)),
    ])
}
