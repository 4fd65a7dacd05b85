//! Wall-clock micro-bench runner.
//!
//! The criterion replacement: warmup, auto-batched sampling, and
//! median/p95 per-op statistics, written both to stdout (human table)
//! and to a `BENCH_<suite>.json` artifact via `appvsweb-json`, so every
//! PR can diff the perf trajectory from the repo root.

use appvsweb_json::{encode_pretty, impl_json, Json, ToJson};
use std::hint::black_box;
use std::path::{Path, PathBuf};
// lint:allow(D1) the bench harness is the one legitimate wall-clock consumer
use std::time::Instant;

/// Per-benchmark summary statistics, in nanoseconds per operation.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Timed samples taken (after warmup).
    pub samples: u64,
    /// Operations per sample (auto-calibrated so one sample is long
    /// enough for the OS clock to resolve).
    pub batch: u64,
    /// Median ns/op.
    pub median_ns: f64,
    /// 95th-percentile ns/op.
    pub p95_ns: f64,
    /// Mean ns/op.
    pub mean_ns: f64,
    /// Fastest sample ns/op.
    pub min_ns: f64,
    /// Slowest sample ns/op.
    pub max_ns: f64,
}

impl_json!(struct BenchResult { name, samples, batch, median_ns, p95_ns, mean_ns, min_ns, max_ns });

/// Collects [`BenchResult`]s for one suite and writes the artifact.
pub struct BenchRunner {
    suite: String,
    warmup_samples: u64,
    samples: u64,
    results: Vec<BenchResult>,
    meta: Vec<(String, Json)>,
}

/// One sample should take at least this long, or per-sample clock
/// noise dominates; the batch size is calibrated up to meet it.
const MIN_SAMPLE_NANOS: u128 = 200_000;

impl BenchRunner {
    /// A runner for the named suite (the artifact will be
    /// `BENCH_<suite>.json`): 3 warmup and 30 timed samples unless
    /// [`with_samples`](Self::with_samples) says otherwise.
    pub fn new(suite: &str) -> Self {
        BenchRunner {
            suite: suite.to_string(),
            warmup_samples: 3,
            samples: 30,
            results: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Attach a suite-level metadata value (scan sizes, finding counts,
    /// derived throughput…). Emitted in the artifact's `meta` object,
    /// ahead of the `host` fingerprint every artifact carries.
    pub fn meta(&mut self, key: &str, value: impl ToJson) {
        self.meta.push((key.to_string(), value.to_json()));
    }

    /// Override warmup/timed sample counts (for long-running benches).
    pub fn with_samples(mut self, warmup: u64, samples: u64) -> Self {
        self.warmup_samples = warmup;
        self.samples = samples.max(1);
        self
    }

    /// Measure `f`, which is called `batch × samples` times after
    /// warmup. The return value is passed through [`black_box`] so the
    /// optimizer cannot elide the work.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        // Calibrate the batch: double until one batch meets the floor.
        let mut batch: u64 = 1;
        loop {
            // lint:allow(D1) wall-clock timing is the harness's whole job
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t0.elapsed().as_nanos();
            if elapsed >= MIN_SAMPLE_NANOS || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        for _ in 0..self.warmup_samples {
            for _ in 0..batch {
                black_box(f());
            }
        }
        let mut per_op: Vec<f64> = (0..self.samples)
            .map(|_| {
                // lint:allow(D1) wall-clock timing is the harness's whole job
                let t0 = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t0.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        per_op.sort_by(|a, b| a.total_cmp(b));

        let result = BenchResult {
            name: name.to_string(),
            samples: self.samples,
            batch,
            median_ns: percentile(&per_op, 50.0),
            p95_ns: percentile(&per_op, 95.0),
            mean_ns: per_op.iter().sum::<f64>() / per_op.len() as f64,
            min_ns: per_op.first().copied().unwrap_or(0.0),
            max_ns: per_op.last().copied().unwrap_or(0.0),
        };
        println!(
            "bench {:<40} median {:>12}  p95 {:>12}  ({} samples × {} ops)",
            result.name,
            format_ns(result.median_ns),
            format_ns(result.p95_ns),
            result.samples,
            result.batch,
        );
        self.results.push(result);
    }

    /// Results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Write `BENCH_<suite>.json` under `dir` and return its path. The
    /// `meta` object ends with a `host` block (cores, `rustc`, git
    /// commit) so no timing is read apart from the machine it came from.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        let mut meta = self.meta.clone();
        meta.push(("host".to_string(), host_fingerprint(dir)));
        let doc = Json::Obj(vec![
            ("suite".to_string(), Json::Str(self.suite.clone())),
            ("unit".to_string(), Json::Str("ns_per_op".to_string())),
            ("results".to_string(), self.results.to_json()),
            ("meta".to_string(), Json::Obj(meta)),
        ]);
        std::fs::write(&path, encode_pretty(&doc) + "\n")?;
        println!("bench artifact: {}", path.display());
        Ok(path)
    }
}

/// The machine a bench ran on: available cores, the `rustc` on `PATH`,
/// and the git commit checked out at `dir` (`-dirty` when tracked files
/// differ from it, `"none"` outside a git checkout). Every
/// `BENCH_*.json` carries it as `meta.host`.
pub fn host_fingerprint(dir: &Path) -> Json {
    let output = |program: &str, args: &[&str]| -> Option<String> {
        let out = std::process::Command::new(program)
            .args(args)
            .current_dir(dir)
            .output()
            .ok()?;
        let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
        (out.status.success() && !text.is_empty()).then_some(text)
    };
    let commit = output("git", &["rev-parse", "HEAD"]).map(|head| {
        let dirty = output("git", &["status", "--porcelain", "--untracked-files=no"]);
        if dirty.is_some() {
            head + "-dirty"
        } else {
            head
        }
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::Obj(vec![
        ("nproc".to_string(), Json::Uint(nproc)),
        (
            "rustc".to_string(),
            Json::Str(output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())),
        ),
        (
            "commit".to_string(),
            Json::Str(commit.unwrap_or_else(|| "none".to_string())),
        ),
    ])
}

/// Linear-interpolated percentile over sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
    }

    #[test]
    fn bench_collects_and_writes_artifact() {
        let mut runner = BenchRunner::new("testkit_selftest").with_samples(1, 5);
        runner.bench("count_to_1000", || (0..1000u64).sum::<u64>());
        assert_eq!(runner.results().len(), 1);
        let r = &runner.results()[0];
        assert!(r.median_ns > 0.0 && r.median_ns <= r.p95_ns.max(r.max_ns));

        let dir = std::env::temp_dir();
        let path = runner.write_json(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = appvsweb_json::parse(&text).unwrap();
        assert_eq!(
            doc.get("suite"),
            Some(&Json::Str("testkit_selftest".to_string()))
        );
        assert_eq!(
            doc.get("results").unwrap().at(0).unwrap().get("samples"),
            Some(&Json::Uint(5))
        );
        let host = doc.get("meta").unwrap().get("host").unwrap();
        assert!(matches!(host.get("nproc"), Some(Json::Uint(n)) if *n > 0));
        assert!(matches!(host.get("rustc"), Some(Json::Str(_))));
        assert!(matches!(host.get("commit"), Some(Json::Str(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(500.0), "500 ns");
        assert_eq!(format_ns(2_500.0), "2.50 µs");
        assert_eq!(format_ns(3_000_000.0), "3.00 ms");
        assert_eq!(format_ns(1.5e9), "1.50 s");
    }
}
