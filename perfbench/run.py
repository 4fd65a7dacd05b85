#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload paper_campaign|population|serve_jobs \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds `perfbench` (release, default
features) and then starts one measured process after another until
`--seconds` have passed, so every timed run starts as cold as a user's
`repro` invocation. Each process sets up, runs the workload once, checks
its outputs and reports raw samples; this script takes medians across
them.

With `--trace 0` the last stdout line carries every end-to-end metric in
BENCHMARK.json; with `--trace 1` it alternates untraced and traced
processes and carries every per-layer metric, including the tracing
overhead. Metric names and units come from BENCHMARK.json; what each
one measures is in perfbench/METRICS.md. A host fingerprint line is
printed before the result, and all raw samples are written under
`.bench_build/perfbench/`.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper_campaign", "population", "serve_jobs")
# Fewest processes a run makes, whatever --seconds says: serve_jobs
# needs 5 processes x 20 jobs = 100 jobs so that ten samples lie
# beyond the reported p90.
MIN_PROCS = {"paper_campaign": 3, "population": 3, "serve_jobs": 5}
PROC_TIMEOUT_S = 170
# Per-layer counts that are pure functions of the seed: they must be
# identical in every traced process of a run.
EXACT_COUNTS = (
    "services.transactions",
    "services.wire_bytes",
    "analysis.leaks",
    "serve.wal_records",
    "serve.wal_bytes",
    "population.peak_state_bytes",
    "population.sessions",
)


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """Nearest-rank 90th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-9 * len(ordered) // 10))
    return ordered[rank - 1]


def command_output(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def source_digest(root):
    """SHA-256 over the sources the benchmark builds from."""
    digest = hashlib.sha256()
    roots = [os.path.join(root, "crates"), os.path.join(root, "perfbench")]
    files = [os.path.join(root, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def fingerprint(root, args, workers):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, env=env, capture_output=True, text=True, timeout=30,
        ).stdout.strip() or "none"
    except OSError:
        commit = "none"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "commit": commit,
        "source_sha256": source_digest(root),
        "workers": workers,
        "profile": "release",
        "features": "default (obs)",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    return result.returncode == 0


def run_process(binary, args, traced, tag, out_dir, deadline):
    """One measured process; returns its sample dict or None."""
    argv = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
        "--state-dir", os.path.join(out_dir, "serve-state-%d" % os.getpid()),
    ]
    if traced:
        argv += ["--spans", os.path.join(out_dir, "spans-%s-%d-%s.jsonl" % (args.workload, args.seed, tag))]
    timeout = max(1.0, min(PROC_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench process timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench process failed with code %d" % proc.returncode, file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def op_ms(sample):
    """Latency of the workload's user-visible operation, per process."""
    return sample["job_p50_ms"] if sample["workload"] == "serve_jobs" else sample["campaign_ms"]


def end_to_end(workload, samples):
    """End-to-end metric values from the untraced processes of a run.

    The operation is one campaign (paper_campaign, population) or one
    job (serve_jobs). Throughput is the operation's units (cells, users
    or one job) over the median operation time: with one client in a
    closed loop that is the work completed per second, and the median
    keeps it steady against the host's stolen time."""
    if workload == "serve_jobs":
        latencies = [ms for s in samples for ms in s["job_ms"]]
        units = 1
    else:
        latencies = [s["campaign_ms"] for s in samples]
        units = samples[0]["cells" if workload == "paper_campaign" else "attempted"]
    values = {
        "setup_s": median([s["setup_s"] for s in samples]),
        "throughput_per_s": units / (median(latencies) / 1e3),
        "latency_p50_ms": median(latencies),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
    }
    # The tail is reported with its sample count but not gated: between
    # runs on a drifting host its spread exceeds any allowed bound.
    tail = {"latency_samples": len(latencies), "latency_p90_ms": p90(latencies)}
    return values, tail


def per_layer(names, traced, untraced):
    """Per-layer values: low medians over the traced processes (so a
    count stays the exact value every process reported), plus the
    tracing overhead against the untraced ones. A layer the workload
    does not reach reads 0."""
    values = {}
    for name in names:
        found = [s[name] for s in traced if name in s]
        values[name] = statistics.median_low(found) if found else 0
    values["trace.overhead_ratio"] = median([op_ms(s) for s in traced]) / median(
        [op_ms(s) for s in untraced]
    )
    return values


def exact_counts_repeat(traced):
    return all(
        len({json.dumps(s.get(name)) for s in traced}) == 1 for name in EXACT_COUNTS
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    target_dir = os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    target_dir = os.path.join(root, target_dir)
    out_dir = os.path.join(target_dir, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    if not build(root, target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")

    # Untraced processes only, or untraced and traced ones in pairs.
    kinds = [False, True] if args.trace else [False]
    need = 1 if args.trace else MIN_PROCS[args.workload]
    started = time.monotonic()
    deadline = started + PROC_TIMEOUT_S
    untraced, traced, crashed = [], [], 0
    while crashed == 0:
        elapsed = time.monotonic() - started
        if len(untraced) >= need and (elapsed >= args.seconds or elapsed >= PROC_TIMEOUT_S - 30):
            break
        for traced_run in kinds:
            sample = run_process(binary, args, traced_run, str(len(traced)), out_dir, deadline)
            if sample is None:
                crashed += 1
                break
            (traced if traced_run else untraced).append(sample)
    samples = untraced + traced
    if not untraced or (args.trace and not traced):
        print("perfbench: no complete measured process", file=sys.stderr)
        return 1

    # A process whose checks failed counts all of its operations failed.
    attempted = sum(s["attempted"] for s in samples) + crashed
    failed = crashed + sum(s["attempted"] if not s["correct"] else s["failed"] for s in samples)
    digests = {s["digest"] for s in samples}
    correct = crashed == 0 and all(s["correct"] for s in samples) and len(digests) == 1

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, traced, untraced)
        correct = correct and exact_counts_repeat(traced)
        counts = {"traced_processes": len(traced)}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, counts = end_to_end(args.workload, untraced)

    host = fingerprint(root, args, untraced[0]["workers"])
    host.update(counts, processes=len(samples), digest=sorted(digests))
    print("host " + json.dumps(host, sort_keys=True))
    with open(os.path.join(out_dir, "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"host": host, "samples": samples}, f, indent=1)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
