#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py        # from the repository root, ~3 min

For every workload this makes one short untraced run and two short
traced runs at one seed, and asserts that

* every end-to-end and per-layer metric in BENCHMARK.json is emitted,
  with its unit, and the run's correctness checks pass;
* every metric the benchmark's specification names is in BENCHMARK.json;
* the simulated counts repeat bit-for-bit between the two traced runs.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 4242

# The per-layer metrics the benchmark is specified to report.
NAMED_PER_LAYER = """
core.testbed_ms core.cell_p50_ms core.cell_p90_ms core.exec_idle_ms
services.session_ms services.session_p90_ms services.transactions
services.connections services.wire_bytes services.retries
services.faults_injected services.wire_mb_per_s
netsim.pool_takes netsim.pool_reuse_ratio
pii.recon_train_ms pii.detector_build_ms pii.dict_builds pii.dict_hit_ratio
pii.scan_text_ms pii.scan_ms pii.scans pii.scan_mb_per_s pii.scan_unique_ratio
adblock.build_ms adblock.categorize_ms adblock.hosts adblock.aa_ratio
analysis.analyze_ms analysis.leaks analysis.fold_ms analysis.render_ms
population.base_study_ms population.campaign_ns_per_user
population.model_ns_per_user population.sessions population.peak_state_bytes
serve.submit_ms serve.run_ms serve.query_ms serve.checkpoint_ms
serve.recover_ms serve.wal_replay_ms serve.wal_records serve.wal_bytes
serve.cells_retried serve.cells_quarantined serve.reaps
trace.overhead_ratio trace.reconcile_ratio
""".split()
NAMED_END_TO_END = "setup_s throughput_per_s latency_p50_ms peak_rss_mb".split()

# Counts that are pure functions of the seed, and the workload each is
# measured on.
EXACT_COUNTS = {
    "paper_campaign": ["services.transactions", "services.wire_bytes", "analysis.leaks"],
    "population": ["population.peak_state_bytes", "population.sessions"],
    "serve_jobs": ["serve.wal_records", "serve.wal_bytes"],
}


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    host = json.loads(lines[-2].split(" ", 1)[1])
    return host, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}
        for workload in EXACT_COUNTS:
            cls.runs[workload] = (
                bench(workload, 0),
                bench(workload, 1),
                bench(workload, 1),
            )

    def assert_emits(self, result, metrics):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))

    def test_spec_lists_every_named_metric(self):
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]], NAMED_END_TO_END)
        self.assertTrue(set(NAMED_PER_LAYER) <= {m["name"] for m in self.spec["per_layer"]})

    def test_every_metric_is_emitted_and_correct(self):
        for workload, (untraced, traced, again) in self.runs.items():
            with self.subTest(workload=workload):
                self.assert_emits(untraced[1], self.spec["end_to_end"])
                for m in untraced[1]["metrics"].values():
                    self.assertGreater(m["value"], 0)
                self.assert_emits(traced[1], self.spec["per_layer"])
                self.assert_emits(again[1], self.spec["per_layer"])

    def test_host_fingerprint_is_recorded(self):
        for workload, runs in self.runs.items():
            for host, _ in runs:
                for key in ("nproc", "rustc", "commit", "workers", "profile", "features", "seed"):
                    self.assertIn(key, host, workload)
                self.assertEqual(host["seed"], SEED)

    def test_job_tail_has_ten_samples_beyond_p90(self):
        (host, _), _, _ = self.runs["serve_jobs"]
        self.assertGreaterEqual(host["latency_samples"], 100)
        self.assertGreater(host["latency_p90_ms"], 0)

    def test_simulated_counts_repeat_bit_for_bit(self):
        for workload, names in EXACT_COUNTS.items():
            _, (_, first), (_, second) = self.runs[workload]
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    value = first["metrics"][name]["value"]
                    self.assertGreater(value, 0)
                    self.assertEqual(value, second["metrics"][name]["value"])

    def test_traced_runs_reconcile(self):
        _, (_, first), (_, second) = self.runs["paper_campaign"]
        for result in (first, second):
            self.assertLessEqual(abs(result["metrics"]["trace.reconcile_ratio"]["value"] - 1), 0.1)


if __name__ == "__main__":
    unittest.main()
