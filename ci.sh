#!/bin/sh
# Tier-1 gate, runnable fully offline: every dependency is an in-repo
# crate, so a fresh checkout needs nothing beyond the Rust toolchain.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== repro lint (determinism & robustness; exit 1 on any finding) =="
cargo run -q --release -p appvsweb-bench --bin repro -- lint

echo "== lint bench (emits BENCH_lint.json: scan size, tokens/sec, findings by rule) =="
cargo bench -q -p appvsweb-bench --bench lint

echo "== pipeline bench + perf gate (full-campaign median >25% over committed fails) =="
BENCH_GATE=1 cargo bench -q -p appvsweb-bench --bench study_pipeline

echo "== population bench + perf gate (100k-user campaign median >25% over committed fails) =="
BENCH_GATE=1 cargo bench -q -p appvsweb-bench --bench population

echo "== repro fuzz --smoke (corpus replay + short mutation burst; emits BENCH_testkit.json) =="
cargo run -q --release -p appvsweb-bench --bin repro -- fuzz --smoke

echo "== repro metrics --check (obs conservation laws over the quick campaign) =="
cargo run -q --release -p appvsweb-bench --bin repro -- metrics --check

echo "== repro population --smoke (1k-user campaign determinism gate) =="
cargo run -q --release -p appvsweb-bench --bin repro -- population --smoke

echo "== repro serve --smoke (submit -> crash -> recover -> diff, 1/2/8-worker determinism) =="
cargo run -q --release -p appvsweb-bench --bin repro -- serve --smoke

echo "== perfbench build (the benchmark harness compiles against the crates' current API) =="
CARGO_TARGET_DIR=target/perfbench cargo build -q --release --manifest-path perfbench/Cargo.toml

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q (includes tests/chaos.rs fault-injection suite) =="
cargo test -q --workspace --no-fail-fast
