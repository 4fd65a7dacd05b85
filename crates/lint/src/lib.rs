//! `appvsweb-lint` — the workspace's self-hosted determinism &
//! robustness analyzer.
//!
//! The reproduction's headline numbers are only trustworthy because the
//! simulation is bit-deterministic: every RNG draw flows through
//! labelled [`SimRng`] forks and nothing reads wall clocks or ambient
//! entropy. This crate machine-checks those invariants on every CI run
//! instead of trusting convention:
//!
//! * a small, lossless, literal/comment-aware Rust lexer ([`lexer`]);
//! * a scope-tracked item/signature/body parser over the token stream
//!   ([`parse`]) producing per-file item tables, content-hash cached
//!   under `target/lint-cache/` ([`cache`]);
//! * a workspace call graph with path-qualified resolution
//!   ([`callgraph`]);
//! * file-local rules ([`engine`], [`rules`]): `D1` no wall clocks,
//!   `D2` no unordered hash iteration into aggregates, `D3` closed
//!   fork-label table, `R1` no panicking paths in library code, `R2`
//!   all serialization through `impl_json!`, `S1` total-order float
//!   comparisons;
//! * interprocedural passes ([`taint`]): `T1` PII values reach
//!   byte/serialization/socket sinks only through the audited `mitm`
//!   recording path, `R1x` nothing reachable from `serve::runner`
//!   workers or `core::study` cell execution can transitively panic,
//!   `D3x` each `rng_labels` constant is forked from exactly one
//!   statically-known scope and no `SimRng` crosses cell boundaries;
//! * inline `lint:allow(R1) reason`-style suppressions the engine
//!   parses, validates, and tallies;
//! * a committed `lint.baseline.json` ([`baseline`], schema v2 grouped
//!   by rule) so CI fails on *new* violations while existing debt
//!   burns down.
//!
//! Run it as `repro lint --check` (what `ci.sh` does); [`cli`] holds
//! the actions behind that subcommand.
//!
//! [`SimRng`]: https://docs.rs/appvsweb-netsim

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod callgraph;
pub mod cli;
pub mod engine;
pub mod fuzz;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod taint;

pub use baseline::{Baseline, BaselineDiff, BaselineEntry};
pub use engine::{
    analyze_files, analyze_files_with, analyze_one, classify, collect_workspace, is_manifest,
    AnalysisOptions, FileAnalysis, FileClass, Finding, Report, SourceFile,
};
pub use lexer::{lex, Tok, TokKind};
pub use parse::{FileTable, FnItem};
