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
//!   ([`parse`]) producing per-file item tables;
//! * a workspace call graph with path-qualified resolution
//!   ([`callgraph`]);
//! * one rule per invariant ([`engine`], [`rules`]): `D1` no wall
//!   clocks, `D2` no unordered hash iteration into aggregates, `D3` a
//!   closed, duplicate-free fork-label table in which each `rng_labels`
//!   item is forked at one site and no `SimRng` is stashed in a field
//!   outside `netsim`, `R1` no panicking paths in library code, `R2` all
//!   serialization through `impl_json!`, `S1` total-order float
//!   comparisons;
//! * one interprocedural pass ([`taint`]): `T1` PII values reach
//!   byte/serialization/socket sinks only through the audited `mitm`
//!   recording path;
//! * inline `lint:allow(RULE) reason` suppressions the engine parses,
//!   validates, tallies, and reports when they waive nothing — the one
//!   way to accept a reviewed site.
//!
//! One run is one sequential, stateless pass over the workspace's files
//! ([`engine`]): the report is a pure function of their bytes. Run it
//! as `repro lint` (what `ci.sh` does: it exits 1 on any finding);
//! [`cli`] holds the actions behind that subcommand.
//!
//! [`SimRng`]: https://docs.rs/appvsweb-netsim

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod cli;
pub mod engine;
pub mod fuzz;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod taint;

pub use engine::{
    analyze_files, analyze_one, classify, collect_workspace, FileAnalysis, FileClass, Finding,
    Report, SourceFile,
};
pub use lexer::{lex, Tok, TokKind};
pub use parse::{FileTable, FnItem};
