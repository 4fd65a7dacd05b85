//! The `repro lint` subcommand: parse the flags, then hand the
//! workspace analyzer its [`appvsweb_lint::cli::Options`].

use crate::cli::Value::{Switch, Text};
use crate::cli::{Args, Command, Flag};
use appvsweb_lint::cli::Options;
use std::path::PathBuf;

/// The flags of `repro lint`.
#[rustfmt::skip]
pub const COMMAND: Command = Command {
    name: "lint",
    flags: &[
        Flag::new("--root", Text("DIR"), "workspace root (default: discovered from the cwd)"),
        Flag::new("--json", Switch, "print the full report as canonical JSON (always exits 0)"),
        Flag::new("--labels", Switch, "print only the D3 fork-label table"),
    ],
    subcommands: &[],
    run,
};

/// Entry point for `repro lint`. Returns the process exit code: 0
/// clean, 1 findings, 2 usage or I/O error. Without an action flag it
/// analyzes the workspace and lists every finding.
pub fn run(args: &Args) -> i32 {
    appvsweb_lint::cli::run(&Options {
        root: args.text("--root").map(PathBuf::from),
        json: args.switch("--json"),
        labels_only: args.switch("--labels"),
    })
}
