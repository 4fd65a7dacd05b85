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
        Flag::new("--check", Switch, "diff findings against lint.baseline.json; exit 1 on new"),
        Flag::new("--json", Switch, "print the full report as canonical JSON (always exits 0)"),
        Flag::new("--fix-baseline", Switch, "rewrite lint.baseline.json to accept the findings"),
        Flag::new("--labels", Switch, "print only the D3 fork-label table"),
    ],
    subcommands: &[],
    run,
};

/// Entry point for `repro lint`. Returns the process exit code: 0
/// clean, 1 findings or new findings, 2 usage or I/O error. Without an
/// action flag it analyzes the workspace and lists every finding.
pub fn run(args: &Args) -> i32 {
    appvsweb_lint::cli::run(&Options {
        root: args.text("--root").map(PathBuf::from),
        check: args.switch("--check"),
        json: args.switch("--json"),
        fix_baseline: args.switch("--fix-baseline"),
        labels_only: args.switch("--labels"),
    })
}
