//! `repro` rejects a missing or malformed flag value with exit code 2
//! and a message naming the flag, before any campaign runs, instead of
//! falling back to a default; and `--help` behaves the same for the top
//! level and every subcommand.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = run(args);
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    for started in ["running the full study", "measuring the base study"] {
        assert!(
            !stderr.contains(started),
            "{args:?}: the study must not start before the usage error: {stderr}"
        );
    }
    (out.status.code(), stderr)
}

fn assert_usage_errors(rows: &[(&[&str], &str)]) {
    for &(args, flag) in rows {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    }
}

#[test]
fn malformed_numeric_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["--table", "x", "--seed", "abc"][..], "--table"),
        (&["--table", "4"][..], "--table"),
        (&["--seed", "abc"][..], "--seed"),
        (&["--minutes"][..], "--minutes"),
        (&["population", "--users", "abc"][..], "--users"),
        (&["population", "--shards"][..], "--shards"),
        (&["population", "--shards", "4294967296"][..], "--shards"),
        (&["serve", "--workers", "abc"][..], "--workers"),
        (&["serve", "--listen", "99999"][..], "--listen"),
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    }
}

#[test]
fn value_flags_without_a_value_exit_2_naming_the_flag() {
    assert_usage_errors(&[
        (&["--json"], "--json"),
        (&["--report", "--headlines"], "--report"),
        (&["fuzz", "--target"], "--target"),
        (&["trace", "--cell"], "--cell"),
        (&["serve", "--dir"], "--dir"),
        (&["lint", "--root"], "--root"),
    ]);
}

#[test]
fn closed_set_flags_are_checked_before_the_study_runs() {
    assert_usage_errors(&[
        (&["--figure", "9z"], "--figure"),
        (&["--faults", "bogus"], "--faults"),
        (&["trace", "--cell", "bbc-news/ios/web"], "--cell"),
        (&["recommend", "--profile", "nope"], "--profile"),
        (&["recommend", "--profile"], "--profile"),
        // A retired flag is an unknown argument.
        (
            &["lint", "--migrate-baseline"],
            "unknown argument \"--migrate-baseline\"",
        ),
        (&["lint", "--check"], "unknown argument \"--check\""),
        (
            &["lint", "--fix-baseline"],
            "unknown argument \"--fix-baseline\"",
        ),
        (&["lint", "--no-cache"], "unknown argument \"--no-cache\""),
        (
            &["lint", "--workers", "2"],
            "unknown argument \"--workers\"",
        ),
    ]);
}

#[test]
fn worker_and_shard_counts_are_bounded() {
    // Every row keeps the default 64 shards, so a parser that accepted
    // the value would start at most 64 threads.
    assert_usage_errors(&[
        (&["population", "--workers", "0"], "--workers"),
        (&["population", "--workers", "257"], "--workers"),
        (&["population", "--shards", "0"], "--shards"),
        (&["serve", "--workers", "0"], "--workers"),
        (&["serve", "--workers", "257"], "--workers"),
    ]);
}

#[test]
fn degenerate_campaigns_exit_2_before_the_study_runs() {
    // 307445734561825861 minutes used to wrap to 44 s sessions.
    assert_usage_errors(&[
        (&["--minutes", "0"], "--minutes 0: zero-duration"),
        (
            &["--minutes", "307445734561825861", "--headlines"],
            "--minutes 307445734561825861: session duration exceeds the 1440-minute ceiling",
        ),
        (
            &["population", "--minutes", "0"],
            "--minutes 0: zero-duration",
        ),
        (&["population", "--minutes", "1441"], "1440-minute ceiling"),
        (&["population", "--users", "0"], "--users must be in 1..="),
    ]);
}

/// Every flag each command accepted before the shared parser, by
/// subcommand (`""` is `repro` itself).
const FLAGS: [(&str, &[&str]); 8] = [
    (
        "",
        &[
            "--all",
            "--table",
            "--figure",
            "--duration",
            "--headlines",
            "--json",
            "--report",
            "--seed",
            "--minutes",
            "--faults",
        ],
    ),
    ("recommend", &["--profile"]),
    ("lint", &["--root", "--json", "--labels"]),
    (
        "fuzz",
        &["--target", "--iters", "--seed", "--smoke", "--minimize"],
    ),
    ("trace", &["--cell"]),
    ("metrics", &["--check"]),
    (
        "population",
        &[
            "--users",
            "--shards",
            "--workers",
            "--seed",
            "--minutes",
            "--smoke",
            "--json",
        ],
    ),
    (
        "serve",
        &[
            "--smoke",
            "--demo",
            "--listen",
            "--dir",
            "--workers",
            "--max-requests",
        ],
    ),
];

/// The `--flags` a usage text mentions, in order of first mention.
fn mentioned(text: &str) -> Vec<String> {
    let mut flags: Vec<String> = Vec::new();
    let words = text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
    for word in words.filter(|w| w.starts_with("--")) {
        if !flags.iter().any(|f| f == word) {
            flags.push(word.to_string());
        }
    }
    flags
}

#[test]
fn help_prints_every_flag_to_stdout_and_exits_0() {
    let mut everything = Vec::new();
    let mut top = String::new();
    for (sub, flags) in FLAGS {
        for help in ["--help", "-h"] {
            let args: Vec<&str> = [sub, help].into_iter().filter(|a| !a.is_empty()).collect();
            let out = run(&args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{args:?}");
            assert!(out.stderr.is_empty(), "{args:?} writes help to stdout only");
            let mut shown = mentioned(&stdout);
            if sub.is_empty() {
                everything = shown.clone();
                top = stdout.to_string();
                // The top level lists the subcommands' flags too.
                shown.truncate(flags.len());
            }
            assert_eq!(shown, *flags, "{args:?} lists exactly its flags:\n{stdout}");
        }
    }
    for (sub, flags) in FLAGS {
        assert!(
            top.contains(&format!("repro {sub}")),
            "`repro --help` lacks `repro {sub}`"
        );
        for flag in flags {
            assert!(
                everything.iter().any(|f| f == flag),
                "`repro --help` lacks `{sub} {flag}`"
            );
        }
    }
}
