//! `repro lint --root DIR` on a small workspace written for each test:
//! a finding exits 1 and is printed, a reviewed `lint:allow` accepts it
//! (exit 0), a malformed annotation is itself a finding, and `--json`
//! reports without failing.

use std::path::{Path, PathBuf};
use std::process::Command;

const UNWRAP: &str = "pub fn first(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";

/// A fresh workspace named `name` whose one library file is `lib`.
fn workspace(name: &str, lib: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("lint_cli_{name}"));
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).expect("create the workspace");
    std::fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/x\"]\n",
    )
    .expect("write Cargo.toml");
    std::fs::write(src.join("lib.rs"), lib).expect("write lib.rs");
    root
}

/// Exit code and stdout of `repro lint --root <root> <extra>`.
fn lint(root: &Path, extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("lint")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run repro lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn an_unannotated_finding_exits_1_and_is_printed() {
    let (code, stdout) = lint(&workspace("finding", UNWRAP), &[]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("findings: 1\n"), "{stdout}");
    assert!(
        stdout.contains("  [R1] crates/x/src/lib.rs:2 — unwrap() in library code"),
        "{stdout}"
    );
}

#[test]
fn a_reviewed_allow_accepts_the_finding() {
    let lib = UNWRAP.replace(
        "    v.unwrap()",
        "    // lint:allow(R1) reviewed: callers pass Some\n    v.unwrap()",
    );
    let (code, stdout) = lint(&workspace("allowed", &lib), &[]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("suppressed by allow: R1 1\n"), "{stdout}");
    assert!(stdout.contains("findings: none\n"), "{stdout}");
}

#[test]
fn a_malformed_allow_is_a_finding() {
    let lib = UNWRAP.replace("    v.unwrap()", "    // lint:allow(R1)\n    v.unwrap()");
    let (code, stdout) = lint(&workspace("malformed", &lib), &[]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("  [LINT] crates/x/src/lib.rs:2 — malformed lint:allow"),
        "{stdout}"
    );
}

#[test]
fn json_reports_the_finding_without_a_fingerprint_and_exits_0() {
    let (code, stdout) = lint(&workspace("json", UNWRAP), &["--json"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"rule\": \"R1\""), "{stdout}");
    assert!(!stdout.contains("fingerprint"), "{stdout}");
}
