//! `repro` rejects a missing or malformed numeric flag value with exit
//! code 2 and a message naming the flag, before any campaign runs,
//! instead of falling back to a default.

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the usage error"
    );
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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
