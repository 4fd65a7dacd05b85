//! `repro serve --listen 0` over real TCP: the server prints the port
//! the system bound, answers a submission, runs the job before it stops
//! at `--max-requests`, and reports an injected cell panic only through
//! the job's health ledger, never as a panic message on stderr.

use appvsweb_bench::serve_cli::small_cells;
use appvsweb_serve::JobSpec;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A 1-cell, 1-minute, matcher-only job.
fn one_cell_spec() -> JobSpec {
    JobSpec {
        name: "listen".to_string(),
        minutes: 1,
        use_recon: false,
        cells: small_cells().into_iter().take(1).collect(),
        ..JobSpec::default()
    }
}

/// Start `repro serve --listen 0 --max-requests 1` on a fresh state
/// directory named `name`, POST `spec` to `/submit`, and return the
/// HTTP status line, the exit code and everything written to stderr.
fn submit_once(name: &str, spec: &JobSpec) -> (String, Option<i32>, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("serve_listen_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--listen", "0", "--max-requests", "1", "--dir"])
        .arg(&dir)
        .args(["--workers", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start repro serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut log = String::new();
    let addr = loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).expect("read stderr") == 0 {
            let _ = child.kill();
            panic!("server exited before listening: {log}");
        }
        log.push_str(&line);
        if let Some(addr) = line.trim().strip_prefix("repro serve listening on http://") {
            break addr.to_string();
        }
    };
    if addr.ends_with(":0") {
        let _ = child.kill();
        panic!("the bound port must be printed, not {addr}");
    }

    let body = appvsweb_json::encode(spec);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write!(
        stream,
        "POST /submit HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send the request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read the response");
    stderr.read_to_string(&mut log).expect("drain stderr");
    let status = child.wait().expect("wait for repro serve");
    let status_line = response.lines().next().unwrap_or_default().to_string();
    (status_line, status.code(), log)
}

#[test]
fn injected_panics_stay_off_stderr_and_the_bound_port_is_printed() {
    let spec = JobSpec {
        cell_panic: 1.0,
        max_retries: 0,
        ..one_cell_spec()
    };
    let (status, code, stderr) = submit_once("panic", &spec);
    assert!(status.starts_with("HTTP/1.1 202 "), "{status}");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

#[test]
fn a_stall_label_naming_no_cell_is_refused_at_submit() {
    let spec = JobSpec {
        stall_cells: vec!["no-such-service/Android/App".to_string()],
        ..one_cell_spec()
    };
    let (status, code, stderr) = submit_once("stall", &spec);
    assert!(status.starts_with("HTTP/1.1 422 "), "{status}");
    assert_eq!(code, Some(0), "{stderr}");
}
