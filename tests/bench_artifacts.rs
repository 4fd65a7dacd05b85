//! The committed `BENCH_*.json` artifacts and the suites that write
//! them agree: every artifact at the repo root has a writer, every
//! writer has its artifact committed, and every artifact names the
//! machine its numbers came from (`meta.host`: cores, `rustc`, commit),
//! so no timing is read apart from its host.

use appvsweb::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Artifact file name → the command that writes it: each `[[bench]]`
/// target of `crates/bench`, through the one `BenchRunner::new("<suite>")`
/// in its source, plus `repro fuzz --smoke` for `BENCH_testkit.json`.
fn writers() -> BTreeMap<String, String> {
    let bench = Path::new(ROOT).join("crates/bench");
    let manifest = read(&bench.join("Cargo.toml"));
    let mut writers = BTreeMap::new();
    for target in manifest.split("[[bench]]").skip(1) {
        let name = target
            .lines()
            .find_map(|line| line.trim().strip_prefix("name = "))
            .expect("every [[bench]] has a name")
            .trim_matches('"');
        let source = read(&bench.join("benches").join(format!("{name}.rs")));
        let runners: Vec<&str> = source
            .split("BenchRunner::new(\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let [suite] = runners[..] else {
            panic!("benches/{name}.rs must call BenchRunner::new once, found {runners:?}");
        };
        let artifact = format!("BENCH_{suite}.json");
        let command = format!("cargo bench -p appvsweb-bench --bench {name}");
        if let Some(other) = writers.insert(artifact.clone(), command) {
            panic!("{artifact} is written by both `{other}` and benches/{name}.rs");
        }
    }
    let fuzz = read(&bench.join("src/fuzz_cli.rs"));
    assert!(
        fuzz.contains("\"BENCH_testkit.json\""),
        "`repro fuzz` no longer writes BENCH_testkit.json"
    );
    writers.insert("BENCH_testkit.json".into(), "repro fuzz --smoke".into());
    writers
}

/// The `BENCH_*.json` files at the repo root, sorted.
fn committed() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(ROOT)
        .expect("read the repo root")
        .map(|entry| entry.expect("list the repo root").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    names
}

#[test]
fn every_artifact_has_a_suite_and_every_suite_its_artifact() {
    let writers = writers();
    let committed = committed();
    for name in &committed {
        assert!(
            writers.contains_key(name),
            "{name} is committed but no bench suite writes it"
        );
    }
    for (name, command) in &writers {
        assert!(
            committed.contains(name),
            "`{command}` writes {name}, which is not committed"
        );
    }
}

#[test]
fn every_artifact_carries_its_host() {
    for name in committed() {
        let doc = json::parse(&read(&Path::new(ROOT).join(&name)))
            .unwrap_or_else(|e| panic!("{name} is not JSON: {e:?}"));
        let host = doc
            .get("meta")
            .and_then(|meta| meta.get("host"))
            .unwrap_or_else(|| panic!("{name} lacks meta.host"));
        assert!(
            matches!(host.get("nproc"), Some(Json::Uint(n)) if *n > 0),
            "{name}: meta.host.nproc must be a core count, got {:?}",
            host.get("nproc")
        );
        for key in ["rustc", "commit"] {
            assert!(
                matches!(host.get(key), Some(Json::Str(s)) if !s.is_empty()),
                "{name}: meta.host.{key} must be a non-empty string, got {:?}",
                host.get(key)
            );
        }
    }
}
