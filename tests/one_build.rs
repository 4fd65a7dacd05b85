//! The workspace has one build configuration: no dependency entry picks
//! features, the only `[features]` table is obs's inert `enabled = []`
//! (kept because the benchmark harness's manifest names it), and no
//! source under `crates/`, `src/` or `tests/` compiles code in or out on
//! a feature. Obs and every reference twin are always compiled in.

use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(manifest directory, table header, entry)` for every entry of the
/// root manifest and each `crates/*/Cargo.toml`, comments dropped.
fn manifest_entries() -> Vec<(String, String, String)> {
    let mut dirs = vec![PathBuf::from(ROOT)];
    for entry in std::fs::read_dir(Path::new(ROOT).join("crates")).expect("list crates/") {
        dirs.push(entry.expect("list crates/").path());
    }
    let mut entries = Vec::new();
    for dir in dirs.into_iter().filter(|d| d.join("Cargo.toml").is_file()) {
        let name = format!("{}", dir.strip_prefix(ROOT).unwrap_or(&dir).display());
        let mut header = String::new();
        for line in read(&dir.join("Cargo.toml")).lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if let Some(table) = line.strip_prefix('[') {
                header = table.trim_end_matches(']').to_string();
            } else if !line.is_empty() {
                entries.push((name.clone(), header.clone(), line.to_string()));
            }
        }
    }
    entries.sort();
    entries
}

#[test]
fn manifests_declare_no_build_configuration() {
    let entries = manifest_entries();
    for (dir, header, entry) in &entries {
        if header.contains("dependencies") {
            assert!(!entry.contains("features"), "{dir} [{header}] {entry}");
        }
    }
    let features: Vec<String> = entries
        .iter()
        .filter(|(_, header, _)| header == "features")
        .map(|(dir, _, entry)| format!("{dir}: {entry}"))
        .collect();
    assert_eq!(
        features,
        ["crates/obs: enabled = []"],
        "only obs's inert feature"
    );
}

/// The predicates of `source`'s conditional-compilation attributes and
/// macros that name a feature (up to the end of the attribute or line).
fn feature_gates(source: &str) -> Vec<&str> {
    let keyword = "cfg"; // spelled apart from its paren, so this file never matches itself
    let gates = source.match_indices(keyword).map(|(at, _)| &source[at..]);
    gates
        .map(|rest| rest.split(['\n', ']', ';']).next().unwrap_or(""))
        .filter(|gate| gate.contains("feature"))
        .filter(|gate| {
            let head = gate
                .split_once('(')
                .map(|(head, _)| head.strip_prefix(keyword));
            matches!(head, Some(Some("" | "!" | "_attr")))
        })
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("list {}: {e}", dir.display())) {
        let path = entry.expect("list a source directory").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_compiles_code_in_or_out_on_a_feature() {
    let gated = concat!("#[cf", "g(any(test, feature = \"x\"))]\nfn f() {}");
    assert_eq!(feature_gates(gated).len(), 1, "the scan must see a gate");
    assert!(feature_gates(concat!("#[cf", "g(test)]")).is_empty());
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&Path::new(ROOT).join(dir), &mut files);
    }
    assert!(files.len() > 100, "found only {} source files", files.len());
    for path in files {
        let gates = feature_gates(&read(&path)).join(" | ");
        assert!(gates.is_empty(), "{}: {gates}", path.display());
    }
}
