//! Golden-trace pinning for the observability journal.
//!
//! The journal's contract is the same as the dataset's: a pure function
//! of `(seed, config)`. These tests pin one quick-config cell per medium
//! against committed snapshots (any instrumentation drift — a site
//! added, removed, reordered, or reworded — shows up as a diff), and
//! prove the whole-campaign journal is byte-identical across worker
//! counts and repeated in-process runs.
//!
//! Regenerate the snapshots after an intentional instrumentation change:
//!
//! ```bash
//! REGEN_GOLDEN=1 cargo test --test trace_golden
//! ```

use appvsweb::core::study::{run_cell_journal, run_study, train_recon, StudyConfig};
use appvsweb::netsim::Os;
use appvsweb::obs;
use appvsweb::services::{Catalog, Medium};
use appvsweb_testkit::fixtures::quick_study_config;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// Capture the journal of one quick-config weather-channel cell.
fn capture_cell(medium: Medium) -> obs::StudyJournal {
    let catalog = Catalog::paper();
    let spec = catalog.get("weather-channel").expect("catalog service");
    let cfg = quick_study_config();
    let (cell, journal) = run_cell_journal(spec, Os::Android, medium, &cfg, None);
    assert!(cell.is_some(), "fault-free quick cell must complete");
    journal
}

/// Compare a journal against its committed snapshot (or regenerate).
fn assert_matches_golden(journal: &obs::StudyJournal, file: &str) {
    let text = appvsweb::json::encode_pretty(journal) + "\n";
    let path = golden_path(file);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &text).expect("write golden snapshot");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        text, committed,
        "journal for {file} drifted from the committed snapshot; if the \
         instrumentation change is intentional, regenerate with REGEN_GOLDEN=1"
    );
}

#[test]
fn app_cell_journal_matches_committed_snapshot() {
    let journal = capture_cell(Medium::App);
    assert_eq!(
        journal.cells.len(),
        1,
        "recon-off cell captures one journal"
    );
    assert_matches_golden(&journal, "trace_weather_app.json");
}

#[test]
fn web_cell_journal_matches_committed_snapshot() {
    let journal = capture_cell(Medium::Web);
    assert_eq!(
        journal.cells.len(),
        1,
        "recon-off cell captures one journal"
    );
    assert_matches_golden(&journal, "trace_weather_web.json");
}

#[test]
fn campaign_journal_is_byte_identical_across_workers_and_runs() {
    let capture = |workers: usize| {
        let cfg = StudyConfig {
            workers,
            ..quick_study_config()
        };
        obs::capture_begin();
        run_study(&cfg);
        appvsweb::json::encode(&obs::capture_end())
    };
    let single = capture(1);
    assert!(!single.is_empty());
    assert_eq!(
        single,
        capture(2),
        "journal must not depend on worker interleaving (1 vs 2)"
    );
    assert_eq!(
        single,
        capture(8),
        "journal must not depend on worker interleaving (1 vs 8)"
    );
    // Repeat run in the same process: capture state fully resets.
    assert_eq!(single, capture(1), "repeated capture must be identical");
}

#[test]
fn training_journals_are_byte_identical_across_workers() {
    let catalog = Catalog::paper();
    let capture = |workers: usize| {
        let cfg = StudyConfig {
            workers,
            ..quick_study_config()
        };
        obs::capture_begin();
        train_recon(&catalog, &cfg);
        obs::capture_end()
    };
    let single = capture(1);
    // 4 training services × 2 OSes × 2 media.
    assert_eq!(single.cells.len(), 16, "one journal per training session");
    assert!(single.cells.iter().all(|c| c.cell.starts_with("train/")));
    let single = appvsweb::json::encode(&single);
    for workers in [2, 8] {
        assert_eq!(
            single,
            appvsweb::json::encode(&capture(workers)),
            "training journals must not depend on worker interleaving (1 vs {workers})"
        );
    }
}
