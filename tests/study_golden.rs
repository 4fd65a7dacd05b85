//! Determinism regression and golden-snapshot tests for the canonical
//! seed-2016 study.
//!
//! The workspace's reproducibility contract is end-to-end: the full
//! 4-minute, 196-cell campaign must serialize to byte-identical JSON on
//! every run and on every worker count, and its headline aggregates must
//! match the numbers recorded in `EXPERIMENTS.md`. The recommender's
//! report (`repro recommend`'s stdout) is pinned byte-for-byte; after an
//! intentional change, regenerate it with
//!
//! ```bash
//! REGEN_GOLDEN=1 cargo test --test study_golden
//! ```

use appvsweb::analysis::{tables, Study};
use appvsweb::core::study::train_recon;
use appvsweb::core::{dataset, run_study, StudyConfig};
use appvsweb::pii::hash::md5_hex;
use appvsweb::recommend::{render, Preferences};
use appvsweb::services::{Catalog, Medium};
use appvsweb_testkit::fixtures::canonical_study;

/// The canonical study (seed 2016, 4 simulated minutes, ReCon on),
/// computed once per process by the testkit fixture and shared across
/// the tests in this binary.
fn canonical() -> &'static Study {
    canonical_study()
}

#[test]
fn full_study_is_deterministic_across_runs() {
    let first = dataset::to_json(canonical());
    let second = dataset::to_json(&run_study(&StudyConfig::default()));
    assert_eq!(
        first, second,
        "two default-config runs must serialize byte-identically"
    );
}

#[test]
fn parallel_and_single_thread_studies_agree() {
    let single = run_study(&StudyConfig {
        workers: 1,
        ..Default::default()
    });
    assert_eq!(
        dataset::to_json(canonical()),
        dataset::to_json(&single),
        "worker count must not affect the result"
    );
}

#[test]
fn json_roundtrip_is_a_fixed_point() {
    let encoded = dataset::to_json(canonical());
    let reparsed = dataset::from_json(&encoded).expect("study JSON parses back");
    assert_eq!(
        dataset::to_json(&reparsed),
        encoded,
        "serialize -> parse -> re-serialize must be a fixed point"
    );
}

#[test]
fn golden_headline_aggregates_match_experiments_md() {
    let study = canonical();
    assert_eq!(
        study.cells.len(),
        196,
        "48 Android + 50 iOS services x 2 media"
    );

    // Leak rates from Table 1, rounded to one decimal place, as recorded
    // in EXPERIMENTS.md.
    let t1 = tables::table1(study);
    let pct = |group: &str, medium| {
        let row = t1
            .row(group, medium)
            .unwrap_or_else(|| panic!("missing Table 1 row {group}"));
        (row.pct_leaking * 1000.0).round() / 10.0
    };
    assert_eq!(
        pct("All", Medium::App),
        92.0,
        "app leak rate (paper: 92.0%)"
    );
    assert_eq!(
        pct("All", Medium::Web),
        74.0,
        "web leak rate (paper reports 78.0%)"
    );
    assert_eq!(pct("Android", Medium::Web), 53.1, "Android web leak rate");
    assert_eq!(pct("iOS", Medium::Web), 75.5, "iOS web leak rate");
}

/// MD5 of the canonical (seed 2016, 4-minute) ReCon classifier's JSON,
/// recorded from the `BTreeSet<String>` trainer before the interned
/// trainer replaced it. Any drift in training — corpus, features, tie
/// breaks, or leaf values — changes this digest.
const CANONICAL_CLASSIFIER_MD5: &str = "4bf2d9bd141faddfdbfd622da1027fce";

#[test]
fn canonical_classifier_json_matches_pinned_digest() {
    let clf = train_recon(&Catalog::paper(), &StudyConfig::default());
    assert_eq!(
        md5_hex(appvsweb::json::encode(&clf).as_bytes()),
        CANONICAL_CLASSIFIER_MD5,
        "the seed-2016 classifier drifted from the pinned training output"
    );
}

#[test]
fn recommender_report_matches_committed_snapshot() {
    let text = render(canonical(), "balanced", &Preferences::balanced());
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("recommend_balanced.txt");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
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
        "`repro recommend` drifted from the committed snapshot; if the \
         change is intentional, regenerate with REGEN_GOLDEN=1"
    );
}
