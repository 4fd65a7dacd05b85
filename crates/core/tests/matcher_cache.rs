//! Pins the compiled-dictionary cache guarantee: exactly one layer
//! build per distinct identity half per study at any worker count —
//! one account layer per service and one device layer per OS — and
//! zero rebuilds on a repeat run. Every cell looks up its two layers;
//! cells that share a half share one compilation even when two workers
//! reach it at the same moment (the cache is single-flight).
//!
//! Lives in its own test binary: the build/hit counters asserted here
//! belong to the process-wide cache the study compiles through, so the
//! assertions must not race unrelated tests that compile dictionaries
//! of their own.

use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::SimDuration;
use appvsweb_pii::cache;
use std::collections::BTreeSet;

#[test]
fn study_compiles_each_identity_once() {
    let mut studies = Vec::new();
    // One seed per worker count, none shared with another fixture, so
    // every identity of each study is cold in the process-wide cache
    // when that study starts.
    for (workers, seed) in [(1, 0x00D1_C7CA), (2, 0x00D1_C7CB), (8, 0x00D1_C7CC)] {
        let cfg = StudyConfig {
            seed,
            duration: SimDuration::from_mins(1),
            use_recon: false,
            workers,
            ..StudyConfig::default()
        };

        let before = cache::stats();
        let first = run_study(&cfg);
        let mid = cache::stats();
        let cells = first.cells.len() as u64;
        // One build per account half (a service's account is shared by
        // its OSes and mediums) and one per device half (one per OS).
        let services: BTreeSet<&str> = first.cells.iter().map(|c| c.service_id.as_str()).collect();
        let oses: BTreeSet<String> = first.cells.iter().map(|c| format!("{:?}", c.os)).collect();
        let layers = (services.len() + oses.len()) as u64;
        assert_eq!(
            mid.builds - before.builds,
            layers,
            "expected exactly one layer build per distinct half at {workers} workers"
        );
        assert_eq!(
            mid.hits - before.hits,
            2 * cells - layers,
            "every other layer lookup must hit the cache at {workers} workers"
        );
        studies.push((cfg, first));
    }

    // An identical second study performs zero automaton builds.
    let (cfg, first) = &studies[0];
    let before = cache::stats();
    let second = run_study(cfg);
    let after = cache::stats();
    assert_eq!(
        after.builds, before.builds,
        "repeat study must not recompile any dictionary"
    );
    assert_eq!(after.hits - before.hits, 2 * first.cells.len() as u64);

    // And sharing the compiled dictionary does not perturb results.
    assert_eq!(appvsweb_json::encode(first), appvsweb_json::encode(&second));
}
