//! Witnesses for the compiled ground-truth dictionaries of the paper
//! grid (98 `(service, OS)` identities at the default seed, compiled as
//! 50 account layers and 2 device layers):
//!
//! * footprint: an identity's account and device layers together (four
//!   Aho–Corasick automata) stay within [`FOOTPRINT_BUDGET`], and the
//!   grid's 52 distinct layers within [`GRID_BUDGET`]. The contiguous
//!   NFA layout measures ~80 KB per layer, ~160 KB per identity and
//!   ~4.1 MB for the grid; the full byte-class DFA it replaced measured
//!   ~1.4 MB per identity and 38.6 MB for the grid, so reverting the
//!   layout fails here. Budgets may be lowered, never raised.
//! * variants: the verification step's variant list, produced in the
//!   matcher's encoding loop, equals an independent encoding pass
//!   element by element (account values, then device values).

use appvsweb::core::Testbed;
use appvsweb::netsim::Os;
use appvsweb::pii::cache::{CacheStats, DictCache};
use appvsweb::pii::encode::search_chains;
use appvsweb::pii::{CompiledDictionary, GroundTruth, PiiType};
use appvsweb::services::Catalog;
use std::collections::HashSet;
use std::sync::Arc;

/// Upper bound on one identity's automata, in heap bytes.
const FOOTPRINT_BUDGET: usize = 256 << 10;

/// Upper bound on the automata of the grid's distinct layers, in heap
/// bytes: one eighth of the full byte-class DFA's 38.6 MB.
const GRID_BUDGET: usize = 4_800_000;

fn paper_grid() -> Vec<(String, GroundTruth)> {
    let catalog = Catalog::paper();
    let mut out = Vec::new();
    for os in [Os::Android, Os::Ios] {
        for spec in catalog.testable_on(os) {
            let truth = Testbed::for_cell(spec, os, 2016).truth;
            out.push((format!("{}/{os:?}", spec.id), truth));
        }
    }
    out
}

fn separate_variants(truth: &GroundTruth) -> Vec<(PiiType, String)> {
    let chains = search_chains();
    let mut out = Vec::new();
    for (t, v) in truth.values() {
        for chain in &chains {
            out.push((t, chain.apply(&v).to_ascii_lowercase()));
        }
    }
    out
}

#[test]
fn paper_grid_dictionaries_fit_the_footprint_and_carry_every_variant() {
    let grid = paper_grid();
    assert_eq!(grid.len(), 98, "48 Android + 50 iOS identities");
    for (id, truth) in &grid {
        let dict = CompiledDictionary::build(truth);
        let bytes = dict.automata_bytes();
        let shape: Vec<String> = [&dict.account, &dict.device]
            .iter()
            .map(|layer| {
                let (ci, cs) = layer.matcher.automata();
                format!(
                    "{} + {} states, {} + {} classes",
                    ci.state_count(),
                    cs.state_count(),
                    ci.class_count(),
                    cs.class_count()
                )
            })
            .collect();
        assert!(
            bytes <= FOOTPRINT_BUDGET,
            "{id}: automata take {bytes} bytes (account {}; device {})",
            shape[0],
            shape[1],
        );
        let variants: Vec<(PiiType, String)> = dict.variants().cloned().collect();
        assert_eq!(variants, separate_variants(truth), "{id}");
    }
}

#[test]
fn paper_grid_layers_fit_the_grid_budget() {
    // A private cache: the process-wide one may hold other tests' layers.
    let cache = DictCache::default();
    let mut seen = HashSet::new();
    let mut total = 0;
    for (_, truth) in paper_grid() {
        let dict = cache.compiled(&truth);
        for layer in [&dict.account, &dict.device] {
            if seen.insert(Arc::as_ptr(layer)) {
                total += layer.automata_bytes();
            }
        }
    }
    assert_eq!(
        cache.stats(),
        CacheStats {
            builds: 52,
            hits: 144
        },
        "50 account + 2 device layers over 98 identities"
    );
    assert_eq!(seen.len(), 52);
    eprintln!("grid automata: {total} bytes");
    assert!(
        total <= GRID_BUDGET,
        "the grid's 52 layers take {total} bytes of automata"
    );
}
