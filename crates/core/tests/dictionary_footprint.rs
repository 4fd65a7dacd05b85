//! Witnesses for the compiled ground-truth dictionaries of the paper
//! grid (98 `(service, OS)` identities at the default seed, compiled as
//! 50 account layers and 2 device layers):
//!
//! * footprint: an identity's account and device layers together (four
//!   Aho–Corasick automata) stay within [`FOOTPRINT_BUDGET`]. The
//!   byte-class layout measures ~0.75 MB per account layer and ~0.63 MB
//!   per device layer, ~1.4 MB per identity; a dense 256-column table
//!   measures ~6 MB, so reverting the layout fails here.
//! * variants: the verification step's variant list, produced in the
//!   matcher's encoding loop, equals an independent encoding pass
//!   element by element (account values, then device values).

use appvsweb_core::Testbed;
use appvsweb_netsim::Os;
use appvsweb_pii::encode::search_chains;
use appvsweb_pii::{CompiledDictionary, GroundTruth, PiiType};
use appvsweb_services::Catalog;

/// Upper bound on one identity's automata, in heap bytes.
const FOOTPRINT_BUDGET: usize = 2 << 20;

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
