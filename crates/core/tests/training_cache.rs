//! Pins that ReCon training compiles no dictionary through the
//! process-wide cache: training identities are seeded apart from the
//! measurement stream and never recur, so each training unit labels its
//! flows with a private matcher that is dropped with the unit.
//!
//! Lives in its own test binary so no sibling test moves the
//! process-wide build/hit counters while this one reads them.

use appvsweb_core::study::{train_recon, StudyConfig};
use appvsweb_netsim::SimDuration;
use appvsweb_pii::cache::{self, CacheStats};
use appvsweb_services::Catalog;

#[test]
fn training_leaves_the_dictionary_cache_untouched() {
    let catalog = Catalog::paper();
    for workers in [1, 2] {
        let cfg = StudyConfig {
            duration: SimDuration::from_mins(1),
            workers,
            ..StudyConfig::default()
        };
        let before = cache::stats();
        let clf = train_recon(&catalog, &cfg);
        let after = cache::stats();
        assert!(clf.domain_model_count() > 0, "training produced models");
        assert_eq!(
            CacheStats {
                builds: after.builds - before.builds,
                hits: after.hits - before.hits,
            },
            CacheStats { builds: 0, hits: 0 },
            "train_recon must not compile through the shared cache at {workers} workers"
        );
    }
}
