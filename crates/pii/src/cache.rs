//! Compiled-dictionary cache.
//!
//! Compiling a [`GroundTruthMatcher`] builds two Aho–Corasick automata
//! (~3 ms for a paper-grid identity on a 2-vCPU box), and a study
//! touches each of its 98 distinct `(service, OS)` ground truths once
//! per medium. A [`DictCache`] keys the compiled dictionary on the
//! *content* of the [`GroundTruth`] (its canonical JSON form), so every
//! cell that shares an identity shares one compilation. Correctness is
//! unaffected: compilation is a pure function of the truth, and the
//! canonical-JSON key means two equal truths can never disagree.
//!
//! Lookups are single-flight: each key owns a slot that is filled
//! exactly once, and the compile runs outside the map lock, so workers
//! warming different identities never serialize while two workers that
//! race on the same identity (its app and Web cells) share one build —
//! the loser waits for the winner's result instead of compiling again.
//!
//! The cache is bounded: past [`CACHE_CAPACITY`] entries it is cleared
//! wholesale (the resident `repro serve` path churns through arbitrary
//! revisions and must not grow without bound). Each instance counts its
//! own builds and hits ([`DictCache::stats`]); the process-wide instance
//! behind [`compiled`] and [`stats`] is what the pipeline uses.

use crate::matcher::GroundTruthMatcher;
use crate::profile::GroundTruth;
use crate::types::PiiType;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Entries retained before the cache is cleared wholesale.
pub const CACHE_CAPACITY: usize = 512;

/// A ground-truth dictionary compiled once and shared by every pipeline
/// stage that searches for the same identity.
#[derive(Debug)]
pub struct CompiledDictionary {
    /// The Aho–Corasick-backed matcher (detection step 2).
    pub matcher: GroundTruthMatcher,
    /// Lowercased encoded variants of every value, used by the
    /// verification step (detection step 3).
    pub variants: Vec<(PiiType, String)>,
}

impl CompiledDictionary {
    /// Compile `truth` without consulting a cache.
    pub fn build(truth: &GroundTruth) -> Self {
        let (matcher, variants) = GroundTruthMatcher::with_variants(truth);
        CompiledDictionary { matcher, variants }
    }
}

/// Build/hit counters of a [`DictCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Dictionaries compiled from scratch.
    pub builds: u64,
    /// Lookups served from a dictionary compiled by an earlier (or a
    /// concurrent) lookup.
    pub hits: u64,
}

/// A slot filled by the first lookup of its key; later lookups of the
/// same key wait on it rather than compiling again.
type Slot = Arc<OnceLock<Arc<CompiledDictionary>>>;

/// A bounded, single-flight cache of compiled dictionaries.
#[derive(Debug, Default)]
pub struct DictCache {
    slots: Mutex<HashMap<String, Slot>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

impl DictCache {
    /// Fetch (or compile and memoize) the dictionary for `truth`.
    // lint:allow(T1) cache keying: the canonical JSON of the truth stays in-process as a map key; nothing leaves
    pub fn compiled(&self, truth: &GroundTruth) -> Arc<CompiledDictionary> {
        let key = appvsweb_json::encode(truth);
        let slot = {
            // A poisoned lock only means another thread panicked while
            // holding it; every map update is a single call, so the map
            // itself is still coherent.
            let mut map = self.slots.lock().unwrap_or_else(|p| p.into_inner());
            if map.len() >= CACHE_CAPACITY && !map.contains_key(&key) {
                appvsweb_cover::cover!();
                map.clear();
            }
            Arc::clone(map.entry(key).or_default())
        };
        // Compile outside the map lock: a study's workers warm different
        // identities at once, and a multi-ms build must not serialize
        // them. Only lookups of this same key wait on the slot. A build
        // that panics leaves the slot empty for the next lookup.
        let mut built = false;
        let dict = slot.get_or_init(|| {
            built = true;
            Arc::new(CompiledDictionary::build(truth))
        });
        let counter = if built { &self.builds } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(dict)
    }

    /// This cache's build/hit counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide cache the detection pipeline compiles through.
fn shared() -> &'static DictCache {
    static SHARED: OnceLock<DictCache> = OnceLock::new();
    SHARED.get_or_init(DictCache::default)
}

/// Fetch (or compile and memoize) the dictionary for `truth` in the
/// process-wide cache.
pub fn compiled(truth: &GroundTruth) -> Arc<CompiledDictionary> {
    shared().compiled(truth)
}

/// The process-wide cache's build/hit counters.
pub fn stats() -> CacheStats {
    shared().stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_truth_compiles_once() {
        let truth = GroundTruth::synthetic(0xCAC4E).with_device(
            "Nexus 5",
            &[("imei", "354436069633711")],
            Some((42.361145, -71.057083)),
        );
        // A private instance: no sibling test can move its counters.
        let cache = DictCache::default();
        let a = cache.compiled(&truth);
        let b = cache.compiled(&truth.clone());
        assert!(
            Arc::ptr_eq(&a, &b),
            "equal truths must share one dictionary"
        );
        assert_eq!(cache.stats(), CacheStats { builds: 1, hits: 1 });
    }

    #[test]
    fn racing_lookups_share_one_build() {
        let truth = GroundTruth::synthetic(0x51F1);
        let cache = DictCache::default();
        let start = std::sync::Barrier::new(8);
        let dicts: Vec<Arc<CompiledDictionary>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache.compiled(&truth)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(dicts.iter().all(|d| Arc::ptr_eq(d, &dicts[0])));
        assert_eq!(cache.stats(), CacheStats { builds: 1, hits: 7 });
    }

    #[test]
    fn distinct_truths_get_distinct_dictionaries() {
        let a = compiled(&GroundTruth::synthetic(1));
        let b = compiled(&GroundTruth::synthetic(2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(
            a.matcher.candidate_count(),
            0,
            "compiled dictionary must be populated"
        );
        assert_ne!(b.variants.len(), 0);
    }

    #[test]
    fn cached_dictionary_equals_fresh_build() {
        let truth = GroundTruth::synthetic(77).with_device(
            "iPhone 5",
            &[("idfa", "AAAABBBB-CCCC-DDDD-EEEE-FFFF00001111")],
            Some((42.35, -71.06)),
        );
        let cached = compiled(&truth);
        let fresh = CompiledDictionary::build(&truth);
        assert_eq!(cached.variants, fresh.variants);
        assert_eq!(
            cached.matcher.candidate_count(),
            fresh.matcher.candidate_count()
        );
        // Same scan behaviour on a representative flow.
        let flow = format!("GET /t?email={}&ll=42.35,-71.06 HTTP/1.1", truth.email);
        assert_eq!(cached.matcher.scan(&flow), fresh.matcher.scan(&flow));
    }

    #[test]
    fn variants_match_a_separate_encoding_pass() {
        // The variant list as an independent pass over the values
        // computes it: every value under every search chain, lowercased.
        let separate = |truth: &GroundTruth| -> Vec<(PiiType, String)> {
            let chains = crate::encode::search_chains();
            let mut out = Vec::new();
            for (t, v) in truth.values() {
                for chain in &chains {
                    out.push((t, chain.apply(&v).to_ascii_lowercase()));
                }
            }
            out
        };
        let mut truths: Vec<GroundTruth> = (0..4).map(GroundTruth::synthetic).collect();
        truths.push(GroundTruth::synthetic(9).with_device(
            "Nexus 5",
            &[("imei", "354436069633711"), ("mac", "02:00:4c:4f:4f:50")],
            Some((42.361145, -71.057083)),
        ));
        // Empty values still contribute variants (a hash of "" is not
        // empty), though they yield no matcher candidates.
        let mut blank = GroundTruth::synthetic(5);
        blank.phone.clear();
        blank.gender.clear();
        truths.push(blank);
        for truth in &truths {
            let dict = CompiledDictionary::build(truth);
            assert_eq!(dict.variants, separate(truth));
            assert_eq!(
                dict.matcher.candidate_count(),
                GroundTruthMatcher::new(truth).candidate_count()
            );
        }
    }
}
