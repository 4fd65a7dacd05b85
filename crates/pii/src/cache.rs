//! Compiled-dictionary cache, one layer per identity half.
//!
//! A session identity is a fresh account per service plus one device
//! per OS (`Testbed::for_cell`), so the paper grid's 98 `(service, OS)`
//! identities have only 50 distinct account halves and 2 distinct
//! device halves. A [`CompiledDictionary`] is therefore two
//! [`DictLayer`]s, each a [`GroundTruthMatcher`] plus verification
//! variants over one [`Half`] of the truth. A [`DictCache`] compiles
//! and stores layers, keyed by the half and the *content* of that half
//! (the canonical JSON of `GroundTruth::half`): a study compiles 52
//! layers (58–62 KB of automata per account layer, ~56 KB per device
//! layer; 3.1 MB in all at seed 2016) instead of 98 whole-identity
//! dictionaries (~113 KB each; 11.1 MB). Correctness is unaffected: a
//! layer is a pure function of its half, and
//! [`crate::matcher::scan_layers`] over the two layers finds exactly
//! what a whole-identity matcher finds.
//!
//! Lookups are single-flight: each key owns a slot that is filled
//! exactly once, and the compile runs outside the map lock, so workers
//! warming different layers never serialize while two workers that
//! race on the same layer (an identity's app and Web cells, or two
//! services on one device) share one build — the loser waits for the
//! winner's result instead of compiling again.
//!
//! The cache is bounded: past [`CACHE_CAPACITY`] layers it is cleared
//! wholesale (the resident `repro serve` path churns through arbitrary
//! revisions and must not grow without bound). Every job's identities
//! have the paper grid's shape, whose largest layer holds 62 KB of
//! automata, so a full cache keeps at most ~32 MB of automata resident
//! (512 × 62 KB), plus each layer's variant strings. Each instance counts its
//! own layer builds and hits ([`DictCache::stats`]); the process-wide
//! instance behind [`compiled`] and [`stats`] is what the pipeline uses.

use crate::matcher::{scan_layers, GroundTruthMatcher, PiiFinding};
use crate::profile::{GroundTruth, Half};
use crate::tokenize::FlowView;
use crate::types::PiiType;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Layers retained before the cache is cleared wholesale.
pub const CACHE_CAPACITY: usize = 512;

/// One half of an identity's dictionary.
#[derive(Debug)]
pub struct DictLayer {
    /// The Aho–Corasick-backed matcher over the half's values
    /// (detection step 2).
    pub matcher: GroundTruthMatcher,
    /// Lowercased encoded variants of every value of the half, used by
    /// the verification step (detection step 3).
    pub variants: Vec<(PiiType, String)>,
}

impl DictLayer {
    /// Compile one half of `truth` without consulting a cache.
    pub fn build(truth: &GroundTruth, half: Half) -> Self {
        let (matcher, variants) = GroundTruthMatcher::half_with_variants(truth, half);
        DictLayer { matcher, variants }
    }

    /// Heap bytes of the layer's two automata.
    pub fn automata_bytes(&self) -> usize {
        let (ci, cs) = self.matcher.automata();
        ci.heap_bytes() + cs.heap_bytes()
    }
}

/// A ground-truth dictionary shared by every pipeline stage that
/// searches for the same identity: its account and device layers.
#[derive(Clone, Debug)]
pub struct CompiledDictionary {
    /// The account half's layer.
    pub account: Arc<DictLayer>,
    /// The device half's layer.
    pub device: Arc<DictLayer>,
}

impl CompiledDictionary {
    /// Compile both layers of `truth` without consulting a cache.
    pub fn build(truth: &GroundTruth) -> Self {
        CompiledDictionary {
            account: Arc::new(DictLayer::build(truth, Half::Account)),
            device: Arc::new(DictLayer::build(truth, Half::Device)),
        }
    }

    /// Scan one flow against both layers in one pass.
    pub fn scan(&self, view: &FlowView) -> Vec<PiiFinding> {
        scan_layers([&self.account.matcher, &self.device.matcher], view)
    }

    /// Every verification variant, in [`GroundTruth::values`] order
    /// (account values, then device values).
    pub fn variants(&self) -> impl Iterator<Item = &(PiiType, String)> {
        self.account.variants.iter().chain(&self.device.variants)
    }

    /// Total candidates over both layers.
    pub fn candidate_count(&self) -> usize {
        self.account.matcher.candidate_count() + self.device.matcher.candidate_count()
    }

    /// Heap bytes of the identity's four automata.
    pub fn automata_bytes(&self) -> usize {
        self.account.automata_bytes() + self.device.automata_bytes()
    }
}

/// Build/hit counters of a [`DictCache`], counted per layer lookup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Layers compiled from scratch.
    pub builds: u64,
    /// Layer lookups served from a layer compiled by an earlier (or a
    /// concurrent) lookup.
    pub hits: u64,
}

/// A slot filled by the first lookup of its key; later lookups of the
/// same key wait on it rather than compiling again.
type Slot = Arc<OnceLock<Arc<DictLayer>>>;

/// A bounded, single-flight cache of compiled dictionary layers.
#[derive(Debug, Default)]
pub struct DictCache {
    slots: Mutex<HashMap<(Half, String), Slot>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

impl DictCache {
    /// Fetch (or compile and memoize) the two layers for `truth`.
    pub fn compiled(&self, truth: &GroundTruth) -> CompiledDictionary {
        CompiledDictionary {
            account: self.layer(truth, Half::Account),
            device: self.layer(truth, Half::Device),
        }
    }

    /// Fetch (or compile and memoize) one layer.
    // lint:allow(T1) cache keying: the canonical JSON of the half stays in-process as a map key; nothing leaves
    fn layer(&self, truth: &GroundTruth, half: Half) -> Arc<DictLayer> {
        let key = (half, appvsweb_json::encode(&truth.half(half)));
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
        // layers at once, and a multi-ms build must not serialize them.
        // Only lookups of this same key wait on the slot. A build that
        // panics leaves the slot empty for the next lookup.
        let mut built = false;
        let layer = slot.get_or_init(|| {
            built = true;
            Arc::new(DictLayer::build(truth, half))
        });
        let counter = if built { &self.builds } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(layer)
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
pub fn compiled(truth: &GroundTruth) -> CompiledDictionary {
    shared().compiled(truth)
}

/// The process-wide cache's build/hit counters.
pub fn stats() -> CacheStats {
    shared().stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_layers(a: &CompiledDictionary, b: &CompiledDictionary) -> bool {
        Arc::ptr_eq(&a.account, &b.account) && Arc::ptr_eq(&a.device, &b.device)
    }

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
        assert!(same_layers(&a, &b), "equal truths must share both layers");
        assert_eq!(cache.stats(), CacheStats { builds: 2, hits: 2 });
    }

    #[test]
    fn identities_on_one_device_share_the_device_layer() {
        let device = |truth: GroundTruth| {
            truth.with_device(
                "iPhone 5",
                &[("idfa", "AAAABBBB-CCCC-DDDD-EEEE-FFFF00001111")],
                Some((42.35, -71.06)),
            )
        };
        let cache = DictCache::default();
        let a = cache.compiled(&device(GroundTruth::synthetic(1)));
        let b = cache.compiled(&device(GroundTruth::synthetic(2)));
        assert!(Arc::ptr_eq(&a.device, &b.device));
        assert!(!Arc::ptr_eq(&a.account, &b.account));
        assert_eq!(cache.stats(), CacheStats { builds: 3, hits: 1 });
    }

    #[test]
    fn racing_lookups_share_one_build() {
        let truth = GroundTruth::synthetic(0x51F1);
        let cache = DictCache::default();
        let start = std::sync::Barrier::new(8);
        let dicts: Vec<CompiledDictionary> = std::thread::scope(|s| {
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
        assert!(dicts.iter().all(|d| same_layers(d, &dicts[0])));
        assert_eq!(
            cache.stats(),
            CacheStats {
                builds: 2,
                hits: 14
            }
        );
    }

    #[test]
    fn distinct_truths_get_distinct_dictionaries() {
        let a = compiled(&GroundTruth::synthetic(1));
        let b = compiled(&GroundTruth::synthetic(2));
        assert!(!Arc::ptr_eq(&a.account, &b.account));
        assert_ne!(
            a.candidate_count(),
            0,
            "compiled dictionary must be populated"
        );
        assert_ne!(b.variants().count(), 0);
    }

    #[test]
    fn halves_with_equal_content_are_keyed_apart() {
        // An identity with every field empty has an account half and a
        // device half with the same JSON; the layers still differ (the
        // account layer carries digests of the empty values).
        let cache = DictCache::default();
        let dict = cache.compiled(&GroundTruth::default());
        assert!(!Arc::ptr_eq(&dict.account, &dict.device));
        assert!(dict.device.variants.is_empty());
        assert!(!dict.account.variants.is_empty());
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
        assert!(cached.variants().eq(fresh.variants()));
        assert_eq!(cached.candidate_count(), fresh.candidate_count());
        // Same scan behaviour on a representative flow, and the same as
        // a whole-identity matcher.
        let flow = format!("GET /t?email={}&ll=42.35,-71.06 HTTP/1.1", truth.email);
        let view = FlowView::new(&flow);
        assert_eq!(cached.scan(&view), fresh.scan(&view));
        assert_eq!(
            cached.scan(&view),
            GroundTruthMatcher::new(&truth).scan(&flow)
        );
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
            assert_eq!(
                dict.variants().cloned().collect::<Vec<_>>(),
                separate(truth)
            );
            assert_eq!(
                dict.candidate_count(),
                GroundTruthMatcher::new(truth).candidate_count()
            );
        }
    }
}
