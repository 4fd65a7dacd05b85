//! N-gram pre-filter in front of the EasyList walk.
//!
//! Production ad-blocker engines (uBlock Origin, Brave's adblock-rust)
//! never test a request against every filter: they dispatch through a
//! hash of short substrings so each request touches a handful of
//! candidate rules. This module is that dispatch layer, built in-repo
//! per the zero-dependency policy.
//!
//! ## Construction
//!
//! Every filter pattern is split into its maximal *literal runs* — the
//! chunks between `*` wildcards and `^` separator classes. If a filter
//! matches a URL, **every** literal run appears verbatim somewhere in
//! the (lowercased) URL: `*` and `^` each consume URL bytes without
//! rewriting any, and a `^` that matches end-of-URL can only be
//! followed by more `^`/`*`, never by a literal. The longest run is
//! therefore a guaranteed witness substring.
//!
//! Each filter with a run of at least [`GRAM`] bytes is indexed in a
//! token-hash bucket under one 4-gram of that run; shorter-patterned
//! filters go to an `always` list that is checked for every request.
//!
//! ## Query
//!
//! A URL probes the occupancy bitmap with **all** rolling 4-gram
//! windows of its bytes (not just token boundaries — a pattern gram
//! like `ads/` must be found even inside `loads/`). Bucket hits gather
//! candidate filter indices, which are then sorted so the engine
//! verifies them in load order (EasyList reports the *first* matching
//! rule, and `Decision` carries its text).
//!
//! ## Zero false negatives, by construction
//!
//! If filter *f* matches URL *u*: *f*'s indexed gram is a substring of
//! a literal run of *f*, every literal run is a substring of *u*, and
//! the query probes every 4-byte window of *u* — so the probe set
//! contains *f*'s gram, the bucket is occupied, and *f* is in the
//! candidate list. Filters with no 4-byte run are in `always` and are
//! candidates unconditionally. The differential suite
//! (`tests/fastpath_differential.rs`) property-tests this law against
//! the retained linear reference walk.

use crate::filter::Filter;

/// Gram width indexed per filter and probed per URL window.
pub const GRAM: usize = 4;

/// The bucket dispatch structure for one filter list (blocking or
/// exception rules).
#[derive(Clone, Debug, Default)]
pub struct Prefilter {
    /// `32 - log2(bucket count)`; buckets are a power of two.
    shift: u32,
    /// One occupancy bit per bucket — the "bloom" front that rejects
    /// almost every window without touching the shard arrays.
    occupied: Vec<u64>,
    /// CSR offsets into `entries`, one slot per bucket plus a sentinel.
    offsets: Vec<u32>,
    /// Filter indices, grouped by bucket.
    entries: Vec<u32>,
    /// Filters with no 4-byte literal run: always candidates.
    always: Vec<u32>,
}

/// The 4-gram a filter is indexed under: the first [`GRAM`] bytes of
/// the longest literal run of its pattern, or `None` when every run is
/// shorter than a gram.
fn index_gram(f: &Filter) -> Option<[u8; GRAM]> {
    let longest = f
        .pattern
        .as_bytes()
        .split(|&b| b == b'*' || b == b'^')
        .max_by_key(|run| run.len())?;
    longest.get(..GRAM)?.try_into().ok()
}

/// Callers always pass exactly [`GRAM`] bytes (`windows(GRAM)` or an
/// indexed gram); the fallback keeps a hypothetical short slice from
/// panicking.
fn hash_gram(gram: &[u8]) -> u32 {
    let gram: [u8; GRAM] = gram.try_into().unwrap_or([0; GRAM]);
    u32::from_le_bytes(gram).wrapping_mul(0x9E37_79B1)
}

impl Prefilter {
    /// Build the dispatch index over `filters` (indices refer into that
    /// slice, in order).
    pub fn build(filters: &[Filter]) -> Self {
        // ~4 buckets per rule keeps shards near-singleton for real
        // lists; minimum keeps tiny/fuzzed lists from degenerating.
        let buckets = (filters.len() * 4).next_power_of_two().max(64);
        let shift = 32 - buckets.trailing_zeros();
        let mut always = Vec::new();
        let mut grams = Vec::with_capacity(filters.len());
        let mut counts = vec![0u32; buckets];
        for (i, f) in filters.iter().enumerate() {
            match index_gram(f) {
                Some(g) => {
                    let bucket = (hash_gram(&g) >> shift) as usize;
                    counts[bucket] += 1;
                    grams.push((bucket, i as u32));
                }
                None => always.push(i as u32),
            }
        }
        let mut offsets = vec![0u32; buckets + 1];
        for b in 0..buckets {
            offsets[b + 1] = offsets[b] + counts[b];
        }
        let mut cursor = offsets.clone();
        let mut entries = vec![0u32; grams.len()];
        let mut occupied = vec![0u64; buckets.div_ceil(64)];
        for (bucket, idx) in grams {
            entries[cursor[bucket] as usize] = idx;
            cursor[bucket] += 1;
            occupied[bucket / 64] |= 1 << (bucket % 64);
        }
        Prefilter {
            shift,
            occupied,
            offsets,
            entries,
            always,
        }
    }

    /// Candidate filter indices for `url` (must already be lowercase),
    /// sorted ascending so callers preserve first-match-in-load-order
    /// semantics. Guaranteed to be a superset of the filters that match.
    pub fn candidates(&self, url: &str) -> Vec<u32> {
        let mut out = self.always.clone();
        let bytes = url.as_bytes();
        let mut last_bucket = usize::MAX;
        for w in bytes.windows(GRAM) {
            let bucket = (hash_gram(w) >> self.shift) as usize;
            if bucket == last_bucket {
                continue; // runs of repeated bytes hash to one bucket
            }
            last_bucket = bucket;
            if self.occupied[bucket / 64] & (1 << (bucket % 64)) != 0 {
                appvsweb_cover::cover!();
                let lo = self.offsets[bucket] as usize;
                let hi = self.offsets[bucket + 1] as usize;
                out.extend_from_slice(&self.entries[lo..hi]);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{parse_line, ParsedLine};

    fn filters(lines: &[&str]) -> Vec<Filter> {
        lines
            .iter()
            .filter_map(|l| match parse_line(l) {
                ParsedLine::Network(f) => Some(f),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn indexed_gram_comes_from_longest_run() {
        let fs = filters(&["||doubleclick.net^", "/ad^*/pixel-tracker", "a*b"]);
        assert_eq!(index_gram(&fs[0]), Some(*b"doub"));
        // Runs: "/ad", "/pixel-tracker" — longest wins.
        assert_eq!(index_gram(&fs[1]), Some(*b"/pix"));
        // No run reaches 4 bytes.
        assert_eq!(index_gram(&fs[2]), None);
    }

    #[test]
    fn matching_filters_are_always_candidates() {
        let lines = [
            "||doubleclick.net^",
            "/adserver/*/banner",
            "ad_pixel",
            "a*b",
            "|https://ads.",
            "swf|",
        ];
        let fs = filters(&lines);
        let pre = Prefilter::build(&fs);
        let urls = [
            "https://ads.g.doubleclick.net/pixel?x=1",
            "https://x.com/adserver/v2/banner.png",
            "http://y.net/ad_pixel?id=1",
            "https://ab.example/movie.swf",
            "https://ads.example.com/",
        ];
        for url in urls {
            let cands = pre.candidates(url);
            for (i, f) in fs.iter().enumerate() {
                if f.pattern_matches(url) {
                    assert!(
                        cands.contains(&(i as u32)),
                        "filter {:?} matches {url} but was pre-filtered out",
                        f.raw
                    );
                }
            }
        }
    }

    #[test]
    fn gram_inside_a_longer_token_is_still_found() {
        // "ads/" appears inside "loads/" — rolling windows must catch
        // it even though it is not an alnum-token boundary.
        let fs = filters(&["ads/"]);
        let pre = Prefilter::build(&fs);
        assert!(fs[0].pattern_matches("https://x.com/loads/banner"));
        assert_eq!(pre.candidates("https://x.com/loads/banner"), vec![0]);
    }

    #[test]
    fn candidates_are_sorted_for_first_match_order() {
        let fs = filters(&["zzz-tracker", "aaa-tracker", "-tracker"]);
        let pre = Prefilter::build(&fs);
        let cands = pre.candidates("https://x.com/zzz-tracker/aaa-tracker");
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        assert_eq!(cands, sorted);
    }

    #[test]
    fn short_patterns_land_in_always() {
        let fs = filters(&["ab^", "x*y", "||t.co^"]);
        let pre = Prefilter::build(&fs);
        assert_eq!(pre.always.len(), 2);
        // A URL with no indexable window still surfaces them.
        let cands = pre.candidates("ab");
        assert!(cands.contains(&0));
        assert!(cands.contains(&1));
    }

    #[test]
    fn empty_list_yields_no_candidates() {
        let pre = Prefilter::build(&[]);
        assert!(pre.candidates("https://anything.example/x").is_empty());
    }
}
