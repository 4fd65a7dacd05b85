//! Decoder-search ground-truth matching.
//!
//! Step 2 of the paper's detection procedure: "we augment [ReCon's]
//! results with PII found via direct string matching on known PII". The
//! matcher knows every ground-truth value and searches the flow for every
//! *transform* of every value:
//!
//! * all encodings/hashes in [`crate::encode::search_chains`]
//! * GPS coordinates at every precision from 2 to 6 decimals ("GPS
//!   locations are sent with arbitrary precision")
//! * short, ambiguous values (ZIP code, gender flag) only in key/value
//!   context with a type-appropriate key, to avoid false positives
//! * base64-looking blobs are decoded and re-searched (layered decoding)
//!
//! A matcher can cover a whole [`GroundTruth`] or one [`Half`] of it.
//! [`scan_layers`] scans a flow against several half matchers in one
//! pass and returns exactly what a whole-truth matcher returns: every
//! finding comes from one candidate, each candidate belongs to exactly
//! one half, and `dedup` sorts the findings, so the order layers
//! report them in never shows. `GroundTruthMatcher::scan_reference`
//! keeps the pre-[`FlowView`] scan as a differential oracle.

use crate::aho::{AhoCorasick, Walker};
use crate::encode::{search_chains, EncodingChain};
use crate::profile::{GroundTruth, Half};
use crate::tokenize::{key_hints_at, FlowView};
use crate::types::PiiType;
use appvsweb_httpsim::codec;
use std::borrow::Cow;

/// Minimum candidate length for free-text (non-keyed) matching. Anything
/// shorter only matches in key/value context.
const MIN_FREE_TEXT_LEN: usize = 6;

/// One ground-truth match in a flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PiiFinding {
    /// The PII class found.
    pub pii_type: PiiType,
    /// The ground-truth value that matched (original, un-encoded form).
    pub value: String,
    /// Which transform chain produced the on-wire form.
    pub encoding: String,
    /// The key the value appeared under, when found in k/v context.
    pub key: Option<String>,
}

#[derive(Clone, Debug)]
struct Candidate {
    pii_type: PiiType,
    original: String,
    chain_label: String,
    encoded: String,
    /// Case-sensitive search? (hashes/base64 yes, text no)
    case_sensitive: bool,
    /// Eligible for free-text search, or k/v-context only?
    free_text: bool,
    /// Searched for inside decoded base64 blobs (free-text candidates
    /// of the `plain` chain)?
    in_blobs: bool,
}

/// The ground-truth matcher for one session identity.
///
/// Construction compiles the candidate dictionary into two Aho–Corasick
/// automata (one case-insensitive for textual encodings, one byte-exact
/// for hash/base64 digests), so scanning a flow is a single pass over
/// its bytes regardless of dictionary size.
#[derive(Clone, Debug)]
pub struct GroundTruthMatcher {
    candidates: Vec<Candidate>,
    /// Case-insensitive automaton over lowercase patterns; values map
    /// back into `candidates`.
    ci_auto: AhoCorasick,
    ci_index: Vec<usize>,
    /// Byte-exact automaton for hash-like candidates.
    cs_auto: AhoCorasick,
    cs_index: Vec<usize>,
    /// Indices of k/v-context-only candidates (short values searched by
    /// key hint, not free text).
    short_index: Vec<usize>,
    /// Distinct PII types among `short_index`, for cheap per-pair
    /// hint dismissal.
    short_types: Vec<PiiType>,
}

impl GroundTruthMatcher {
    /// Precompute the search index for `truth`.
    pub fn new(truth: &GroundTruth) -> Self {
        Self::compile(truth, None, None)
    }

    /// Precompute the search index for one half of `truth` together
    /// with the lowercased form of each of its values under every
    /// search chain (the verification step's variant list), encoding
    /// each value once.
    pub(crate) fn half_with_variants(
        truth: &GroundTruth,
        half: Half,
    ) -> (Self, Vec<(PiiType, String)>) {
        let mut variants = Vec::new();
        let matcher = Self::compile(truth, Some(half), Some(&mut variants));
        (matcher, variants)
    }

    // lint:allow(T1) matcher-side index construction: encodes ground truth to SEARCH for it; nothing leaves the process
    fn compile(
        truth: &GroundTruth,
        half: Option<Half>,
        mut variants: Option<&mut Vec<(PiiType, String)>>,
    ) -> Self {
        let chains = search_chains();
        let mut candidates = Vec::new();
        let covers = |h: Half| half.is_none_or(|half| half == h);

        let mut add = |pii_type: PiiType, value: &str, chain: &EncodingChain, encoded: String| {
            if value.is_empty() || encoded.is_empty() {
                return;
            }
            let is_hashlike = chain.0.iter().any(|e| {
                e.is_hash()
                    || matches!(
                        e,
                        crate::encode::Encoding::Base64
                            | crate::encode::Encoding::Base64Url
                            | crate::encode::Encoding::Hex
                    )
            });
            let chain_label = chain.label();
            let free_text = encoded.len() >= MIN_FREE_TEXT_LEN;
            candidates.push(Candidate {
                pii_type,
                original: value.to_string(),
                in_blobs: free_text && chain_label == "plain",
                chain_label,
                free_text,
                encoded: if is_hashlike {
                    encoded
                } else {
                    encoded.to_ascii_lowercase()
                },
                case_sensitive: is_hashlike,
            });
        };

        let values = match half {
            Some(half) => truth.half_values(half),
            None => truth.values(),
        };
        for (t, v) in values {
            for chain in &chains {
                let encoded = chain.apply(&v);
                if let Some(variants) = variants.as_deref_mut() {
                    variants.push((t, encoded.to_ascii_lowercase()));
                }
                add(t, &v, chain, encoded);
            }
        }
        // GPS at every precision 2..=6 (plain + percent only; nobody
        // hashes a coordinate).
        let coord_chains: Vec<EncodingChain> = vec![
            EncodingChain(vec![crate::encode::Encoding::Plain]),
            EncodingChain(vec![crate::encode::Encoding::Percent]),
            EncodingChain(vec![crate::encode::Encoding::FormPercent]),
        ];
        let mut add_coord = |pii_type: PiiType, value: &str| {
            for chain in &coord_chains {
                add(pii_type, value, chain, chain.apply(value));
            }
        };
        for decimals in 2..=6 {
            if let Some((lat, lon)) = truth
                .gps_at_precision(decimals)
                .filter(|_| covers(Half::Device))
            {
                add_coord(PiiType::Location, &lat);
                add_coord(PiiType::Location, &lon);
                add_coord(PiiType::Location, &format!("{lat},{lon}"));
            }
        }
        // Phone number digit-only form is handled by StripSeparators in
        // the standard chains; also add the dashed form.
        if covers(Half::Account) && !truth.phone.is_empty() {
            let digits: String = truth.phone.chars().filter(|c| c.is_ascii_digit()).collect();
            if digits.len() >= 10 {
                let dashed = format!("{}-{}-{}", &digits[..3], &digits[3..6], &digits[6..]);
                add_coord(PiiType::PhoneNumber, &dashed);
            }
        }

        // Compile the free-text dictionary into automata.
        let mut ci_patterns: Vec<&str> = Vec::new();
        let mut ci_index = Vec::new();
        let mut cs_patterns: Vec<&str> = Vec::new();
        let mut cs_index = Vec::new();
        for (i, c) in candidates.iter().enumerate() {
            if !c.free_text {
                continue;
            }
            if c.case_sensitive {
                cs_patterns.push(&c.encoded);
                cs_index.push(i);
            } else {
                ci_patterns.push(&c.encoded);
                ci_index.push(i);
            }
        }
        let ci_auto = AhoCorasick::new(&ci_patterns);
        let cs_auto = AhoCorasick::new(&cs_patterns);

        // Index the k/v-context-only candidates once: the scan loop
        // walks them for every pair whose key matches a hint, and the
        // distinct type list lets a pair be dismissed with a handful of
        // hint checks instead of one per candidate.
        let short_index: Vec<usize> = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.free_text)
            .map(|(i, _)| i)
            .collect();
        let mut short_types: Vec<PiiType> = short_index
            .iter()
            .map(|&i| candidates[i].pii_type)
            .collect();
        short_types.sort();
        short_types.dedup();

        GroundTruthMatcher {
            candidates,
            ci_auto,
            ci_index,
            cs_auto,
            cs_index,
            short_index,
            short_types,
        }
    }

    /// Number of precomputed candidates (index size).
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// The compiled automata: (case-insensitive, byte-exact).
    pub fn automata(&self) -> (&AhoCorasick, &AhoCorasick) {
        (&self.ci_auto, &self.cs_auto)
    }

    /// Scan raw flow text for ground-truth PII.
    pub fn scan(&self, text: &str) -> Vec<PiiFinding> {
        scan_layers([self], &FlowView::new(text))
    }

    /// The pre-[`FlowView`] scan, kept as the differential oracle for
    /// [`scan_layers`]: it extracts owned k/v pairs, lowercases a value
    /// per pair per hit, and tests every decoded base64 blob against
    /// every plain candidate.
    pub fn scan_reference(&self, text: &str) -> Vec<PiiFinding> {
        let kv = crate::tokenize::extract_kv(text);
        let mut findings: Vec<PiiFinding> = Vec::new();

        // 1. Free-text search: both automata advance together in ONE
        // pass over the raw bytes. The case-insensitive walker folds
        // each byte on the fly, so the full lowercase copy of the flow
        // is never materialized. Hits are emitted in the same order as
        // two separate `present` passes would produce (all ci patterns
        // ascending, then all cs patterns ascending).
        let mut ci_seen = vec![false; self.ci_index.len()];
        let mut cs_seen = vec![false; self.cs_index.len()];
        let mut ci_walk = self.ci_auto.walker();
        let mut cs_walk = self.cs_auto.walker();
        for &b in text.as_bytes() {
            for &p in ci_walk.step(b.to_ascii_lowercase()) {
                ci_seen[p as usize] = true;
            }
            for &p in cs_walk.step(b) {
                cs_seen[p as usize] = true;
            }
        }
        let ci_hits = ci_seen
            .iter()
            .enumerate()
            .filter(|(_, s)| **s)
            .map(|(p, _)| self.ci_index[p]);
        let cs_hits = cs_seen
            .iter()
            .enumerate()
            .filter(|(_, s)| **s)
            .map(|(p, _)| self.cs_index[p]);
        for idx in ci_hits.chain(cs_hits) {
            let c = &self.candidates[idx];
            // Attribute a key when the value sits in a k/v pair.
            let key = kv
                .iter()
                .find(|(_, v)| {
                    if c.case_sensitive {
                        v.contains(&c.encoded)
                    } else {
                        v.to_ascii_lowercase().contains(&c.encoded)
                    }
                })
                .map(|(k, _)| k.clone());
            findings.push(PiiFinding {
                pii_type: c.pii_type,
                value: c.original.clone(),
                encoding: c.chain_label.clone(),
                key,
            });
        }

        // 2. Key-context search for short values (zip, gender, "M"/"F").
        // Pair-outer order: a pair whose key matches no short type's
        // hints (the overwhelmingly common case) is dismissed with a
        // handful of hint checks and zero allocations. Only pairs that
        // survive normalize their value — lowercase and percent-decoded
        // forms computed once per pair, not once per candidate — and
        // walk the short candidates of the matching types.
        for (k, v) in &kv {
            let hinted = |t: PiiType| t.key_hints().iter().any(|h| k == h || k.contains(h));
            if !self.short_types.iter().any(|&t| hinted(t)) {
                continue;
            }
            let v_lower = v.to_ascii_lowercase();
            let v_decoded = codec::percent_decode(v);
            let v_decoded_lower = codec::percent_decode(&v_lower);
            for &idx in &self.short_index {
                let c = &self.candidates[idx];
                if !hinted(c.pii_type) {
                    continue;
                }
                let (v_norm, v_norm_decoded) = if c.case_sensitive {
                    (v, &v_decoded)
                } else {
                    (&v_lower, &v_decoded_lower)
                };
                if *v_norm == c.encoded || *v_norm_decoded == c.encoded {
                    findings.push(PiiFinding {
                        pii_type: c.pii_type,
                        value: c.original.clone(),
                        encoding: c.chain_label.clone(),
                        key: Some(k.clone()),
                    });
                }
            }
        }

        // 3. Layered decode: base64-looking tokens are decoded and
        // re-searched for plain values.
        for token in tokenize_base64_blobs(text) {
            if let Some(decoded) = codec::base64_decode(token) {
                if let Ok(inner) = String::from_utf8(decoded) {
                    let inner_lower = inner.to_ascii_lowercase();
                    for c in self
                        .candidates
                        .iter()
                        .filter(|c| c.free_text && c.chain_label == "plain")
                    {
                        if inner_lower.contains(&c.encoded) {
                            findings.push(PiiFinding {
                                pii_type: c.pii_type,
                                value: c.original.clone(),
                                encoding: "base64(payload)".into(),
                                key: None,
                            });
                        }
                    }
                }
            }
        }

        dedup(findings)
    }

    /// The distinct PII types present in `text`.
    pub fn types_in(&self, text: &str) -> Vec<PiiType> {
        let mut types: Vec<PiiType> = self.scan(text).into_iter().map(|f| f.pii_type).collect();
        types.sort();
        types.dedup();
        types
    }
}

/// Scan one flow against the dictionary layers in `layers`, which
/// together cover one identity (a whole-truth matcher alone, or the
/// account and device halves). One byte loop advances every layer's
/// case-insensitive walker over the view's lowercased text and its
/// byte-exact walker over the raw text; the k/v and base64 passes read
/// the view's spans. Findings are those of [`GroundTruthMatcher::scan`]
/// on a whole-truth matcher, sorted and deduplicated.
pub fn scan_layers<const N: usize>(
    layers: [&GroundTruthMatcher; N],
    view: &FlowView,
) -> Vec<PiiFinding> {
    let mut findings: Vec<PiiFinding> = Vec::new();
    let finding = |c: &Candidate, encoding: &str, key: Option<&str>| PiiFinding {
        pii_type: c.pii_type,
        value: c.original.clone(),
        encoding: encoding.to_string(),
        key: key.map(str::to_string),
    };

    // 1. Free-text search. Hits are collected as candidate indices per
    // layer; a repeated hit is attributed once.
    let mut ci_walk: [Walker; N] = std::array::from_fn(|l| layers[l].ci_auto.walker());
    let mut cs_walk: [Walker; N] = std::array::from_fn(|l| layers[l].cs_auto.walker());
    let mut hits: [Vec<usize>; N] = std::array::from_fn(|_| Vec::new());
    for (&lb, &b) in view.lower().as_bytes().iter().zip(view.text().as_bytes()) {
        for l in 0..N {
            for &p in ci_walk[l].step(lb) {
                hits[l].push(layers[l].ci_index[p as usize]);
            }
            for &p in cs_walk[l].step(b) {
                hits[l].push(layers[l].cs_index[p as usize]);
            }
        }
    }
    for (layer, hits) in layers.iter().zip(&mut hits) {
        hits.sort_unstable();
        hits.dedup();
        for &idx in hits.iter() {
            let c = &layer.candidates[idx];
            // Attribute a key when the value sits in a k/v pair.
            let key = view.kv().find(|kv| {
                let v = if c.case_sensitive {
                    kv.value
                } else {
                    kv.value_lower
                };
                v.contains(&c.encoded)
            });
            findings.push(finding(c, &c.chain_label, key.map(|kv| kv.key)));
        }
    }

    // 2. Key-context search for short values (zip, gender, "M"/"F").
    // Each pair's key is tested once against each short type's hints;
    // a pair that hints at none of them (the common case) is dismissed
    // without decoding its value.
    let short_types = layers
        .iter()
        .flat_map(|layer| &layer.short_types)
        .fold(0u16, |mask, &t| mask | type_bit(t));
    for kv in view.kv() {
        let hinted = PiiType::ALL
            .into_iter()
            .filter(|&t| short_types & type_bit(t) != 0 && key_hints_at(kv.key, t))
            .fold(0u16, |mask, t| mask | type_bit(t));
        if hinted == 0 {
            continue;
        }
        let v_decoded = percent_decoded(kv.value);
        let v_decoded_lower = percent_decoded(kv.value_lower);
        for layer in layers {
            for &idx in &layer.short_index {
                let c = &layer.candidates[idx];
                if hinted & type_bit(c.pii_type) == 0 {
                    continue;
                }
                let (v_norm, v_norm_decoded) = if c.case_sensitive {
                    (kv.value, &v_decoded)
                } else {
                    (kv.value_lower, &v_decoded_lower)
                };
                if v_norm == c.encoded || *v_norm_decoded == c.encoded {
                    findings.push(finding(c, &c.chain_label, Some(kv.key)));
                }
            }
        }
    }

    // 3. Layered decode: base64-looking blobs are decoded and the
    // case-insensitive automata re-run over the lowercased payload; a
    // hit counts when it is a plain free-text candidate.
    for blob in view.blobs() {
        let Some(decoded) = codec::base64_decode(blob) else {
            continue;
        };
        if std::str::from_utf8(&decoded).is_err() {
            continue;
        }
        for layer in layers {
            let mut walk = layer.ci_auto.walker();
            let mut found: Vec<usize> = Vec::new();
            for &b in &decoded {
                for &p in walk.step(b.to_ascii_lowercase()) {
                    let idx = layer.ci_index[p as usize];
                    if layer.candidates[idx].in_blobs {
                        found.push(idx);
                    }
                }
            }
            found.sort_unstable();
            found.dedup();
            for idx in found {
                findings.push(finding(&layer.candidates[idx], "base64(payload)", None));
            }
        }
    }

    dedup(findings)
}

/// [`codec::percent_decode`] of `v`, borrowed when decoding cannot
/// change it: the decoder only rewrites `%XX` escapes and `+`.
fn percent_decoded(v: &str) -> Cow<'_, str> {
    if v.bytes().any(|b| b == b'%' || b == b'+') {
        Cow::Owned(codec::percent_decode(v))
    } else {
        Cow::Borrowed(v)
    }
}

/// Bit of `t` in a type mask.
fn type_bit(t: PiiType) -> u16 {
    1 << t as u16
}

/// Tokens that plausibly hold base64 payloads: long, base64 charset.
/// `=` is treated as a delimiter (valid base64 only carries it as
/// trailing padding, and `key=value` syntax would otherwise glue the key
/// onto the blob); the decoder accepts unpadded input.
fn tokenize_base64_blobs(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '+' | '/' | '-' | '_')))
        .filter(|t| t.len() >= 16)
}

fn dedup(mut findings: Vec<PiiFinding>) -> Vec<PiiFinding> {
    findings.sort_by(|a, b| {
        (a.pii_type, &a.value, &a.encoding, &a.key).cmp(&(
            b.pii_type,
            &b.value,
            &b.encoding,
            &b.key,
        ))
    });
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoding;

    fn truth() -> GroundTruth {
        GroundTruth::synthetic(2016).with_device(
            "Nexus 5",
            &[
                ("imei", "354436069633711"),
                ("mac", "02:00:4c:4f:4f:50"),
                ("ad_id", "9d2a1f6c-0b51-4ef2-a1b0-cc9e34ad8f01"),
            ],
            Some((42.361145, -71.057083)),
        )
    }

    fn matcher() -> GroundTruthMatcher {
        GroundTruthMatcher::new(&truth())
    }

    #[test]
    fn finds_plain_email_in_query() {
        let t = truth();
        let text = format!("GET /t?email={}&x=1 HTTP/1.1", t.email);
        let found = matcher().scan(&text);
        assert!(found.iter().any(|f| f.pii_type == PiiType::Email
            && f.encoding == "plain"
            && f.key.as_deref() == Some("email")));
    }

    #[test]
    fn finds_percent_encoded_email() {
        let t = truth();
        let enc = Encoding::Percent.apply(&t.email);
        assert!(enc.contains("%40"));
        let found = matcher().scan(&format!("login={enc}"));
        assert!(found.iter().any(|f| f.pii_type == PiiType::Email));
    }

    #[test]
    fn finds_hashed_email_gravatar_style() {
        let t = truth();
        let digest = crate::hash::md5_hex(t.email.to_ascii_lowercase().as_bytes());
        let found = matcher().scan(&format!("POST /sync uid={digest}"));
        assert!(found
            .iter()
            .any(|f| f.pii_type == PiiType::Email && f.encoding == "lowercase>md5"));
    }

    #[test]
    fn finds_imei_and_stripped_mac() {
        let found = matcher().scan("id=354436069633711&wifi=02004c4f4f50");
        let uid_hits: Vec<_> = found
            .iter()
            .filter(|f| f.pii_type == PiiType::UniqueId)
            .collect();
        assert!(uid_hits.iter().any(|f| f.value == "354436069633711"));
        assert!(uid_hits
            .iter()
            .any(|f| f.value == "02:00:4c:4f:4f:50" && f.encoding == "stripseparators"));
    }

    #[test]
    fn finds_truncated_gps() {
        let found = matcher().scan("beacon?ll=42.36,-71.06&v=2");
        assert!(found.iter().any(|f| f.pii_type == PiiType::Location));
        let found_precise = matcher().scan("lat=42.3611&lon=-71.0571");
        assert!(found_precise
            .iter()
            .any(|f| f.pii_type == PiiType::Location));
    }

    #[test]
    fn zip_requires_key_context() {
        let t = truth();
        // ZIP floating in free text must NOT match (too short/ambiguous)…
        let free = matcher().scan(&format!("trace_id={}99887", t.zip));
        assert!(!free.iter().any(|f| f.pii_type == PiiType::Location));
        // …but zip=<value> does.
        let keyed = matcher().scan(&format!("zip={}", t.zip));
        assert!(keyed.iter().any(|f| f.pii_type == PiiType::Location));
    }

    #[test]
    fn gender_requires_key_context() {
        let t = truth();
        let keyed = matcher().scan(&format!("gender={}", t.gender));
        assert!(keyed.iter().any(|f| f.pii_type == PiiType::Gender));
        let unkeyed = matcher().scan(&format!("csrf={}", t.gender));
        assert!(!unkeyed.iter().any(|f| f.pii_type == PiiType::Gender));
    }

    #[test]
    fn finds_pii_inside_base64_payload() {
        let t = truth();
        let payload = format!("{{\"user\":{{\"email\":\"{}\"}}}}", t.email);
        let blob = codec::base64_encode(payload.as_bytes());
        let found = matcher().scan(&format!("POST /batch data={blob}"));
        assert!(found
            .iter()
            .any(|f| f.pii_type == PiiType::Email && f.encoding == "base64(payload)"));
    }

    #[test]
    fn clean_flow_has_no_findings() {
        let found = matcher().scan("GET /v2/weather?city=boston&units=metric HTTP/1.1");
        assert!(found.is_empty(), "unexpected findings: {found:?}");
    }

    #[test]
    fn phone_dashed_form() {
        let t = truth();
        let digits: String = t.phone.chars().filter(|c| c.is_ascii_digit()).collect();
        let dashed = format!("{}-{}-{}", &digits[..3], &digits[3..6], &digits[6..]);
        let found = matcher().scan(&format!("tel={dashed}"));
        assert!(found.iter().any(|f| f.pii_type == PiiType::PhoneNumber));
    }

    #[test]
    fn types_in_aggregates() {
        let t = truth();
        let text = format!("email={}&lat=42.3611&adid={}", t.email, t.device_ids[2].1);
        let types = matcher().types_in(&text);
        assert!(types.contains(&PiiType::Email));
        assert!(types.contains(&PiiType::Location));
        assert!(types.contains(&PiiType::UniqueId));
    }
}

appvsweb_json::impl_json!(struct PiiFinding { pii_type, value, encoding, key });
