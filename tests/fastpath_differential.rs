//! Differential reference-oracle suite for the hot-path rewrites.
//!
//! Every fast path introduced by the 5× optimization pass keeps its
//! pre-optimization twin, compiled into every build; this suite drives
//! both sides with generated inputs and asserts equality. The laws:
//!
//! * arithmetic wire lengths equal real serialized lengths, byte-exact
//!   (the MITM `bytes=` journal events are pinned by trace goldens)
//! * a run body `Body::repeat(byte, len, content_type)` is
//!   indistinguishable from its eager twin (`len` owned bytes): equal
//!   length, wire length, serialized bytes, truncation, chunk-cutting,
//!   partial-flow verdict and `Body` JSON text; and a cell run on the
//!   descriptor world captures the same `Trace` JSON as on the eager
//!   reference world, under arbitrary fault plans
//! * `Url::query_value(key)` finds what the first matching pair of
//!   `query_pairs()` holds, on encoded, repeated, empty and `=`-less
//!   pairs
//! * the zero-copy parsers agree with the eager-copy reference parsers
//!   on well-formed and malformed bytes alike, errors included
//! * the pre-filtered adblock engine returns the same [`Decision`] as
//!   the exhaustive linear reference walk, and the n-gram pre-filter
//!   never drops a matching rule (zero false negatives)
//! * pooled buffers come back scrubbed and the pool counters conserve
//! * batched RNG draws consume streams identically to sequential draws
//! * the compiled-dictionary cache returns matchers equivalent to a
//!   fresh build
//! * one-pass detection (account and device dictionary layers, one
//!   [`FlowView`] per flow, compiled ReCon inference) builds exactly the
//!   [`DetectorReport`] of the whole-identity reference pipeline, on
//!   generated flows (base64 blobs, percent and form encoding, uppercase
//!   hex, short keyed values, uppercased values for verification) and on
//!   every unique flow of the quick campaign; the layered dictionary
//!   scans like a whole-identity build even when an account value
//!   equals a device value; compiled ReCon inference predicts what the
//!   `BTreeSet` inference predicts for every generated text to every
//!   domain (domain models, their general fallbacks, the general model)
//! * the compact Aho–Corasick layout (byte classes, dense rows at the
//!   root and its children, sparse states below) finds exactly what the
//!   dense 256-column layout finds, in the same order, on arbitrary
//!   bytes and on digest-shaped dictionaries whose haystacks walk deep
//!   chains and their failure links
//! * the interned ReCon trainer encodes byte-identically to the
//!   `BTreeSet<String>` reference trainer, on tie-heavy generated
//!   corpora and on the real paper training corpus
//! * population ingestion through the compiled ingest plan builds
//!   JSON-identical aggregates to the string-keyed reference ingest, on
//!   the real quick study, on generated studies (missing cells,
//!   zero-session uses, UniqueId churn, an empty universe), and with
//!   more leak organizations than the top-k sketches hold

use appvsweb::adblock::filter::{parse_line, ParsedLine};
use appvsweb::adblock::prefilter::Prefilter;
use appvsweb::adblock::{engine, FilterEngine, RequestInfo};
use appvsweb::analysis::leaks::TypeAggregate;
use appvsweb::analysis::population::DEFAULT_TOPK_CAPACITY;
use appvsweb::analysis::{CellAnalysis, PopulationAggregate, Study};
use appvsweb::core::study::{recon_training_corpus, run_study, StudyConfig};
use appvsweb::core::Testbed;
use appvsweb::httpsim::message::reference::repeat_eager;
use appvsweb::httpsim::wire::{self, reference};
use appvsweb::httpsim::{
    codec, compress, cookie, degrade, Body, CookieJar, Request, Response, SetCookie, StatusCode,
    Url,
};
use appvsweb::netsim::{pool, FaultCounts, Os, SimDuration};
use appvsweb::pii::aho::{AhoCorasick, Match};
use appvsweb::pii::detector::ReferenceDetector;
use appvsweb::pii::encode::search_chains;
use appvsweb::pii::recon::{
    DecisionTree, ReconTrainer, TrainingFlow, TreeConfig, MIN_DOMAIN_FLOWS,
};
use appvsweb::pii::tokenize::token_set;
use appvsweb::pii::{
    cache, CombinedDetector, CompiledDictionary, DetectorReport, FlowView, GroundTruth,
    GroundTruthMatcher, PiiType,
};
use appvsweb::population::campaign::{ingest_users, reference::ingest_users_reference, IngestPlan};
use appvsweb::population::UserModel;
use appvsweb::services::{cell_label, Catalog, Medium, ServiceCategory, SessionConfig};
use appvsweb_testkit::fixtures::{fault_plans, quick_study_config};
use appvsweb_testkit::{check_with, gen, prop_test, Gen, PropConfig, SimRng};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

// ---------------------------------------------------------- generators

/// Arbitrary-but-plausible HTTP requests: mixed methods, query pairs,
/// extra headers, and form/json/binary bodies.
fn requests() -> impl Gen<Value = Request> {
    gen::from_fn(|rng: &mut SimRng| {
        let host = ["api.example.com", "t.tracker.net", "x.y.co.uk"][rng.below(3) as usize];
        let path = ["/", "/v1/login", "/pixel", "/a/b/c"][rng.below(4) as usize];
        let url = Url::parse(&format!("https://{host}{path}?q={}", rng.below(1000))).unwrap();
        let mut req = match rng.below(3) {
            0 => Request::get(url),
            1 => Request::post(url, Body::form(&[("user", "jane"), ("id", "42")])),
            _ => Request::post(url, Body::json(r#"{"k":"v"}"#)),
        };
        if rng.chance(0.5) {
            req = req.with_user_agent("ExampleApp/3.2 (Android 4.4)");
        }
        if rng.chance(0.3) {
            req.headers.append("X-Extra", "1");
        }
        req
    })
}

/// Arbitrary responses, chunked and plain, across body-size boundaries
/// of the 1024-byte chunk framing.
fn responses() -> impl Gen<Value = Response> {
    gen::from_fn(|rng: &mut SimRng| {
        let mut resp = Response::new(StatusCode(
            [200u16, 204, 302, 404, 500][rng.below(5) as usize],
        ));
        let body_len = [0usize, 1, 37, 1023, 1024, 1025, 4096][rng.below(7) as usize];
        if body_len > 0 {
            resp.body = Body::binary(vec![b'x'; body_len], "application/octet-stream");
            resp.headers.set("Content-Type", "application/octet-stream");
        }
        if rng.chance(0.5) {
            resp.headers.set("Transfer-Encoding", "chunked");
        } else if body_len > 0 {
            resp.headers.set("Content-Length", body_len.to_string());
        }
        resp
    })
}

/// Query strings built from pairs with encoded (`%74`, `+`, `%2B`),
/// empty, repeated and `=`-less keys, each with a key to look up.
fn query_cases() -> impl Gen<Value = (Option<String>, String)> {
    gen::from_fn(|rng: &mut SimRng| {
        const KEYS: [&str; 8] = ["rtb", "sync", "r%74b", "rt+b", "r%2Bb", "", "x", "%zz"];
        const VALUES: [&str; 6] = ["3", "a%20b", "a+b", "", "%zz", "7=8"];
        let pairs: Vec<String> = (0..rng.below(6))
            .map(|_| {
                let key = KEYS[rng.below(KEYS.len() as u64) as usize];
                match rng.below(4) {
                    0 => key.to_string(),
                    _ => format!("{key}={}", VALUES[rng.below(VALUES.len() as u64) as usize]),
                }
            })
            .collect();
        let query = rng.chance(0.9).then(|| pairs.join("&"));
        let probe = ["rtb", "sync", "rt b", "r+b", "", "x", "%zz", "zz"][rng.below(8) as usize];
        (query, probe.to_string())
    })
}

/// Text over what the form encoders treat differently: safe bytes,
/// spaces, `%` (and a literal `%20`), `+`, reserved ASCII and
/// multi-byte code points.
fn encoder_texts() -> impl Gen<Value = String> {
    gen::from_fn(|rng: &mut SimRng| {
        const PIECES: [&str; 16] = [
            "a",
            "Z",
            "0",
            "-_.~*",
            " ",
            "  ",
            "%",
            "%20",
            "+",
            "&",
            "=",
            "/?#",
            "\u{e9}",
            "\u{1f600}",
            "\t",
            "x y",
        ];
        (0..rng.below(7))
            .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
            .collect()
    })
}

/// A cookie jar's life: `Set-Cookie` headers stored from origin hosts
/// (host-only and domain cookies, paths, `Secure`, replacement and
/// `Max-Age` deletion), then `(host, path, secure)` lookups.
type JarCase = (Vec<(String, String)>, Vec<(String, String, bool)>);

fn jar_cases() -> impl Gen<Value = JarCase> {
    gen::from_fn(|rng: &mut SimRng| {
        const HOSTS: [&str; 5] = [
            "example.com",
            "a.example.com",
            "b.a.example.com",
            "other.org",
            "Example.COM",
        ];
        const NAMES: [&str; 4] = ["a", "b", "sid", "_tid"];
        const DOMAINS: [&str; 4] = ["example.com", ".Example.com", "a.example.com", "other.org"];
        const PATHS: [&str; 5] = ["/", "/account", "/account/x", "/accounting", "/a/b"];
        fn pick(rng: &mut SimRng, options: &[&'static str]) -> &'static str {
            options[rng.below(options.len() as u64) as usize]
        }
        let stores = (0..1 + rng.below(8))
            .map(|_| {
                let (name, value) = (pick(rng, &NAMES), pick(rng, &["1", "v2", "", "x9"]));
                let mut header = format!("{name}={value}");
                for (attr, values) in [
                    ("Domain", &DOMAINS[..]),
                    ("Path", &PATHS[..]),
                    ("Max-Age", &["0", "-1", "60"][..]),
                ] {
                    if rng.chance(0.5) {
                        header.push_str(&format!("; {attr}={}", pick(rng, values)));
                    }
                }
                if rng.chance(0.3) {
                    header.push_str("; Secure");
                }
                (pick(rng, &HOSTS).to_string(), header)
            })
            .collect();
        let lookups = (0..1 + rng.below(6))
            .map(|_| {
                let (host, path) = (pick(rng, &HOSTS), pick(rng, &PATHS));
                (host.to_string(), path.to_string(), rng.chance(0.5))
            })
            .collect();
        (stores, lookups)
    })
}

/// Filler-body cases `(byte, len, content_type, status, framing)`:
/// lengths at the edges that matter (empty, chunk sizes, 4 KiB) and
/// arbitrary ones; framing 0 keeps `set_body`'s
/// `Content-Length`, 1 switches to chunked, 2 declares no length.
fn filler_cases() -> impl Gen<Value = (u8, usize, String, u16, u8)> {
    gen::from_fn(|rng: &mut SimRng| {
        const EDGES: [usize; 12] = [0, 1, 7, 511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097];
        let len = if rng.chance(0.5) {
            EDGES[rng.below(EDGES.len() as u64) as usize]
        } else {
            rng.below(20_000) as usize
        };
        let content_type = [
            "text/html",
            "application/json",
            "image/gif",
            "application/javascript",
            "application/octet-stream",
        ][rng.below(5) as usize];
        let status = [200u16, 404, 500][rng.below(3) as usize];
        (
            rng.below(256) as u8,
            len,
            content_type.to_string(),
            status,
            rng.below(3) as u8,
        )
    })
}

/// The run response of a filler case and its eager twin, framed alike.
fn filler_twins(case: &(u8, usize, String, u16, u8)) -> (Response, Response) {
    let (byte, len, content_type, status, framing) = case;
    let frame = |body: Body| {
        let mut resp = Response::new(StatusCode(*status));
        resp.set_body(body);
        match framing {
            1 => {
                resp.headers.remove("Content-Length");
                resp.headers.set("Transfer-Encoding", "chunked");
            }
            2 => {
                resp.headers.remove("Content-Length");
            }
            _ => {}
        }
        resp
    };
    (
        frame(Body::repeat(*byte, *len, content_type.clone())),
        frame(repeat_eager(*byte, *len, content_type.clone())),
    )
}

/// Raw message bytes: serialized requests/responses, optionally
/// corrupted with byte flips and truncation so the error paths of both
/// parser generations are exercised too.
fn wire_bytes() -> impl Gen<Value = Vec<u8>> {
    gen::from_fn(|rng: &mut SimRng| {
        let mut bytes = if rng.chance(0.5) {
            let mut fork = rng.fork("req");
            wire::serialize_request(&requests().generate(&mut fork))
        } else {
            let mut fork = rng.fork("resp");
            wire::serialize_response(&responses().generate(&mut fork))
        };
        if rng.chance(0.4) && !bytes.is_empty() {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= rng.below(255) as u8 + 1;
        }
        if rng.chance(0.3) {
            bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize);
        }
        bytes
    })
}

/// EasyList-style network rule lines assembled from real syntax parts.
fn rule_lines() -> impl Gen<Value = String> {
    gen::from_fn(|rng: &mut SimRng| {
        let core = [
            "doubleclick.net",
            "ads.example.com",
            "/adserver/",
            "/banner/*/img",
            "track",
            "a^b",
            "xy",
        ][rng.below(7) as usize];
        let mut line = String::new();
        if rng.chance(0.2) {
            line.push_str("@@");
        }
        match rng.below(3) {
            0 => line.push_str("||"),
            1 => line.push('|'),
            _ => {}
        }
        line.push_str(core);
        if rng.chance(0.4) {
            line.push('^');
        }
        if rng.chance(0.3) {
            line.push_str("$third-party");
        }
        line
    })
}

/// URLs that sometimes embed rule tokens inside longer words (the
/// "ads/ inside loads/" trap) and sometimes miss entirely.
fn probe_urls() -> impl Gen<Value = String> {
    gen::from_fn(|rng: &mut SimRng| {
        let host = [
            "ads.example.com",
            "cdn.benign.org",
            "sub.doubleclick.net",
            "preloads.example.net",
        ][rng.below(4) as usize];
        let path = [
            "/adserver/v2/banner/9/img",
            "/downloads/file.js",
            "/pixel?track=1",
            "/",
            "/a%5Eb/xyz",
        ][rng.below(5) as usize];
        format!("https://{host}{path}")
    })
}

/// Short patterns over a tiny alphabet so overlaps, shared prefixes,
/// and failure-link chains all occur within a few generated cases.
fn small_alphabet_patterns() -> impl Gen<Value = Vec<Vec<u8>>> {
    gen::from_fn(|rng: &mut SimRng| {
        let n = 1 + rng.below(6) as usize;
        (0..n)
            .map(|_| {
                let len = rng.below(5) as usize; // empty patterns allowed
                (0..len)
                    .map(|_| b"abc"[rng.below(3) as usize])
                    .collect::<Vec<u8>>()
            })
            .collect()
    })
}

/// Patterns over a few arbitrary bytes, plus a haystack that mixes
/// those bytes with arbitrary ones (0..=255): the byte-class layout's
/// shared column for bytes no pattern uses gets exercised on every
/// case, interleaved with partial and full matches.
fn byte_class_cases() -> impl Gen<Value = (Vec<Vec<u8>>, Vec<u8>)> {
    gen::from_fn(|rng: &mut SimRng| {
        let alphabet: Vec<u8> = (0..1 + rng.below(6))
            .map(|_| rng.below(256) as u8)
            .collect();
        let pick = |rng: &mut SimRng| alphabet[rng.below(alphabet.len() as u64) as usize];
        let patterns = (0..1 + rng.below(6))
            .map(|_| (0..rng.below(6)).map(|_| pick(rng)).collect())
            .collect();
        let haystack = (0..rng.below(64))
            .map(|_| {
                if rng.chance(0.5) {
                    pick(rng)
                } else {
                    rng.below(256) as u8
                }
            })
            .collect();
        (patterns, haystack)
    })
}

/// Digest-shaped dictionaries, like the byte-exact automaton of a
/// ground-truth layer: 20–130 patterns of 16–64 bytes over a hex or a
/// base64 alphabet, about half behind a few shared 1–3-byte prefixes,
/// so nearly every state is a one-edge sparse state and failure links
/// land mid-chain. The haystack strings together whole patterns,
/// pattern fragments, near-misses (a pattern prefix, then a wrong
/// byte) and stray bytes.
fn digest_cases() -> impl Gen<Value = (Vec<Vec<u8>>, Vec<u8>)> {
    const HEX: &[u8] = b"0123456789abcdef";
    const BASE64: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=";
    gen::from_fn(|rng: &mut SimRng| {
        let alphabet = if rng.chance(0.5) { HEX } else { BASE64 };
        let pick = |rng: &mut SimRng| alphabet[rng.below(alphabet.len() as u64) as usize];
        let prefixes: Vec<Vec<u8>> = (0..1 + rng.below(4))
            .map(|_| (0..1 + rng.below(3)).map(|_| pick(rng)).collect())
            .collect();
        let patterns: Vec<Vec<u8>> = (0..20 + rng.below(111))
            .map(|_| {
                let len = 16 + rng.below(49) as usize;
                let mut pat = if rng.chance(0.5) {
                    prefixes[rng.below(prefixes.len() as u64) as usize].clone()
                } else {
                    Vec::new()
                };
                while pat.len() < len {
                    pat.push(pick(rng));
                }
                pat
            })
            .collect();
        let mut haystack = Vec::new();
        for _ in 0..rng.below(24) {
            let pat = &patterns[rng.below(patterns.len() as u64) as usize];
            match rng.below(4) {
                0 => haystack.extend_from_slice(pat),
                1 => {
                    let start = rng.below(pat.len() as u64) as usize;
                    let end = start + 1 + rng.below((pat.len() - start) as u64) as usize;
                    haystack.extend_from_slice(&pat[start..end]);
                }
                2 => {
                    let cut = 1 + rng.below(pat.len() as u64 - 1) as usize;
                    haystack.extend_from_slice(&pat[..cut]);
                    let wrong = loop {
                        let b = pick(rng);
                        if b != pat[cut] {
                            break b;
                        }
                    };
                    haystack.push(wrong);
                }
                _ => {
                    for _ in 0..rng.below(8) {
                        let b = if rng.chance(0.8) {
                            pick(rng)
                        } else {
                            rng.below(256) as u8
                        };
                        haystack.push(b);
                    }
                }
            }
        }
        (patterns, haystack)
    })
}

/// Labelled ReCon corpora built to force ties in both trainers:
///
/// * a tiny token alphabet (with a case-folding collision), duplicate
///   flows, and empty texts;
/// * PII types that are all-positive, all-negative, keyed to one token,
///   or random;
/// * one domain at or above [`MIN_DOMAIN_FLOWS`], one just below it, and
///   one small;
/// * feature caps of 0 (none), below the vocabulary, and above it, with
///   depth, split-size, and gain thresholds low enough (a negative
///   `min_gain` admits zero-gain splits) that equal gains are common.
fn recon_corpora() -> impl Gen<Value = (Vec<TrainingFlow>, TreeConfig)> {
    gen::from_fn(|rng: &mut SimRng| {
        const ALPHABET: [&str; 8] = ["a", "b", "A", "email", "lat", "v1", "x-y", "z"];
        let tokens = &ALPHABET[..2 + rng.below(7) as usize];
        let sizes = [
            MIN_DOMAIN_FLOWS + rng.below(10) as usize,
            MIN_DOMAIN_FLOWS - 1,
            rng.below(4) as usize,
        ];
        let mut domains: Vec<String> = Vec::new();
        for (d, &n) in sizes.iter().enumerate() {
            domains.extend(std::iter::repeat_n(format!("d{d}.example"), n));
        }
        for i in (1..domains.len()).rev() {
            domains.swap(i, rng.below(i as u64 + 1) as usize);
        }
        // 0 = all positive, 1 = all negative, 2 = keyed to a token,
        // 3 = random.
        let modes: Vec<u64> = PiiType::ALL.iter().map(|_| rng.below(4)).collect();
        let mut flows: Vec<TrainingFlow> = Vec::new();
        for domain in domains {
            let text = if !flows.is_empty() && rng.chance(0.3) {
                flows[rng.below(flows.len() as u64) as usize].text.clone()
            } else if rng.chance(0.1) {
                String::new()
            } else {
                (0..rng.below(5))
                    .map(|_| tokens[rng.below(tokens.len() as u64) as usize])
                    .collect::<Vec<_>>()
                    .join("&")
            };
            let mut labels = BTreeSet::new();
            for (k, (&t, &mode)) in PiiType::ALL.iter().zip(&modes).enumerate() {
                let key = tokens[k % tokens.len()];
                let positive = match mode {
                    0 => true,
                    1 => false,
                    2 => text.split('&').any(|tok| tok == key),
                    _ => rng.chance(0.5),
                };
                if positive {
                    labels.insert(t);
                }
            }
            flows.push(TrainingFlow {
                domain,
                text,
                labels,
            });
        }
        let config = TreeConfig {
            max_depth: 1 + rng.below(8) as usize,
            min_samples_split: rng.below(5) as usize,
            min_gain: [1e-3, 0.0, -1.0][rng.below(3) as usize],
            max_features: [0, 1, 2, 3, 4, 6, 256][rng.below(7) as usize],
        };
        (flows, config)
    })
}

/// An identity for the detection laws: a synthetic account on a device
/// whose values sometimes repeat account values (a model named like the
/// account holder, identifiers equal to the username or the e-mail).
fn identity(rng: &mut SimRng) -> GroundTruth {
    let account = GroundTruth::synthetic(rng.below(1 << 20));
    let mut ids = vec![(
        "imei".to_string(),
        format!("35{:013}", rng.below(10_000_000_000_000)),
    )];
    if rng.chance(0.3) {
        ids.push(("ad_id".to_string(), account.username.clone()));
    }
    if rng.chance(0.2) {
        ids.push(("vendor_id".to_string(), account.email.clone()));
    }
    let model = match rng.below(3) {
        0 => "Nexus 5".to_string(),
        1 => account.first_name.clone(),
        _ => String::new(),
    };
    let gps = rng
        .chance(0.7)
        .then(|| (42.0 + rng.unit(), -71.0 - rng.unit()));
    let ids: Vec<(&str, &str)> = ids.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    account.clone().with_device(&model, &ids, gps)
}

/// One flow's text for `truth`: a query string, a cookie-and-form
/// request or a JSON body, whose values are ground-truth values under
/// random search chains (some uppercased), short values under hinting
/// keys, base64 payloads wrapping an encoded value, and strangers' values.
fn flow_text(rng: &mut SimRng, truth: &GroundTruth) -> String {
    const KEYS: &[&str] = &[
        "email", "user", "login", "lat", "lon", "ll", "zip", "gender", "g", "sex", "name", "fname",
        "phone", "tel", "pw", "password", "imei", "idfa", "adid", "device", "model", "dob", "q",
        "uid", "data", "v",
    ];
    let values = truth.values();
    let chains = search_chains();
    let value = |rng: &mut SimRng| -> String {
        let (_, v) = &values[rng.below(values.len() as u64) as usize];
        let encoded = chains[rng.below(chains.len() as u64) as usize].apply(v);
        match rng.below(8) {
            0 | 1 => encoded,
            2 => encoded.to_ascii_uppercase(),
            3 => {
                let short = [
                    truth.zip.clone(),
                    truth.gender.clone(),
                    truth.first_name.clone(),
                    truth.gps_at_precision(2).map(|g| g.0).unwrap_or_default(),
                ];
                short[rng.below(4) as usize].clone()
            }
            4 => codec::base64_encode(format!(r#"{{"k":"{encoded}","n":1}}"#).as_bytes()),
            5 => ["stranger@other.org", "Z9", "F", "02139"][rng.below(4) as usize].to_string(),
            6 => codec::percent_encode(&format!("{v}&{}", rng.below(100))),
            _ => rng.below(1 << 30).to_string(),
        }
    };
    let pairs: Vec<(&str, String)> = (0..rng.below(6))
        .map(|_| (KEYS[rng.below(KEYS.len() as u64) as usize], value(rng)))
        .collect();
    let query = pairs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("&");
    match rng.below(3) {
        0 => format!("GET /p/v2?{query} HTTP/1.1\nHost: t.example\n\n"),
        1 => format!(
            "POST /collect HTTP/1.1\nCookie: sid=1; {}={}\n\n{query}",
            KEYS[rng.below(KEYS.len() as u64) as usize],
            value(rng)
        ),
        _ => {
            let fields = pairs
                .iter()
                .map(|(k, v)| format!(r#""{k}":"{v}""#))
                .chain([format!(r#""n": {}"#, rng.below(1000))])
                .collect::<Vec<_>>()
                .join(",");
            format!("POST /batch HTTP/1.1\nContent-Type: application/json\n\n{{{fields}}}")
        }
    }
}

/// Detection cases: an identity and a few flows to two destinations,
/// one with a ReCon domain model and one on the general fallback.
fn detection_cases() -> impl Gen<Value = (GroundTruth, Vec<(String, String)>)> {
    gen::from_fn(|rng: &mut SimRng| {
        let truth = identity(rng);
        let flows = (0..8)
            .map(|_| {
                let domain = ["ads.tracker.com", "unseen.example"][rng.below(2) as usize];
                (domain.to_string(), flow_text(rng, &truth))
            })
            .collect();
        (truth, flows)
    })
}

/// A synthetic base study: `services` services, each cell present with
/// probability 3/4 (so some `(service, OS, medium)` lookups miss), with
/// random A&A and leak domains, per-type counts (zero included, and
/// UniqueId on either medium) and per-domain leaks whose domains share
/// organizations (`t3.com` and `t3.net`). `orgs` sizes the leak-domain
/// pool.
fn synthetic_study(rng: &mut SimRng, services: usize, orgs: u64) -> Study {
    let mut cells = Vec::new();
    for idx in 0..services {
        for os in [Os::Android, Os::Ios] {
            for medium in Medium::BOTH {
                if rng.chance(0.25) {
                    continue;
                }
                let domains = |rng: &mut SimRng, prefix: &str, pool: u64| -> BTreeSet<String> {
                    (0..rng.below(5))
                        .map(|_| {
                            let k = rng.below(pool);
                            let tld = ["com", "net"][rng.below(2) as usize];
                            format!("{prefix}{k}.{tld}")
                        })
                        .collect()
                };
                let mut per_type = BTreeMap::new();
                for ty in PiiType::ALL {
                    if rng.chance(0.3) {
                        per_type.insert(
                            ty,
                            TypeAggregate {
                                count: rng.below(4),
                                domains: BTreeSet::new(),
                            },
                        );
                    }
                }
                let per_domain_leaks = domains(rng, "t", orgs)
                    .into_iter()
                    .map(|d| (d, rng.below(6)))
                    .collect();
                cells.push(CellAnalysis {
                    service_id: format!("svc-{idx}"),
                    service_name: format!("Service {idx}"),
                    category: ServiceCategory::News,
                    rank: 1 + idx as u32,
                    os,
                    medium,
                    aa_domains: domains(rng, "a", 12),
                    aa_flows: rng.below(20),
                    aa_bytes: rng.below(200_000),
                    total_flows: rng.below(40),
                    leaks: Vec::new(),
                    leak_domains: domains(rng, "t", 8),
                    leaked_types: per_type.keys().copied().collect(),
                    per_type,
                    per_domain_leaks,
                    per_domain_types: BTreeMap::new(),
                    fault_counts: FaultCounts::default(),
                    retries: 0,
                });
            }
        }
    }
    Study {
        cells,
        health: Default::default(),
    }
}

/// Population-ingest cases: a synthetic study (0 services = an empty
/// universe), a campaign seed and a user range.
fn population_cases() -> impl Gen<Value = (Study, u64, Range<u64>)> {
    gen::from_fn(|rng: &mut SimRng| {
        let services = rng.below(7) as usize;
        let study = synthetic_study(rng, services, 10);
        let lo = rng.below(1_000);
        (study, rng.next_u64(), lo..lo + 1 + rng.below(150))
    })
}

/// Plan ingestion and the reference ingest over the same users.
fn both_ingests(
    study: &Study,
    seed: u64,
    users: Range<u64>,
) -> (PopulationAggregate, PopulationAggregate) {
    let plan = ingest_users(&IngestPlan::new(study), seed, users.clone());
    (plan, ingest_users_reference(study, seed, users))
}

/// A quadratic-time oracle for [`AhoCorasick::find_all`]: check every
/// (pattern, end) pair by direct suffix comparison.
/// The compact automaton over `patterns` has the dense 256-column
/// oracle's states and finds what it finds, in the same order.
fn assert_matches_dense_reference(patterns: &[Vec<u8>], haystack: &[u8]) {
    let compact = AhoCorasick::new(patterns);
    let dense = AhoCorasick::new_reference(patterns);
    assert_eq!(compact.state_count(), dense.state_count());
    assert_eq!(
        compact.find_all(haystack),
        dense.find_all(haystack),
        "find_all diverged from the dense layout over {patterns:?}"
    );
    assert_eq!(compact.present(haystack), dense.present(haystack));
}

fn naive_find_all(patterns: &[Vec<u8>], haystack: &[u8]) -> Vec<Match> {
    let mut out = Vec::new();
    for end in 1..=haystack.len() {
        for (id, pat) in patterns.iter().enumerate() {
            if !pat.is_empty() && haystack[..end].ends_with(pat) {
                out.push(Match {
                    pattern: id as u32,
                    end,
                });
            }
        }
    }
    out
}

prop_test! {
    // ------------------------------------------------ wire arithmetic

    fn request_wire_len_equals_serialized_len(req in requests()) {
        assert_eq!(wire::request_wire_len(&req), wire::serialize_request(&req).len());
        assert_eq!(req.wire_len(), wire::serialize_request(&req).len());
    }

    fn response_wire_len_equals_serialized_len(resp in responses()) {
        assert_eq!(wire::response_wire_len(&resp), wire::serialize_response(&resp).len());
        assert_eq!(resp.wire_len(), wire::serialize_response(&resp).len());
    }

    // ---------------------------------------------- descriptor bodies

    fn filler_run_is_indistinguishable_from_its_eager_twin(case in filler_cases()) {
        let (run, eager) = filler_twins(&case);
        assert_eq!(run.body.run(), Some((case.0, case.1)), "the run stays a descriptor");
        assert_eq!(eager.body.run(), None);
        assert_eq!(run.body.len(), eager.body.len());
        assert_eq!(run, eager);
        assert_eq!(wire::response_wire_len(&run), wire::response_wire_len(&eager));
        assert_eq!(wire::serialize_response(&run), wire::serialize_response(&eager));
        assert_eq!(wire::response_wire_len(&run), wire::serialize_response(&run).len());
        assert_eq!(degrade::is_partial(&run), degrade::is_partial(&eager));
        let body_json = appvsweb::json::encode(&run.body);
        assert_eq!(body_json, appvsweb::json::encode(&eager.body));
        assert_eq!(appvsweb::json::decode::<Body>(&body_json).unwrap(), run.body);

        let damages: [fn(&mut Response); 2] = [degrade::truncate, degrade::malform_chunked];
        for (i, damage) in damages.into_iter().enumerate() {
            let (mut run, mut eager) = (run.clone(), eager.clone());
            damage(&mut run);
            damage(&mut eager);
            assert_eq!(run, eager, "damage {i} diverged");
            assert_eq!(wire::serialize_response(&run), wire::serialize_response(&eager));
            assert_eq!(wire::response_wire_len(&run), wire::response_wire_len(&eager));
            assert_eq!(degrade::is_partial(&run), degrade::is_partial(&eager));
            assert_eq!(appvsweb::json::encode(&run.body), appvsweb::json::encode(&eager.body));
        }
    }

    fn query_value_finds_the_first_decoded_pair(case in query_cases()) {
        let (query, key) = case;
        let mut url = Url::parse("https://rtb.example/rtb").unwrap();
        url.query = query;
        assert_eq!(
            url.query_value(&key),
            url.query_pairs().into_iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            "query {:?}, key {key:?}",
            url.query
        );
    }

    fn response_serializer_matches_reference(resp in responses()) {
        assert_eq!(
            wire::serialize_response(&resp),
            reference::serialize_response_reference(&resp),
        );
    }

    // ------------------------------------------- one-pass encoders

    fn one_pass_encoders_match_reference(
        pairs in gen::vecs_of((encoder_texts(), encoder_texts()), 0..=5),
    ) {
        let borrowed: Vec<(&str, &str)> =
            pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        assert_eq!(
            codec::form_urlencode(&borrowed),
            codec::reference::form_urlencode_reference(&borrowed),
        );
        let mut url = Url::parse("https://t.example/pixel").unwrap();
        for (k, v) in &borrowed {
            url.push_query(k, v);
            assert_eq!(codec::percent_encode(k), codec::reference::percent_encode_reference(k));
            assert_eq!(
                codec::form_encode(v),
                codec::reference::percent_encode_reference(v).replace("%20", "+"),
            );
        }
        let expected = codec::reference::form_urlencode_reference(&borrowed);
        assert_eq!(url.query.unwrap_or_default(), expected, "push_query diverged");
    }

    fn one_pass_cookie_header_matches_reference(case in jar_cases()) {
        let (stores, lookups) = case;
        let mut jar = CookieJar::new();
        for (origin, header) in &stores {
            if let Some(set) = SetCookie::parse(header) {
                jar.store(origin, set);
            }
            for (host, path, secure) in &lookups {
                assert_eq!(
                    jar.cookie_header(host, path, *secure),
                    cookie::reference::cookie_header_reference(&jar, host, path, *secure),
                    "after storing {header:?} from {origin}, looking up {host}{path}",
                );
            }
        }
    }

    // --------------------------------------------- zero-copy parsing

    fn zero_copy_request_parse_matches_reference(bytes in wire_bytes()) {
        for secure in [false, true] {
            assert_eq!(
                wire::parse_request(&bytes, secure),
                reference::parse_request_reference(&bytes, secure),
                "request parse diverged (secure={secure})"
            );
        }
    }

    fn zero_copy_response_parse_matches_reference(bytes in wire_bytes()) {
        assert_eq!(
            wire::parse_response(&bytes),
            reference::parse_response_reference(&bytes),
            "response parse diverged"
        );
    }

    fn roundtrip_survives_both_parsers(req in requests()) {
        let bytes = wire::serialize_request(&req);
        let fast = wire::parse_request(&bytes, true).expect("fast parse");
        let slow = reference::parse_request_reference(&bytes, true).expect("reference parse");
        assert_eq!(fast, slow);
        assert_eq!(fast.url.host, req.url.host);
    }

    // ------------------------------------------------------- adblock

    fn prefiltered_engine_matches_reference_walk(
        lines in gen::vecs_of(rule_lines(), 1..=12),
        url in probe_urls(),
        third_party in gen::bools(),
    ) {
        let mut engine = FilterEngine::new();
        engine.load_list(&lines.join("\n"));
        let origin = if third_party { "origin.example.com" } else { "ads.example.com" };
        let req = RequestInfo { url: &url, origin_host: origin, resource_type: None };
        assert_eq!(
            engine.check(&req),
            engine.check_reference(&req),
            "decision diverged for {url:?} over {lines:?}"
        );
    }

    fn prefilter_never_drops_a_matching_rule(line in rule_lines(), url in probe_urls()) {
        let ParsedLine::Network(filter) = parse_line(&line) else { return; };
        let lowered = url.to_ascii_lowercase();
        let pre = Prefilter::build(std::slice::from_ref(&filter));
        if filter.pattern_matches(&lowered) {
            assert_eq!(
                pre.candidates(&lowered),
                vec![0],
                "zero-false-negative law broken: {:?} matches {lowered:?} but was pre-filtered out",
                filter.raw
            );
        }
    }

    fn bundled_engine_agrees_on_generated_probes(
        url in probe_urls(),
        third_party in gen::bools(),
    ) {
        let engine = engine::bundled_shared();
        let origin = if third_party { "somewhere-else.org" } else { "ads.example.com" };
        let req = RequestInfo { url: &url, origin_host: origin, resource_type: None };
        assert_eq!(engine.check(&req), engine.check_reference(&req));
    }

    // ------------------------------------------- automaton vs naive scan

    fn aho_walker_matches_naive_substring_scan(
        patterns in small_alphabet_patterns(),
        haystack in gen::bytes(0..=48),
    ) {
        // Constrain the haystack to the pattern alphabet so hits are
        // plentiful (arbitrary bytes would almost never match "abc"*).
        let haystack: Vec<u8> = haystack.iter().map(|b| b"abc"[(*b % 3) as usize]).collect();
        let ac = AhoCorasick::new(&patterns);
        let mut fast = ac.find_all(&haystack);
        let mut slow = naive_find_all(&patterns, &haystack);
        // The automaton reports same-end matches in output-merge order;
        // canonicalize both sides before comparing.
        fast.sort_by_key(|m| (m.end, m.pattern));
        slow.sort_by_key(|m| (m.end, m.pattern));
        assert_eq!(fast, slow, "find_all diverged from the naive oracle");

        let mut expected: Vec<u32> = slow.iter().map(|m| m.pattern).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(ac.present(&haystack), expected, "present() diverged");
    }

    fn byte_class_automaton_matches_dense_reference(case in byte_class_cases()) {
        let (patterns, haystack) = case;
        assert_matches_dense_reference(&patterns, &haystack);
    }

    fn digest_dictionary_automaton_matches_dense_reference(case in digest_cases()) {
        let (patterns, haystack) = case;
        assert_matches_dense_reference(&patterns, &haystack);
    }

    // ------------------------------------------------------ codecs

    fn pooled_compression_matches_plain(data in gen::bytes(0..=2048)) {
        let mut pooled = pool::take();
        compress::gzip_compress_into(&data, &mut pooled);
        assert_eq!(*pooled, compress::gzip_compress(&data), "compress_into diverged");
        let mut plain_out = pool::take();
        compress::gzip_decompress_into(&pooled, &mut plain_out).expect("roundtrip");
        assert_eq!(*plain_out, data, "pooled roundtrip lost bytes");
    }

    // ------------------------------------------------------- pool laws

    fn pooled_buffers_come_back_scrubbed(data in gen::bytes(1..=512)) {
        {
            let mut b = pool::take();
            b.extend_from_slice(&data);
        }
        let recycled = pool::take();
        assert!(recycled.is_empty(), "scrub-on-release law broken");
        let s = pool::stats();
        assert!(s.conserved(), "pool counters out of conservation: {s:?}");
    }

    // ------------------------------------------------------ rng batching

    fn batched_rng_draws_preserve_streams(seed in gen::u64s(0..=1 << 62), n in gen::usizes(0..=16)) {
        let mut batched = appvsweb::netsim::SimRng::new(seed);
        let mut sequential = appvsweb::netsim::SimRng::new(seed);
        let a = batched.unit_sum(n);
        let mut b = 0.0f64;
        for _ in 0..n {
            b += sequential.unit();
        }
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(batched, sequential, "unit_sum advanced the state differently");
    }

    // ------------------------------------------------------ obs reconcile

    // (see also `pool_stats_reconcile_with_journaled_takes` below — the
    // obs capture is process-global, so that law runs as a plain test.)

    // ------------------------------------------------------ ReCon training

    fn interned_recon_trainer_matches_reference(case in recon_corpora()) {
        let (flows, config) = case;
        let mut trainer = ReconTrainer::new();
        for flow in &flows {
            trainer.add(flow.clone());
        }
        assert_eq!(
            appvsweb::json::encode(&trainer.train(&config)),
            appvsweb::json::encode(&trainer.train_reference(&config)),
            "interned ensemble diverged from the reference under {config:?}"
        );
        // The single-tree entry point is the same interned path.
        let examples: Vec<(BTreeSet<String>, bool)> = flows
            .iter()
            .map(|f| {
                let tokens = token_set(&f.text).into_iter().collect();
                (tokens, f.labels.contains(&PiiType::Email))
            })
            .collect();
        assert_eq!(
            appvsweb::json::encode(&DecisionTree::train(&examples, &config)),
            appvsweb::json::encode(&DecisionTree::train_reference(&examples, &config)),
            "interned tree diverged from the reference under {config:?}"
        );
    }

    fn compiled_recon_inference_matches_reference(case in recon_corpora()) {
        let (flows, config) = case;
        let mut trainer = ReconTrainer::new();
        for flow in &flows {
            trainer.add(flow.clone());
        }
        let clf = trainer.train(&config);
        // Every text to every domain: a domain model's own types, its
        // general fallbacks, and the general model alone.
        let domains: BTreeSet<&str> = flows
            .iter()
            .map(|f| f.domain.as_str())
            .chain(["unseen.example"])
            .collect();
        for flow in &flows {
            for &domain in &domains {
                assert_eq!(
                    clf.predict(domain, &flow.text),
                    clf.predict_reference(domain, &flow.text),
                    "compiled inference diverged on {domain} {:?}",
                    flow.text
                );
            }
        }
    }

    // --------------------------------------------- compiled-dictionary cache

    fn cached_dictionary_scans_like_fresh_build(seed in gen::u64s(0..=1_000)) {
        let truth = GroundTruth::synthetic(seed);
        let cached = cache::compiled(&truth);
        let fresh = GroundTruthMatcher::new(&truth);
        for text in [
            format!("email={} extra", truth.email),
            format!("GET /x?user={}&pw={}", truth.username, truth.password),
            "nothing sensitive here".to_string(),
        ] {
            assert_eq!(
                cached.scan(&FlowView::new(&text)),
                fresh.scan(&text),
                "cached matcher diverged from fresh build on {text:?}"
            );
        }
    }

    // --------------------------------------------- one-pass detection

    fn detector_matches_reference_on_generated_flows(case in detection_cases()) {
        let (truth, flows) = case;
        for recon in [None, Some(appvsweb::pii::fuzz::classifier())] {
            let fast = CombinedDetector::new(&truth, recon.clone());
            let reference = ReferenceDetector::new(&truth, recon);
            for (domain, text) in &flows {
                assert_eq!(
                    fast.scan(domain, text),
                    reference.scan(domain, text),
                    "report diverged on {domain} {text:?}"
                );
            }
        }
    }

    fn layered_dictionary_scans_like_a_full_build(case in detection_cases()) {
        let (truth, flows) = case;
        let layered = CompiledDictionary::build(&truth);
        let full = GroundTruthMatcher::new(&truth);
        for (_, text) in &flows {
            let expected = full.scan_reference(text);
            assert_eq!(layered.scan(&FlowView::new(text)), expected, "layers diverged on {text:?}");
            assert_eq!(full.scan(text), expected, "one-pass scan diverged on {text:?}");
        }
    }

    // --------------------------------------------- population ingest plan

    fn plan_ingest_matches_reference_ingest(case in population_cases()) {
        let (study, seed, users) = case;
        let (plan, reference) = both_ingests(&study, seed, users.clone());
        assert_eq!(
            appvsweb::json::encode(&plan),
            appvsweb::json::encode(&reference),
            "plan ingest diverged from the reference over users {users:?}"
        );
    }
}

/// The journaled `pool.takes` counter and the process-wide [`pool::stats`]
/// ledger must reconcile: every take performed inside a captured cell
/// scope lands in that cell's journal exactly once, and the stats ledger
/// covers it (other test threads may take concurrently, so the ledger
/// delta is a lower bound while the journal count — recorded through a
/// thread-local scope — is exact).
#[test]
fn pool_stats_reconcile_with_journaled_takes() {
    let before = pool::stats();
    appvsweb::obs::capture_begin();
    {
        let _cell = appvsweb::obs::cell_scope("pool/reconcile");
        for _ in 0..5 {
            let mut b = pool::take();
            b.extend_from_slice(b"scratch");
        }
        drop(pool::take_with_capacity(128));
    }
    let journal = appvsweb::obs::capture_end();
    let after = pool::stats();

    assert_eq!(
        journal.counter_total("pool.takes"),
        6,
        "journal must record exactly the takes made in-scope"
    );
    let cell = journal.cell("pool/reconcile").expect("cell journal");
    assert_eq!(cell.counter("pool.takes"), 6);
    assert!(
        after.takes - before.takes >= 6,
        "stats ledger must cover the journaled takes: {before:?} -> {after:?}"
    );
    assert!(
        after.conserved(),
        "pool counters out of conservation: {after:?}"
    );
}

/// The paper's own training corpus (1 simulated minute, two seeds)
/// trains byte-identical classifiers on the interned and reference
/// paths.
#[test]
fn interned_recon_trainer_matches_reference_on_the_paper_corpus() {
    let catalog = Catalog::paper();
    for seed in [2016, 77] {
        let cfg = StudyConfig {
            seed,
            duration: SimDuration::from_mins(1),
            ..StudyConfig::default()
        };
        let corpus = recon_training_corpus(&catalog, &cfg);
        assert!(corpus.len() > 1000, "seed {seed}: {} flows", corpus.len());
        let config = TreeConfig::default();
        assert_eq!(
            appvsweb::json::encode(&corpus.train(&config)),
            appvsweb::json::encode(&corpus.train_reference(&config)),
            "seed {seed}: interned classifier diverged from the reference"
        );
    }
}

/// The generated detection cases reach every stage of the pipeline:
/// base64 payloads, percent and form encodings, uppercase digests,
/// short values found only by key, ReCon predictions verified by value
/// alone and predictions rejected, and identities whose device repeats
/// an account value.
#[test]
fn detection_cases_reach_every_detection_path() {
    let cases = detection_cases();
    let recon = appvsweb::pii::fuzz::classifier();
    let mut rng = SimRng::new(2016);
    let mut encodings = BTreeSet::new();
    let (mut keyed_short, mut recon_only, mut rejected, mut overlap) = (false, false, false, false);
    for _ in 0..64 {
        let (truth, flows) = cases.generate(&mut rng);
        let account: BTreeSet<String> = truth
            .half_values(appvsweb::pii::Half::Account)
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        overlap |= truth
            .half_values(appvsweb::pii::Half::Device)
            .iter()
            .any(|(_, v)| account.contains(v));
        let detector = CombinedDetector::new(&truth, Some(recon.clone()));
        for (domain, text) in &flows {
            let report = detector.scan(domain, text);
            rejected |= !report.rejected_predictions.is_empty();
            for detection in &report.detections {
                recon_only |= detection.source == appvsweb::pii::detector::Source::Recon;
                for f in &detection.findings {
                    encodings.insert(f.encoding.clone());
                    keyed_short |= f.key.is_some() && f.value.len() < 6;
                }
            }
        }
    }
    assert!(
        keyed_short && recon_only && rejected && overlap,
        "keyed_short={keyed_short} recon_only={recon_only} rejected={rejected} overlap={overlap}"
    );
    for encoding in [
        "base64(payload)",
        "percent",
        "formpercent",
        "uppercase",
        "hex",
    ] {
        assert!(
            encodings.contains(encoding),
            "no {encoding} finding in {encodings:?}"
        );
    }
}

/// A quick-config cell captures the same `Trace` JSON on the
/// descriptor world (run bodies) as on the eager reference world
/// (owned filler bytes), under arbitrary fault plans: truncation,
/// chunk-cutting, 5xx substitution and retries see the same content
/// either way.
#[test]
fn descriptor_world_matches_the_eager_world_under_fault_plans() {
    let catalog = Catalog::paper();
    let cfg = quick_study_config();
    let mut cells = Vec::new();
    for os in [Os::Android, Os::Ios] {
        for spec in catalog.testable_on(os) {
            for medium in Medium::BOTH {
                cells.push((spec, os, medium));
            }
        }
    }
    let runs_seen = std::cell::Cell::new(0usize);
    check_with(
        &PropConfig {
            cases: 8,
            ..PropConfig::default()
        },
        "descriptor_world_matches_the_eager_world",
        &(fault_plans(), gen::usizes(0..=cells.len() - 1)),
        |case| {
            let (plan, pick) = case.clone();
            let (spec, os, medium) = cells[pick];
            let session = SessionConfig {
                duration: cfg.duration,
                seed: cfg.seed,
                faults: plan,
                ..SessionConfig::default()
            };
            let capture = |eager: bool| {
                let mut tb = Testbed::for_cell(spec, os, cfg.seed);
                if eager {
                    tb.world.set_filler(repeat_eager);
                }
                let trace = tb.run_session(spec, os, medium, &session);
                let runs = trace
                    .transactions
                    .iter()
                    .filter(|t| t.response.body.run().is_some())
                    .count();
                (appvsweb::json::encode(&trace), runs)
            };
            let (descriptor, runs) = capture(false);
            let (eager, eager_runs) = capture(true);
            assert_eq!(eager_runs, 0, "the reference world builds owned bytes");
            runs_seen.set(runs_seen.get() + runs);
            assert!(
                descriptor == eager,
                "{}: Trace JSON diverged",
                cell_label(spec.id, os, medium)
            );
        },
    );
    assert!(
        runs_seen.get() > 0,
        "the descriptor world serves run bodies"
    );
}

/// Every unique flow of the seed-2016 quick campaign, scanned with the
/// ReCon ensemble trained on that campaign's corpus, yields the same
/// report on the one-pass and reference pipelines.
#[test]
fn detector_matches_reference_on_every_quick_campaign_flow() {
    let catalog = Catalog::paper();
    let cfg = quick_study_config();
    assert_eq!(cfg.seed, 2016);
    let recon = appvsweb::core::study::train_recon(&catalog, &cfg);
    let session = appvsweb::services::SessionConfig {
        duration: cfg.duration,
        seed: cfg.seed,
        ..Default::default()
    };
    let (mut flows, mut detected) = (0, 0);
    for os in [Os::Android, Os::Ios] {
        for spec in catalog.testable_on(os) {
            let mut seen = BTreeSet::new();
            let mut texts = Vec::new();
            for medium in Medium::BOTH {
                let mut tb = appvsweb::core::Testbed::for_cell(spec, os, cfg.seed);
                let trace = tb.run_session(spec, os, medium, &session);
                for txn in &trace.transactions {
                    let text = appvsweb::analysis::leaks::scan_text_of(&txn.request);
                    let domain = appvsweb::httpsim::Host::new(&txn.host).registrable_domain();
                    if seen.insert((domain.clone(), text.clone())) {
                        texts.push((domain, text));
                    }
                }
            }
            let truth = appvsweb::core::Testbed::for_cell(spec, os, cfg.seed).truth;
            let fast = CombinedDetector::new(&truth, Some(recon.clone()));
            let reference = ReferenceDetector::new(&truth, Some(recon.clone()));
            for (domain, text) in &texts {
                let report: DetectorReport = fast.scan(domain, text);
                assert_eq!(
                    report,
                    reference.scan(domain, text),
                    "{}/{os:?}: report diverged on {domain} {text:?}",
                    spec.id
                );
                detected += usize::from(report.any());
            }
            flows += texts.len();
        }
    }
    assert!(
        flows > 10_000 && detected > 1_000,
        "{flows} flows, {detected} with PII"
    );
}

/// The generated population cases reach every input shape the plan
/// law is meant to cover: missing cells, zero-session uses, each
/// UniqueId churn of 1–3, and an empty universe.
#[test]
fn population_cases_cover_the_ingest_edge_cases() {
    let cases = population_cases();
    let mut rng = SimRng::new(2016);
    let (mut missing, mut zero_sessions, mut empty) = (false, false, false);
    let mut churn = BTreeSet::new();
    for _ in 0..64 {
        let (study, seed, users) = cases.generate(&mut rng);
        let services: BTreeSet<&str> = study.cells.iter().map(|c| c.service_id.as_str()).collect();
        missing |= study.cells.len() < services.len() * 4;
        let plan = IngestPlan::new(&study);
        empty |= plan.universe().android.is_empty() && plan.universe().ios.is_empty();
        for user in users {
            let model = UserModel::generate(seed, user, plan.universe());
            churn.insert(model.device_generations);
            zero_sessions |= model
                .services
                .iter()
                .any(|s| s.app_sessions == 0 || s.web_sessions == 0);
        }
    }
    assert!(
        missing && zero_sessions && empty,
        "missing={missing} zero={zero_sessions} empty={empty}"
    );
    assert_eq!(churn, BTreeSet::from([1, 2, 3]));
}

/// The real quick study: 2,000 users ingest JSON-identically.
#[test]
fn plan_ingest_matches_reference_on_the_quick_study() {
    let study = run_study(&quick_study_config());
    let (plan, reference) = both_ingests(&study, 2016, 0..2_000);
    assert!(plan.is_exact());
    assert_eq!(
        appvsweb::json::encode(&plan),
        appvsweb::json::encode(&reference)
    );
}

/// More distinct leak organizations than the top-k sketches hold: both
/// sketches evict, and because the plan keeps the reference's exact
/// `add` sequence the evicted states still agree byte for byte.
#[test]
fn plan_ingest_matches_reference_when_top_k_evicts() {
    let mut rng = SimRng::new(7);
    let mut study = synthetic_study(&mut rng, 5, 1);
    // Give every cell 100 leak domains, each its own organization.
    for (c, cell) in study.cells.iter_mut().enumerate() {
        cell.per_domain_leaks = (0..100)
            .map(|k| (format!("org{c}x{k}.com"), 1 + rng.below(5)))
            .collect();
    }
    let orgs: BTreeSet<&str> = study
        .cells
        .iter()
        .flat_map(|c| c.per_domain_leaks.keys().map(String::as_str))
        .collect();
    assert!(
        orgs.len() > DEFAULT_TOPK_CAPACITY as usize,
        "{} orgs",
        orgs.len()
    );
    let (plan, reference) = both_ingests(&study, 11, 0..60);
    assert!(!plan.is_exact(), "the sketches must evict");
    assert_eq!(
        appvsweb::json::encode(&plan),
        appvsweb::json::encode(&reference)
    );
}
