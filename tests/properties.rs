//! Property-based tests on core data structures and invariants across
//! the workspace, running on the in-repo `appvsweb-testkit` harness:
//! fixed-seed SplitMix64 case generation with greedy shrinking, so every
//! run on every machine sees the same cases.

use appvsweb::adblock::FilterEngine;
use appvsweb::analysis::stats::{jaccard, Cdf, Pdf};
use appvsweb::httpsim::codec;
use appvsweb::httpsim::{wire, Body, Method, Request, Url};
use appvsweb::pii::encode::Encoding;
use appvsweb::pii::{hash, GroundTruth, GroundTruthMatcher};
use appvsweb::services::session::RetryPolicy;
use appvsweb_testkit::fixtures::{hosts, paths};
use appvsweb_testkit::{gen, prop_test, SimRng};
use std::collections::BTreeSet;

/// Generator of arbitrary (but sane) retry policies, edge cases included:
/// zero base delay, a cap below the base, no jitter, no budget.
fn retry_policies() -> impl appvsweb_testkit::Gen<Value = RetryPolicy> {
    gen::from_fn(|rng: &mut SimRng| RetryPolicy {
        max_attempts: rng.range(1, 6) as u32,
        base_delay_ms: rng.below(1_001),
        max_delay_ms: rng.below(8_001),
        jitter: (rng.below(501) as f64) / 1_000.0,
        session_budget: rng.below(65) as u32,
    })
}

prop_test! {
    // ---------------- codecs ----------------

    fn percent_roundtrip(s in gen::printable_strings(0..=64)) {
        assert_eq!(codec::percent_decode(&codec::percent_encode(&s)), s);
    }

    fn base64_roundtrip(data in gen::bytes(0..=256)) {
        let enc = codec::base64_encode(&data);
        assert_eq!(codec::base64_decode(&enc).unwrap(), data.clone());
        let url = codec::base64url_encode(&data);
        assert_eq!(codec::base64_decode(&url).unwrap(), data);
    }

    fn hex_roundtrip(data in gen::bytes(0..=128)) {
        assert_eq!(codec::hex_decode(&codec::hex_encode(&data)).unwrap(), data);
    }

    fn form_roundtrip(
        pairs in gen::vecs_of(
            (gen::lowercase_strings(1..=8), gen::printable_strings(0..=24)),
            0..=8,
        )
    ) {
        let borrowed: Vec<(&str, &str)> =
            pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let encoded = codec::form_urlencode(&borrowed);
        let decoded = codec::form_urldecode(&encoded);
        assert_eq!(decoded, pairs);
    }

    // ---------------- hashes ----------------

    fn hashes_are_deterministic_and_sized(data in gen::bytes(0..=512)) {
        assert_eq!(hash::md5(&data), hash::md5(&data));
        assert_eq!(hash::sha1(&data), hash::sha1(&data));
        assert_eq!(hash::sha256(&data), hash::sha256(&data));
        assert_eq!(hash::md5_hex(&data).len(), 32);
        assert_eq!(hash::sha1_hex(&data).len(), 40);
        assert_eq!(hash::sha256_hex(&data).len(), 64);
    }

    fn hash_avalanche(data in gen::bytes(1..=128), idx in gen::usizes(0..=127)) {
        let mut flipped = data.clone();
        let i = idx % flipped.len();
        flipped[i] ^= 1;
        assert_ne!(hash::sha256(&data), hash::sha256(&flipped));
    }

    // ---------------- encodings ----------------

    fn rot13_is_involutive(s in gen::printable_strings(0..=64)) {
        assert_eq!(Encoding::Rot13.apply(&Encoding::Rot13.apply(&s)), s);
    }

    fn case_encodings_are_idempotent(s in gen::printable_strings(0..=64)) {
        let lower = Encoding::Lowercase.apply(&s);
        assert_eq!(Encoding::Lowercase.apply(&lower), lower.clone());
        let upper = Encoding::Uppercase.apply(&s);
        assert_eq!(Encoding::Uppercase.apply(&upper), upper);
    }

    // ---------------- URLs & wire ----------------

    fn url_display_parse_roundtrip(
        host in hosts(),
        path in paths(),
        key in gen::lowercase_strings(1..=6),
        value in gen::alnum_strings(0..=12),
    ) {
        let path = if path.is_empty() { "/".to_string() } else { path };
        let mut url = Url::new(appvsweb::httpsim::url::Scheme::Https, &host, path);
        url.push_query(&key, &value);
        let reparsed = Url::parse(&url.to_string()).unwrap();
        assert_eq!(reparsed, url);
    }

    fn wire_request_roundtrip(
        host in hosts(),
        body in gen::bytes(0..=128),
        secure in gen::bools(),
    ) {
        let scheme = if secure {
            appvsweb::httpsim::url::Scheme::Https
        } else {
            appvsweb::httpsim::url::Scheme::Http
        };
        let url = Url::new(scheme, &host, "/x");
        let mut req = Request::new(Method::Post, url);
        req.set_body(Body::binary(body, "application/octet-stream"));
        let bytes = wire::serialize_request(&req);
        let parsed = wire::parse_request(&bytes, secure).unwrap();
        assert_eq!(parsed.body.bytes(), req.body.bytes());
        assert_eq!(parsed.url.host.as_str(), host.as_str());
        assert_eq!(parsed.url.is_plaintext(), !secure);
    }

    fn chunked_roundtrip(body in gen::bytes(0..=2048), chunk in gen::usizes(1..=512)) {
        let framed = wire::chunk_body(&body, chunk);
        assert_eq!(wire::dechunk_body(&framed).unwrap(), body);
    }

    // ---------------- stats ----------------

    fn cdf_is_monotone_and_bounded(samples in gen::vecs_of(gen::i64s(-1000..=999), 1..=64)) {
        let cdf = Cdf::new(samples.iter().map(|v| *v as f64).collect());
        let pts = cdf.points();
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((pts.last().unwrap().1 - 100.0).abs() < 1e-9);
        assert!(cdf.at(f64::MAX) == 1.0);
        assert!(cdf.at(-1e18) == 0.0);
    }

    fn pdf_mass_sums_to_100(samples in gen::vecs_of(gen::i64s(-50..=49), 1..=64)) {
        let pdf = Pdf::new(&samples);
        let total: f64 = pdf.bins.iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    fn jaccard_bounds_and_symmetry(
        a in gen::btree_sets_of(gen::u8s(0..=31), 0..=16),
        b in gen::btree_sets_of(gen::u8s(0..=31), 0..=16),
    ) {
        let j = jaccard(&a, &b);
        assert!((0.0..=1.0).contains(&j));
        assert_eq!(j, jaccard(&b, &a));
        if !a.is_empty() {
            assert_eq!(jaccard(&a, &a), 1.0);
        }
        let empty: BTreeSet<u8> = BTreeSet::new();
        assert_eq!(jaccard(&a, &empty), 0.0);
    }

    // ---------------- adblock ----------------

    fn host_anchor_matches_all_subdomains(
        domain in gen::lowercase_strings(3..=10),
        tld in gen::one_of(&["com", "net", "io"]),
        sub in gen::lowercase_strings(1..=8),
        path in gen::alnum_strings(0..=10),
    ) {
        let domain = format!("{domain}.{tld}");
        let mut engine = FilterEngine::new();
        engine.load_list(&format!("||{domain}^\n"));
        let bare = format!("https://{domain}/{path}");
        let with_sub = format!("https://{sub}.{domain}/{path}");
        let lookalike = format!("https://{domain}x.org/{path}");
        assert!(engine.is_ad_or_tracking(&bare, "origin.example"));
        assert!(engine.is_ad_or_tracking(&with_sub, "origin.example"));
        // A lookalike domain with a suffix must not match.
        assert!(!engine.is_ad_or_tracking(&lookalike, "origin.example"));
    }

    // ---------------- matcher ----------------

    fn matcher_finds_email_under_any_single_encoding(seed in gen::u64s(0..=499)) {
        let truth = GroundTruth::synthetic(seed);
        let matcher = GroundTruthMatcher::new(&truth);
        for enc in [
            Encoding::Plain,
            Encoding::Percent,
            Encoding::Base64,
            Encoding::Hex,
            Encoding::Md5,
        ] {
            let wire_form = enc.apply(&truth.email);
            let findings = matcher.scan(&format!("POST /t key={wire_form}"));
            assert!(
                findings.iter().any(|f| f.pii_type == appvsweb::pii::PiiType::Email),
                "encoding {enc:?} missed for seed {seed}"
            );
        }
    }

    fn matcher_never_fires_on_foreign_identity(seed in gen::u64s(0..=199)) {
        // PII from a DIFFERENT account must not match this matcher
        // (the controlled-experiment premise: we only detect OUR values).
        let ours = GroundTruth::synthetic(seed);
        let theirs = GroundTruth::synthetic(seed + 100_000);
        if ours.email == theirs.email {
            return;
        }
        let matcher = GroundTruthMatcher::new(&ours);
        let text = format!(
            "email={}&phone={}&name={}",
            theirs.email, theirs.phone, theirs.first_name
        );
        let hits: Vec<_> = matcher
            .scan(&text)
            .into_iter()
            // Gender is a one-letter flag shared by half of all accounts;
            // exclude it from the foreign-identity check.
            .filter(|f| f.pii_type != appvsweb::pii::PiiType::Gender)
            .filter(|f| f.pii_type != appvsweb::pii::PiiType::Name || text.contains(&f.value))
            .collect();
        for f in &hits {
            // Any remaining hit must be a genuine substring collision
            // (e.g. same first name drawn from the small name pool).
            assert!(
                text.to_ascii_lowercase().contains(&f.value.to_ascii_lowercase()),
                "spurious finding {f:?}"
            );
        }
    }

    // ---------------- retry policy ----------------

    fn backoff_is_monotone_up_to_the_cap(policy in retry_policies()) {
        // With jitter stripped, successive backoffs never shrink and
        // never exceed the per-delay ceiling.
        let flat = RetryPolicy { jitter: 0.0, ..policy.clone() };
        let mut rng = SimRng::new(0).fork("props-retry-flat");
        let mut prev = 0u64;
        for attempt in 0..20 {
            let delay = flat.backoff_ms(attempt, &mut rng);
            assert!(delay <= flat.max_delay_ms, "delay {delay} above cap");
            assert!(delay >= prev, "backoff shrank: {prev} -> {delay}");
            prev = delay;
        }
    }

    fn jitter_stays_within_its_band(policy in retry_policies(), seed in gen::u64s(0..=999)) {
        // Jittered delays land in [base, base * (1 + jitter)], where base
        // is the deterministic capped-doubling floor.
        let mut rng = SimRng::new(seed).fork("props-retry-jitter");
        for attempt in 0..12 {
            let base = policy
                .base_delay_ms
                .saturating_mul(1u64 << attempt.min(16))
                .min(policy.max_delay_ms);
            let delay = policy.backoff_ms(attempt, &mut rng);
            assert!(delay >= base, "jitter may only add delay");
            assert!(
                delay <= base + (base as f64 * policy.jitter) as u64,
                "delay {delay} beyond the jitter band of base {base}"
            );
        }
    }

    fn backoff_without_jitter_never_draws_from_the_stream(policy in retry_policies()) {
        // The golden-path guarantee behind FaultPlan::none() determinism:
        // a jitter-free policy must not consume RNG state.
        let flat = RetryPolicy { jitter: 0.0, ..policy.clone() };
        let mut a = SimRng::new(7).fork("props-retry-stream");
        let mut b = SimRng::new(7).fork("props-retry-stream");
        for attempt in 0..8 {
            let _ = flat.backoff_ms(attempt, &mut a);
        }
        assert_eq!(a.next_u64(), b.next_u64(), "stream advanced without jitter");
    }

    // ---------------- compression & totality ----------------

    fn deflate_inflate_roundtrip(data in gen::bytes(0..=4096)) {
        use appvsweb::httpsim::compress::{deflate, inflate};
        assert_eq!(inflate(&deflate(&data)).unwrap(), data);
    }

    fn gzip_roundtrip_prop(data in gen::bytes(0..=2048)) {
        use appvsweb::httpsim::compress::{gzip_compress, gzip_decompress};
        assert_eq!(gzip_decompress(&gzip_compress(&data)).unwrap(), data);
    }

    fn inflate_never_panics_on_garbage(data in gen::bytes(0..=512)) {
        // Totality: arbitrary bytes must yield Ok or Err, never a panic.
        let _ = appvsweb::httpsim::compress::inflate(&data);
        let _ = appvsweb::httpsim::compress::gzip_decompress(&data);
    }

    fn wire_parser_never_panics(data in gen::bytes(0..=512)) {
        let _ = wire::parse_request(&data, true);
        let _ = wire::parse_request(&data, false);
        let _ = wire::parse_response(&data);
    }

    fn adblock_parser_never_panics(line in gen::printable_strings(0..=80)) {
        let _ = appvsweb::adblock::filter::parse_line(&line);
    }

    fn url_parser_never_panics(s in gen::printable_strings(0..=120)) {
        let _ = Url::parse(&s);
        let _ = Url::parse(&format!("https://{s}"));
    }

    // ---------------- analyzer totality ----------------

    fn analyze_trace_is_total_on_adversarial_transactions(
        host in hosts(),
        path in gen::printable_strings(0..=36),
        body in gen::bytes(0..=512),
        plaintext in gen::bools(),
        gzip_header in gen::bools(),
    ) {
        // Arbitrary transaction content must never panic the analyzer,
        // and its accounting must stay internally consistent.
        use appvsweb::adblock::Categorizer;
        use appvsweb::analysis::analyze_trace;
        use appvsweb::mitm::{HttpTransaction, Trace};
        use appvsweb::netsim::{ConnectionStats, Os, SimTime};
        use appvsweb::pii::CombinedDetector;
        use appvsweb::services::{Catalog, Medium};

        let scheme = if plaintext { "http" } else { "https" };
        let clean_path: String = path
            .chars()
            .filter(|c| !c.is_whitespace() && *c != '#' && *c != '?')
            .collect();
        let url = match Url::parse(&format!("{scheme}://{host}/{clean_path}")) {
            Ok(u) => u,
            Err(_) => return,
        };
        let mut req = Request::new(Method::Post, url);
        req.set_body(Body::binary(body, "application/octet-stream"));
        if gzip_header {
            // A gzip header over NON-gzip bytes: the inflating scanner
            // must fall back gracefully.
            req.headers.set("Content-Encoding", "gzip");
        }
        let mut trace = Trace::new();
        trace.connections.push(appvsweb::mitm::ConnectionRecord {
            id: 1,
            host: host.clone(),
            port: if plaintext { 80 } else { 443 },
            tls: !plaintext,
            decrypted: true,
            opaque_reason: None,
            opened_at: SimTime(0),
            closed_at: None,
            stats: ConnectionStats::default(),
            busy_ms: 0,
            transactions: 1,
            error: None,
        });
        trace.transactions.push(HttpTransaction {
            connection_id: 1,
            host: host.clone(),
            plaintext,
            at: SimTime(0),
            request: req,
            response: appvsweb::httpsim::Response::ok(Body::text("ok")),
            partial: false,
        });

        let catalog = Catalog::paper();
        let spec = catalog.get("yelp").unwrap();
        let truth = GroundTruth::synthetic(1);
        let detector = CombinedDetector::new(&truth, None);
        let categorizer = Categorizer::bundled(spec.first_party);
        let cell = analyze_trace(&trace, spec, Os::Android, Medium::App, &detector, &categorizer);
        assert!(cell.aa_flows <= cell.total_flows);
        assert!(cell.leak_domains.len() >= usize::from(!cell.leaks.is_empty()));
        for t in &cell.leaked_types {
            assert!(cell.per_type.contains_key(t));
        }
    }
}
