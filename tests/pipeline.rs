//! Cross-crate integration tests for the measurement pipeline itself:
//! methodology invariants (§3.1–3.2) that hold regardless of catalog
//! calibration.

use appvsweb::adblock::Categorizer;
use appvsweb::analysis::analyze_trace;
use appvsweb::core::study::{run_cell, StudyConfig};
use appvsweb::core::Testbed;
use appvsweb::netsim::Os;
use appvsweb::pii::{CombinedDetector, PiiType};
use appvsweb::services::catalog::Exclusion;
use appvsweb::services::{Catalog, Medium, SessionConfig};
use appvsweb_testkit::fixtures::quick_study_config;

fn quick() -> StudyConfig {
    quick_study_config()
}

#[test]
fn selection_criteria_exclusions_are_enforced_by_the_pipeline() {
    // Criterion (4): pinned services cannot be measured. Run Facebook's
    // app through the testbed and verify the pipeline yields nothing
    // analyzable — the mechanical reason the paper excluded it.
    let catalog = Catalog::paper();
    let fb = catalog.get("facebook-app").unwrap();
    assert_eq!(fb.excluded, Some(Exclusion::CertificatePinning));

    let mut tb = Testbed::for_cell(fb, Os::Android, 2016);
    let trace = tb.run_session(fb, Os::Android, Medium::App, &SessionConfig::default());
    let first_party: Vec<_> = trace
        .connections
        .iter()
        .filter(|c| c.host.contains("facebook.com"))
        .collect();
    assert!(!first_party.is_empty(), "connections are attempted");
    assert!(
        first_party.iter().all(|c| !c.decrypted),
        "pinning defeats interception on every first-party flow"
    );

    let detector = CombinedDetector::new(&tb.truth, None);
    let categorizer = Categorizer::bundled(fb.first_party);
    let cell = analyze_trace(
        &trace,
        fb,
        Os::Android,
        Medium::App,
        &detector,
        &categorizer,
    );
    assert!(
        !cell.leak_domains.iter().any(|d| d.contains("facebook.com")),
        "no PII can be observed on pinned first-party flows"
    );
}

#[test]
fn credentials_to_first_party_are_not_leaks() {
    // Yelp requires login; its email+password go to yelp.com over HTTPS.
    // Under §3.2's rule these are NOT leaks — but they are real traffic.
    let catalog = Catalog::paper();
    let spec = catalog.get("yelp").unwrap();
    let mut tb = Testbed::for_cell(spec, Os::Ios, 2016);
    let trace = tb.run_session(spec, Os::Ios, Medium::App, &SessionConfig::default());

    // The password really is on the wire to the first party (in its
    // form-urlencoded representation)…
    let wire_pw = appvsweb::pii::encode::Encoding::FormPercent.apply(&tb.truth.password);
    let has_pw_on_wire = trace.transactions.iter().any(|t| {
        t.host.contains("yelp.com")
            && String::from_utf8_lossy(&t.request_bytes()).contains(&wire_pw)
    });
    assert!(
        has_pw_on_wire,
        "login credentials do travel to the first party"
    );

    // …yet the leak classifier must not count them.
    let detector = CombinedDetector::new(&tb.truth, None);
    let categorizer = Categorizer::bundled(spec.first_party);
    let cell = analyze_trace(&trace, spec, Os::Ios, Medium::App, &detector, &categorizer);
    assert!(
        !cell.leaked_types.contains(&PiiType::Password),
        "first-party HTTPS credentials are exempt by rule"
    );
    assert!(
        !cell.leaked_types.contains(&PiiType::Username),
        "usernames to the first party are exempt too"
    );
}

#[test]
fn plaintext_transmissions_always_count() {
    // Accuweather's plaintext API puts coordinates on the wire over HTTP;
    // rule (1) makes that a leak even to the first party.
    let cell = run_cell(
        Catalog::paper().get("accuweather").unwrap(),
        Os::Android,
        Medium::App,
        &quick(),
        None,
    );
    let plaintext_location = cell
        .leaks
        .iter()
        .any(|l| l.pii_type == PiiType::Location && l.plaintext);
    assert!(
        plaintext_location,
        "plaintext first-party location must be a leak"
    );
}

#[test]
fn background_os_traffic_never_reaches_analysis() {
    let catalog = Catalog::paper();
    for os in [Os::Android, Os::Ios] {
        let spec = catalog.get("streamflix").unwrap();
        let cell = run_cell(spec, os, Medium::App, &quick(), None);
        // No Google Play Services / iCloud domains anywhere in results.
        for domain in cell.aa_domains.iter().chain(cell.leak_domains.iter()) {
            assert!(
                !domain.contains("googleapis")
                    && !domain.contains("icloud")
                    && !domain.contains("apple.com"),
                "{os}: background host {domain} leaked into analysis"
            );
        }
    }
}

#[test]
fn full_determinism_across_runs() {
    let catalog = Catalog::paper();
    let spec = catalog.get("grubhub").unwrap();
    let a = run_cell(spec, Os::Android, Medium::Web, &quick(), None);
    let b = run_cell(spec, Os::Android, Medium::Web, &quick(), None);
    assert_eq!(a.aa_flows, b.aa_flows);
    assert_eq!(a.aa_bytes, b.aa_bytes);
    assert_eq!(a.leaked_types, b.leaked_types);
    assert_eq!(a.leaks.len(), b.leaks.len());
    assert_eq!(a.per_domain_leaks, b.per_domain_leaks);
}

#[test]
fn different_seeds_produce_different_accounts_same_shapes() {
    let catalog = Catalog::paper();
    let spec = catalog.get("chatterbox").unwrap();
    let cfg_a = quick();
    let cfg_b = StudyConfig {
        seed: 777,
        ..quick()
    };
    let a = run_cell(spec, Os::Ios, Medium::App, &cfg_a, None);
    let b = run_cell(spec, Os::Ios, Medium::App, &cfg_b, None);
    // Structural outcome is seed-independent…
    assert_eq!(a.leaked_types, b.leaked_types);
    assert_eq!(a.aa_domains, b.aa_domains);
    // …while the underlying identities differ.
    let ta = Testbed::for_cell(spec, Os::Ios, cfg_a.seed);
    let tb = Testbed::for_cell(spec, Os::Ios, cfg_b.seed);
    assert_ne!(ta.truth.email, tb.truth.email);
}

#[test]
fn recon_improves_or_matches_matcher_only() {
    // The combined pipeline can only add verified detections on top of
    // the matcher; it must never lose any.
    let catalog = Catalog::paper();
    let cfg_with = StudyConfig {
        use_recon: true,
        ..quick()
    };
    let recon = appvsweb::core::study::train_recon(&catalog, &cfg_with);
    let spec = catalog.get("weather-channel").unwrap();
    let base = run_cell(spec, Os::Android, Medium::App, &quick(), None);
    let with = run_cell(spec, Os::Android, Medium::App, &cfg_with, Some(&recon));
    assert!(
        with.leaked_types.is_superset(&base.leaked_types),
        "combined detection must cover matcher-only results"
    );
}

#[test]
fn dataset_export_roundtrips_a_real_cell() {
    let catalog = Catalog::paper();
    let spec = catalog.get("priceline").unwrap();
    let cell = run_cell(spec, Os::Ios, Medium::Web, &quick(), None);
    let study = appvsweb::analysis::Study {
        cells: vec![cell],
        health: Default::default(),
    };
    let json = appvsweb::core::dataset::to_json(&study);
    let parsed = appvsweb::core::dataset::from_json(&json).unwrap();
    assert_eq!(parsed.cells[0].leaks, study.cells[0].leaks);
    assert_eq!(parsed.cells[0].per_type, study.cells[0].per_type);
}

#[test]
fn web_never_accesses_device_identifiers() {
    // The paper's structural invariant, end to end: across every web
    // session of several services, no UID or device model ever leaks.
    let catalog = Catalog::paper();
    for id in [
        "weather-channel",
        "bbc-news",
        "priceline",
        "chatterbox",
        "study-pal",
    ] {
        let spec = catalog.get(id).unwrap();
        for os in [Os::Android, Os::Ios] {
            let cell = run_cell(spec, os, Medium::Web, &quick(), None);
            assert!(
                !cell.leaked_types.contains(&PiiType::UniqueId),
                "{id}/{os}: web leaked a device UID"
            );
            assert!(
                !cell.leaked_types.contains(&PiiType::DeviceInfo),
                "{id}/{os}: web leaked the device model"
            );
        }
    }
}

#[test]
fn gzip_bodied_request_carrying_the_account_email_is_detected_through_scan_text_of() {
    use appvsweb::analysis::leaks::scan_text_of;
    use appvsweb::httpsim::{compress, wire, Body, Request, Url};
    // A batch upload shaped like the session's SDK beacons: a JSON body,
    // gzipped, carrying the cell's account e-mail.
    let catalog = Catalog::paper();
    let spec = catalog.get("weather-channel").unwrap();
    let tb = Testbed::for_cell(spec, Os::Android, 2016);
    let payload = format!(
        r#"{{"events":[{{"user":{{"email":"{}"}}}}]}}"#,
        tb.truth.email
    );
    let url = Url::parse("https://data.flurry.com/aap.do").unwrap();
    let mut request = Request::post(
        url,
        Body::binary(
            compress::gzip_compress(payload.as_bytes()),
            "application/json",
        ),
    );
    request.headers.set("Content-Encoding", "gzip");

    // The wire bytes hide the address…
    let raw = String::from_utf8_lossy(&wire::serialize_request(&request)).into_owned();
    assert!(!raw.contains(&tb.truth.email), "e-mail visible compressed");
    // …and the scan text inflates the body, so detection finds it.
    let text = scan_text_of(&request);
    assert!(text.contains(&tb.truth.email));
    let report = CombinedDetector::new(&tb.truth, None).scan("flurry.com", &text);
    assert!(
        report.types().contains(&PiiType::Email),
        "e-mail in a gzip body must be detected: {report:?}"
    );
}

#[test]
fn gzipped_sdk_uploads_are_inflated_before_detection() {
    // Flurry's SDK gzips its batch uploads (Content-Encoding: gzip).
    // The raw wire bytes do NOT contain the identifiers; only after the
    // proxy inflates the body can the detector see them — exactly the
    // mitmproxy behaviour the methodology depends on.
    let catalog = Catalog::paper();
    let spec = catalog.get("weather-channel").unwrap(); // embeds flurry
    let mut tb = Testbed::for_cell(spec, Os::Android, 2016);
    let trace = tb.run_session(spec, Os::Android, Medium::App, &SessionConfig::default());

    let flurry: Vec<_> = trace
        .transactions
        .iter()
        .filter(|t| t.host.contains("flurry"))
        .collect();
    assert!(!flurry.is_empty(), "flurry beacons expected");
    let gzipped = flurry
        .iter()
        .find(|t| t.request.headers.get("Content-Encoding") == Some("gzip"))
        .expect("flurry uploads must be gzip-encoded");

    // Raw bytes are opaque…
    let ad_id = &tb
        .truth
        .device_ids
        .iter()
        .find(|(k, _)| k == "ad_id")
        .unwrap()
        .1;
    let raw = String::from_utf8_lossy(&gzipped.request_bytes()).into_owned();
    assert!(
        !raw.contains(ad_id.as_str()),
        "identifier must not be visible compressed"
    );

    // …while the inflating scanner sees the identifier.
    let text = appvsweb::analysis::leaks::scan_text_of(&gzipped.request);
    let matcher = appvsweb::pii::GroundTruthMatcher::new(&tb.truth);
    // Not every heartbeat carries PII (flurry sends it every 8th beacon);
    // scan all flurry transactions through the inflating path.
    let found_uid = flurry.iter().any(|t| {
        matcher
            .types_in(&appvsweb::analysis::leaks::scan_text_of(&t.request))
            .contains(&PiiType::UniqueId)
    });
    assert!(found_uid, "UID must be detectable through gzip");
    let _ = text;
}
