//! Micro-benches for the substrate layers: codecs, hashes, wire parsing,
//! the EasyList matcher, the decision-tree learner (one toy tree and the
//! whole ReCon ensemble on the paper training corpus), and the
//! ground-truth scanner. These are the components whose costs dominate
//! a study run. Two rows measure detection at paper scale: compiling the
//! dictionaries of all 98 paper identities through a fresh cache (50
//! account layers and 2 device layers), and scanning every unique flow
//! of the 1-minute paper grid with the combined detector.

use appvsweb_adblock::FilterEngine;
use appvsweb_analysis::leaks::scan_text_of;
use appvsweb_bench::repo_root;
use appvsweb_core::study::train_recon;
use appvsweb_core::study::{recon_training_corpus, StudyConfig};
use appvsweb_core::Testbed;
use appvsweb_httpsim::Host;
use appvsweb_httpsim::{codec, wire, Body, Request, Url};
use appvsweb_netsim::Os;
use appvsweb_netsim::SimDuration;
use appvsweb_pii::cache::DictCache;
use appvsweb_pii::recon::{DecisionTree, TreeConfig};
use appvsweb_pii::{hash, CombinedDetector, GroundTruth, GroundTruthMatcher};
use appvsweb_services::{Catalog, Medium, SessionConfig};
use appvsweb_testkit::BenchRunner;
use std::collections::BTreeSet;

fn bench_codecs(runner: &mut BenchRunner) {
    let text = "jane.conner.4821@testmail.example lat=42.361145 lon=-71.057083";
    runner.bench("percent_encode", || codec::percent_encode(text));
    let data = vec![0xABu8; 1024];
    runner.bench("base64_encode_1k", || codec::base64_encode(&data));
    let encoded = codec::base64_encode(&data);
    runner.bench("base64_decode_1k", || codec::base64_decode(&encoded));
}

fn bench_hashes(runner: &mut BenchRunner) {
    let email = b"jane.conner.4821@testmail.example";
    runner.bench("md5_email", || hash::md5(email));
    runner.bench("sha1_email", || hash::sha1(email));
    runner.bench("sha256_email", || hash::sha256(email));
    let blob = vec![0x5Au8; 64 * 1024];
    runner.bench("sha256_64k", || hash::sha256(&blob));
}

fn bench_wire(runner: &mut BenchRunner) {
    let req = Request::post(
        Url::parse("https://api.example.com/v1/track?uid=abc&lat=42.36").unwrap(),
        Body::form(&[("email", "user@example.com"), ("ev", "init")]),
    )
    .with_user_agent("ExampleApp/4.1 (Android; Nexus 5)");
    let bytes = wire::serialize_request(&req);
    runner.bench("wire_serialize_request", || wire::serialize_request(&req));
    runner.bench("wire_parse_request", || {
        wire::parse_request(&bytes, true).unwrap()
    });
}

fn bench_adblock(runner: &mut BenchRunner) {
    let engine = FilterEngine::with_bundled_list();
    let urls = [
        "https://www.google-analytics.com/collect?v=1&tid=UA-1",
        "https://ads.g.doubleclick.net/pagead/adview?ai=xyz",
        "https://www.weather.com/today/l/02138",
        "https://cdn.static.example/app.css",
    ];
    runner.bench("adblock_check_4urls", || {
        urls.iter()
            .filter(|u| engine.is_ad_or_tracking(u, "weather.com"))
            .count()
    });
}

fn bench_matcher(runner: &mut BenchRunner) {
    let truth = GroundTruth::synthetic(2016).with_device(
        "Nexus 5",
        &[
            ("imei", "354436069633711"),
            ("ad_id", "9d2a1f6c-0b51-4ef2-a1b0-cc9e34ad8f01"),
        ],
        Some((42.361145, -71.057083)),
    );
    runner.bench("matcher_build", || GroundTruthMatcher::new(&truth));
    let matcher = GroundTruthMatcher::new(&truth);
    let clean = "GET /api/v2/content/7 HTTP/1.1\nHost: api.weather.com\nAccept: */*";
    let dirty = format!(
        "GET /pixel?gaid={}&lat=42.3611&email={} HTTP/1.1\nHost: t.example",
        truth.device_ids[1].1, truth.email
    );
    runner.bench("matcher_scan_clean_flow", || matcher.scan(clean));
    runner.bench("matcher_scan_leaky_flow", || matcher.scan(&dirty));
}

fn bench_decision_tree(runner: &mut BenchRunner) {
    let examples: Vec<(BTreeSet<String>, bool)> = (0..200)
        .map(|i| {
            let mut set: BTreeSet<String> = ["get", "http", "host", "v1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            set.insert(format!("tok{}", i % 17));
            let positive = i % 3 == 0;
            if positive {
                set.insert("email".into());
            }
            (set, positive)
        })
        .collect();
    runner.bench("decision_tree_train_200", || {
        DecisionTree::train(&examples, &TreeConfig::default())
    });
    let tree = DecisionTree::train(&examples, &TreeConfig::default());
    runner.bench("decision_tree_predict", || tree.predict(&examples[0].0));

    // The real workload: the whole ReCon ensemble over the seed-2016,
    // 1-minute paper training corpus (~1.3k flows). The corpus is
    // collected once, outside the timed closure.
    let cfg = StudyConfig {
        seed: 2016,
        duration: SimDuration::from_mins(1),
        ..StudyConfig::default()
    };
    let corpus = recon_training_corpus(&Catalog::paper(), &cfg);
    runner.bench("recon_train_paper_corpus", || {
        corpus.train(&TreeConfig::default())
    });
}

/// Detection at paper scale, seed 2016: the dictionary builds of one
/// study, and one scan of every unique flow of the 1-minute grid (each
/// cell's flows through its own identity's detector, ReCon on).
fn bench_paper_detection(runner: &mut BenchRunner) {
    let catalog = Catalog::paper();
    let cfg = StudyConfig {
        seed: 2016,
        duration: SimDuration::from_mins(1),
        ..StudyConfig::default()
    };
    let session = SessionConfig {
        duration: cfg.duration,
        seed: cfg.seed,
        ..SessionConfig::default()
    };
    let recon = train_recon(&catalog, &cfg);
    let mut truths = Vec::new();
    let mut cells: Vec<(usize, Vec<(String, String)>)> = Vec::new();
    for os in [Os::Android, Os::Ios] {
        for spec in catalog.testable_on(os) {
            truths.push(Testbed::for_cell(spec, os, cfg.seed).truth);
            for medium in Medium::BOTH {
                let mut tb = Testbed::for_cell(spec, os, cfg.seed);
                let trace = tb.run_session(spec, os, medium, &session);
                let mut seen = BTreeSet::new();
                let flows = trace
                    .transactions
                    .iter()
                    .map(|txn| (txn.host.as_str(), scan_text_of(&txn.request)))
                    .filter(|flow| seen.insert(flow.clone()))
                    .map(|(host, text)| (Host::new(host).registrable_domain(), text))
                    .collect();
                cells.push((truths.len() - 1, flows));
            }
        }
    }
    runner.bench("dictionary_build_paper_identities", || {
        let cache = DictCache::default();
        for truth in &truths {
            cache.compiled(truth);
        }
        cache.stats()
    });
    let detectors: Vec<CombinedDetector> = truths
        .iter()
        .map(|truth| CombinedDetector::new(truth, Some(recon.clone())))
        .collect();
    runner.bench("detector_scan_paper_flows", || {
        cells
            .iter()
            .flat_map(|(identity, flows)| {
                flows
                    .iter()
                    .map(|(domain, text)| detectors[*identity].scan(domain, text).detections.len())
            })
            .sum::<usize>()
    });
}

fn main() {
    let mut runner = BenchRunner::new("substrates");
    bench_codecs(&mut runner);
    bench_hashes(&mut runner);
    bench_wire(&mut runner);
    bench_adblock(&mut runner);
    bench_matcher(&mut runner);
    bench_decision_tree(&mut runner);
    bench_paper_detection(&mut runner);
    runner
        .write_json(&repo_root())
        .expect("write bench artifact");
}
