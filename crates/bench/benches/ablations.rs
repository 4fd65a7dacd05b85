//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! 1. **Detection arms** — matcher-only vs ReCon-only vs the paper's
//!    combined pipeline, over the same captured corpus. The paper
//!    combines them because "knowing the PII in advance is not a
//!    catch-all" (matcher misses structure-only signals) while ReCon
//!    alone produces false positives that need verification.
//! 2. **Leak rule** — with vs without the first-party-HTTPS credential
//!    exemption (how much the paper's §3.2 exemption changes counts).
//! 3. **Filter options** — the EasyList engine with vs without
//!    `$third-party` options honoured.

use appvsweb_adblock::{FilterEngine, RequestInfo};
use appvsweb_analysis::leaks::scan_text_of;
use appvsweb_bench::repo_root;
use appvsweb_core::study::{train_recon, StudyConfig};
use appvsweb_core::Testbed;
use appvsweb_httpsim::Host;
use appvsweb_netsim::{Os, SimDuration};
use appvsweb_pii::{CombinedDetector, GroundTruthMatcher};
use appvsweb_services::{Catalog, Medium, SessionConfig};
use appvsweb_testkit::BenchRunner;

/// Capture a corpus of (domain, flow-text) pairs from a few sessions.
fn corpus() -> (Vec<(String, String)>, appvsweb_pii::GroundTruth) {
    let catalog = Catalog::paper();
    let cfg = SessionConfig {
        duration: SimDuration::from_mins(1),
        ..Default::default()
    };
    let mut flows = Vec::new();
    let mut truth = None;
    for id in ["weather-channel", "grubhub", "bbc-news"] {
        let spec = catalog.get(id).unwrap();
        let mut tb = Testbed::for_cell(spec, Os::Android, 2016);
        for medium in Medium::BOTH {
            let trace = tb.run_session(spec, Os::Android, medium, &cfg);
            for txn in &trace.transactions {
                flows.push((
                    Host::new(&txn.host).registrable_domain(),
                    scan_text_of(&txn.request),
                ));
            }
        }
        truth = Some(tb.truth.clone());
    }
    (flows, truth.unwrap())
}

fn bench_detection_arms(runner: &mut BenchRunner) {
    let (flows, truth) = corpus();
    let catalog = Catalog::paper();
    let study_cfg = StudyConfig {
        duration: SimDuration::from_mins(1),
        use_recon: true,
        ..Default::default()
    };
    let recon = train_recon(&catalog, &study_cfg);
    let matcher = GroundTruthMatcher::new(&truth);
    let combined = CombinedDetector::new(&truth, Some(recon.clone()));
    let matcher_only = CombinedDetector::new(&truth, None);

    // Report what each arm finds, once.
    let count =
        |f: &dyn Fn(&str, &str) -> usize| -> usize { flows.iter().map(|(d, t)| f(d, t)).sum() };
    let n_matcher = count(&|_d, t| matcher.types_in(t).len());
    let n_recon = count(&|d, t| recon.predict(d, t).len());
    let n_combined = count(&|d, t| combined.scan(d, t).types().len());
    println!(
        "\n== Detection ablation over {} flows ==\n\
         matcher-only detections: {n_matcher}\n\
         recon-only predictions (unverified): {n_recon}\n\
         combined + verified detections: {n_combined}\n",
        flows.len()
    );

    runner.bench("detect_matcher_only", || {
        flows
            .iter()
            .map(|(d, t)| matcher_only.scan(d, t).types().len())
            .sum::<usize>()
    });
    runner.bench("detect_recon_only", || {
        flows
            .iter()
            .map(|(d, t)| recon.predict(d, t).len())
            .sum::<usize>()
    });
    runner.bench("detect_combined", || {
        flows
            .iter()
            .map(|(d, t)| combined.scan(d, t).types().len())
            .sum::<usize>()
    });
}

fn bench_leak_rule(runner: &mut BenchRunner) {
    use appvsweb_adblock::Category;
    use appvsweb_analysis::leaks::is_leak;
    use appvsweb_pii::PiiType;

    // Quantify the §3.2 credential exemption over the full PII × category
    // grid, and bench the rule itself (it sits on the hot path).
    let mut with_exemption = 0;
    let mut without = 0;
    for t in PiiType::ALL {
        for cat in [
            Category::FirstParty,
            Category::Advertising,
            Category::Analytics,
        ] {
            for plaintext in [false, true] {
                if is_leak(t, cat, plaintext) {
                    with_exemption += 1;
                }
                // "Without exemption" counts every transmission.
                without += 1;
            }
        }
    }
    println!(
        "== Leak-rule ablation: {with_exemption}/{without} grid cells are leaks \
         under the paper's rule ==\n"
    );
    runner.bench("leak_rule_grid", || {
        let mut n = 0u32;
        for t in PiiType::ALL {
            for cat in [Category::FirstParty, Category::Advertising] {
                if is_leak(t, cat, false) {
                    n += 1;
                }
            }
        }
        n
    });
}

fn bench_filter_options(runner: &mut BenchRunner) {
    let full = FilterEngine::with_bundled_list();
    // Strip `$third-party` options from the list (ablation arm).
    let stripped: String = appvsweb_adblock::lists::BUNDLED_AA_LIST
        .lines()
        .map(|l| l.replace("$third-party,", "$").replace("$third-party", ""))
        .collect::<Vec<_>>()
        .join("\n");
    let mut no_tp = FilterEngine::new();
    no_tp.load_list(&stripped);

    let urls = [
        ("https://graph.facebook.com/beacon", "weather.com"),
        ("https://www.facebook.com/page", "facebook.com"),
        ("https://res.cloudinary.com/img.png", "stylecart.example"),
        ("https://www.weather.com/today", "weather.com"),
        ("https://z.moatads.com/pixel?x=1", "bbc.co.uk"),
    ];
    let hits = |e: &FilterEngine| {
        urls.iter()
            .filter(|(u, o)| e.is_ad_or_tracking(u, o))
            .count()
    };
    println!(
        "== Filter-option ablation: with $third-party: {} hits; without: {} hits \
         (first-party facebook.com pages stop being exempt) ==\n",
        hits(&full),
        hits(&no_tp)
    );

    runner.bench("adblock_with_options", || {
        urls.iter()
            .filter(|(u, o)| {
                full.check(&RequestInfo {
                    url: u,
                    origin_host: o,
                    resource_type: None,
                })
                .is_blocked()
            })
            .count()
    });
    runner.bench("adblock_without_third_party", || {
        urls.iter()
            .filter(|(u, o)| {
                no_tp
                    .check(&RequestInfo {
                        url: u,
                        origin_host: o,
                        resource_type: None,
                    })
                    .is_blocked()
            })
            .count()
    });
}

fn main() {
    let mut runner = BenchRunner::new("ablations").with_samples(2, 20);
    bench_detection_arms(&mut runner);
    bench_leak_rule(&mut runner);
    bench_filter_options(&mut runner);
    runner
        .write_json(&repo_root())
        .expect("write bench artifact");
}
