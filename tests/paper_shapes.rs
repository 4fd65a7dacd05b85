//! Shape assertions against every table and figure of the paper.
//!
//! The reproduction targets the paper's *shapes* — who wins, by roughly
//! what factor, where crossovers fall — not its absolute 2016 values
//! (our substrate is a simulator, not the authors' testbed). Each test
//! here encodes one claim from the evaluation section with a tolerance
//! band; EXPERIMENTS.md records paper-vs-measured side by side.

use appvsweb::analysis::figures::{self, FigureId};
use appvsweb::analysis::{tables, Study};
use appvsweb::netsim::Os;
use appvsweb::pii::PiiType;
use appvsweb::services::Medium;
use appvsweb_testkit::fixtures::canonical_study;

/// The canonical full study, computed once per process by the testkit
/// fixture and shared across every test in this binary.
fn study() -> &'static Study {
    canonical_study()
}

fn table1_pct(group: &str, medium: Medium) -> f64 {
    tables::table1(study())
        .row(group, medium)
        .map(|r| r.pct_leaking)
        .unwrap_or_else(|| panic!("missing Table 1 row {group}/{medium:?}"))
}

// ---------------------------------------------------------------- Fig 1a
#[test]
fn fig1a_web_contacts_more_aa_domains() {
    // Paper: 83% (Android) / 78% (iOS) of services contact more
    // third-parties via their Web site than their app.
    for os in [Os::Android, Os::Ios] {
        let frac = figures::cdf(study(), FigureId::AaDomains, os).fraction_negative();
        assert!(
            (0.70..=0.95).contains(&frac),
            "{os}: expected ~0.78-0.83 of services with web > app A&A domains, got {frac:.2}"
        );
    }
}

#[test]
fn fig1a_headline_disparities() {
    // Accuweather, BBC News, Starbucks: ≤4 A&A in-app, tens on the Web.
    for id in ["accuweather", "bbc-news", "starbucks"] {
        for os in [Os::Android, Os::Ios] {
            let app = study().cell(id, os, Medium::App).unwrap();
            let web = study().cell(id, os, Medium::Web).unwrap();
            assert!(
                app.aa_domains.len() <= 4,
                "{id} app contacts {} A&A domains (paper: ≤4)",
                app.aa_domains.len()
            );
            assert!(
                web.aa_domains.len() >= 10,
                "{id} web contacts {} A&A domains (paper: tens)",
                web.aa_domains.len()
            );
        }
    }
}

// ---------------------------------------------------------------- Fig 1b
#[test]
fn fig1b_web_opens_hundreds_more_flows() {
    // Paper: 73% Android / 80% iOS of services see "hundreds and
    // sometimes thousands" of extra TCP connections on the Web.
    for os in [Os::Android, Os::Ios] {
        let cdf = figures::cdf(study(), FigureId::AaFlows, os);
        assert!(
            cdf.fraction_negative() >= 0.70,
            "{os}: flows bias must favour web"
        );
        // The heavy tail reaches several-hundred extra connections.
        assert!(
            cdf.quantile(0.0) <= -500.0,
            "{os}: heaviest web excess should exceed 500 flows, got {}",
            cdf.quantile(0.0)
        );
    }
    // The three named heavy hitters produce the largest totals.
    for id in ["allrecipes", "bbc-news", "cnn-news"] {
        let web = study().cell(id, Os::Android, Medium::Web).unwrap();
        assert!(
            web.total_flows >= 700,
            "{id} web should trigger on the order of a thousand connections, got {}",
            web.total_flows
        );
    }
}

// ---------------------------------------------------------------- Fig 1c
#[test]
fn fig1c_web_consumes_more_aa_bytes() {
    for os in [Os::Android, Os::Ios] {
        let cdf = figures::cdf(study(), FigureId::AaBytes, os);
        assert!(
            cdf.fraction_negative() >= 0.70,
            "{os}: bytes bias must favour web"
        );
        // Paper x-range: several MB of extra web traffic, and a positive
        // tail (some apps out-consume their site).
        assert!(cdf.quantile(0.0) <= -1.0, "{os}: biggest web excess ≥ 1 MB");
        assert!(
            cdf.quantile(1.0) >= 0.5,
            "{os}: some app exceeds its site by ≥ 0.5 MB"
        );
    }
}

// ---------------------------------------------------------------- Fig 1d
#[test]
fn fig1d_slight_bias_toward_apps_leaking_to_more_domains() {
    for os in [Os::Android, Os::Ios] {
        let samples = figures::samples(study(), FigureId::LeakDomains, os);
        let positive = samples.iter().filter(|v| **v > 0.0).count() as f64;
        let negative = samples.iter().filter(|v| **v < 0.0).count() as f64;
        assert!(
            positive > negative,
            "{os}: apps should leak to more domains than web for more services \
             (pos {positive} vs neg {negative})"
        );
    }
}

// ---------------------------------------------------------------- Fig 1e
#[test]
fn fig1e_mode_plus_one_and_positive_bias() {
    // Paper: "the most common case is that the app version … leaks one
    // more type of distinct PII than the Web site".
    for os in [Os::Android, Os::Ios] {
        let pdf = figures::pdf_1e(study(), os);
        let mode = pdf.mode().expect("pdf has bins");
        assert!(
            (1..=2).contains(&mode),
            "{os}: modal (app-web) type difference should be +1, got {mode}"
        );
        assert!(
            pdf.positive_mass() >= 60.0,
            "{os}: strong bias toward apps leaking more types, got {:.0}%",
            pdf.positive_mass()
        );
    }
}

// ---------------------------------------------------------------- Fig 1f
#[test]
fn fig1f_majority_share_nothing() {
    // Paper: app and web versions "share nothing in common more than
    // half the time", and 80-90% of services share at most half.
    let android = figures::cdf(study(), FigureId::Jaccard, Os::Android);
    let ios = figures::cdf(study(), FigureId::Jaccard, Os::Ios);
    assert!(
        android.at(0.0) >= 0.50 || ios.at(0.0) >= 0.50,
        "at least one OS must show >50% zero-Jaccard (android {:.2}, ios {:.2})",
        android.at(0.0),
        ios.at(0.0)
    );
    assert!(android.at(0.0) >= 0.35 && ios.at(0.0) >= 0.35);
    for (os, cdf) in [(Os::Android, android), (Os::Ios, ios)] {
        assert!(
            (0.75..=1.0).contains(&cdf.at(0.5)),
            "{os}: 80-90% of services share ≤ half their leaked types, got {:.2}",
            cdf.at(0.5)
        );
    }
}

// ---------------------------------------------------------------- Table 1
#[test]
fn table1_leak_rates() {
    // Paper: 92% of apps leak vs 78% of Web versions (14% gap).
    let app = table1_pct("All", Medium::App);
    let web = table1_pct("All", Medium::Web);
    assert!(
        (0.85..=0.98).contains(&app),
        "app leak rate {app:.2} (paper 0.92)"
    );
    assert!(
        (0.65..=0.85).contains(&web),
        "web leak rate {web:.2} (paper 0.78)"
    );
    assert!(app > web, "apps must leak more often than web");

    // Paper: 24% fewer Web sites leak on Chrome/Android vs Safari/iOS
    // (52.1% vs 76%).
    let android_web = table1_pct("Android", Medium::Web);
    let ios_web = table1_pct("iOS", Medium::Web);
    assert!(
        ios_web - android_web >= 0.15,
        "iOS web leak rate ({ios_web:.2}) must exceed Android ({android_web:.2}) by ~24pp"
    );
}

#[test]
fn table1_identifier_matrix() {
    let t1 = tables::table1(study());
    let row = |group: &str, medium| t1.row(group, medium).unwrap();
    // Apps leak UID and device info; Web never does (the paper's
    // platform-structural finding).
    assert!(row("All", Medium::App)
        .leaked_types
        .contains(&PiiType::UniqueId));
    assert!(row("All", Medium::App)
        .leaked_types
        .contains(&PiiType::DeviceInfo));
    assert!(!row("All", Medium::Web)
        .leaked_types
        .contains(&PiiType::UniqueId));
    assert!(!row("All", Medium::Web)
        .leaked_types
        .contains(&PiiType::DeviceInfo));
    // Almost all groups leak location via some service.
    assert!(row("Weather", Medium::App)
        .leaked_types
        .contains(&PiiType::Location));
    assert!(row("Weather", Medium::Web)
        .leaked_types
        .contains(&PiiType::Location));
    // Travel leaks the widest variety (paper: Shopping and Travel).
    assert!(row("Travel", Medium::App).leaked_types.len() >= 6);
}

#[test]
fn table1_education_most_promiscuous() {
    // Paper: Education and Weather leak to the most domains per service.
    let t1 = tables::table1(study());
    let edu = t1.row("Education", Medium::App).unwrap();
    let all = t1.row("All", Medium::App).unwrap();
    assert!(
        edu.avg_leak_domains > all.avg_leak_domains,
        "Education apps ({:.1}) should beat the overall average ({:.1})",
        edu.avg_leak_domains,
        all.avg_leak_domains
    );
}

// ---------------------------------------------------------------- Table 2
#[test]
fn table2_anchor_rows() {
    let rows = tables::table2(study(), 20);
    let get = |org: &str| rows.iter().find(|r| r.organization == org);

    // Amobee: the most leaks from the fewest services (1).
    let amobee = get("amobee").expect("amobee in top-20");
    assert_eq!(amobee.services_app, 1);
    assert_eq!(amobee.services_web, 1);
    assert_eq!(
        rows[0].organization, "amobee",
        "amobee tops the total-leak ordering"
    );
    assert!(amobee.avg_leaks_app > 100.0 && amobee.avg_leaks_web > 10.0);

    // vrvm: 2 services, app-only.
    let vrvm = get("vrvm").expect("vrvm in top-20");
    assert_eq!((vrvm.services_app, vrvm.services_web), (2, 0));

    // groceryserver: exactly 1 service, app-only.
    let grocery = get("groceryserver").expect("groceryserver in top-20");
    assert_eq!((grocery.services_app, grocery.services_web), (1, 0));

    // Facebook: the most pervasively contacted domain across apps.
    let fb = get("facebook").expect("facebook in top-20");
    assert!(
        fb.services_app >= 30,
        "facebook should be embedded in most apps, got {}",
        fb.services_app
    );
    let ga = get("google-analytics").expect("GA in top-20");
    assert!(ga.services_app >= 30 && ga.services_web >= 40);
    // GA receives only ~2 leaks per service (init-only SDK).
    assert!(
        ga.avg_leaks_app <= 6.0,
        "GA app leaks {:.1} (paper 1.8)",
        ga.avg_leaks_app
    );
}

#[test]
fn table2_platform_specific_collectors() {
    // Paper: "YieldMo only collects PII from apps in our set of services";
    // cloudinary is the one web-only recipient.
    let study = study();
    let mut yieldmo_app = 0u64;
    let mut yieldmo_web = 0u64;
    let mut cloudinary_app = 0u64;
    let mut cloudinary_web = 0u64;
    for cell in &study.cells {
        for (domain, count) in &cell.per_domain_leaks {
            let target = match (domain.as_str(), cell.medium) {
                ("yieldmo.com", Medium::App) => &mut yieldmo_app,
                ("yieldmo.com", Medium::Web) => &mut yieldmo_web,
                ("cloudinary.com", Medium::App) => &mut cloudinary_app,
                ("cloudinary.com", Medium::Web) => &mut cloudinary_web,
                _ => continue,
            };
            *target += count;
        }
    }
    assert!(yieldmo_app > 0 && yieldmo_web == 0, "yieldmo is app-only");
    assert!(
        cloudinary_web > 0 && cloudinary_app == 0,
        "cloudinary is web-only"
    );
}

// ---------------------------------------------------------------- Table 3
#[test]
fn table3_marginals() {
    let rows = tables::table3(study());
    let get = |t: PiiType| rows.iter().find(|r| r.pii_type == t).unwrap();

    // UID: ~40 apps, zero web (paper: 40 / 0 / 0).
    let uid = get(PiiType::UniqueId);
    assert!(
        (36..=44).contains(&uid.services_app),
        "UID apps {}",
        uid.services_app
    );
    assert_eq!(uid.services_web, 0);
    assert_eq!(uid.services_both, 0);

    // Device Name: app-only (paper 15 / 0 / 0).
    let dev = get(PiiType::DeviceInfo);
    assert!((10..=20).contains(&dev.services_app));
    assert_eq!(dev.services_web, 0);

    // Location: most-leaked on both media (paper 30 / 21 / 26).
    let loc = get(PiiType::Location);
    assert!(
        (25..=35).contains(&loc.services_app),
        "Location apps {}",
        loc.services_app
    );
    assert!(
        (18..=30).contains(&loc.services_web),
        "Location webs {}",
        loc.services_web
    );
    assert!(loc.services_both >= 15);

    // Name leaks more often from web than app (paper 9 / 8 / 16).
    let name = get(PiiType::Name);
    assert!(name.services_web >= name.services_app);

    // Password: the §4.2 case studies (paper 4 / 2 / 3).
    let pw = get(PiiType::Password);
    assert_eq!(
        (pw.services_app, pw.services_both, pw.services_web),
        (4, 2, 3)
    );

    // Birthday: Priceline's web-side-only leak (paper 1 / 0 / 1).
    let b = get(PiiType::Birthday);
    assert_eq!((b.services_app, b.services_both, b.services_web), (1, 0, 1));
}

#[test]
fn password_case_studies() {
    // Grubhub → taplytics, JetBlue → usablenet, Food Network & NCAA →
    // Gigya; all over HTTPS to a third party.
    let cases = [
        ("grubhub", "taplytics.com"),
        ("jetblue", "usablenet.com"),
        ("food-network", "gigya.com"),
        ("ncaa-sports", "gigya.com"),
    ];
    for (service, sink) in cases {
        let cell = study().cell(service, Os::Android, Medium::App).unwrap();
        let pw = cell
            .per_type
            .get(&PiiType::Password)
            .unwrap_or_else(|| panic!("{service} app must leak its password"));
        assert!(
            pw.domains.contains(sink),
            "{service} password must reach {sink}, got {:?}",
            pw.domains
        );
        // All four travelled over HTTPS, not plaintext.
        assert!(cell
            .leaks
            .iter()
            .filter(|l| l.pii_type == PiiType::Password)
            .all(|l| !l.plaintext));
    }
}

#[test]
fn priceline_per_os_divergence() {
    // §4.2: Priceline's web leaks birthday+gender; neither app does, and
    // the two apps leak different PII from each other.
    let web = study().cell("priceline", Os::Ios, Medium::Web).unwrap();
    assert!(web.leaked_types.contains(&PiiType::Birthday));
    assert!(web.leaked_types.contains(&PiiType::Gender));
    let android = study().cell("priceline", Os::Android, Medium::App).unwrap();
    let ios = study().cell("priceline", Os::Ios, Medium::App).unwrap();
    for app in [android, ios] {
        assert!(!app.leaked_types.contains(&PiiType::Birthday));
        assert!(!app.leaked_types.contains(&PiiType::Gender));
    }
    assert_ne!(
        android.leaked_types, ios.leaked_types,
        "the two Priceline apps leak different PII per OS"
    );
}

#[test]
fn web_types_comparable_across_browsers() {
    // §4.2: "Web sites leak comparable types of PII regardless of whether
    // they are loaded in Chrome or Safari (with phone number being the
    // sole exception)" — at the aggregate level, the union of Web-leaked
    // types differs between the browsers by at most a couple of classes.
    use appvsweb::analysis::osdiff;
    let agg = osdiff::os_agreement(study(), Medium::Web);
    assert!(
        agg.services >= 45,
        "most services compared on both OSes, got {}",
        agg.services
    );
    let mut android_union = std::collections::BTreeSet::new();
    let mut ios_union = std::collections::BTreeSet::new();
    for c in osdiff::os_comparisons(study(), Medium::Web) {
        android_union.extend(c.android_types.iter().copied());
        ios_union.extend(c.ios_types.iter().copied());
    }
    let diff: Vec<_> = android_union.symmetric_difference(&ios_union).collect();
    assert!(
        diff.len() <= 2,
        "aggregate web type sets should nearly coincide across browsers, diff: {diff:?}"
    );
}

#[test]
fn apps_agree_more_across_oses_than_web_does() {
    // Apps share code and SDKs across OSes; Web divergence comes from the
    // pii_ios_only data-layer gap (the paper's Chrome/Safari gap).
    use appvsweb::analysis::osdiff;
    let app = osdiff::os_agreement(study(), Medium::App);
    let web = osdiff::os_agreement(study(), Medium::Web);
    assert!(
        app.identical_fraction > web.identical_fraction,
        "app OS-agreement ({:.2}) should exceed web ({:.2})",
        app.identical_fraction,
        web.identical_fraction
    );
}
