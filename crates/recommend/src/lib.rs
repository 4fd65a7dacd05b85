//! # appvsweb-recommend
//!
//! The paper's interactive recommender, as a library.
//!
//! The study's conclusion is that "there is no single answer to the
//! seminal question in this work; rather, the answer depends on user
//! preferences and priorities for controlling access to their PII", and
//! the authors published an online interface making "custom suggestions
//! based on user-specified privacy preferences". This crate reproduces
//! that interface's logic: given the per-service measurements
//! ([`CellAnalysis`] pairs from `appvsweb-analysis`) and a
//! [`Preferences`] profile weighting each PII class and exposure axis,
//! it scores the app and Web versions of every service and recommends
//! the less invasive medium, with the deciding factors spelled out.
//!
//! [`CellAnalysis`]: appvsweb_analysis::CellAnalysis

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use appvsweb_analysis::{CellAnalysis, Study};
use appvsweb_netsim::Os;
use appvsweb_pii::PiiType;
use appvsweb_services::Medium;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// User privacy preferences: how much each PII class and exposure axis
/// matters, as a non-negative weight (the presets use 0.5 to 5.0).
#[derive(Clone, Debug, PartialEq)]
pub struct Preferences {
    /// Weight per PII class (absent = 0: the user does not care).
    pub type_weights: BTreeMap<PiiType, f64>,
    /// Weight on the breadth of A&A tracking (unique A&A domains).
    pub tracking_weight: f64,
    /// Weight on plaintext (eavesdropper-visible) exposure.
    pub plaintext_weight: f64,
    /// Weight on the number of domains receiving PII.
    pub spread_weight: f64,
}

impl Preferences {
    /// Balanced profile: every class matters equally.
    pub fn balanced() -> Self {
        Preferences {
            type_weights: PiiType::ALL.iter().map(|&t| (t, 1.0)).collect(),
            tracking_weight: 0.5,
            plaintext_weight: 1.0,
            spread_weight: 0.5,
        }
    }

    /// "Don't track my movements": location dominates.
    pub fn location_sensitive() -> Self {
        let mut p = Preferences::balanced();
        p.type_weights.insert(PiiType::Location, 5.0);
        p
    }

    /// "Don't link my identity": names, e-mail, phone, birthday dominate.
    pub fn identity_sensitive() -> Self {
        let mut p = Preferences::balanced();
        for t in [
            PiiType::Name,
            PiiType::Email,
            PiiType::PhoneNumber,
            PiiType::Birthday,
        ] {
            p.type_weights.insert(t, 5.0);
        }
        p
    }

    /// "Don't fingerprint my device": unique identifiers dominate —
    /// this profile structurally favours the Web (only apps leak UIDs).
    pub fn device_sensitive() -> Self {
        let mut p = Preferences::balanced();
        p.type_weights.insert(PiiType::UniqueId, 5.0);
        p.type_weights.insert(PiiType::DeviceInfo, 3.0);
        p
    }

    /// Minimize ad-tech contact above all — this profile structurally
    /// favours apps (Web sites contact far more A&A domains).
    pub fn tracking_averse() -> Self {
        let mut p = Preferences::balanced();
        p.tracking_weight = 5.0;
        p
    }
}

/// The verdict for one service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The app is less invasive under these preferences.
    UseApp,
    /// The Web site is less invasive.
    UseWeb,
    /// Scores are within 5% of each other.
    Either,
}

/// A scored recommendation for one service on one OS.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// Service slug.
    pub service_id: String,
    /// Service display name.
    pub service_name: String,
    /// OS the measurements come from.
    pub os: Os,
    /// Invasiveness score of the app (higher = worse).
    pub app_score: f64,
    /// Invasiveness score of the Web site.
    pub web_score: f64,
    /// The recommendation.
    pub verdict: Verdict,
    /// Human-readable deciding factors.
    pub reasons: Vec<String>,
}

/// Invasiveness score of one measured cell under `prefs` (higher =
/// worse for the user). Log-scaled counts keep one chatty tracker from
/// swamping a qualitative difference in *what* leaks.
pub fn score_cell(cell: &CellAnalysis, prefs: &Preferences) -> f64 {
    let mut score = 0.0;
    for (t, agg) in &cell.per_type {
        let w = prefs.type_weights.get(t).copied().unwrap_or(0.0);
        score += w * (1.0 + (agg.count as f64).ln_1p());
    }
    score += prefs.tracking_weight * (cell.aa_domains.len() as f64).ln_1p();
    score += prefs.spread_weight * (cell.leak_domains.len() as f64).ln_1p();
    let plaintext_leaks = cell.leaks.iter().filter(|l| l.plaintext).count();
    score += prefs.plaintext_weight * (plaintext_leaks as f64).ln_1p();
    score
}

fn reasons(app: &CellAnalysis, web: &CellAnalysis) -> Vec<String> {
    let mut out = Vec::new();
    let app_only: Vec<&str> = app
        .leaked_types
        .difference(&web.leaked_types)
        .map(|t| t.label())
        .collect();
    let web_only: Vec<&str> = web
        .leaked_types
        .difference(&app.leaked_types)
        .map(|t| t.label())
        .collect();
    if !app_only.is_empty() {
        out.push(format!("app additionally leaks: {}", app_only.join(", ")));
    }
    if !web_only.is_empty() {
        out.push(format!("web additionally leaks: {}", web_only.join(", ")));
    }
    if web.aa_domains.len() > app.aa_domains.len() {
        out.push(format!(
            "web contacts {} A&A domains vs {} in-app",
            web.aa_domains.len(),
            app.aa_domains.len()
        ));
    } else if app.aa_domains.len() > web.aa_domains.len() {
        out.push(format!(
            "app contacts {} A&A domains vs {} on web",
            app.aa_domains.len(),
            web.aa_domains.len()
        ));
    }
    let app_pt = app.leaks.iter().filter(|l| l.plaintext).count();
    let web_pt = web.leaks.iter().filter(|l| l.plaintext).count();
    if app_pt > 0 || web_pt > 0 {
        out.push(format!("plaintext leaks: app {app_pt}, web {web_pt}"));
    }
    out
}

/// Recommend a medium for every (service, OS) pair in the study.
pub fn recommend(study: &Study, prefs: &Preferences) -> Vec<Recommendation> {
    let mut out = Vec::new();
    for os in [Os::Android, Os::Ios] {
        for app in study.cells_for(os, Medium::App) {
            let Some(web) = study.cell(&app.service_id, os, Medium::Web) else {
                continue;
            };
            let app_score = score_cell(app, prefs);
            let web_score = score_cell(web, prefs);
            let verdict =
                if (app_score - web_score).abs() <= 0.05 * app_score.max(web_score).max(1e-9) {
                    Verdict::Either
                } else if app_score < web_score {
                    Verdict::UseApp
                } else {
                    Verdict::UseWeb
                };
            out.push(Recommendation {
                service_id: app.service_id.clone(),
                service_name: app.service_name.clone(),
                os,
                app_score,
                web_score,
                verdict,
                reasons: reasons(app, web),
            });
        }
    }
    out
}

/// Verdict counts for one preference profile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictSummary {
    /// Recommendations to use the app.
    pub use_app: usize,
    /// Recommendations to use the Web site.
    pub use_web: usize,
    /// Ties.
    pub either: usize,
}

impl VerdictSummary {
    /// Total recommendations summarized.
    pub fn total(&self) -> usize {
        self.use_app + self.use_web + self.either
    }
}

/// Summarize a recommendation list.
pub fn summarize(recs: &[Recommendation]) -> VerdictSummary {
    let mut s = VerdictSummary::default();
    for r in recs {
        match r.verdict {
            Verdict::UseApp => s.use_app += 1,
            Verdict::UseWeb => s.use_web += 1,
            Verdict::Either => s.either += 1,
        }
    }
    s
}

/// A preset profile: its name and the constructor of its weights.
type Preset = (&'static str, fn() -> Preferences);

/// The named preset profiles of the online interface, in column order.
const PRESETS: [Preset; 5] = [
    ("balanced", Preferences::balanced),
    ("location", Preferences::location_sensitive),
    ("identity", Preferences::identity_sensitive),
    ("device", Preferences::device_sensitive),
    ("tracking", Preferences::tracking_averse),
];

/// The preset profiles' names, in [`preset_profiles`] order.
pub const PROFILE_NAMES: [&str; PRESETS.len()] = {
    let mut names = [""; PRESETS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = PRESETS[i].0;
        i += 1;
    }
    names
};

/// The named preset profiles of the online interface.
pub fn preset_profiles() -> Vec<(&'static str, Preferences)> {
    PRESETS.iter().map(|&(name, make)| (name, make())).collect()
}

/// The preset profile called `name`, if there is one.
pub fn preset(name: &str) -> Option<Preferences> {
    PRESETS
        .iter()
        .find(|(preset, _)| *preset == name)
        .map(|(_, make)| make())
}

/// A what-if matrix: how every preset profile would advise each service.
/// This is exactly the data the paper's interactive interface serves —
/// the same measurements, re-scored per user priority.
#[derive(Clone, Debug)]
pub struct WhatIfMatrix {
    /// Profile names, in column order.
    pub profiles: Vec<String>,
    /// `(service_id, per-profile verdicts)` rows, Android measurements.
    pub rows: Vec<(String, Vec<Verdict>)>,
}

/// Build the what-if matrix over all preset profiles (Android cells).
pub fn what_if_matrix(study: &Study) -> WhatIfMatrix {
    let presets = preset_profiles();
    let per_profile: Vec<(String, Vec<Recommendation>)> = presets
        .iter()
        .map(|(name, prefs)| (name.to_string(), recommend(study, prefs)))
        .collect();
    let mut rows: Vec<(String, Vec<Verdict>)> = Vec::new();
    if let Some((_, first)) = per_profile.first() {
        for rec in first.iter().filter(|r| r.os == Os::Android) {
            let verdicts = per_profile
                .iter()
                .map(|(_, recs)| {
                    recs.iter()
                        .find(|r| r.service_id == rec.service_id && r.os == Os::Android)
                        .map(|r| r.verdict)
                        .unwrap_or(Verdict::Either)
                })
                .collect();
            rows.push((rec.service_id.clone(), verdicts));
        }
    }
    WhatIfMatrix {
        profiles: per_profile.into_iter().map(|(n, _)| n).collect(),
        rows,
    }
}

/// The recommender's report under `profile`, as `repro recommend`
/// prints it: every Android service's scores, verdict and first
/// deciding factor, the verdict counts, and the what-if matrix of every
/// preset profile.
pub fn render(study: &Study, profile: &str, prefs: &Preferences) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:<8} {:>9} {:>9}  {:<8} reasons\n{}",
        "service",
        "os",
        "app",
        "web",
        "verdict",
        "-".repeat(110)
    );
    let mut recs = recommend(study, prefs);
    recs.retain(|r| r.os == Os::Android);
    for r in &recs {
        let verdict = match r.verdict {
            Verdict::UseApp => "APP",
            Verdict::UseWeb => "WEB",
            Verdict::Either => "either",
        };
        let _ = writeln!(
            out,
            "{:<28} {:<8} {:>9.2} {:>9.2}  {:<8} {}",
            r.service_name,
            r.os.to_string(),
            r.app_score,
            r.web_score,
            verdict,
            r.reasons.first().map_or("-", String::as_str)
        );
    }
    let counts = summarize(&recs);
    let _ = writeln!(
        out,
        "\nVerdicts under '{profile}': use the APP for {}, the WEB for {}, either for {}.",
        counts.use_app, counts.use_web, counts.either
    );
    let matrix = what_if_matrix(study);
    out += "\n== What-if matrix (Android): every preset profile at a glance ==\n";
    let _ = writeln!(out, "{:<18} {}", "service", matrix.profiles.join("  "));
    for (service, verdicts) in &matrix.rows {
        let cells: Vec<String> = matrix
            .profiles
            .iter()
            .zip(verdicts)
            .map(|(name, verdict)| {
                let cell = match verdict {
                    Verdict::UseApp => "app",
                    Verdict::UseWeb => "WEB",
                    Verdict::Either => "~",
                };
                format!("{cell:>width$}", width = name.len())
            })
            .collect();
        let _ = writeln!(out, "{service:<18} {}", cells.join("  "));
    }
    out += "\nAs the paper found: there is no single answer — it depends on your priorities.\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use appvsweb_analysis::leaks::TypeAggregate;
    use appvsweb_services::ServiceCategory;
    use std::collections::BTreeSet;

    fn cell(
        medium: Medium,
        types: &[(PiiType, u64)],
        aa_domains: usize,
        plaintext: bool,
    ) -> CellAnalysis {
        let mut per_type = BTreeMap::new();
        let mut leaked_types = BTreeSet::new();
        let mut leaks = Vec::new();
        for (t, count) in types {
            leaked_types.insert(*t);
            per_type.insert(
                *t,
                TypeAggregate {
                    count: *count,
                    domains: std::iter::once("x.com".to_string()).collect(),
                },
            );
            for _ in 0..*count {
                leaks.push(appvsweb_analysis::LeakEvent {
                    pii_type: *t,
                    domain: "x.com".into(),
                    category: appvsweb_adblock_category(),
                    plaintext,
                });
            }
        }
        CellAnalysis {
            service_id: "svc".into(),
            service_name: "Svc".into(),
            category: ServiceCategory::News,
            rank: 1,
            os: Os::Android,
            medium,
            aa_domains: (0..aa_domains).map(|i| format!("aa{i}.com")).collect(),
            aa_flows: aa_domains as u64,
            aa_bytes: 0,
            total_flows: 1,
            leaks,
            leak_domains: std::iter::once("x.com".to_string()).collect(),
            leaked_types,
            per_type,
            per_domain_leaks: BTreeMap::new(),
            per_domain_types: BTreeMap::new(),
            fault_counts: Default::default(),
            retries: 0,
        }
    }

    fn appvsweb_adblock_category() -> appvsweb_adblock::Category {
        appvsweb_adblock::Category::Advertising
    }

    #[test]
    fn device_sensitive_prefers_web() {
        let study = Study {
            cells: vec![
                cell(Medium::App, &[(PiiType::UniqueId, 50)], 3, false),
                cell(Medium::Web, &[(PiiType::Location, 5)], 20, false),
            ],
            health: Default::default(),
        };
        let recs = recommend(&study, &Preferences::device_sensitive());
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].verdict, Verdict::UseWeb);
        assert!(recs[0].reasons.iter().any(|r| r.contains("Unique ID")));
    }

    #[test]
    fn tracking_averse_prefers_app() {
        let study = Study {
            cells: vec![
                cell(Medium::App, &[(PiiType::UniqueId, 5)], 2, false),
                cell(Medium::Web, &[(PiiType::Location, 5)], 25, false),
            ],
            health: Default::default(),
        };
        let recs = recommend(&study, &Preferences::tracking_averse());
        assert_eq!(recs[0].verdict, Verdict::UseApp);
        assert!(recs[0].reasons.iter().any(|r| r.contains("A&A domains")));
    }

    #[test]
    fn identical_cells_yield_either() {
        let study = Study {
            cells: vec![
                cell(Medium::App, &[(PiiType::Location, 5)], 5, false),
                cell(Medium::Web, &[(PiiType::Location, 5)], 5, false),
            ],
            health: Default::default(),
        };
        let recs = recommend(&study, &Preferences::balanced());
        assert_eq!(recs[0].verdict, Verdict::Either);
    }

    #[test]
    fn plaintext_exposure_penalized() {
        let clean = cell(Medium::App, &[(PiiType::Location, 5)], 5, false);
        let leaky = cell(Medium::App, &[(PiiType::Location, 5)], 5, true);
        let prefs = Preferences::balanced();
        assert!(score_cell(&leaky, &prefs) > score_cell(&clean, &prefs));
    }

    #[test]
    fn summary_counts() {
        let study = Study {
            cells: vec![
                cell(Medium::App, &[(PiiType::UniqueId, 50)], 3, false),
                cell(Medium::Web, &[(PiiType::Location, 5)], 20, false),
            ],
            health: Default::default(),
        };
        let recs = recommend(&study, &Preferences::device_sensitive());
        let s = summarize(&recs);
        assert_eq!(s.total(), recs.len());
        assert_eq!(s.use_web, 1);
    }

    #[test]
    fn what_if_matrix_covers_all_profiles() {
        let study = Study {
            cells: vec![
                cell(Medium::App, &[(PiiType::UniqueId, 50)], 2, false),
                cell(Medium::Web, &[(PiiType::Location, 5)], 25, false),
            ],
            health: Default::default(),
        };
        let m = what_if_matrix(&study);
        assert_eq!(m.profiles.len(), 5);
        assert_eq!(m.rows.len(), 1);
        assert_eq!(m.rows[0].1.len(), 5);
        // Device-sensitive and tracking-averse should disagree on this
        // service (UID-heavy app vs tracker-heavy web).
        let device_idx = m.profiles.iter().position(|p| p == "device").unwrap();
        let tracking_idx = m.profiles.iter().position(|p| p == "tracking").unwrap();
        assert_ne!(m.rows[0].1[device_idx], m.rows[0].1[tracking_idx]);
    }

    #[test]
    fn every_profile_name_has_its_preset() {
        for (name, prefs) in preset_profiles() {
            assert_eq!(preset(name), Some(prefs), "{name}");
        }
        assert_eq!(preset("nope"), None);
    }

    #[test]
    fn presets_differ() {
        assert_ne!(Preferences::balanced(), Preferences::location_sensitive());
        assert!(Preferences::location_sensitive().type_weights[&PiiType::Location] > 1.0);
        assert!(Preferences::tracking_averse().tracking_weight > 1.0);
    }
}

appvsweb_json::impl_json!(struct Preferences { type_weights, tracking_weight, plaintext_weight, spread_weight });
appvsweb_json::impl_json!(
    enum Verdict {
        UseApp,
        UseWeb,
        Either,
    }
);
appvsweb_json::impl_json!(struct Recommendation {
    service_id, service_name, os, app_score, web_score, verdict, reasons
});
appvsweb_json::impl_json!(struct VerdictSummary { use_app, use_web, either });
appvsweb_json::impl_json!(struct WhatIfMatrix { profiles, rows });
