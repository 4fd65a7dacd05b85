//! Revision diffing: drift alarms between successive leak profiles.
//!
//! The paper's longitudinal observation — services' leak behaviour
//! changes over time, so the app-vs-web answer must be re-measured —
//! becomes actionable once successive campaign revisions can be
//! *compared*. This module distils each [`CellAnalysis`] into a compact
//! [`LeakProfile`] and diffs two revisions' profiles into structured
//! [`DriftAlarm`]s covering the three regressions the resident service
//! (`repro serve`) monitors for:
//!
//! * a **new third-party A&A domain** contacted by the cell,
//! * a **new PII type** leaking from the cell, and
//! * an **HTTPS→plaintext regression**: a type that previously leaked
//!   only over TLS now observed in cleartext.
//!
//! Both profile extraction and diffing are pure folds over sorted sets,
//! so the alarm list is deterministic and byte-stable across runs and
//! worker counts — the same discipline as every other report surface.

use crate::leaks::{CellAnalysis, Study};
use appvsweb_netsim::Os;
use appvsweb_pii::PiiType;
use appvsweb_services::{cell_label, Medium};
use std::collections::BTreeSet;

/// The drift-relevant distillation of one cell's [`CellAnalysis`].
///
/// Everything a revision diff needs, and nothing more: the leak/contact
/// sets plus the A&A traffic counters that the serve-mode report
/// surfaces alongside alarms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeakProfile {
    /// Service slug.
    pub service: String,
    /// Test OS.
    pub os: Os,
    /// App or Web.
    pub medium: Medium,
    /// Distinct PII types leaked by the cell.
    pub leaked_types: Vec<PiiType>,
    /// PII types observed leaking in plaintext at least once.
    pub plaintext_types: Vec<PiiType>,
    /// Registrable domains that received at least one leak.
    pub leak_domains: Vec<String>,
    /// Unique A&A registrable domains contacted.
    pub aa_domains: Vec<String>,
    /// TCP connections to A&A domains.
    pub aa_flows: u64,
    /// Bytes to/from A&A domains.
    pub aa_bytes: u64,
}

appvsweb_json::impl_json!(struct LeakProfile {
    service,
    os,
    medium,
    leaked_types,
    plaintext_types,
    leak_domains,
    aa_domains,
    aa_flows,
    aa_bytes,
});

impl LeakProfile {
    /// Distil one cell's analysis into its drift profile.
    pub fn of_cell(cell: &CellAnalysis) -> LeakProfile {
        let plaintext: BTreeSet<PiiType> = cell
            .leaks
            .iter()
            .filter(|l| l.plaintext)
            .map(|l| l.pii_type)
            .collect();
        LeakProfile {
            service: cell.service_id.clone(),
            os: cell.os,
            medium: cell.medium,
            leaked_types: cell.leaked_types.iter().copied().collect(),
            plaintext_types: plaintext.into_iter().collect(),
            leak_domains: cell.leak_domains.iter().cloned().collect(),
            aa_domains: cell.aa_domains.iter().cloned().collect(),
            aa_flows: cell.aa_flows,
            aa_bytes: cell.aa_bytes,
        }
    }

    /// The `service/Os/Medium` cell label this profile describes.
    pub fn label(&self) -> String {
        cell_label(&self.service, self.os, self.medium)
    }
}

/// Profiles for every cell of a study, in the study's (sorted) cell
/// order.
pub fn profiles_of(study: &Study) -> Vec<LeakProfile> {
    study.cells.iter().map(LeakProfile::of_cell).collect()
}

/// What kind of regression a [`DriftAlarm`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftKind {
    /// The cell now contacts an A&A domain it did not before.
    NewThirdPartyDomain,
    /// The cell now leaks a PII type it did not before.
    NewPiiType,
    /// A type that previously leaked only over TLS now travels in
    /// plaintext.
    PlaintextRegression,
}

appvsweb_json::impl_json!(
    enum DriftKind {
        NewThirdPartyDomain,
        NewPiiType,
        PlaintextRegression,
    }
);

/// One structured drift notification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DriftAlarm {
    /// Service slug.
    pub service: String,
    /// Test OS.
    pub os: Os,
    /// App or Web.
    pub medium: Medium,
    /// Which regression class fired.
    pub kind: DriftKind,
    /// The domain or PII-type label the alarm is about.
    pub subject: String,
}

appvsweb_json::impl_json!(struct DriftAlarm {
    service,
    os,
    medium,
    kind,
    subject,
});

impl DriftAlarm {
    /// Render as a single stable line for reports and logs.
    pub fn render(&self) -> String {
        let what = match self.kind {
            DriftKind::NewThirdPartyDomain => "new third-party domain",
            DriftKind::NewPiiType => "new PII type",
            DriftKind::PlaintextRegression => "HTTPS->plaintext regression",
        };
        format!(
            "{}: {what} {}",
            cell_label(&self.service, self.os, self.medium),
            self.subject
        )
    }
}

/// Diff two revisions' profiles into drift alarms.
///
/// Cells are matched by `(service, os, medium)`; cells present in only
/// one revision produce no alarms (a brand-new cell is coverage change,
/// not drift). Within a matched cell the three regression classes are
/// emitted in `(kind, subject)` order, and cells in `new`'s order, so
/// the alarm list is deterministic.
pub fn diff_profiles(old: &[LeakProfile], new: &[LeakProfile]) -> Vec<DriftAlarm> {
    let mut alarms = Vec::new();
    for cur in new {
        let Some(prev) = old
            .iter()
            .find(|p| p.service == cur.service && p.os == cur.os && p.medium == cur.medium)
        else {
            continue;
        };
        let mut cell_alarms = Vec::new();
        let prev_aa: BTreeSet<&String> = prev.aa_domains.iter().collect();
        for domain in &cur.aa_domains {
            if !prev_aa.contains(domain) {
                cell_alarms.push((DriftKind::NewThirdPartyDomain, domain.clone()));
            }
        }
        let prev_types: BTreeSet<PiiType> = prev.leaked_types.iter().copied().collect();
        for ty in &cur.leaked_types {
            if !prev_types.contains(ty) {
                cell_alarms.push((DriftKind::NewPiiType, ty.label().to_string()));
            }
        }
        let prev_plain: BTreeSet<PiiType> = prev.plaintext_types.iter().copied().collect();
        for ty in &cur.plaintext_types {
            // A regression needs the type to have leaked before (over
            // TLS only); a never-seen type is already a NewPiiType.
            if prev_types.contains(ty) && !prev_plain.contains(ty) {
                cell_alarms.push((DriftKind::PlaintextRegression, ty.label().to_string()));
            }
        }
        cell_alarms.sort();
        alarms.extend(cell_alarms.into_iter().map(|(kind, subject)| DriftAlarm {
            service: cur.service.clone(),
            os: cur.os,
            medium: cur.medium,
            kind,
            subject,
        }));
    }
    alarms
}

/// The four golden headline rates (Table 1, rounded to 0.1%) that the
/// no-fault serve path must reproduce unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HeadlineStats {
    /// All-services app leak rate (paper: 92.0%).
    pub app_pct: f64,
    /// All-services web leak rate (reproduction: 74.0%).
    pub web_pct: f64,
    /// Android web leak rate (53.1%).
    pub android_web_pct: f64,
    /// iOS web leak rate (75.5%).
    pub ios_web_pct: f64,
}

appvsweb_json::impl_json!(struct HeadlineStats {
    app_pct,
    web_pct,
    android_web_pct,
    ios_web_pct,
});

/// Compute the golden headline rates from a study, with the same
/// one-decimal rounding `tests/study_golden.rs` pins.
pub fn headline_stats(study: &Study) -> HeadlineStats {
    let t1 = crate::tables::table1(study);
    let pct = |group: &str, medium: Medium| {
        t1.row(group, medium)
            .map(|r| (r.pct_leaking * 1000.0).round() / 10.0)
            .unwrap_or(0.0)
    };
    HeadlineStats {
        app_pct: pct("All", Medium::App),
        web_pct: pct("All", Medium::Web),
        android_web_pct: pct("Android", Medium::Web),
        ios_web_pct: pct("iOS", Medium::Web),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaks::LeakEvent;
    use appvsweb_adblock::Category;
    use appvsweb_json::{FromJson, ToJson};
    use appvsweb_services::ServiceCategory;

    fn profile(service: &str) -> LeakProfile {
        LeakProfile {
            service: service.to_string(),
            os: Os::Android,
            medium: Medium::App,
            leaked_types: vec![PiiType::Email, PiiType::Location],
            plaintext_types: vec![PiiType::Location],
            leak_domains: vec!["ads.example".to_string()],
            aa_domains: vec!["ads.example".to_string(), "track.example".to_string()],
            aa_flows: 4,
            aa_bytes: 2048,
        }
    }

    #[test]
    fn identical_revisions_produce_no_alarms() {
        let rev = vec![profile("svc")];
        assert!(diff_profiles(&rev, &rev).is_empty());
    }

    #[test]
    fn each_regression_class_fires_once_in_sorted_order() {
        let old = vec![profile("svc")];
        let mut cur = profile("svc");
        cur.aa_domains.push("new-tracker.example".to_string());
        cur.leaked_types.push(PiiType::UniqueId);
        // Email previously leaked TLS-only; now also plaintext.
        cur.plaintext_types.insert(0, PiiType::Email);
        let alarms = diff_profiles(&old, std::slice::from_ref(&cur));
        let kinds: Vec<DriftKind> = alarms.iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DriftKind::NewThirdPartyDomain,
                DriftKind::NewPiiType,
                DriftKind::PlaintextRegression
            ]
        );
        assert_eq!(alarms[0].subject, "new-tracker.example");
        assert_eq!(alarms[1].subject, PiiType::UniqueId.label());
        assert_eq!(alarms[2].subject, PiiType::Email.label());
    }

    #[test]
    fn brand_new_pii_type_is_not_also_a_plaintext_regression() {
        let old = vec![profile("svc")];
        let mut cur = profile("svc");
        cur.leaked_types.push(PiiType::UniqueId);
        cur.plaintext_types.push(PiiType::UniqueId);
        let alarms = diff_profiles(&old, std::slice::from_ref(&cur));
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].kind, DriftKind::NewPiiType);
    }

    #[test]
    fn unmatched_cells_are_skipped() {
        let old = vec![profile("a")];
        let new = vec![profile("b")];
        assert!(diff_profiles(&old, &new).is_empty());
    }

    #[test]
    fn profiles_and_alarms_roundtrip_through_json() {
        let p = profile("svc");
        let back = LeakProfile::from_json(&p.to_json()).expect("profile roundtrip");
        assert_eq!(back, p);
        let alarm = DriftAlarm {
            service: "svc".to_string(),
            os: Os::Ios,
            medium: Medium::Web,
            kind: DriftKind::PlaintextRegression,
            subject: "email".to_string(),
        };
        let back = DriftAlarm::from_json(&alarm.to_json()).expect("alarm roundtrip");
        assert_eq!(back, alarm);
    }

    #[test]
    fn profile_of_cell_extracts_plaintext_types() {
        let cell = CellAnalysis {
            service_id: "svc".to_string(),
            service_name: "Svc".to_string(),
            category: ServiceCategory::Weather,
            rank: 1,
            os: Os::Android,
            medium: Medium::App,
            aa_domains: ["t.example".to_string()].into_iter().collect(),
            aa_flows: 1,
            aa_bytes: 10,
            total_flows: 3,
            leaks: vec![
                LeakEvent {
                    pii_type: PiiType::Email,
                    domain: "t.example".to_string(),
                    category: Category::Analytics,
                    plaintext: false,
                },
                LeakEvent {
                    pii_type: PiiType::Location,
                    domain: "t.example".to_string(),
                    category: Category::Analytics,
                    plaintext: true,
                },
            ],
            leak_domains: ["t.example".to_string()].into_iter().collect(),
            leaked_types: [PiiType::Email, PiiType::Location].into_iter().collect(),
            per_type: Default::default(),
            per_domain_leaks: Default::default(),
            per_domain_types: Default::default(),
            fault_counts: Default::default(),
            retries: 0,
        };
        let p = LeakProfile::of_cell(&cell);
        assert_eq!(p.leaked_types, vec![PiiType::Email, PiiType::Location]);
        assert_eq!(p.plaintext_types, vec![PiiType::Location]);
        assert_eq!(p.label(), "svc/Android/App");
    }
}
