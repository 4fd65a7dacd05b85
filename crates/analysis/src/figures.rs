//! Builders for Figures 1a–1f.
//!
//! Each figure is a per-OS series over the per-service app-vs-web
//! comparisons ([`crate::leaks::ServiceComparison`]). Figures 1a–1d are
//! CDFs of (app − web) differences; 1e is a PDF of leaked-identifier
//! count differences; 1f is a CDF of Jaccard indices.

use crate::leaks::Study;
use crate::stats::{Cdf, Pdf};
use appvsweb_netsim::Os;

/// Which figure of the paper a series reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FigureId {
    /// 1a: (app − web) unique A&A domains contacted.
    AaDomains,
    /// 1b: (app − web) flows to A&A domains.
    AaFlows,
    /// 1c: (app − web) megabytes of traffic to A&A.
    AaBytes,
    /// 1d: (app − web) domains receiving PII.
    LeakDomains,
    /// 1e: (app − web) distinct leaked identifiers (PDF).
    LeakedIdentifiers,
    /// 1f: Jaccard index of leaked identifier sets.
    Jaccard,
}

impl FigureId {
    /// All figures in paper order.
    pub const ALL: [FigureId; 6] = [
        FigureId::AaDomains,
        FigureId::AaFlows,
        FigureId::AaBytes,
        FigureId::LeakDomains,
        FigureId::LeakedIdentifiers,
        FigureId::Jaccard,
    ];

    /// Paper subfigure label.
    pub fn label(self) -> &'static str {
        match self {
            FigureId::AaDomains => "1a: (App - Web) A&A Domains Contacted",
            FigureId::AaFlows => "1b: (App - Web) Flows to A&A Domains",
            FigureId::AaBytes => "1c: (App - Web) MB of Traffic to A&A",
            FigureId::LeakDomains => "1d: (App - Web) Domains Sent PII",
            FigureId::LeakedIdentifiers => "1e: (App - Web) Leaked Identifiers (PDF)",
            FigureId::Jaccard => "1f: Jaccard of Leaked Identifiers",
        }
    }
}

/// One per-OS data series of a figure.
#[derive(Clone, Debug)]
pub struct FigureSeries {
    /// OS the series belongs to (the paper plots Android and iOS curves).
    pub os: Os,
    /// `(x, y)` plot points: `y` is "% of services" for CDFs and PDFs.
    pub points: Vec<(f64, f64)>,
}

/// A full figure: one series per OS.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Which subfigure.
    pub id: FigureId,
    /// Per-OS series.
    pub series: Vec<FigureSeries>,
}

/// Raw per-OS samples for a figure (useful for assertions on shape).
pub fn samples(study: &Study, id: FigureId, os: Os) -> Vec<f64> {
    study
        .comparisons()
        .into_iter()
        .filter(|c| c.os == os)
        .map(|c| match id {
            FigureId::AaDomains => c.aa_domain_diff as f64,
            FigureId::AaFlows => c.aa_flow_diff as f64,
            FigureId::AaBytes => c.aa_byte_diff as f64 / 1_000_000.0,
            FigureId::LeakDomains => c.leak_domain_diff as f64,
            FigureId::LeakedIdentifiers => c.leaked_type_diff as f64,
            FigureId::Jaccard => c.jaccard,
        })
        .collect()
}

/// The CDF for a CDF-style figure and OS.
pub fn cdf(study: &Study, id: FigureId, os: Os) -> Cdf {
    Cdf::new(samples(study, id, os))
}

/// The PDF for Figure 1e.
pub fn pdf_1e(study: &Study, os: Os) -> Pdf {
    let samples: Vec<i64> = study
        .comparisons()
        .into_iter()
        .filter(|c| c.os == os)
        .map(|c| c.leaked_type_diff)
        .collect();
    Pdf::new(&samples)
}

/// Build a complete figure (both OS series).
pub fn figure(study: &Study, id: FigureId) -> Figure {
    let series = [Os::Android, Os::Ios]
        .into_iter()
        .map(|os| {
            let points = match id {
                FigureId::LeakedIdentifiers => pdf_1e(study, os)
                    .bins
                    .iter()
                    .map(|(v, p)| (*v as f64, *p))
                    .collect(),
                _ => cdf(study, id, os).points(),
            };
            FigureSeries { os, points }
        })
        .collect();
    Figure { id, series }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaks::CellAnalysis;
    use appvsweb_pii::PiiType;
    use appvsweb_services::{Medium, ServiceCategory};
    use std::collections::BTreeMap;

    fn cell(service: &str, medium: Medium, aa_domains: usize, types: &[PiiType]) -> CellAnalysis {
        CellAnalysis {
            service_id: service.into(),
            service_name: service.into(),
            category: ServiceCategory::News,
            rank: 1,
            os: Os::Android,
            medium,
            aa_domains: (0..aa_domains).map(|i| format!("d{i}.com")).collect(),
            aa_flows: aa_domains as u64 * 5,
            aa_bytes: aa_domains as u64 * 500_000,
            total_flows: 10,
            leaks: vec![],
            leak_domains: types.iter().map(|t| format!("{t:?}.com")).collect(),
            leaked_types: types.iter().copied().collect(),
            per_type: BTreeMap::new(),
            per_domain_leaks: BTreeMap::new(),
            per_domain_types: BTreeMap::new(),
            fault_counts: Default::default(),
            retries: 0,
        }
    }

    fn study() -> Study {
        Study {
            cells: vec![
                cell("a", Medium::App, 2, &[PiiType::UniqueId, PiiType::Location]),
                cell("a", Medium::Web, 10, &[PiiType::Location]),
                cell("b", Medium::App, 3, &[PiiType::UniqueId]),
                cell("b", Medium::Web, 1, &[PiiType::Name]),
            ],
            health: Default::default(),
        }
    }

    #[test]
    fn fig1a_samples_are_app_minus_web() {
        let s = samples(&study(), FigureId::AaDomains, Os::Android);
        let mut sorted = s.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sorted, vec![-8.0, 2.0]);
    }

    #[test]
    fn fig1e_pdf_and_1f_jaccard() {
        let pdf = pdf_1e(&study(), Os::Android);
        // a: 2-1 = +1 ; b: 1-1 = 0
        assert_eq!(pdf.bins.len(), 2);
        let jac = samples(&study(), FigureId::Jaccard, Os::Android);
        // a: {UID,L} vs {L} → 1/2 ; b: {UID} vs {N} → 0
        assert!(jac.contains(&0.5));
        assert!(jac.contains(&0.0));
    }

    #[test]
    fn every_figure_has_both_series() {
        for id in FigureId::ALL {
            assert_eq!(figure(&study(), id).series.len(), 2);
        }
    }

    #[test]
    fn bytes_figure_is_in_megabytes() {
        let s = samples(&study(), FigureId::AaBytes, Os::Android);
        assert!(
            s.iter().all(|v| v.abs() < 10.0),
            "expected MB-scale values: {s:?}"
        );
    }
}

appvsweb_json::impl_json!(
    enum FigureId {
        AaDomains,
        AaFlows,
        AaBytes,
        LeakDomains,
        LeakedIdentifiers,
        Jaccard,
    }
);
appvsweb_json::impl_json!(struct FigureSeries { os, points });
appvsweb_json::impl_json!(struct Figure { id, series });
