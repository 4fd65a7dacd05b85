//! Full-study markdown report generation.
//!
//! [`markdown_report`] renders everything the paper's evaluation section
//! reports — headline statistics, Tables 1–3, figure summaries, OS
//! agreement — as a single self-contained markdown document. The `repro
//! --report` command writes it to disk; it is the reproduction's analogue
//! of the paper's results section.

use crate::figures::{self, FigureId};
use crate::leaks::Study;
use crate::osdiff;
use crate::render;
use crate::tables;
use appvsweb_netsim::Os;
use appvsweb_services::Medium;
use std::fmt::Write as _;

/// Render a complete markdown report for `study`.
pub fn markdown_report(study: &Study) -> String {
    let mut out = String::with_capacity(16 * 1024);
    let _ = writeln!(out, "# appvsweb study report\n");
    let _ = writeln!(
        out,
        "Cells analyzed: **{}** (services × OS × medium).\n",
        study.cells.len()
    );

    // ---- campaign completeness --------------------------------------
    // Only worth a section when the ledger says anything happened: the
    // golden path renders exactly the report it always did.
    let h = &study.health;
    if h.cells_attempted > 0 && (!h.is_complete() || h.faults.total() > 0 || h.session_retries > 0)
    {
        let _ = writeln!(out, "## Campaign health\n");
        let _ = writeln!(out, "- {}.", h.summary());
        if !h.failed_cells.is_empty() {
            let _ = writeln!(
                out,
                "- Failed cells (excluded from every table and figure): {}.",
                h.failed_cells.join(", ")
            );
        }
        let _ = writeln!(out);
    }

    // ---- headline numbers -------------------------------------------
    let _ = writeln!(out, "## Headlines\n");
    let t1 = tables::table1(study);
    let pct = |group: &str, medium| {
        t1.row(group, medium)
            .map(|r| r.pct_leaking * 100.0)
            .unwrap_or(0.0)
    };
    let _ = writeln!(
        out,
        "- Services leaking PII: **{:.0}%** via app, **{:.0}%** via Web \
         (paper: 92% / 78%).",
        pct("All", Medium::App),
        pct("All", Medium::Web)
    );
    let _ = writeln!(
        out,
        "- Web leak rate by browser: Chrome/Android **{:.1}%** vs Safari/iOS \
         **{:.1}%** (paper: 52.1% / 76%).",
        pct("Android", Medium::Web),
        pct("iOS", Medium::Web)
    );
    for os in [Os::Android, Os::Ios] {
        let aa = figures::cdf(study, FigureId::AaDomains, os);
        let jac = figures::cdf(study, FigureId::Jaccard, os);
        let pdf = figures::pdf_1e(study, os);
        let _ = writeln!(
            out,
            "- {os}: Web contacts more A&A domains for **{:.0}%** of services; \
             **{:.0}%** share no leaked types across media; modal (app−web) \
             identifier difference **{:+}**.",
            aa.fraction_negative() * 100.0,
            jac.at(0.0) * 100.0,
            pdf.mode().unwrap_or(0)
        );
    }
    let _ = writeln!(out);

    // ---- tables -------------------------------------------------------
    let _ = writeln!(out, "## Table 1 — services by OS and category\n");
    let _ = writeln!(out, "```text\n{}```\n", render::render_table1(&t1));
    let _ = writeln!(out, "## Table 2 — top-20 A&A domains\n");
    let _ = writeln!(
        out,
        "```text\n{}```\n",
        render::render_table2(&tables::table2(study, 20))
    );
    let _ = writeln!(out, "## Table 3 — PII types\n");
    let _ = writeln!(
        out,
        "```text\n{}```\n",
        render::render_table3(&tables::table3(study))
    );

    // ---- figures ------------------------------------------------------
    let _ = writeln!(out, "## Figures 1a–1f\n");
    for id in FigureId::ALL {
        let fig = figures::figure(study, id);
        let _ = writeln!(out, "```text\n{}```\n", render::ascii_plot(&fig, 64, 12));
    }

    // ---- OS agreement ---------------------------------------------------
    let _ = writeln!(out, "## Android vs iOS agreement\n");
    for medium in Medium::BOTH {
        let agg = osdiff::os_agreement(study, medium);
        let label = match medium {
            Medium::App => "App",
            Medium::Web => "Web",
        };
        let divergent: Vec<&str> = agg.divergent_types.iter().map(|t| t.label()).collect();
        let _ = writeln!(
            out,
            "- **{label}**: {} services compared on both OSes; {:.0}% leak \
             identical type sets; divergent types: {}.",
            agg.services,
            agg.identical_fraction * 100.0,
            if divergent.is_empty() {
                "none".to_string()
            } else {
                divergent.join(", ")
            }
        );
    }
    let _ = writeln!(out);

    // ---- per-service appendix ------------------------------------------
    let _ = writeln!(out, "## Appendix: per-service leak profiles (Android)\n");
    let _ = writeln!(out, "| service | app leaks | web leaks |");
    let _ = writeln!(out, "|---|---|---|");
    for app in study.cells_for(Os::Android, Medium::App) {
        let web = study.cell(&app.service_id, Os::Android, Medium::Web);
        let fmt_types = |cell: &crate::CellAnalysis| {
            if cell.leaked_types.is_empty() {
                "—".to_string()
            } else {
                cell.leaked_types
                    .iter()
                    .map(|t| t.abbrev())
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} |",
            app.service_name,
            fmt_types(app),
            web.map(fmt_types).unwrap_or_else(|| "n/a".into())
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaks::CellAnalysis;
    use appvsweb_pii::PiiType;
    use appvsweb_services::ServiceCategory;
    use std::collections::{BTreeMap, BTreeSet};

    fn cell(service: &str, os: Os, medium: Medium, types: &[PiiType]) -> CellAnalysis {
        CellAnalysis {
            service_id: service.into(),
            service_name: service.into(),
            category: ServiceCategory::Weather,
            rank: 1,
            os,
            medium,
            aa_domains: BTreeSet::new(),
            aa_flows: 0,
            aa_bytes: 0,
            total_flows: 0,
            leaks: vec![],
            leak_domains: BTreeSet::new(),
            leaked_types: types.iter().copied().collect(),
            per_type: BTreeMap::new(),
            per_domain_leaks: BTreeMap::new(),
            per_domain_types: BTreeMap::new(),
            fault_counts: Default::default(),
            retries: 0,
        }
    }

    #[test]
    fn report_contains_all_sections() {
        let study = Study {
            cells: vec![
                cell("svc", Os::Android, Medium::App, &[PiiType::UniqueId]),
                cell("svc", Os::Android, Medium::Web, &[PiiType::Location]),
                cell("svc", Os::Ios, Medium::App, &[PiiType::UniqueId]),
                cell("svc", Os::Ios, Medium::Web, &[PiiType::Location]),
            ],
            health: Default::default(),
        };
        let report = markdown_report(&study);
        for heading in [
            "# appvsweb study report",
            "## Headlines",
            "## Table 1",
            "## Table 2",
            "## Table 3",
            "## Figures 1a–1f",
            "## Android vs iOS agreement",
            "## Appendix",
        ] {
            assert!(report.contains(heading), "missing section {heading}");
        }
        // The appendix row shows the service with its abbreviations.
        assert!(report.contains("| svc | UID | L |"));
        // A clean campaign renders no health section at all.
        assert!(!report.contains("## Campaign health"));
    }

    #[test]
    fn degraded_campaign_is_annotated() {
        let mut study = Study {
            cells: vec![
                cell("svc", Os::Android, Medium::App, &[PiiType::UniqueId]),
                cell("svc", Os::Android, Medium::Web, &[PiiType::Location]),
            ],
            health: Default::default(),
        };
        study.health.cells_attempted = 3;
        study.health.cells_completed = 2;
        study.health.cells_failed = 1;
        study.health.failed_cells = vec!["svc/Ios/Web".into()];
        study.health.faults.connection_resets = 7;
        study.health.session_retries = 4;
        let report = markdown_report(&study);
        assert!(report.contains("## Campaign health"));
        assert!(report.contains("2/3 cells completed"));
        assert!(report.contains("svc/Ios/Web"));
    }
}
