//! Builders for the paper's three tables.

use crate::leaks::{CellAnalysis, Study};
use crate::stats::{mean, std_dev};
use appvsweb_netsim::Os;
use appvsweb_pii::PiiType;
use appvsweb_services::{Medium, ServiceCategory};
use std::collections::{BTreeMap, BTreeSet};

// --------------------------------------------------------------------
// Table 1
// --------------------------------------------------------------------

/// One row of Table 1 (a service group × medium).
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Row label, e.g. "All", "Android", "Weather".
    pub group: String,
    /// App or Web.
    pub medium: Medium,
    /// Number of services in the group.
    pub services: usize,
    /// Average App Annie rank (apps only; `None` for web rows).
    pub avg_rank: Option<f64>,
    /// Fraction of services leaking any PII.
    pub pct_leaking: f64,
    /// Mean domains receiving leaks per service.
    pub avg_leak_domains: f64,
    /// Std dev of the above.
    pub std_leak_domains: f64,
    /// Which identifier types leak anywhere in the group
    /// (the ✓-matrix columns B D E G L N P# U PW UID).
    pub leaked_types: BTreeSet<PiiType>,
}

/// Table 1: rows for All/OS/category groups × medium.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Rows in paper order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// The row of `group` (`"All"`, `"Android"`, `"iOS"` or a category
    /// label) for `medium`.
    pub fn row(&self, group: &str, medium: Medium) -> Option<&Table1Row> {
        self.rows
            .iter()
            .find(|r| r.group == group && r.medium == medium)
    }
}

fn summarize<'a>(
    group: &str,
    medium: Medium,
    cells: impl Iterator<Item = &'a CellAnalysis>,
) -> Table1Row {
    let cells: Vec<&CellAnalysis> = cells.collect();
    // A service may appear under both OSes: Table 1's All/category rows
    // treat the service as leaking if it leaks on either OS, and average
    // leak-domain counts across (service, OS) observations that leak.
    let mut services: BTreeMap<&str, (bool, u32)> = BTreeMap::new();
    let mut leak_domain_counts: Vec<f64> = Vec::new();
    let mut leaked_types = BTreeSet::new();
    for c in &cells {
        let e = services
            .entry(c.service_id.as_str())
            .or_insert((false, c.rank));
        e.0 |= c.leaked();
        if c.leaked() {
            leak_domain_counts.push(c.leak_domains.len() as f64);
        }
        leaked_types.extend(c.leaked_types.iter().copied());
    }
    let n = services.len();
    let leaking = services.values().filter(|(l, _)| *l).count();
    let ranks: Vec<f64> = services.values().map(|(_, r)| *r as f64).collect();
    Table1Row {
        group: group.to_string(),
        medium,
        services: n,
        avg_rank: if medium == Medium::App {
            Some(mean(&ranks))
        } else {
            None
        },
        pct_leaking: if n == 0 {
            0.0
        } else {
            leaking as f64 / n as f64
        },
        avg_leak_domains: mean(&leak_domain_counts),
        std_leak_domains: std_dev(&leak_domain_counts),
        leaked_types,
    }
}

/// Build Table 1 from a study.
pub fn table1(study: &Study) -> Table1 {
    let mut rows = Vec::new();
    for medium in Medium::BOTH {
        rows.push(summarize(
            "All",
            medium,
            study.cells.iter().filter(|c| c.medium == medium),
        ));
    }
    for os in [Os::Android, Os::Ios] {
        for medium in Medium::BOTH {
            rows.push(summarize(
                &os.to_string(),
                medium,
                study
                    .cells
                    .iter()
                    .filter(move |c| c.medium == medium && c.os == os),
            ));
        }
    }
    for cat in ServiceCategory::ALL {
        for medium in Medium::BOTH {
            rows.push(summarize(
                cat.label(),
                medium,
                study
                    .cells
                    .iter()
                    .filter(move |c| c.medium == medium && c.category == cat),
            ));
        }
    }
    Table1 { rows }
}

// --------------------------------------------------------------------
// Table 2
// --------------------------------------------------------------------

/// One row of Table 2 (an A&A organization).
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Registrable domain, absent its public suffix (paper style).
    pub organization: String,
    /// Services whose APP contacted it.
    pub services_app: usize,
    /// Services contacting it via BOTH media.
    pub services_both: usize,
    /// Services whose WEB contacted it.
    pub services_web: usize,
    /// Mean leaks per contacting service (app).
    pub avg_leaks_app: f64,
    /// Mean leaks per contacting service (web).
    pub avg_leaks_web: f64,
    /// Distinct identifier types received via apps.
    pub ids_app: usize,
    /// Distinct identifier types received via both media.
    pub ids_both: usize,
    /// Distinct identifier types received via web.
    pub ids_web: usize,
    /// Total leak instances (sort key).
    pub total_leaks: u64,
}

/// Table 2: the top-N A&A domains by total leaks.
pub fn table2(study: &Study, top: usize) -> Vec<Table2Row> {
    #[derive(Default)]
    struct Acc {
        app_services: BTreeSet<String>,
        web_services: BTreeSet<String>,
        /// Leak counts per (service, OS) observation — "avg leaks" is the
        /// mean over individual tests, as in the paper.
        app_leaks: BTreeMap<(String, Os), u64>,
        web_leaks: BTreeMap<(String, Os), u64>,
        app_types: BTreeSet<PiiType>,
        web_types: BTreeSet<PiiType>,
    }
    let mut orgs: BTreeMap<String, Acc> = BTreeMap::new();

    for cell in &study.cells {
        for domain in &cell.aa_domains {
            let org = domain.split('.').next().unwrap_or(domain).to_string();
            let acc = orgs.entry(org).or_default();
            match cell.medium {
                Medium::App => acc.app_services.insert(cell.service_id.clone()),
                Medium::Web => acc.web_services.insert(cell.service_id.clone()),
            };
        }
        for (domain, count) in &cell.per_domain_leaks {
            let org = domain.split('.').next().unwrap_or(domain).to_string();
            let acc = orgs.entry(org).or_default();
            let per_service = match cell.medium {
                Medium::App => &mut acc.app_leaks,
                Medium::Web => &mut acc.web_leaks,
            };
            *per_service
                .entry((cell.service_id.clone(), cell.os))
                .or_default() += count;
        }
        for (domain, types) in &cell.per_domain_types {
            let org = domain.split('.').next().unwrap_or(domain).to_string();
            let acc = orgs.entry(org).or_default();
            match cell.medium {
                Medium::App => acc.app_types.extend(types.iter().copied()),
                Medium::Web => acc.web_types.extend(types.iter().copied()),
            }
        }
    }

    let mut rows: Vec<Table2Row> = orgs
        .into_iter()
        .map(|(org, acc)| {
            let app_leak_values: Vec<f64> = acc.app_leaks.values().map(|v| *v as f64).collect();
            let web_leak_values: Vec<f64> = acc.web_leaks.values().map(|v| *v as f64).collect();
            let total = acc.app_leaks.values().sum::<u64>() + acc.web_leaks.values().sum::<u64>();
            Table2Row {
                services_both: acc.app_services.intersection(&acc.web_services).count(),
                services_app: acc.app_services.len(),
                services_web: acc.web_services.len(),
                avg_leaks_app: mean(&app_leak_values),
                avg_leaks_web: mean(&web_leak_values),
                ids_both: acc.app_types.intersection(&acc.web_types).count(),
                ids_app: acc.app_types.len(),
                ids_web: acc.web_types.len(),
                total_leaks: total,
                organization: org,
            }
        })
        .filter(|r| r.total_leaks > 0)
        .collect();
    rows.sort_by(|a, b| {
        b.total_leaks
            .cmp(&a.total_leaks)
            .then(a.organization.cmp(&b.organization))
    });
    rows.truncate(top);
    rows
}

// --------------------------------------------------------------------
// Table 3
// --------------------------------------------------------------------

/// One row of Table 3 (a PII type).
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// The PII type.
    pub pii_type: PiiType,
    /// Services leaking it via app.
    pub services_app: usize,
    /// Services leaking it via both media.
    pub services_both: usize,
    /// Services leaking it via web.
    pub services_web: usize,
    /// Mean leak instances per leaking service (app).
    pub avg_leaks_app: f64,
    /// Mean leak instances per leaking service (web).
    pub avg_leaks_web: f64,
    /// Domains it leaked to via app.
    pub domains_app: usize,
    /// Domains it leaked to via both media.
    pub domains_both: usize,
    /// Domains it leaked to via web.
    pub domains_web: usize,
    /// Total leak instances (sort key).
    pub total_leaks: u64,
}

/// Table 3: every PII type, sorted by total leaks.
pub fn table3(study: &Study) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for t in PiiType::ALL {
        let mut app_services = BTreeSet::new();
        let mut web_services = BTreeSet::new();
        let mut app_leaks: BTreeMap<(String, Os), u64> = BTreeMap::new();
        let mut web_leaks: BTreeMap<(String, Os), u64> = BTreeMap::new();
        let mut app_domains = BTreeSet::new();
        let mut web_domains = BTreeSet::new();

        for cell in &study.cells {
            let Some(agg) = cell.per_type.get(&t) else {
                continue;
            };
            match cell.medium {
                Medium::App => {
                    app_services.insert(cell.service_id.clone());
                    *app_leaks
                        .entry((cell.service_id.clone(), cell.os))
                        .or_default() += agg.count;
                    app_domains.extend(agg.domains.iter().cloned());
                }
                Medium::Web => {
                    web_services.insert(cell.service_id.clone());
                    *web_leaks
                        .entry((cell.service_id.clone(), cell.os))
                        .or_default() += agg.count;
                    web_domains.extend(agg.domains.iter().cloned());
                }
            }
        }

        let app_leak_values: Vec<f64> = app_leaks.values().map(|v| *v as f64).collect();
        let web_leak_values: Vec<f64> = web_leaks.values().map(|v| *v as f64).collect();
        let total = app_leaks.values().sum::<u64>() + web_leaks.values().sum::<u64>();
        rows.push(Table3Row {
            pii_type: t,
            services_both: app_services.intersection(&web_services).count(),
            services_app: app_services.len(),
            services_web: web_services.len(),
            avg_leaks_app: mean(&app_leak_values),
            avg_leaks_web: mean(&web_leak_values),
            domains_both: app_domains.intersection(&web_domains).count(),
            domains_app: app_domains.len(),
            domains_web: web_domains.len(),
            total_leaks: total,
        });
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.total_leaks));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaks::LeakEvent;
    use appvsweb_adblock::Category;

    fn cell(
        service: &str,
        os: Os,
        medium: Medium,
        category: ServiceCategory,
        leaks: &[(PiiType, &str)],
        aa: &[&str],
    ) -> CellAnalysis {
        let mut c = CellAnalysis {
            service_id: service.into(),
            service_name: service.into(),
            category,
            rank: 10,
            os,
            medium,
            aa_domains: aa.iter().map(|s| s.to_string()).collect(),
            aa_flows: aa.len() as u64 * 10,
            aa_bytes: aa.len() as u64 * 1000,
            total_flows: 20,
            leaks: vec![],
            leak_domains: BTreeSet::new(),
            leaked_types: BTreeSet::new(),
            per_type: BTreeMap::new(),
            per_domain_leaks: BTreeMap::new(),
            per_domain_types: BTreeMap::new(),
            fault_counts: Default::default(),
            retries: 0,
        };
        for (t, d) in leaks {
            c.leaks.push(LeakEvent {
                pii_type: *t,
                domain: d.to_string(),
                category: Category::Advertising,
                plaintext: false,
            });
            c.leak_domains.insert(d.to_string());
            c.leaked_types.insert(*t);
            let agg = c.per_type.entry(*t).or_default();
            agg.count += 1;
            agg.domains.insert(d.to_string());
            *c.per_domain_leaks.entry(d.to_string()).or_default() += 1;
            c.per_domain_types
                .entry(d.to_string())
                .or_default()
                .insert(*t);
        }
        c
    }

    fn small_study() -> Study {
        Study {
            cells: vec![
                cell(
                    "svc-a",
                    Os::Android,
                    Medium::App,
                    ServiceCategory::Weather,
                    &[
                        (PiiType::UniqueId, "flurry.com"),
                        (PiiType::Location, "flurry.com"),
                    ],
                    &["flurry.com"],
                ),
                cell(
                    "svc-a",
                    Os::Android,
                    Medium::Web,
                    ServiceCategory::Weather,
                    &[(PiiType::Location, "doubleclick.net")],
                    &["doubleclick.net", "google-analytics.com", "adnxs.com"],
                ),
                cell(
                    "svc-b",
                    Os::Android,
                    Medium::App,
                    ServiceCategory::News,
                    &[],
                    &["comscore.com"],
                ),
                cell(
                    "svc-b",
                    Os::Android,
                    Medium::Web,
                    ServiceCategory::News,
                    &[(PiiType::Location, "doubleclick.net")],
                    &["doubleclick.net", "adnxs.com"],
                ),
            ],
            health: Default::default(),
        }
    }

    #[test]
    fn table1_all_rows() {
        let t = table1(&small_study());
        let all_app = t.row("All", Medium::App).unwrap();
        assert_eq!(all_app.services, 2);
        assert_eq!(all_app.pct_leaking, 0.5); // svc-a leaks, svc-b doesn't
        assert!(all_app.avg_rank.is_some());
        let all_web = t.row("All", Medium::Web).unwrap();
        assert_eq!(all_web.pct_leaking, 1.0);
        assert!(all_web.avg_rank.is_none());
        assert!(all_web.leaked_types.contains(&PiiType::Location));
        // Category rows exist for every category.
        assert_eq!(t.rows.len(), 2 + 4 + 20);
    }

    #[test]
    fn table2_orders_by_total_leaks() {
        let rows = table2(&small_study(), 20);
        assert_eq!(rows[0].organization, "doubleclick");
        assert_eq!(rows[0].services_web, 2);
        assert_eq!(rows[0].services_app, 0);
        assert_eq!(rows[0].total_leaks, 2);
        let flurry = rows.iter().find(|r| r.organization == "flurry").unwrap();
        assert_eq!(flurry.services_app, 1);
        assert_eq!(flurry.ids_app, 2);
        assert_eq!(flurry.ids_web, 0);
    }

    #[test]
    fn table3_marginals() {
        let rows = table3(&small_study());
        let loc = rows
            .iter()
            .find(|r| r.pii_type == PiiType::Location)
            .unwrap();
        assert_eq!(loc.services_app, 1);
        assert_eq!(loc.services_web, 2);
        assert_eq!(loc.services_both, 1);
        assert_eq!(loc.domains_app, 1);
        assert_eq!(loc.domains_web, 1);
        assert_eq!(loc.domains_both, 0, "flurry.com vs doubleclick.net");
        let uid = rows
            .iter()
            .find(|r| r.pii_type == PiiType::UniqueId)
            .unwrap();
        assert_eq!((uid.services_app, uid.services_web), (1, 0));
    }
}

appvsweb_json::impl_json!(struct Table1Row {
    group, medium, services, avg_rank, pct_leaking, avg_leak_domains, std_leak_domains,
    leaked_types
});
appvsweb_json::impl_json!(struct Table1 { rows });
appvsweb_json::impl_json!(struct Table2Row {
    organization, services_app, services_both, services_web, avg_leaks_app, avg_leaks_web,
    ids_app, ids_both, ids_web, total_leaks
});
appvsweb_json::impl_json!(struct Table3Row {
    pii_type, services_app, services_both, services_web, avg_leaks_app, avg_leaks_web,
    domains_app, domains_both, domains_web, total_leaks
});
