//! Leak classification (§3.2 "Defining a PII Leak").
//!
//! The paper's rule, verbatim: a transmission of PII is a **leak** when
//! "(1) it is transmitted over the Internet unencrypted, thus exposing
//! the data to eavesdroppers, or (2) it is sent to third parties
//! (encrypted or plaintext) and is not required for logging into the
//! service". Credentials (username, password, e-mail) sent to a first
//! party — or a single sign-on service — over HTTPS are not leaks; all
//! other transmitted PII is, including a birthday sent to the first
//! party over HTTPS.

use appvsweb_adblock::{Categorizer, Category};
use appvsweb_httpsim::Host;
use appvsweb_mitm::Trace;
use appvsweb_netsim::{FaultCounts, Os};
use appvsweb_pii::{CombinedDetector, PiiType};
use appvsweb_services::{Medium, ServiceCategory, ServiceSpec};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// One leaked (transaction, PII-type) instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeakEvent {
    /// The PII class.
    pub pii_type: PiiType,
    /// Destination registrable domain.
    pub domain: String,
    /// Destination category.
    pub category: Category,
    /// Whether it travelled in plaintext.
    pub plaintext: bool,
}

/// Per-PII-type aggregates within one cell.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TypeAggregate {
    /// Total leak instances of this type.
    pub count: u64,
    /// Domains that received it.
    pub domains: BTreeSet<String>,
}

/// The analysis of one (service, OS, medium) session.
#[derive(Clone, Debug)]
pub struct CellAnalysis {
    /// Service slug.
    pub service_id: String,
    /// Service display name.
    pub service_name: String,
    /// Service category.
    pub category: ServiceCategory,
    /// App Annie rank.
    pub rank: u32,
    /// Test OS.
    pub os: Os,
    /// App or Web.
    pub medium: Medium,
    /// Unique A&A registrable domains contacted (paper Fig. 1a).
    pub aa_domains: BTreeSet<String>,
    /// TCP connections to A&A domains (paper Fig. 1b).
    pub aa_flows: u64,
    /// Bytes to/from A&A domains (paper Fig. 1c).
    pub aa_bytes: u64,
    /// All TCP connections in the session.
    pub total_flows: u64,
    /// Every leak instance.
    pub leaks: Vec<LeakEvent>,
    /// Registrable domains that received at least one leak (Fig. 1d).
    pub leak_domains: BTreeSet<String>,
    /// Distinct leaked PII types (Figs. 1e/1f, Table 1 matrix).
    pub leaked_types: BTreeSet<PiiType>,
    /// Per-type aggregates (Table 3).
    pub per_type: BTreeMap<PiiType, TypeAggregate>,
    /// Per-A&A-domain leak counts (Table 2).
    pub per_domain_leaks: BTreeMap<String, u64>,
    /// Per-A&A-domain leaked types (Table 2).
    pub per_domain_types: BTreeMap<String, BTreeSet<PiiType>>,
    /// Injected faults observed during this cell's session (all zero on
    /// the golden path).
    pub fault_counts: FaultCounts,
    /// Client retries the session spent recovering from transient
    /// failures.
    pub retries: u64,
}

impl CellAnalysis {
    /// Whether this cell leaked any PII at all.
    pub fn leaked(&self) -> bool {
        !self.leaked_types.is_empty()
    }

    /// Total leak instances.
    pub fn leak_count(&self) -> u64 {
        self.leaks.len() as u64
    }
}

/// Analyze one captured trace.
///
/// `detector` must be built from the same ground truth the session used;
/// `categorizer` must carry the service's first-party domains.
pub fn analyze_trace(
    trace: &Trace,
    spec: &ServiceSpec,
    os: Os,
    medium: Medium,
    detector: &CombinedDetector,
    categorizer: &Categorizer,
) -> CellAnalysis {
    let _span = appvsweb_obs::span!("analysis.analyze", "{}/{os:?}/{medium:?}", spec.id);
    appvsweb_obs::counter!("analysis.cells_analyzed");
    let mut cell = CellAnalysis {
        service_id: spec.id.to_string(),
        service_name: spec.name.to_string(),
        category: spec.category,
        rank: spec.rank,
        os,
        medium,
        aa_domains: BTreeSet::new(),
        aa_flows: 0,
        aa_bytes: 0,
        total_flows: trace.connections.len() as u64,
        leaks: Vec::new(),
        leak_domains: BTreeSet::new(),
        leaked_types: BTreeSet::new(),
        per_type: BTreeMap::new(),
        per_domain_leaks: BTreeMap::new(),
        per_domain_types: BTreeMap::new(),
        fault_counts: trace.faults.clone(),
        retries: trace.retries,
    };

    // Hosts repeat heavily within a trace (every beacon to the same
    // endpoint); memoize the registrable-domain split and the EasyList
    // categorization per host. Categorization is a pure function of the
    // host, so this is observationally identical to recomputing.
    let mut host_memo: HashMap<&str, (String, Category)> = HashMap::new();

    // --- Connection-level accounting (works even for opaque flows). ---
    for conn in &trace.connections {
        let (domain, category) = memoized_host(&mut host_memo, &conn.host, categorizer);
        if category.is_aa() {
            cell.aa_domains.insert(domain.clone());
            cell.aa_flows += 1;
            cell.aa_bytes += conn.stats.total_bytes();
        }
    }

    // --- Transaction-level PII detection (decrypted flows only). ------
    // Identical request texts (repeated beacons) are scanned once.
    let mut cache: HashMap<u64, Vec<PiiType>> = HashMap::new();
    for txn in &trace.transactions {
        let text = scan_text_of(&txn.request);
        let mut hasher = DefaultHasher::new();
        text.hash(&mut hasher);
        txn.host.hash(&mut hasher);
        let key = hasher.finish();
        let (domain_label, category) = memoized_host(&mut host_memo, &txn.host, categorizer);
        let domain_label = domain_label.clone();
        let types = cache
            .entry(key)
            .or_insert_with(|| detector.scan(&domain_label, &text).types())
            .clone();

        if types.is_empty() {
            continue;
        }
        for t in types {
            if !is_leak(t, category, txn.plaintext) {
                continue;
            }
            let domain = domain_label.clone();
            appvsweb_obs::counter!("analysis.leaks");
            appvsweb_obs::event!(
                "analysis.leak",
                "{t:?} -> {domain} ({category:?}) plaintext={}",
                txn.plaintext
            );
            cell.leaks.push(LeakEvent {
                pii_type: t,
                domain: domain.clone(),
                category,
                plaintext: txn.plaintext,
            });
            cell.leak_domains.insert(domain.clone());
            cell.leaked_types.insert(t);
            let agg = cell.per_type.entry(t).or_default();
            agg.count += 1;
            agg.domains.insert(domain.clone());
            if category.is_aa() {
                *cell.per_domain_leaks.entry(domain.clone()).or_default() += 1;
                cell.per_domain_types.entry(domain).or_default().insert(t);
            }
        }
    }

    appvsweb_obs::event!(
        "analysis.cell",
        "flows={} aa_flows={} leaks={}",
        cell.total_flows,
        cell.aa_flows,
        cell.leaks.len()
    );
    cell
}

/// Memoized `host -> (registrable domain, EasyList category)`; both are
/// pure functions of the host string, recomputed once per distinct host
/// per trace instead of once per connection/transaction.
fn memoized_host<'a>(
    memo: &mut HashMap<&'a str, (String, Category)>,
    host: &'a str,
    categorizer: &Categorizer,
) -> (String, Category) {
    let entry = memo.entry(host).or_insert_with(|| {
        (
            Host::new(host).registrable_domain(),
            categorizer.categorize_host(host),
        )
    });
    (entry.0.clone(), entry.1)
}

/// The flow text the detectors scan, built from a parsed request: the
/// request line, every header except `User-Agent`, and the body,
/// *inflating gzip-compressed bodies first* — SDK batch uploads (e.g.
/// Flurry) travel with `Content-Encoding: gzip`, and the plaintext is
/// only visible after decompression, exactly as mitmproxy exposes it.
///
/// Every browser UA carries the hardware model ("Nexus 5
/// Build/KTU84P"); the paper does not count that ambient header as a
/// Device-Name leak — device info only counts when a party explicitly
/// collects it in a payload (and indeed Table 3 reports zero web-side
/// Device Name leaks).
pub fn scan_text_of(request: &appvsweb_httpsim::Request) -> String {
    use appvsweb_httpsim::compress::gzip_decompress_into;
    let mut out = String::with_capacity(256 + request.body.len());
    out.push_str(request.method.as_str());
    out.push(' ');
    out.push_str(&request.url.request_target());
    out.push_str(" HTTP/1.1\n");
    let mut gzipped = false;
    for (name, value) in request.headers.iter() {
        if name.eq_ignore_ascii_case("user-agent") {
            continue; // ambient hardware-model header, not a leak
        }
        if name.eq_ignore_ascii_case("content-encoding") && value.eq_ignore_ascii_case("gzip") {
            gzipped = true;
        }
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push('\n');
    }
    out.push('\n');
    if gzipped {
        // Decompress into a pooled scratch buffer; the plaintext only
        // lives long enough to be appended to the scan text, and the
        // guard scrubs it before the buffer is recycled.
        let mut plain = appvsweb_netsim::pool::take_with_capacity(request.body.len() * 3);
        match gzip_decompress_into(&request.body.bytes(), &mut plain) {
            Ok(()) => out.push_str(&String::from_utf8_lossy(&plain)),
            // Broken compression: fall back to the raw (opaque) bytes.
            Err(_) => out.push_str(&request.body.as_text()),
        }
    } else {
        out.push_str(&request.body.as_text());
    }
    out
}

/// The paper's leak rule for one detected transmission.
pub fn is_leak(t: PiiType, destination: Category, plaintext: bool) -> bool {
    if plaintext {
        return true; // rule (1): anything unencrypted is exposed
    }
    match destination {
        Category::FirstParty => !t.is_credential(),
        // Third parties (A&A or otherwise): everything is a leak.
        _ => true,
    }
}

/// Completeness ledger for a study run. A live measurement campaign
/// never finishes perfectly clean; the ledger says exactly how much of
/// the work list made it into [`Study::cells`] and what went wrong on
/// the way, so every table and figure can annotate its own coverage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StudyHealth {
    /// Cells in the work list (every testable service × OS × medium).
    pub cells_attempted: u64,
    /// Cells that produced an analysis (possibly after retries).
    pub cells_completed: u64,
    /// Cells that needed more than one attempt.
    pub cells_retried: u64,
    /// Cells that exhausted their attempts and are absent from `cells`.
    pub cells_failed: u64,
    /// Injected-fault tally across all completed sessions, plus one
    /// `cell_panics` count per panicked attempt.
    pub faults: FaultCounts,
    /// Client retries spent across all completed sessions.
    pub session_retries: u64,
    /// Labels (`service/os/medium`) of the failed cells, sorted.
    pub failed_cells: Vec<String>,
    /// Failed cells with their captured panic payloads, sorted by cell
    /// label. `failed_cells` stays as the bare-label view; this is the
    /// diagnosable one.
    pub failures: Vec<CellFailure>,
    /// Workers the supervised executor reaped for missing their
    /// sim-clock heartbeat deadline (always 0 under the batch runner,
    /// which has no supervisor).
    pub supervisor_reaps: u64,
    /// Cells quarantined as poison after exhausting their supervised
    /// retries; each also appears in `failures` with its payload.
    pub cells_quarantined: u64,
}

/// Why one cell exhausted its attempts: the label plus the panic payload
/// of the final attempt (the string that used to be swallowed by the
/// study runner's `catch_unwind`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellFailure {
    /// Cell label, `service/os/medium`.
    pub cell: String,
    /// Panic payload of the last failed attempt.
    pub error: String,
}

impl StudyHealth {
    /// Whether every attempted cell produced an analysis.
    pub fn is_complete(&self) -> bool {
        self.cells_failed == 0
    }

    /// Invariant: every attempted cell is either completed or failed.
    pub fn all_accounted(&self) -> bool {
        self.cells_completed + self.cells_failed == self.cells_attempted
    }

    /// One-line human summary for reports and CLI output.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{}/{} cells completed ({} retried, {} failed); {} faults injected, {} client retries",
            self.cells_completed,
            self.cells_attempted,
            self.cells_retried,
            self.cells_failed,
            self.faults.total(),
            self.session_retries
        );
        // Supervisor columns only exist under the serve executor; the
        // batch runner's summaries stay exactly as they always were.
        if self.supervisor_reaps > 0 || self.cells_quarantined > 0 {
            line.push_str(&format!(
                "; {} workers reaped, {} cells quarantined",
                self.supervisor_reaps, self.cells_quarantined
            ));
        }
        line
    }
}

/// All cells of a full study (50 services × 2 OSes × 2 media).
#[derive(Clone, Debug, Default)]
pub struct Study {
    /// Every analyzed cell.
    pub cells: Vec<CellAnalysis>,
    /// How completely the campaign covered its work list.
    pub health: StudyHealth,
}

/// App-vs-web comparison for one service on one OS (one point in each
/// of Figures 1a–1f).
#[derive(Clone, Debug)]
pub struct ServiceComparison {
    /// Service slug.
    pub service_id: String,
    /// OS this pair was measured on.
    pub os: Os,
    /// (app − web) unique A&A domains contacted.
    pub aa_domain_diff: i64,
    /// (app − web) flows to A&A domains.
    pub aa_flow_diff: i64,
    /// (app − web) bytes to A&A domains.
    pub aa_byte_diff: i64,
    /// (app − web) domains receiving PII.
    pub leak_domain_diff: i64,
    /// (app − web) distinct leaked identifier types.
    pub leaked_type_diff: i64,
    /// Jaccard index of the leaked-type sets.
    pub jaccard: f64,
}

impl Study {
    /// Cells for one OS and medium.
    pub fn cells_for(&self, os: Os, medium: Medium) -> impl Iterator<Item = &CellAnalysis> {
        self.cells
            .iter()
            .filter(move |c| c.os == os && c.medium == medium)
    }

    /// Find a specific cell.
    pub fn cell(&self, service_id: &str, os: Os, medium: Medium) -> Option<&CellAnalysis> {
        self.cells
            .iter()
            .find(|c| c.service_id == service_id && c.os == os && c.medium == medium)
    }

    /// Pair up app and web cells per (service, OS) for the figures.
    pub fn comparisons(&self) -> Vec<ServiceComparison> {
        let mut out = Vec::new();
        for os in [Os::Android, Os::Ios] {
            for app in self.cells_for(os, Medium::App) {
                let Some(web) = self.cell(&app.service_id, os, Medium::Web) else {
                    continue;
                };
                out.push(ServiceComparison {
                    service_id: app.service_id.clone(),
                    os,
                    aa_domain_diff: app.aa_domains.len() as i64 - web.aa_domains.len() as i64,
                    aa_flow_diff: app.aa_flows as i64 - web.aa_flows as i64,
                    aa_byte_diff: app.aa_bytes as i64 - web.aa_bytes as i64,
                    leak_domain_diff: app.leak_domains.len() as i64 - web.leak_domains.len() as i64,
                    leaked_type_diff: app.leaked_types.len() as i64 - web.leaked_types.len() as i64,
                    jaccard: crate::stats::jaccard(&app.leaked_types, &web.leaked_types),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leak_rule_matches_the_paper() {
        use Category::*;
        // Plaintext is always a leak, even credentials to first party.
        assert!(is_leak(PiiType::Password, FirstParty, true));
        assert!(is_leak(PiiType::Location, FirstParty, true));
        // Credentials to first party over HTTPS: NOT leaks.
        assert!(!is_leak(PiiType::Password, FirstParty, false));
        assert!(!is_leak(PiiType::Username, FirstParty, false));
        assert!(!is_leak(PiiType::Email, FirstParty, false));
        // Non-credential PII to first party over HTTPS IS a leak
        // ("a birthday sent to a first party using encryption is a leak").
        assert!(is_leak(PiiType::Birthday, FirstParty, false));
        assert!(is_leak(PiiType::Location, FirstParty, false));
        // Everything to third parties is a leak, encrypted or not.
        assert!(is_leak(PiiType::Password, Analytics, false));
        assert!(is_leak(PiiType::Email, Advertising, false));
        assert!(is_leak(PiiType::UniqueId, OtherThirdParty, false));
    }
}

appvsweb_json::impl_json!(struct LeakEvent { pii_type, domain, category, plaintext });
appvsweb_json::impl_json!(struct TypeAggregate { count, domains });
appvsweb_json::impl_json!(struct CellAnalysis {
    service_id, service_name, category, rank, os, medium, aa_domains, aa_flows, aa_bytes,
    total_flows, leaks, leak_domains, leaked_types, per_type, per_domain_leaks, per_domain_types,
    fault_counts, retries
});
appvsweb_json::impl_json!(struct StudyHealth {
    cells_attempted, cells_completed, cells_retried, cells_failed, faults, session_retries,
    failed_cells, failures, supervisor_reaps, cells_quarantined
});
appvsweb_json::impl_json!(struct CellFailure { cell, error });
appvsweb_json::impl_json!(struct Study { cells, health });
appvsweb_json::impl_json!(struct ServiceComparison {
    service_id, os, aa_domain_diff, aa_flow_diff, aa_byte_diff, leak_domain_diff,
    leaked_type_diff, jaccard
});
