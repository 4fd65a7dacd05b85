//! Audit one service's tracker ecosystem in depth: who is contacted,
//! who receives PII, under which encodings, and over which transport.
//!
//! ```text
//! cargo run --release --example tracker_audit [service-id] [android|ios]
//! ```

use appvsweb::adblock::{Categorizer, Category};
use appvsweb::analysis::leaks::scan_text_of;
use appvsweb::core::Testbed;
use appvsweb::httpsim::Host;
use appvsweb::netsim::Os;
use appvsweb::pii::GroundTruthMatcher;
use appvsweb::services::{Catalog, Medium, SessionConfig};
use std::collections::BTreeMap;

fn main() {
    let service_id = std::env::args().nth(1).unwrap_or_else(|| "grubhub".into());
    let os = match std::env::args().nth(2).as_deref() {
        Some("ios") => Os::Ios,
        _ => Os::Android,
    };
    let catalog = Catalog::paper();
    let Some(spec) = catalog.get(&service_id) else {
        eprintln!("unknown service '{service_id}'");
        std::process::exit(2);
    };
    println!("=== Tracker audit: {} on {os} ===\n", spec.name);

    let categorizer = Categorizer::bundled(spec.first_party);
    for medium in Medium::BOTH {
        let mut tb = Testbed::for_cell(spec, os, 2016);
        let matcher = GroundTruthMatcher::new(&tb.truth);
        let trace = tb.run_session(spec, os, medium, &SessionConfig::default());

        let label = match medium {
            Medium::App => "APP",
            Medium::Web => "WEB",
        };
        println!(
            "--- {label}: {} connections, {} transactions ---",
            trace.connections.len(),
            trace.transactions.len()
        );

        // Per-domain rollup: flows, bytes, category, findings w/ encodings.
        #[derive(Default)]
        struct DomainStat {
            flows: u64,
            bytes: u64,
            category: Option<Category>,
            plaintext: bool,
            findings: BTreeMap<String, String>, // type label -> encoding
        }
        let mut domains: BTreeMap<String, DomainStat> = BTreeMap::new();
        for conn in &trace.connections {
            let d = Host::new(&conn.host).registrable_domain();
            let e = domains.entry(d).or_default();
            e.flows += 1;
            e.bytes += conn.stats.total_bytes();
            e.category
                .get_or_insert_with(|| categorizer.categorize_host(&conn.host));
            e.plaintext |= !conn.tls;
        }
        for txn in &trace.transactions {
            let d = Host::new(&txn.host).registrable_domain();
            let text = scan_text_of(&txn.request);
            for f in matcher.scan(&text) {
                domains
                    .entry(d.clone())
                    .or_default()
                    .findings
                    .insert(f.pii_type.label().to_string(), f.encoding.clone());
            }
        }

        let mut rows: Vec<(&String, &DomainStat)> = domains.iter().collect();
        rows.sort_by_key(|(_, stat)| std::cmp::Reverse(stat.bytes));
        for (domain, stat) in rows {
            let cat = match stat.category {
                Some(Category::FirstParty) => "1st-party",
                Some(Category::Advertising) => "ADVERT",
                Some(Category::Analytics) => "ANALYT",
                Some(Category::OtherThirdParty) => "3rd-party",
                None => "?",
            };
            let findings: Vec<String> = stat
                .findings
                .iter()
                .map(|(t, enc)| format!("{t}({enc})"))
                .collect();
            println!(
                "  {:<26} {:<9} {:>4} flows {:>9} B{}  {}",
                domain,
                cat,
                stat.flows,
                stat.bytes,
                if stat.plaintext { "  PLAINTEXT" } else { "" },
                if findings.is_empty() {
                    "-".to_string()
                } else {
                    findings.join(", ")
                }
            );
        }
        println!();
    }
    println!("(encodings show HOW each value travelled: plain, percent, stripseparators,");
    println!(" lowercase>md5 hashes, base64(payload) wrappers, …)");
}
