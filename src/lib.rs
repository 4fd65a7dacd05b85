//! # appvsweb
//!
//! Umbrella crate for the `appvsweb` workspace: a complete, from-scratch
//! Rust reproduction of *"Should You Use the App for That? Comparing the
//! Privacy Implications of App- and Web-based Online Services"*
//! (Leung, Ren, Choffnes, Wilson — ACM IMC 2016).
//!
//! Every subsystem the paper's methodology depends on is re-exported
//! here under a short alias:
//!
//! * [`netsim`] — deterministic event-driven network substrate (clock,
//!   RNG, DNS, TCP accounting, device model)
//! * [`httpsim`] — HTTP/1.1, codecs, cookies, browser cache, gzip/DEFLATE
//! * [`tlssim`] — certificates, trust, pinning, handshakes
//! * [`mitm`] — the Meddle VPN + mitmproxy-style interception testbed
//! * [`adblock`] — EasyList-syntax engine + A&A categorization
//! * [`pii`] — ground truth, encoder zoo, Aho–Corasick matcher,
//!   ReCon-style ML detector, combined pipeline, accuracy evaluation
//! * [`services`] — the calibrated 50-service synthetic world
//! * [`analysis`] — leak rules, Tables 1–3, Figures 1a–1f, reports
//! * [`recommend`] — the preference-based app-vs-web recommender
//! * [`core`] — the full study driver and dataset export
//! * [`population`] — population-scale campaigns: deterministic user
//!   models, mergeable sketch aggregation, and the fixed reduction tree
//! * [`serve`] — the supervised resident service: crash-recoverable
//!   queue/worker campaign execution, WAL-checkpointed revision store,
//!   drift alarms, and a std-only HTTP surface
//! * [`json`] — zero-dependency JSON value type, parser, serializer,
//!   and the `impl_json!` derive-style macro
//! * [`obs`] — deterministic tracing and metrics over the whole
//!   pipeline (span journals, counters, conservation-law checks)
//!
//! Every deliverable runs through the `repro` binary: the whole
//! campaign, or the paper's recommender over it.
//!
//! ```bash
//! cargo run --release -p appvsweb-bench --bin repro -- --all
//! cargo run --release -p appvsweb-bench --bin repro -- recommend
//! ```
pub use appvsweb_adblock as adblock;
pub use appvsweb_analysis as analysis;
pub use appvsweb_core as core;
pub use appvsweb_httpsim as httpsim;
pub use appvsweb_json as json;
pub use appvsweb_mitm as mitm;
pub use appvsweb_netsim as netsim;
pub use appvsweb_obs as obs;
pub use appvsweb_pii as pii;
pub use appvsweb_population as population;
pub use appvsweb_recommend as recommend;
pub use appvsweb_serve as serve;
pub use appvsweb_services as services;
pub use appvsweb_tlssim as tlssim;
