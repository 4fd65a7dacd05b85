//! The `paper_campaign` workload: the paper's 196-cell study, rendered.
//!
//! Set-up (catalog, EasyList engine, ReCon training) is done once per
//! process and timed apart from the campaign, which runs the cells on
//! the program's own work-stealing executor and renders every table,
//! figure, the markdown report and the headlines.
//!
//! The traced twin drives each cell through the public calls
//! `run_cell` is made of, with a span around each, so its study must
//! digest the same as the untraced one.

use crate::ledger::{percentile, ratio, CacheCounters, Spans, Tracer};
use crate::Report;
use appvsweb_adblock::Categorizer;
use appvsweb_analysis::drift::headline_stats;
use appvsweb_analysis::figures::{figure, FigureId};
use appvsweb_analysis::leaks::scan_text_of;
use appvsweb_analysis::render::render_table3;
use appvsweb_analysis::render::{ascii_plot, render_figure, render_table1, render_table2};
use appvsweb_analysis::report::markdown_report;
use appvsweb_analysis::tables::{table1, table2, table3};
use appvsweb_analysis::{analyze_trace, Study};
use appvsweb_core::study::{
    campaign_cells, fold_outcomes, run_cell_caught, train_recon, CellOutcome, StudyConfig,
};
use appvsweb_core::Testbed;
use appvsweb_httpsim::Host;
use appvsweb_netsim::Os;
use appvsweb_pii::recon::ReconClassifier;
use appvsweb_pii::CombinedDetector;
use appvsweb_services::{Catalog, Medium, ServiceSpec, SessionConfig};
use std::collections::BTreeSet;
use std::time::Instant;

/// Group id of spans that belong to the run rather than to one cell.
pub const RUN_GROUP: u64 = u64::MAX;

/// The seed-2016 headlines the paper reproduction is pinned to:
/// app, Web, Android Web and iOS Web leak rates in percent.
const GOLDEN_HEADLINES: [f64; 4] = [92.0, 74.0, 53.1, 75.5];
const GOLDEN_SEED: u64 = 2016;

/// Everything a campaign needs before its first cell runs.
pub struct Setup {
    pub catalog: Catalog,
    pub cfg: StudyConfig,
    pub recon: Option<ReconClassifier>,
}

impl Setup {
    /// The paper's configuration at `seed`: 4-minute sessions, ReCon
    /// on, no faults. ReCon training is timed as `pii.recon_train`
    /// when a tracer is given.
    pub fn new(seed: u64, workers: usize, tracer: Option<&Tracer>) -> Setup {
        let catalog = Catalog::paper();
        // The bundled EasyList engine is compiled once per process.
        drop(appvsweb_adblock::engine::bundled_shared());
        let cfg = StudyConfig {
            seed,
            workers,
            ..StudyConfig::default()
        };
        let recon = match tracer {
            Some(t) => t.time("pii.recon_train", RUN_GROUP, None, || {
                train_recon(&catalog, &cfg)
            }),
            None => train_recon(&catalog, &cfg),
        };
        Setup {
            catalog,
            cfg,
            recon: Some(recon),
        }
    }

    fn work(&self) -> Vec<(&ServiceSpec, Os, Medium)> {
        campaign_cells(&self.catalog, &self.cfg.cells).expect("the paper grid resolves")
    }
}

fn label(spec: &ServiceSpec, os: Os, medium: Medium) -> String {
    format!("{}/{os:?}/{medium:?}", spec.id)
}

/// One cell with the batch runner's bounded retry, as `run_study` does.
fn guarded(spec: &ServiceSpec, os: Os, medium: Medium, setup: &Setup) -> CellOutcome {
    let label = label(spec, os, medium);
    let _scope = appvsweb_obs::cell_scope(&label);
    let allowed = setup.cfg.cell_attempts.max(1);
    let mut panics = 0;
    let mut panic_msg = None;
    for attempt in 0..allowed {
        match run_cell_caught(spec, os, medium, &setup.cfg, setup.recon.as_ref(), attempt) {
            Ok(cell) => {
                return CellOutcome {
                    label,
                    cell: Some(cell),
                    attempts: attempt + 1,
                    panics,
                    panic_msg,
                }
            }
            Err(msg) => {
                panics += 1;
                panic_msg = Some(msg);
            }
        }
    }
    CellOutcome {
        label,
        cell: None,
        attempts: allowed,
        panics,
        panic_msg,
    }
}

/// The untimed-set-up half of `run_study`: every cell, then the fold.
pub fn run(setup: &Setup) -> Study {
    let work = setup.work();
    let outcomes =
        appvsweb_core::exec::run_indexed(&work, setup.cfg.workers, 1, |_, &(spec, os, medium)| {
            guarded(spec, os, medium, setup)
        });
    fold_outcomes(outcomes)
}

/// Render Tables 1–3, every figure, the markdown report and the
/// headlines; returns the number of bytes rendered.
pub fn render(study: &Study) -> usize {
    let mut out = String::new();
    out.push_str(&render_table1(&table1(study)));
    out.push_str(&render_table2(&table2(study, 20)));
    out.push_str(&render_table3(&table3(study)));
    for id in FigureId::ALL {
        let fig = figure(study, id);
        out.push_str(&ascii_plot(&fig, 64, 12));
        out.push_str(&render_figure(&fig));
    }
    out.push_str(&markdown_report(study));
    out.push_str(&format!("{:?}", headline_stats(study)));
    std::hint::black_box(out).len()
}

/// MD5 of the study's dataset export.
pub fn digest(study: &Study) -> String {
    appvsweb_pii::hash::md5_hex(appvsweb_core::dataset::to_json(study).as_bytes())
}

/// The correctness checks every campaign run makes: every cell is
/// accounted for, none failed, and at the golden seed the headlines
/// are the paper reproduction's.
pub fn check(study: &Study, seed: u64, report: &mut Report) -> bool {
    let health = &study.health;
    let accounted = health.all_accounted() && health.cells_failed == 0;
    let golden = if seed == GOLDEN_SEED {
        let h = headline_stats(study);
        let got = [h.app_pct, h.web_pct, h.android_web_pct, h.ios_web_pct];
        report.text("golden_headlines", &format!("{got:?}"));
        got == GOLDEN_HEADLINES
    } else {
        true
    };
    report.flag("check.all_accounted", accounted);
    report.flag("check.golden_headlines", golden);
    accounted && golden
}

/// Per-cell counts the traced run gathers; all are pure functions of
/// the seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellCounts {
    transactions: u64,
    connections: u64,
    wire_bytes: u64,
    retries: u64,
    faults: u64,
    scans: u64,
    unique_texts: u64,
    scan_bytes: u64,
    hosts: u64,
    aa_hosts: u64,
    leaks: u64,
}

impl CellCounts {
    fn add(mut self, o: &CellCounts) -> CellCounts {
        self.transactions += o.transactions;
        self.connections += o.connections;
        self.wire_bytes += o.wire_bytes;
        self.retries += o.retries;
        self.faults += o.faults;
        self.scans += o.scans;
        self.unique_texts += o.unique_texts;
        self.scan_bytes += o.scan_bytes;
        self.hosts += o.hosts;
        self.aa_hosts += o.aa_hosts;
        self.leaks += o.leaks;
        self
    }
}

/// One cell through the calls `run_cell` makes, a span around each,
/// then the detection and categorization replays after the cell's
/// spans have closed.
fn traced_cell(
    group: u64,
    spec: &ServiceSpec,
    os: Os,
    medium: Medium,
    setup: &Setup,
    tracer: &Tracer,
) -> (CellOutcome, CellCounts) {
    let cfg = &setup.cfg;
    let label = label(spec, os, medium);
    let _scope = appvsweb_obs::cell_scope(&label);
    let cell_span = tracer.open("core.cell", group, None);
    let parent = Some(cell_span.id());
    let session_cfg = SessionConfig {
        duration: cfg.duration,
        seed: cfg.seed,
        faults: cfg.faults.clone(),
        ..SessionConfig::default()
    };
    let mut tb = tracer.time("core.testbed", group, parent, || {
        Testbed::for_cell(spec, os, cfg.seed)
    });
    let trace = tracer.time("services.session", group, parent, || {
        tb.run_session(spec, os, medium, &session_cfg)
    });
    let detector = tracer.time("pii.detector_build", group, parent, || {
        CombinedDetector::new(&tb.truth, setup.recon.clone())
    });
    let categorizer = tracer.time("adblock.build", group, parent, || {
        Categorizer::bundled(spec.first_party)
    });
    let analysis = tracer.time("analysis.analyze", group, parent, || {
        analyze_trace(&trace, spec, os, medium, &detector, &categorizer)
    });
    drop(cell_span);

    let mut counts = CellCounts {
        transactions: trace.transactions.len() as u64,
        connections: trace.connections.len() as u64,
        wire_bytes: trace
            .connections
            .iter()
            .map(|c| c.stats.total_bytes())
            .sum(),
        retries: trace.retries,
        faults: trace.faults.total(),
        leaks: analysis.leak_count(),
        ..CellCounts::default()
    };
    let texts: Vec<String> = tracer.time("pii.scan_text", group, None, || {
        trace
            .transactions
            .iter()
            .map(|txn| scan_text_of(&txn.request))
            .collect()
    });
    let domains: Vec<String> = trace
        .transactions
        .iter()
        .map(|txn| Host::new(&txn.host).registrable_domain())
        .collect();
    tracer.time("pii.scan", group, None, || {
        for (domain, text) in domains.iter().zip(&texts) {
            std::hint::black_box(detector.scan(domain, text));
        }
    });
    counts.scans = texts.len() as u64;
    counts.scan_bytes = texts.iter().map(|t| t.len() as u64).sum();
    let unique: BTreeSet<(&str, &str)> = trace
        .transactions
        .iter()
        .zip(&texts)
        .map(|(txn, text)| (txn.host.as_str(), text.as_str()))
        .collect();
    counts.unique_texts = unique.len() as u64;
    let hosts = trace.hosts();
    let aa_hosts = tracer.time("adblock.categorize", group, None, || {
        hosts
            .iter()
            .filter(|h| categorizer.categorize_host(h).is_aa())
            .count()
    });
    counts.hosts = hosts.len() as u64;
    counts.aa_hosts = aa_hosts as u64;

    let outcome = CellOutcome {
        label,
        cell: Some(analysis),
        attempts: 1,
        panics: 0,
        panic_msg: None,
    };
    (outcome, counts)
}

/// The traced campaign: cells under spans, then the fold and the
/// rendering under spans of their own. Writes the layer metrics of
/// `core`, `services`, `netsim`, `pii`, `adblock` and `analysis`.
pub fn run_traced(setup: &Setup, tracer: &Tracer, report: &mut Report) -> (Study, bool) {
    let workers = setup.cfg.workers;
    let work = setup.work();
    let before = CacheCounters::snapshot();
    let started = Instant::now();
    let results = appvsweb_core::exec::run_indexed(&work, workers, 1, |i, &(spec, os, medium)| {
        traced_cell(i as u64, spec, os, medium, setup, tracer)
    });
    let exec_ms = started.elapsed().as_secs_f64() * 1e3;
    let caches = CacheCounters::snapshot().since(before);
    let counts = results
        .iter()
        .fold(CellCounts::default(), |acc, (_, c)| acc.add(c));
    let outcomes: Vec<CellOutcome> = results.into_iter().map(|(o, _)| o).collect();
    let study = tracer.time("analysis.fold", RUN_GROUP, None, || fold_outcomes(outcomes));
    tracer.time("analysis.render", RUN_GROUP, None, || render(&study));
    let total_ms = started.elapsed().as_secs_f64() * 1e3;

    let spans = Spans::new(tracer.spans());
    let cell_ms = spans.durations_ms("core.cell");
    let busy_ms: f64 = cell_ms.iter().sum();
    let replay_ms = spans.total_ms("pii.scan_text")
        + spans.total_ms("pii.scan")
        + spans.total_ms("adblock.categorize");
    let capacity_ms = workers as f64 * exec_ms - replay_ms;
    let idle_ms = capacity_ms - busy_ms;
    // Σ self time of the layer spans under each cell, plus the
    // executor's idle time, must cover the workers' capacity over the
    // campaign to within a tenth; the gap is harness time no layer
    // span explains.
    let reconcile = ratio(spans.children_self_ms("core.cell") + idle_ms, capacity_ms);
    let reconciled = (reconcile - 1.0).abs() <= 0.1;

    let session_ms = spans.durations_ms("services.session");
    let session_total: f64 = session_ms.iter().sum();
    let scan_ms = spans.total_ms("pii.scan");
    report.num("core.testbed_ms", spans.total_ms("core.testbed"));
    report.num("core.cell_p50_ms", percentile(&cell_ms, 0.5));
    report.num("core.cell_p90_ms", percentile(&cell_ms, 0.9));
    report.num("core.exec_idle_ms", idle_ms);
    report.num("services.session_ms", session_total);
    report.num("services.session_p90_ms", percentile(&session_ms, 0.9));
    report.count("services.transactions", counts.transactions);
    report.count("services.connections", counts.connections);
    report.count("services.wire_bytes", counts.wire_bytes);
    report.count("services.retries", counts.retries);
    report.count("services.faults_injected", counts.faults);
    report.num(
        "services.wire_mb_per_s",
        ratio(counts.wire_bytes as f64 / 1e6, session_total / 1e3),
    );
    report.count("netsim.pool_takes", caches.pool_takes);
    report.num(
        "netsim.pool_reuse_ratio",
        ratio(caches.pool_recycles as f64, caches.pool_takes as f64),
    );
    report.num("pii.recon_train_ms", spans.total_ms("pii.recon_train"));
    report.num(
        "pii.detector_build_ms",
        spans.total_ms("pii.detector_build"),
    );
    report.count("pii.dict_builds", caches.dict_builds);
    report.num(
        "pii.dict_hit_ratio",
        ratio(
            caches.dict_hits as f64,
            (caches.dict_hits + caches.dict_builds) as f64,
        ),
    );
    report.num("pii.scan_text_ms", spans.total_ms("pii.scan_text"));
    report.num("pii.scan_ms", scan_ms);
    report.count("pii.scans", counts.scans);
    report.num(
        "pii.scan_mb_per_s",
        ratio(counts.scan_bytes as f64 / 1e6, scan_ms / 1e3),
    );
    report.num(
        "pii.scan_unique_ratio",
        ratio(counts.unique_texts as f64, counts.scans as f64),
    );
    report.num("adblock.build_ms", spans.total_ms("adblock.build"));
    report.num(
        "adblock.categorize_ms",
        spans.total_ms("adblock.categorize"),
    );
    report.count("adblock.hosts", counts.hosts);
    report.num(
        "adblock.aa_ratio",
        ratio(counts.aa_hosts as f64, counts.hosts as f64),
    );
    report.num("analysis.analyze_ms", spans.total_ms("analysis.analyze"));
    report.count("analysis.leaks", counts.leaks);
    report.num("analysis.fold_ms", spans.total_ms("analysis.fold"));
    report.num("analysis.render_ms", spans.total_ms("analysis.render"));
    report.num("trace.reconcile_ratio", reconcile);
    report.num("campaign_ms", total_ms);
    report.flag("check.reconciled", reconciled);
    (study, reconciled)
}
