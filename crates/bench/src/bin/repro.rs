//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro --all                 # everything: tables 1-3, figures 1a-1f, duration control
//! repro --table 1             # one table
//! repro --figure 1d           # one figure (plot-ready series + ASCII preview)
//! repro --duration            # the §3.2 4-vs-10-minute control
//! repro --headlines           # the paper's headline statistics
//! repro --json study.json     # export the dataset (the paper publishes its data too)
//! repro --seed 7 --minutes 4  # alternate experiment parameters
//! repro --faults moderate     # fault-sweep: run the campaign degraded
//! repro lint --check          # determinism/robustness lint vs the baseline
//! repro fuzz --smoke          # coverage-guided fuzz smoke gate (CI)
//! repro fuzz --target json    # fuzz one parser, grow its corpus
//! repro trace --cell amazon/Android/App   # span tree of one cell
//! repro metrics --check       # metrics dump / conservation-law gate
//! repro population --users 100000         # population-scale campaign (Tables 3-5 at scale)
//! repro population --smoke    # 1k-user determinism gate (CI)
//! repro serve --listen 8080   # supervised resident service (submit/status/report/drift)
//! repro serve --smoke         # crash/recover/drift determinism gate (CI)
//! ```

use appvsweb_analysis::figures::{self, FigureId};
use appvsweb_analysis::render;
use appvsweb_analysis::tables;
use appvsweb_analysis::Study;
use appvsweb_core::dataset;
use appvsweb_core::duration::{default_duration_services, duration_experiment};
use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::{FaultPlan, Os, SimDuration};

struct Args {
    table: Option<u8>,
    figure: Option<String>,
    duration: bool,
    headlines: bool,
    all: bool,
    json: Option<String>,
    report: Option<String>,
    seed: u64,
    minutes: u64,
    faults: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        table: None,
        figure: None,
        duration: false,
        headlines: false,
        all: false,
        json: None,
        report: None,
        seed: 2016,
        minutes: 4,
        faults: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let num = |flag: &str, value: Option<&String>| -> u64 {
        appvsweb_bench::numeric_flag(flag, value).unwrap_or_else(|msg: String| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--table" => match num("--table", it.next()) {
                table @ 1..=3 => args.table = Some(table as u8),
                other => {
                    eprintln!("--table must be 1, 2 or 3, got {other}");
                    std::process::exit(2);
                }
            },
            "--figure" => args.figure = it.next().cloned(),
            "--duration" => args.duration = true,
            "--headlines" => args.headlines = true,
            "--all" => args.all = true,
            "--json" => args.json = it.next().cloned(),
            "--report" => args.report = it.next().cloned(),
            "--seed" => args.seed = num("--seed", it.next()),
            "--minutes" => args.minutes = num("--minutes", it.next()),
            "--faults" => args.faults = it.next().cloned(),
            "--help" | "-h" => {
                println!(
                    "usage: repro [--all] [--table N] [--figure 1a..1f] [--duration] \
                     [--headlines] [--json FILE] [--report FILE] [--seed N] [--minutes N] \
                     [--faults none|light|moderate|heavy]\n       repro lint [--check] \
                     [--json] [--fix-baseline] [--labels]\n       repro fuzz [--target NAME] \
                     [--iters N] [--seed N] [--smoke] [--minimize]\n       repro trace \
                     [--cell SERVICE/OS/MEDIUM]\n       repro metrics [--check]\n       \
                     repro population [--users N] [--shards N] [--workers N] [--seed N] \
                     [--minutes N] [--smoke] [--json FILE]\n       repro serve [--smoke] \
                     [--demo] [--listen PORT] [--dir PATH] [--workers N] [--max-requests N]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if args.table.is_none()
        && args.figure.is_none()
        && !args.duration
        && !args.headlines
        && args.json.is_none()
        && args.report.is_none()
    {
        args.all = true;
    }
    args
}

fn figure_id(label: &str) -> Option<FigureId> {
    Some(match label {
        "1a" => FigureId::AaDomains,
        "1b" => FigureId::AaFlows,
        "1c" => FigureId::AaBytes,
        "1d" => FigureId::LeakDomains,
        "1e" => FigureId::LeakedIdentifiers,
        "1f" => FigureId::Jaccard,
        _ => return None,
    })
}

fn print_headlines(study: &Study) {
    println!("== Headline statistics (paper §1 / §4) ==");
    for os in [Os::Android, Os::Ios] {
        let f1a = figures::cdf(study, FigureId::AaDomains, os);
        println!(
            "{os}: {:.0}% of services contact more A&A domains via Web than app \
             (paper: 83% Android / 78% iOS)",
            f1a.fraction_negative() * 100.0
        );
        let f1b = figures::cdf(study, FigureId::AaFlows, os);
        println!(
            "{os}: {:.0}% of services open more TCP flows to A&A via Web \
             (paper: 73% Android / 80% iOS)",
            f1b.fraction_negative() * 100.0
        );
        let f1f = figures::cdf(study, FigureId::Jaccard, os);
        println!(
            "{os}: {:.0}% of services share NO leaked PII types between app and Web \
             (paper: more than half)",
            f1f.at(0.0) * 100.0
        );
        let f1e = figures::pdf_1e(study, os);
        println!(
            "{os}: modal (app - web) leaked-identifier difference = {:+} \
             (paper: +1), {:.0}% of mass at positive values",
            f1e.mode().unwrap_or(0),
            f1e.positive_mass()
        );
    }
    let t1 = tables::table1(study);
    let pct = |group: &str, medium| {
        t1.rows
            .iter()
            .find(|r| r.group == group && r.medium == medium)
            .map(|r| r.pct_leaking * 100.0)
            .unwrap_or(0.0)
    };
    use appvsweb_services::Medium;
    println!(
        "services leaking via app: {:.0}% (paper 92%); via Web: {:.0}% (paper 78%)",
        pct("All", Medium::App),
        pct("All", Medium::Web)
    );
    println!(
        "Android Web leak rate {:.1}% vs iOS Web {:.1}% (paper: 52.1% vs 76%)",
        pct("Android", Medium::Web),
        pct("iOS", Medium::Web)
    );
    println!();
}

fn main() {
    // `repro lint [...]` delegates to the workspace analyzer; everything
    // after the subcommand is passed through (`--check`, `--json`, …).
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("lint") {
        std::process::exit(appvsweb_lint::cli::run(&argv[1..]));
    }
    // `repro fuzz [...]` drives the deterministic coverage-guided fuzzer
    // over the registered parser targets and the committed corpus.
    if argv.first().map(String::as_str) == Some("fuzz") {
        std::process::exit(appvsweb_bench::fuzz_cli::run(&argv[1..]));
    }
    // `repro trace` / `repro metrics` surface the observability layer.
    if argv.first().map(String::as_str) == Some("trace") {
        std::process::exit(appvsweb_bench::obs_cli::run_trace(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("metrics") {
        std::process::exit(appvsweb_bench::obs_cli::run_metrics(&argv[1..]));
    }
    // `repro population` scales the measured study to 10k-1M users.
    if argv.first().map(String::as_str) == Some("population") {
        std::process::exit(appvsweb_bench::population_cli::run(&argv[1..]));
    }
    // `repro serve` runs the supervised resident service (or its
    // crash/recover smoke gate and drift-alarm demo).
    if argv.first().map(String::as_str) == Some("serve") {
        std::process::exit(appvsweb_bench::serve_cli::run(&argv[1..]));
    }
    let args = parse_args();
    let faults = match args.faults.as_deref() {
        None => FaultPlan::none(),
        Some(name) => FaultPlan::preset(name).unwrap_or_else(|| {
            eprintln!("unknown fault preset: {name} (use none|light|moderate|heavy)");
            std::process::exit(2);
        }),
    };
    let cfg = StudyConfig {
        seed: args.seed,
        duration: SimDuration::from_mins(args.minutes),
        faults,
        ..StudyConfig::default()
    };
    eprintln!(
        "running the full study: 50 services x 2 OSes x 2 media, {} min sessions, seed {} ...",
        args.minutes, args.seed
    );
    let t0 = std::time::Instant::now();
    let study = run_study(&cfg);
    eprintln!(
        "study completed in {:.2?} ({} cells)\n",
        t0.elapsed(),
        study.cells.len()
    );
    if !cfg.faults.is_none() || !study.health.is_complete() {
        println!("== Campaign health ==");
        println!("{}", study.health.summary());
        if !study.health.failures.is_empty() {
            println!("failed cells:");
            for failure in &study.health.failures {
                println!("  {}: {}", failure.cell, failure.error);
            }
        }
        println!();
    }

    if args.all || args.headlines {
        print_headlines(&study);
    }
    if args.all || args.table == Some(1) {
        println!("== Table 1: services by OS and category ==");
        println!("{}", render::render_table1(&tables::table1(&study)));
    }
    if args.all || args.table == Some(2) {
        println!("== Table 2: top-20 A&A domains by total leaks ==");
        println!("{}", render::render_table2(&tables::table2(&study, 20)));
    }
    if args.all || args.table == Some(3) {
        println!("== Table 3: PII types by total leaks ==");
        println!("{}", render::render_table3(&tables::table3(&study)));
    }

    let figure_filter: Option<FigureId> = args.figure.as_deref().and_then(figure_id);
    if args.figure.is_some() && figure_filter.is_none() {
        eprintln!("unknown figure (use 1a..1f)");
        std::process::exit(2);
    }
    for id in FigureId::ALL {
        if (args.all && figure_filter.is_none()) || figure_filter == Some(id) {
            let fig = figures::figure(&study, id);
            println!("{}", render::ascii_plot(&fig, 64, 12));
            println!("{}", render::render_figure(&fig));
        }
    }

    if args.all || args.duration {
        println!("== Duration control (§3.2): 4- vs 10-minute sessions ==");
        let results = duration_experiment(
            &default_duration_services(),
            Os::Android,
            SimDuration::from_mins(4),
            SimDuration::from_mins(10),
            &cfg,
        );
        println!(
            "{:<18} {:>8} {:>8} {:>7}  new PII types in longer run",
            "service", "4min", "10min", "ratio"
        );
        for r in &results {
            println!(
                "{:<18} {:>8} {:>8} {:>7.2}  {:?}",
                r.service_id,
                r.short_leaks,
                r.long_leaks,
                r.leak_ratio(),
                r.new_types()
            );
        }
        println!();
    }

    if let Some(path) = &args.json {
        std::fs::write(path, dataset::to_json(&study)).expect("write dataset");
        eprintln!("dataset written to {path}");
    }
    if let Some(path) = &args.report {
        std::fs::write(path, appvsweb_analysis::report::markdown_report(&study))
            .expect("write report");
        eprintln!("markdown report written to {path}");
    }
}
