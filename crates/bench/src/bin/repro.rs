//! `repro` — regenerate every table and figure of the paper, and run
//! the `recommend`, `lint`, `fuzz`, `trace`, `metrics`, `population`
//! and `serve` subcommands. `repro --help` lists every flag; each is
//! declared once, in its command's table (see `appvsweb_bench::cli`).

use appvsweb_analysis::figures::{self, FigureId};
use appvsweb_analysis::render;
use appvsweb_analysis::tables;
use appvsweb_analysis::Study;
use appvsweb_bench::cli::Value::{Int, OneOf, Switch, Text};
use appvsweb_bench::cli::{Args, Command, Flag, U64};
use appvsweb_bench::{fuzz_cli, lint_cli, obs_cli, population_cli, serve_cli};
use appvsweb_core::dataset;
use appvsweb_core::duration::{default_duration_services, duration_experiment};
use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::{FaultPlan, Os, SimDuration};
use appvsweb_recommend::{preset, render, PROFILE_NAMES};
use appvsweb_services::Catalog;

/// `repro` itself; `--help` also lists every subcommand.
#[rustfmt::skip]
const REPRO: Command = Command {
    name: "",
    flags: &[
        Flag::new("--all", Switch, "tables 1-3, figures 1a-1f, duration control (the default)"),
        Flag::new("--table", Int("N", 1, 3), "one table"),
        Flag::new("--figure", OneOf(&["1a", "1b", "1c", "1d", "1e", "1f"]), "one figure"),
        Flag::new("--duration", Switch, "the §3.2 4-vs-10-minute control"),
        Flag::new("--headlines", Switch, "the paper's headline statistics"),
        Flag::new("--json", Text("FILE"), "export the dataset"),
        Flag::new("--report", Text("FILE"), "write a markdown report"),
        Flag::new("--seed", U64, "experiment seed (default 2016)"),
        Flag::new("--minutes", U64, "session length (default 4)"),
        Flag::new("--faults", OneOf(&["none", "light", "moderate", "heavy"]), "fault preset"),
    ],
    subcommands: &[&RECOMMEND, &lint_cli::COMMAND, &fuzz_cli::COMMAND, &obs_cli::TRACE,
                   &obs_cli::METRICS, &population_cli::COMMAND, &serve_cli::COMMAND],
    run: study,
};

/// `repro recommend`: the paper's recommender over the canonical study.
#[rustfmt::skip]
const RECOMMEND: Command = Command {
    name: "recommend",
    flags: &[Flag::new("--profile", OneOf(&PROFILE_NAMES), "privacy priorities (default balanced)")],
    subcommands: &[],
    run: recommend,
};

/// The figure whose label starts with `name` and a colon (`1d`).
fn figure_id(name: &str) -> Option<FigureId> {
    FigureId::ALL
        .into_iter()
        .find(|id| id.label().split(':').next() == Some(name))
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
        t1.row(group, medium)
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(REPRO.main(&argv));
}

/// Run the full study, reporting its start and its wall time on stderr.
fn run_full_study(cfg: &StudyConfig) -> Study {
    eprintln!(
        "running the full study: 50 services x 2 OSes x 2 media, {} min sessions, \
         seed {} ...",
        cfg.duration.as_secs() / 60,
        cfg.seed
    );
    let t0 = std::time::Instant::now();
    let study = run_study(cfg);
    eprintln!(
        "study completed in {:.2?} ({} cells)\n",
        t0.elapsed(),
        study.cells.len()
    );
    study
}

/// `repro recommend`: score the app and Web version of every service
/// under one preset profile and print the verdicts.
fn recommend(args: &Args) -> i32 {
    let profile = args.text("--profile").unwrap_or("balanced");
    let Some(prefs) = preset(profile) else {
        return args.refuse(format_args!("--profile {profile}: no such profile"));
    };
    let study = run_full_study(&StudyConfig::default());
    print!("{}", render(&study, profile, &prefs));
    0
}

/// `repro` without a subcommand: run the full study and print what the
/// flags ask for.
fn study(args: &Args) -> i32 {
    let table: Option<u8> = args.int("--table");
    let figure = args.text("--figure").and_then(figure_id);
    let all = args.switch("--all")
        || !(table.is_some()
            || figure.is_some()
            || args.switch("--duration")
            || args.switch("--headlines")
            || args.text("--json").is_some()
            || args.text("--report").is_some());
    let seed = args.int("--seed").unwrap_or(2016);
    let minutes = args.int("--minutes").unwrap_or(4);
    let faults = args
        .text("--faults")
        .and_then(FaultPlan::preset)
        .unwrap_or_else(FaultPlan::none);
    let cfg = StudyConfig {
        seed,
        duration: SimDuration::from_mins(minutes),
        faults,
        ..StudyConfig::default()
    };
    if let Err(err) = cfg.validate(&Catalog::paper()) {
        return args.refuse(format_args!("--minutes {minutes}: {err}"));
    }
    let study = run_full_study(&cfg);
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

    if all || args.switch("--headlines") {
        print_headlines(&study);
    }
    if all || table == Some(1) {
        println!("== Table 1: services by OS and category ==");
        println!("{}", render::render_table1(&tables::table1(&study)));
    }
    if all || table == Some(2) {
        println!("== Table 2: top-20 A&A domains by total leaks ==");
        println!("{}", render::render_table2(&tables::table2(&study, 20)));
    }
    if all || table == Some(3) {
        println!("== Table 3: PII types by total leaks ==");
        println!("{}", render::render_table3(&tables::table3(&study)));
    }

    for id in FigureId::ALL {
        if (all && figure.is_none()) || figure == Some(id) {
            let fig = figures::figure(&study, id);
            println!("{}", render::ascii_plot(&fig, 64, 12));
            println!("{}", render::render_figure(&fig));
        }
    }

    if all || args.switch("--duration") {
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

    if let Some(path) = args.text("--json") {
        std::fs::write(path, dataset::to_json(&study)).expect("write dataset");
        eprintln!("dataset written to {path}");
    }
    if let Some(path) = args.text("--report") {
        std::fs::write(path, appvsweb_analysis::report::markdown_report(&study))
            .expect("write report");
        eprintln!("markdown report written to {path}");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(flag: &str) -> &'static [&'static str] {
        match REPRO.flags.iter().find(|f| f.name == flag).map(|f| f.value) {
            Some(OneOf(words)) => words,
            other => panic!("{flag} is not a closed set: {other:?}"),
        }
    }

    #[test]
    fn every_listed_word_resolves() {
        for word in words("--figure") {
            assert!(figure_id(word).is_some(), "--figure {word}");
        }
        for word in words("--faults") {
            assert!(FaultPlan::preset(word).is_some(), "--faults {word}");
        }
    }
}
