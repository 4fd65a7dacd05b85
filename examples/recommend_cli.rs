//! The paper's interactive recommender as a CLI.
//!
//! ```text
//! cargo run --release --example recommend_cli [profile]
//! ```
//!
//! Profiles: `balanced` (default), `location`, `identity`, `device`,
//! `tracking`. Reproduces the custom-suggestion interface the authors
//! hosted at recon.meddle.mobi/appvsweb/: given your privacy priorities,
//! which medium should you use for each service?

use appvsweb::core::study::{run_study, StudyConfig};
use appvsweb::netsim::Os;
use appvsweb::recommend::{recommend, Preferences, Verdict};

fn main() {
    let profile = std::env::args().nth(1).unwrap_or_else(|| "balanced".into());
    let prefs = match profile.as_str() {
        "balanced" => Preferences::balanced(),
        "location" => Preferences::location_sensitive(),
        "identity" => Preferences::identity_sensitive(),
        "device" => Preferences::device_sensitive(),
        "tracking" => Preferences::tracking_averse(),
        other => {
            eprintln!("unknown profile '{other}' (use balanced|location|identity|device|tracking)");
            std::process::exit(2);
        }
    };

    eprintln!("measuring 50 services (profile: {profile})...");
    let study = run_study(&StudyConfig::default());
    let recs = recommend(&study, &prefs);

    let mut app = 0;
    let mut web = 0;
    let mut either = 0;
    println!(
        "{:<28} {:<8} {:>9} {:>9}  {:<8} reasons",
        "service", "os", "app", "web", "verdict"
    );
    println!("{}", "-".repeat(110));
    for r in recs.iter().filter(|r| r.os == Os::Android) {
        let verdict = match r.verdict {
            Verdict::UseApp => {
                app += 1;
                "APP"
            }
            Verdict::UseWeb => {
                web += 1;
                "WEB"
            }
            Verdict::Either => {
                either += 1;
                "either"
            }
        };
        println!(
            "{:<28} {:<8} {:>9.2} {:>9.2}  {:<8} {}",
            r.service_name,
            r.os.to_string(),
            r.app_score,
            r.web_score,
            verdict,
            r.reasons.first().map(String::as_str).unwrap_or("-")
        );
    }
    println!(
        "\nVerdicts under '{profile}': use the APP for {app}, the WEB for {web}, either for {either}."
    );

    // The what-if matrix: how every preset would advise each service.
    let matrix = appvsweb::recommend::what_if_matrix(&study);
    println!("\n== What-if matrix (Android): every preset profile at a glance ==");
    println!("{:<18} {}", "service", matrix.profiles.join("  "));
    for (service, verdicts) in matrix.rows.iter().take(15) {
        let cells: Vec<&str> = verdicts
            .iter()
            .map(|v| match v {
                appvsweb::recommend::Verdict::UseApp => "app",
                appvsweb::recommend::Verdict::UseWeb => "WEB",
                appvsweb::recommend::Verdict::Either => "~",
            })
            .collect();
        println!(
            "{:<18} {:>8}  {:>8}  {:>8}  {:>6}  {:>8}",
            service, cells[0], cells[1], cells[2], cells[3], cells[4]
        );
    }
    println!(
        "({} more services; run `repro --json` for the dataset)",
        matrix.rows.len().saturating_sub(15)
    );
    println!("\nAs the paper found: there is no single answer — it depends on your priorities.");
}
