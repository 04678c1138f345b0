//! Checks the paper's §IV performance claim: the fully automated analysis
//! of about 7.5 hours of sessions (~250,000 episodes) took 15 minutes
//! including graph generation. This binary runs the same-scale analysis
//! (14 apps x 4 sessions, every table and figure) and reports wall time.

use std::time::Instant;

use lagalyzer_bench::full_study;
use lagalyzer_core::prelude::*;
use lagalyzer_report::{figures, table3};
use lagalyzer_sim::{apps, runner};

fn main() {
    // Simulation is our stand-in for the (already existing) traces, so it
    // is excluded from the analysis timing.
    eprintln!("simulating traces (excluded from timing) ...");
    let mut sessions = Vec::new();
    for profile in apps::standard_suite() {
        for i in 0..4 {
            sessions.push(runner::simulate_session(&profile, i, lagalyzer_bench::SEED));
        }
    }
    let traced: usize = sessions.iter().map(|s| s.episodes().len()).sum();
    let hours: f64 = sessions
        .iter()
        .map(|s| s.meta().end_to_end.as_secs_f64())
        .sum::<f64>()
        / 3600.0;

    eprintln!("analyzing ...");
    let start = Instant::now();
    let mut pattern_total = 0usize;
    for trace in sessions {
        let session = AnalysisSession::new(trace, AnalysisConfig::default());
        let _stats = SessionStats::compute(&session);
        pattern_total += session.patterns().len();
    }
    // Include full table + figure generation, as the paper's claim does.
    let study = full_study();
    let _ = table3::render(&study);
    let _ = figures::fig3(&study);
    let _ = figures::fig4(&study);
    let _ = figures::fig5(&study, true);
    let _ = figures::fig6(&study, true);
    let _ = figures::fig7(&study, true);
    let _ = figures::fig8(&study, true);
    let elapsed = start.elapsed();

    println!("paper: ~7.5 h of sessions, ~250,000 episodes analyzed in 15 min");
    println!(
        "measured: {hours:.1} h of sessions, {traced} traced episodes, {pattern_total} patterns"
    );
    println!(
        "analysis + figure generation took {:.2} s ({:.0} episodes/s)",
        elapsed.as_secs_f64(),
        traced as f64 / elapsed.as_secs_f64()
    );
}
