//! Serial vs sharded-parallel analysis throughput.
//!
//! Simulates one oversized session (>= 10k traced episodes, beyond any
//! Table III application) and runs the full per-session analysis — Table
//! III statistics plus pattern mining — at increasing `jobs` counts. The
//! parallel pipeline guarantees byte-identical output, so the only thing
//! measured here is wall-clock scaling of the shard/merge machinery.
//!
//! A session mines once and memoizes the result, so every timing starts
//! from an unmined session (statistics) or calls the uncached
//! [`PatternSet::mine_with_jobs`] (mining).

use criterion::{criterion_group, BatchSize, BenchmarkId, Criterion, Throughput};
use lagalyzer_bench::benchjson;
use lagalyzer_core::parallel::{available_jobs, effective_jobs};
use lagalyzer_core::prelude::*;
use lagalyzer_sim::{apps, runner};

/// Euclide scaled up ~3x so a single session clears 10k traced episodes.
fn oversized_profile() -> lagalyzer_sim::profile::AppProfile {
    let mut profile = apps::euclide();
    profile.name = "Euclide-3x".into();
    profile.scale.traced_episodes = 29_000;
    profile.scale.structured_episodes = 27_100;
    profile.scale.perceptible_episodes = 290;
    profile.scale.distinct_patterns = 600;
    profile
}

fn job_counts() -> Vec<usize> {
    let mut jobs = vec![1, 2, 4];
    let max = available_jobs();
    if !jobs.contains(&max) {
        jobs.push(max);
    }
    jobs.retain(|&j| j <= max.max(4));
    jobs
}

fn bench_stats_scaling(c: &mut Criterion) {
    let trace = runner::simulate_session(&oversized_profile(), 0, 42);
    assert!(
        trace.episodes().len() >= 10_000,
        "bench needs a 10k-episode session"
    );
    let mut group = c.benchmark_group("session_stats_by_jobs");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.episodes().len() as u64));
    // Each iteration gets an unmined session, built and dropped untimed,
    // so freeing a 29k-episode trace is not timed.
    for jobs in job_counts() {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("jobs{jobs}")),
            &jobs,
            |b, &jobs| {
                b.iter_batched_ref(
                    || AnalysisSession::new(trace.clone(), AnalysisConfig::default()),
                    |session| SessionStats::compute_with_jobs(session, jobs),
                    BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_mining_scaling(c: &mut Criterion) {
    let session = AnalysisSession::new(
        runner::simulate_session(&oversized_profile(), 0, 42),
        AnalysisConfig::default(),
    );
    let mut group = c.benchmark_group("mine_patterns_by_jobs");
    group.sample_size(10);
    group.throughput(Throughput::Elements(session.episodes().len() as u64));
    for jobs in job_counts() {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("jobs{jobs}")),
            &jobs,
            |b, &jobs| b.iter(|| PatternSet::mine_with_jobs(&session, jobs)),
        );
    }
    group.finish();
}

/// Mining throughput at each job count on the oversized session, plus
/// the string-keyed serial baseline, written to `BENCH_mining.json`.
fn emit_pipeline_json() {
    let budget = benchjson::budget();
    let session = AnalysisSession::new(
        runner::simulate_session(&oversized_profile(), 0, 42),
        AnalysisConfig::default(),
    );
    let episodes = session.episodes().len() as u64;
    let reference_ns = benchjson::time_best_ns(budget, || PatternSet::mine_reference(&session));
    let mut rows = String::new();
    for jobs in job_counts() {
        let effective = effective_jobs(jobs);
        let ns = benchjson::time_best_ns(budget, || PatternSet::mine_with_jobs(&session, jobs));
        eprintln!(
            "mine jobs={jobs:<2} (effective {effective}) {ns:>12.0} ns/iter  \
             speedup vs string-keyed serial {:>5.2}x",
            reference_ns / ns
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"jobs\": {jobs}, \"effective_jobs\": {effective}, \"ns_per_iter\": {ns:.1}, \
             \"speedup_vs_reference\": {:.3}}}",
            reference_ns / ns
        ));
    }
    let json = format!(
        "{{\n  \"corpus\": \"Euclide-3x\",\n  \"episodes\": {episodes},\n  \
         \"budget_ms\": {budget_ms},\n  \"available_jobs\": {available},\n  \
         \"timing\": \"min over budget, result drop untimed\",\n  \
         \"reference_serial_ns_per_iter\": {reference_ns:.1},\n  \
         \"mining_by_jobs\": [\n{rows}\n  ]\n}}",
        budget_ms = budget.as_millis(),
        available = available_jobs(),
    );
    benchjson::record_section("parallel_pipeline", &json);
}

criterion_group!(benches, bench_stats_scaling, bench_mining_scaling);

fn main() {
    benches();
    emit_pipeline_json();
}
