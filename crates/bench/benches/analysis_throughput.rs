//! Analysis throughput (the paper's §IV perf claim: 250k episodes in
//! 15 min). Measures each analysis stage on one mid-size session.
//!
//! A session mines its patterns once and memoizes them, so the
//! statistics row is timed on a fresh session per iteration and mining
//! through the uncached [`PatternSet::mine`].

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lagalyzer_core::prelude::*;
use lagalyzer_core::trigger::TriggerBreakdown;
use lagalyzer_model::OriginClassifier;
use lagalyzer_sim::{apps, runner};

fn bench_analyses(c: &mut Criterion) {
    let trace = runner::simulate_session(&apps::argo_uml(), 0, 42);
    let s = AnalysisSession::new(trace.clone(), AnalysisConfig::default());
    let n = s.episodes().len() as u64;
    let classifier = OriginClassifier::java_default();

    let mut group = c.benchmark_group("analysis");
    group.throughput(criterion::Throughput::Elements(n));
    group.sample_size(20);
    // An unmined session per iteration, built and dropped untimed.
    group.bench_function("overall_stats", |b| {
        b.iter_batched_ref(
            || AnalysisSession::new(trace.clone(), AnalysisConfig::default()),
            |fresh| SessionStats::compute(fresh),
            BatchSize::LargeInput,
        );
    });
    group.bench_function("mine_patterns", |b| b.iter(|| PatternSet::mine(&s)));
    group.bench_function("triggers", |b| {
        b.iter(|| {
            (
                TriggerBreakdown::of_all(&s),
                TriggerBreakdown::of_perceptible(&s),
            )
        });
    });
    group.bench_function("locations", |b| {
        b.iter(|| LocationStats::of_all(&s, &classifier));
    });
    group.bench_function("causes", |b| b.iter(|| CauseStats::of_all(&s)));
    group.bench_function("concurrency", |b| b.iter(|| concurrency_stats(&s)));
    group.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let trace = runner::simulate_session(&apps::jedit(), 0, 42);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("ingest_and_characterize", |b| {
        b.iter_batched(
            || trace.clone(),
            |t| {
                let s = AnalysisSession::new(t, AnalysisConfig::default());
                let stats = SessionStats::compute(&s);
                let occ = lagalyzer_core::occurrence::OccurrenceBreakdown::of(s.patterns());
                (stats, occ)
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_analyses, bench_full_pipeline);
criterion_main!(benches);
