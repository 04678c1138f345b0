//! The three closed-loop workloads: one client issues an operation, waits
//! for its answer, checks it, and issues the next.
//!
//! Every call into a LagAlyzer layer goes through [`Ctx::tracer`], so a
//! traced run can attribute each pass's wall time to layers. The same
//! code computes the reference answers at set-up: run with `jobs` = 1 and
//! `cold` = true it takes the serial cold path for every query.

use std::fmt::Write as _;
use std::fs;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

use lagalyzer_check::{check_bytes, HazardConfig, HazardReport, RuleSet};
use lagalyzer_core::browser::PatternBrowser;
use lagalyzer_core::prelude::*;
use lagalyzer_core::warm::WarmSession;
use lagalyzer_model::{DurationNs, Episode, OriginClassifier, SymbolTable};
use lagalyzer_report::study::aggregate_sessions_with_jobs;
use lagalyzer_report::{figures, html, table3, AppResult, Study};
use lagalyzer_trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer_trace::index::{probe_rollup, EpisodeExtent};
use lagalyzer_trace::{EpisodeFilter, IndexedTrace, Rollup, RollupHealth};
use lagalyzer_viz::sketch::{render_sketch, SketchOptions};

use crate::calib;
use crate::cpu::Stamp;
use crate::inputs::{
    digest, splitmix64, Answers, Batch, HazardExpectation, Plan, Query, QueryKind, SessionFile,
    Workload,
};
use crate::spans::Tracer;
use crate::stats;

/// Per-run settings shared by every operation.
pub struct Ctx<'a> {
    /// Worker threads handed to every `*_with_jobs` / `par_*` call.
    pub jobs: usize,
    /// Span recorder (a disabled tracer records nothing).
    pub tracer: &'a Tracer,
    /// Bypass every rollup: the reference answers are the cold ones.
    pub cold: bool,
    /// Run the calibration kernel between operations, so that CPU times
    /// can be scaled to the reference core (the end-to-end run).
    pub calibrate: bool,
}

/// One completed operation.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Wall time from issue to checked answer.
    pub ns: u64,
    /// The measuring thread's CPU time over the same interval.
    pub cpu_ns: u64,
    /// Index in [`Recorder::kernel_ns`] of the last kernel sample taken
    /// before the operation.
    pub kernel_at: usize,
    /// Traced episodes the operation processed.
    pub episodes: u64,
    /// The operation succeeded and its answer was correct.
    pub ok: bool,
}

/// One completed pass over a workload's inputs.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Wall time of the pass, glue and pass-level steps included.
    pub ns: u64,
    /// The measuring thread's CPU time over the pass, the calibration
    /// kernel's own time left out.
    pub cpu_ns: u64,
    /// The kernel samples taken during the pass.
    pub kernel: Range<usize>,
    /// Traced episodes the pass processed.
    pub episodes: u64,
    /// Peak resident set during the pass, in MiB (`None` off Linux).
    pub peak_rss_mb: Option<f64>,
}

/// Operations and passes of one measured phase.
#[derive(Default)]
pub struct Recorder {
    /// Every operation, in issue order.
    pub ops: Vec<Op>,
    /// Every pass, in order.
    pub passes: Vec<Pass>,
    /// Pass-level answers (the suite report digests) that were wrong.
    pub failed_pass_checks: u64,
    /// CPU nanoseconds of each calibration kernel run, in order.
    pub kernel_ns: Vec<u64>,
    /// Whether the calibration kernel runs between operations.
    calibrate: bool,
    /// When the kernel last ran.
    kernel_last: Option<Instant>,
}

impl Recorder {
    /// Runs the kernel if it is due, then starts an operation's clocks.
    fn start_op(&mut self) -> Stamp {
        if self.calibrate
            && self
                .kernel_last
                .map_or(true, |t| t.elapsed() >= calib::EVERY)
        {
            self.kernel_ns.push(calib::kernel_ns());
            self.kernel_last = Some(Instant::now());
        }
        Stamp::now()
    }

    fn op(&mut self, started: Stamp, episodes: u64, ok: bool) {
        let (ns, cpu_ns) = started.elapsed();
        self.ops.push(Op {
            ns,
            cpu_ns,
            kernel_at: self.kernel_ns.len().saturating_sub(1),
            episodes,
            ok,
        });
    }

    /// Operations that errored or answered wrongly, plus wrong pass-level
    /// answers.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64 + self.failed_pass_checks
    }

    /// Episodes per wall second of each pass.
    pub fn pass_rates(&self) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| p.episodes as f64 / (p.ns as f64 / 1e9))
            .collect()
    }

    /// Each operation's CPU time scaled to the reference core, in ms, by
    /// the kernel samples around it. `None` without kernel samples.
    pub fn op_ref_ms(&self) -> Option<Vec<f64>> {
        self.ops
            .iter()
            .map(|o| {
                let kernel = calib::window_median(&self.kernel_ns, o.kernel_at)?;
                Some(calib::scale(o.cpu_ns, kernel) / 1e6)
            })
            .collect()
    }

    /// Episodes per reference-core second of each pass, scaled by the
    /// median kernel sample of the pass. `None` without kernel samples.
    pub fn pass_ref_rates(&self) -> Option<Vec<f64>> {
        self.passes
            .iter()
            .map(|p| {
                let kernel = match stats::median(&self.kernel_f64(p.kernel.clone())) {
                    Some(k) => k,
                    None => calib::window_median(&self.kernel_ns, p.kernel.start)?,
                };
                Some(p.episodes as f64 / (calib::scale(p.cpu_ns, kernel) / 1e9))
            })
            .collect()
    }

    fn kernel_f64(&self, range: Range<usize>) -> Vec<f64> {
        self.kernel_ns[range].iter().map(|&k| k as f64).collect()
    }
}

/// This process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs whole passes until `budget` has elapsed and at least `min_ops`
/// operations completed (always at least one pass).
pub fn run(
    plan: &Plan,
    ctx: &Ctx<'_>,
    answers: &mut Answers,
    budget: Duration,
    min_ops: usize,
) -> Recorder {
    let mut rec = Recorder {
        calibrate: ctx.calibrate,
        ..Recorder::default()
    };
    let start = Instant::now();
    loop {
        // Restart Linux's high-water mark at the current resident set,
        // so the pass's peak is its own.
        let _ = fs::write("/proc/self/clear_refs", "5");
        let pass_start = Stamp::now();
        let ops_before = rec.ops.len();
        let kernel_before = rec.kernel_ns.len();
        match plan.workload {
            Workload::SuiteCold => suite_pass(plan, ctx, answers, &mut rec),
            Workload::WarmQuery => warm_pass(plan, ctx, answers, &mut rec),
            Workload::FleetCorpus => fleet_pass(plan, ctx, answers, &mut rec),
        }
        let (ns, cpu_ns) = pass_start.elapsed();
        let kernel = kernel_before..rec.kernel_ns.len();
        let kernel_cpu_ns: u64 = rec.kernel_ns[kernel.clone()].iter().sum();
        rec.passes.push(Pass {
            ns,
            cpu_ns: cpu_ns.saturating_sub(kernel_cpu_ns),
            kernel,
            episodes: rec.ops[ops_before..].iter().map(|o| o.episodes).sum(),
            peak_rss_mb: peak_rss_mb(),
        });
        if start.elapsed() >= budget && rec.ops.len() >= min_ops {
            return rec;
        }
    }
}

fn config() -> AnalysisConfig {
    AnalysisConfig::default()
}

/// `fs::read` then `IndexedTrace::open`: how every CLI command loads a
/// binary trace.
fn load(ctx: &Ctx<'_>, path: &Path) -> Result<IndexedTrace, String> {
    let t = ctx.tracer;
    let bytes = t
        .try_span("trace.read", || fs::read(path))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    t.try_span("trace.open", || IndexedTrace::open(bytes))
        .map_err(|e| format!("cannot open {}: {e}", path.display()))
}

/// The rollup probe the CLI makes before choosing the warm path. A traced
/// run also tells an absent section from a stale one; that costs a second
/// read, so it is made only on a miss and only when tracing.
fn probe(ctx: &Ctx<'_>, trace: &IndexedTrace, path: &Path) -> bool {
    let t = ctx.tracer;
    if ctx.cold {
        t.add("trace.rollup_bypassed", 1);
        return false;
    }
    if trace.rollup().is_some() {
        t.add("trace.rollup_hit", 1);
        return true;
    }
    if t.is_on() {
        let health = t.span("trace.rollup_probe", || {
            fs::read(path).ok().and_then(|b| probe_rollup(&b))
        });
        count_rollup_health(t, health.as_ref());
    }
    false
}

fn count_rollup_health(t: &Tracer, health: Option<&RollupHealth>) {
    match health {
        Some(RollupHealth::Valid { .. }) => t.add("trace.rollup_hit", 1),
        Some(RollupHealth::Stale { .. }) => t.add("trace.rollup_stale", 1),
        Some(RollupHealth::Absent) | None => t.add("trace.rollup_absent", 1),
    }
}

/// A fully decoded session taken through the core analyses.
struct Cold {
    session: AnalysisSession,
    stats: SessionStats,
    patterns: PatternSet,
    outliers: OutlierReport,
}

/// The cold path of `analyze`: full decode, then stats, mining and
/// outliers.
fn cold_analysis(ctx: &Ctx<'_>, trace: &IndexedTrace) -> Result<Cold, String> {
    let t = ctx.tracer;
    let jobs = ctx.jobs;
    let decoded = t
        .try_span("trace.decode", || trace.par_decode(jobs))
        .map_err(|e| format!("decode failed: {e}"))?;
    t.add("trace.decoded_episodes", decoded.episodes().len() as u64);
    let session = AnalysisSession::new(decoded, config());
    let stats = t.span("core.stats", || {
        SessionStats::compute_with_jobs(&session, jobs)
    });
    let patterns = t.span("core.mine", || session.mine_patterns_with_jobs(jobs));
    t.add("core.patterns", patterns.len() as u64);
    let outliers = t.span("core.outliers", || {
        OutlierReport::analyze_with_jobs(&session, &patterns, &OutlierConfig::default(), jobs)
    });
    t.add("core.outlier_findings", outliers.len() as u64);
    Ok(Cold {
        session,
        stats,
        patterns,
        outliers,
    })
}

// ---------------------------------------------------------------- suite_cold

/// One `suite_cold` operation: a session from file to outlier report.
fn suite_op(
    ctx: &Ctx<'_>,
    answers: &mut Answers,
    file: &SessionFile,
) -> Result<(AnalysisSession, bool), String> {
    let trace = load(ctx, &file.path)?;
    probe(ctx, &trace, &file.path);
    let cold = cold_analysis(ctx, &trace)?;
    let key = &file.key;
    let ok = answers.check(&format!("suite/{key}/stats"), format!("{:?}", cold.stats))
        & answers.check(
            &format!("suite/{key}/patterns"),
            cold.patterns.len().to_string(),
        )
        & answers.check(&format!("suite/{key}/outliers"), cold.outliers.summary());
    Ok((cold.session, ok))
}

/// Every table and figure the `experiments` command writes.
fn render_study(study: &Study) -> (String, String) {
    let table = table3::render(study);
    let mut figs = vec![
        figures::fig3(study),
        figures::fig4(study),
        figures::fig5(study, false),
        figures::fig5(study, true),
        figures::fig7(study, false),
        figures::fig7(study, true),
        figures::fig8(study, false),
        figures::fig8(study, true),
    ];
    for scope in [false, true] {
        let (a, b) = figures::fig6(study, scope);
        figs.push(a);
        figs.push(b);
    }
    let html = html::render(study);
    let mut all = html;
    for fig in figs {
        all.push_str(&fig.svg);
        all.push_str(&fig.text);
    }
    (table, all)
}

fn suite_pass(plan: &Plan, ctx: &Ctx<'_>, answers: &mut Answers, rec: &mut Recorder) {
    let t = ctx.tracer;
    let classifier = OriginClassifier::java_default();
    let mut apps = Vec::with_capacity(plan.scale.apps.len());
    for (app, profile) in plan.scale.apps.iter().enumerate() {
        let mut sessions = Vec::new();
        for file in plan.sessions.iter().filter(|f| f.app == app) {
            let started = rec.start_op();
            match suite_op(ctx, answers, file) {
                Ok((session, ok)) => {
                    rec.op(started, session.episodes().len() as u64, ok);
                    sessions.push(session);
                }
                Err(e) => {
                    answers.fail(e);
                    rec.op(started, 0, false);
                }
            }
        }
        let aggregate = t.span("report.aggregate", || {
            aggregate_sessions_with_jobs(&profile.name, &sessions, &classifier, ctx.jobs)
        });
        apps.push(AppResult {
            profile: profile.clone(),
            aggregate,
        });
    }
    let study = Study {
        apps,
        sessions_per_app: plan.scale.sessions_per_app,
    };
    let (table, rest) = t.span("report.render", || render_study(&study));
    let ok = answers.check("suite/report/table3", digest(&table))
        & answers.check("suite/report/figures", digest(&rest));
    rec.failed_pass_checks += u64::from(!ok);
}

// ---------------------------------------------------------------- warm_query

fn min_lag_filter() -> EpisodeFilter {
    EpisodeFilter::new().min_duration(DurationNs::from_millis(100))
}

/// Stamps each finding with its episode's byte span, as `outliers` does.
fn attach_spans(report: &mut OutlierReport, trace: &IndexedTrace) {
    report.attach_spans(|id| {
        trace
            .extents()
            .iter()
            .find(|e| e.id == id)
            .map(|e| (e.offset, e.offset + e.len))
    });
}

/// The answer to an analyze/patterns/outliers query from a warm session.
/// `None` when the warm path declines and the caller must answer cold.
fn warm_answer(ctx: &Ctx<'_>, trace: &IndexedTrace, kind: QueryKind) -> Option<String> {
    let t = ctx.tracer;
    let jobs = ctx.jobs;
    let warm = t.span("core.warm", || {
        WarmSession::of_indexed(trace, config(), &EpisodeFilter::new())
    })?;
    let patterns = t.span("core.warm", || warm.mine_patterns_with_jobs(jobs));
    t.add("core.patterns", patterns.len() as u64);
    let decode = |positions: &[usize]| {
        let decoded = t
            .try_span("trace.decode", || trace.par_decode_subset(jobs, positions))
            .ok()?;
        t.add("trace.decoded_episodes", decoded.len() as u64);
        t.add(
            "trace.skipped_extents",
            (trace.len() - positions.len()) as u64,
        );
        Some(decoded)
    };
    match kind {
        QueryKind::Analyze => {
            let stats = t.span("core.warm", || warm.session_stats_from(&patterns, jobs));
            let outliers = t.span("core.warm", || {
                warm.outliers(&patterns, &OutlierConfig::default(), &decode)
            })?;
            t.add("core.outlier_findings", outliers.len() as u64);
            Some(format!("{stats:?} | {}", outliers.summary()))
        }
        QueryKind::Patterns => Some(t.span("report.render", || {
            let mut browser = PatternBrowser::of_patterns(&patterns);
            browser.perceptible_only(true);
            digest(&browser.to_table())
        })),
        QueryKind::Outliers => {
            let mut outliers = t.span("core.warm", || {
                warm.outliers(&patterns, &OutlierConfig::default(), &decode)
            })?;
            t.add("core.outlier_findings", outliers.len() as u64);
            Some(t.span("report.render", || {
                attach_spans(&mut outliers, trace);
                digest(&outliers.render_json(warm.symbols()))
            }))
        }
        QueryKind::DrillDown | QueryKind::Sketch => unreachable!("answered without the rollup"),
    }
}

/// The cold answer to an analyze/patterns/outliers query; on the
/// outliers query it also picks the episode the sketch query draws.
fn cold_answer(
    ctx: &Ctx<'_>,
    answers: &mut Answers,
    file: &SessionFile,
    trace: &IndexedTrace,
    kind: QueryKind,
    seed: u64,
) -> Result<String, String> {
    let t = ctx.tracer;
    let mut cold = cold_analysis(ctx, trace)?;
    Ok(match kind {
        QueryKind::Analyze => format!("{:?} | {}", cold.stats, cold.outliers.summary()),
        QueryKind::Patterns => t.span("report.render", || {
            let mut browser = PatternBrowser::new(&cold.session, &cold.patterns);
            browser.perceptible_only(true);
            digest(&browser.to_table())
        }),
        QueryKind::Outliers => {
            if answers.is_recording() {
                let position = sketch_target(trace, &cold.outliers, seed);
                answers.check(&sketch_key(file), position.to_string());
            }
            t.span("report.render", || {
                attach_spans(&mut cold.outliers, trace);
                digest(&cold.outliers.render_json(cold.session.trace().symbols()))
            })
        }
        QueryKind::DrillDown | QueryKind::Sketch => unreachable!("answered without the rollup"),
    })
}

fn sketch_key(file: &SessionFile) -> String {
    format!("warm/{}/sketch_episode", file.key)
}

/// The extent position the sketch query renders: a seeded pick among the
/// flagged outliers, or the longest episode when nothing is flagged.
fn sketch_target(trace: &IndexedTrace, outliers: &OutlierReport, seed: u64) -> usize {
    let extents = trace.extents();
    let flagged: Vec<usize> = outliers
        .findings()
        .iter()
        .filter_map(|f| extents.iter().position(|e| e.id == f.episode_id))
        .collect();
    if flagged.is_empty() {
        return (0..extents.len())
            .max_by_key(|&i| extents[i].duration())
            .unwrap_or(0);
    }
    let mut state = seed ^ extents.len() as u64;
    flagged[(splitmix64(&mut state) % flagged.len() as u64) as usize]
}

/// Perceptible-only drill-down with the cache bypassed: skip-decode of the
/// episodes of 100 ms or more, then mining and the browser table.
fn drill_down(ctx: &Ctx<'_>, trace: &IndexedTrace) -> Result<String, String> {
    let t = ctx.tracer;
    let jobs = ctx.jobs;
    let filter = min_lag_filter();
    let admitted = trace
        .extents()
        .iter()
        .filter(|e| filter.admits_extent(e))
        .count();
    let excluded = trace.len() - admitted;
    let decoded = t
        .try_span("trace.decode", || trace.par_decode_filtered(jobs, &filter))
        .map_err(|e| format!("filtered decode failed: {e}"))?;
    t.add("trace.decoded_episodes", admitted as u64);
    t.add("trace.skipped_extents", excluded as u64);
    let session =
        AnalysisSession::with_exclusions(decoded, config(), Provenance::Clean, excluded as u64);
    let patterns = t.span("core.mine", || session.mine_patterns_with_jobs(jobs));
    t.add("core.patterns", patterns.len() as u64);
    Ok(t.span("report.render", || {
        let mut browser = PatternBrowser::new(&session, &patterns);
        browser.perceptible_only(true);
        digest(&browser.to_table())
    }))
}

/// Sketch of one episode: measured runs decode just its extent; the
/// reference decodes the whole session and picks the episode out.
fn sketch(ctx: &Ctx<'_>, trace: &IndexedTrace, position: usize) -> Result<String, String> {
    let t = ctx.tracer;
    let episode = if ctx.cold {
        let decoded = t
            .try_span("trace.decode", || trace.par_decode(ctx.jobs))
            .map_err(|e| format!("decode failed: {e}"))?;
        decoded
            .episodes()
            .get(position)
            .cloned()
            .ok_or_else(|| format!("no episode at position {position}"))?
    } else {
        let mut decoded = t
            .try_span("trace.decode", || {
                trace.par_decode_subset(ctx.jobs, &[position])
            })
            .map_err(|e| format!("subset decode failed: {e}"))?;
        t.add("trace.decoded_episodes", 1);
        t.add("trace.skipped_extents", (trace.len() - 1) as u64);
        decoded.pop().ok_or("subset decode returned nothing")?
    };
    Ok(t.span("viz.sketch", || sketch_digest(&episode, trace.symbols())))
}

/// One `warm_query` operation: read, open, probe the rollup, answer.
fn warm_op(
    plan: &Plan,
    ctx: &Ctx<'_>,
    answers: &mut Answers,
    query: Query,
) -> Result<(u64, bool), String> {
    let file = &plan.sessions[query.session];
    let trace = load(ctx, &file.path)?;
    let episodes = trace.len() as u64;
    let answer = match query.kind {
        QueryKind::DrillDown => {
            ctx.tracer.add("trace.rollup_bypassed", 1);
            drill_down(ctx, &trace)?
        }
        QueryKind::Sketch => {
            ctx.tracer.add("trace.rollup_bypassed", 1);
            let position: usize = answers
                .get(&sketch_key(file))
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("no sketch episode recorded for {}", file.key))?;
            sketch(ctx, &trace, position)?
        }
        kind => {
            let warm = if probe(ctx, &trace, &file.path) {
                warm_answer(ctx, &trace, kind)
            } else {
                None
            };
            match warm {
                Some(answer) => answer,
                None => cold_answer(ctx, answers, file, &trace, kind, plan.seed)?,
            }
        }
    };
    let key = format!("warm/{}/{}", file.key, query.kind.name());
    let ok = answers.check(&key, answer);
    let episodes = if query.kind == QueryKind::Sketch {
        1
    } else {
        episodes
    };
    Ok((episodes, ok))
}

fn warm_pass(plan: &Plan, ctx: &Ctx<'_>, answers: &mut Answers, rec: &mut Recorder) {
    // Each session's outliers query comes before its sketch query, so the
    // reference pass picks the sketch episode before it is asked for.
    for &query in &plan.queries {
        let started = rec.start_op();
        match warm_op(plan, ctx, answers, query) {
            Ok((episodes, ok)) => rec.op(started, episodes, ok),
            Err(e) => {
                answers.fail(e);
                rec.op(started, 0, false);
            }
        }
    }
}

// -------------------------------------------------------------- fleet_corpus

/// Canonical text of a merged cross-session pattern table.
fn multi_text(multi: &MultiPatternSet) -> String {
    let mut out = format!(
        "{} sessions, {} merged, {} recurring, {} stable problems\n",
        multi.sessions(),
        multi.len(),
        multi.recurring().count(),
        multi.stable_problems().len()
    );
    for p in multi.patterns() {
        let _ = writeln!(
            out,
            "{} {:?} {:?} {} {}",
            p.signature().as_str(),
            p.episodes_per_session(),
            p.perceptible_per_session(),
            p.total_lag().as_nanos(),
            p.max_lag().as_nanos()
        );
    }
    out
}

/// Checks a scenario batch's hazard report against the injected truth:
/// per-session findings carry an `s{i}: ` prefix.
fn hazard_truth_failures(
    report: &HazardReport,
    truths: &[Option<HazardExpectation>],
) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, truth) in truths.iter().enumerate() {
        let Some(truth) = truth else { continue };
        let prefix = format!("s{i}: ");
        let mine: Vec<_> = report
            .findings
            .iter()
            .filter(|d| d.message.starts_with(&prefix))
            .collect();
        match truth.code {
            None => {
                if !mine.is_empty() {
                    failures.push(format!(
                        "control session s{i} reported {} hazard(s)",
                        mine.len()
                    ));
                }
            }
            Some(code) => {
                let hits: Vec<_> = mine.iter().filter(|d| d.code == code).collect();
                let names_all = hits.iter().any(|d| {
                    let notes: String = d.related.iter().map(|r| r.message.as_str()).collect();
                    let text = format!("{} {notes}", d.message);
                    truth.locks.iter().all(|l| text.contains(l))
                        && truth.culprits.iter().all(|c| text.contains(c))
                });
                if !names_all {
                    failures.push(format!(
                        "s{i}: no {code} naming {:?} and {:?}",
                        truth.locks, truth.culprits
                    ));
                }
                if code == "LA021" {
                    let flagged: Vec<_> = hits.iter().filter_map(|d| d.episode_id).collect();
                    if flagged != truth.injected {
                        failures.push(format!(
                            "s{i}: LA021 flagged {flagged:?}, injected {:?}",
                            truth.injected
                        ));
                    }
                }
            }
        }
    }
    failures
}

/// What a `fleet_corpus` batch answers.
struct FleetAnswer {
    episodes: u64,
    multi: MultiPatternSet,
    hazards: HazardReport,
    /// Digest of the SVG sketch of the batch's longest episode.
    sketch: String,
}

/// `(session, extent)` of the longest episode across the sessions' extent
/// tables, the first one on ties.
fn longest_episode<'a>(
    tables: impl IntoIterator<Item = &'a [EpisodeExtent]>,
) -> Option<(usize, usize)> {
    let mut best: Option<((usize, usize), DurationNs)> = None;
    for (s, table) in tables.into_iter().enumerate() {
        for (i, extent) in table.iter().enumerate() {
            if best.map_or(true, |(_, d)| extent.duration() > d) {
                best = Some(((s, i), extent.duration()));
            }
        }
    }
    best.map(|(at, _)| at)
}

fn sketch_digest(episode: &Episode, symbols: &SymbolTable) -> String {
    digest(&render_sketch(episode, symbols, &SketchOptions::default()))
}

/// The reference for one batch: every member file decoded on its own,
/// mined across sessions, scanned for hazards and sketched serially.
fn fleet_reference(ctx: &Ctx<'_>, batch: &Batch) -> Result<FleetAnswer, String> {
    let mut tables = Vec::with_capacity(batch.members.len());
    let mut traces = Vec::with_capacity(batch.members.len());
    for path in &batch.members {
        let trace = load(ctx, path)?;
        tables.push(trace.extents().to_vec());
        traces.push(
            trace
                .par_decode(ctx.jobs)
                .map_err(|e| format!("decode failed: {e}"))?,
        );
    }
    let (s, i) = longest_episode(tables.iter().map(Vec::as_slice)).ok_or("empty batch")?;
    let sketch = sketch_digest(&traces[s].episodes()[i], traces[s].symbols());
    let episodes = traces.iter().map(|t| t.episodes().len() as u64).sum();
    // Seed the lock identities in the order packing interns them, so
    // findings list locks in the same order as the corpus run's.
    let mut symbols = SymbolTable::new();
    for trace in &traces {
        for (_, name) in trace.symbols().iter() {
            symbols.intern(name);
        }
    }
    let hazards =
        HazardReport::analyze_corpus(&traces, &mut symbols, ctx.jobs, &HazardConfig::default());
    let multi = MultiPatternSet::mine_traces_with_jobs(traces, config(), ctx.jobs);
    Ok(FleetAnswer {
        episodes,
        multi,
        hazards,
        sketch,
    })
}

/// The write side of a batch: check each trace, build its rollup, pack
/// the batch into one compressed corpus and write it to disk.
fn fleet_write(ctx: &Ctx<'_>, batch: &Batch) -> Result<(), String> {
    let t = ctx.tracer;
    let mut opened = Vec::with_capacity(batch.members.len());
    let mut built: Vec<Option<Rollup>> = Vec::with_capacity(batch.members.len());
    let mut bytes_in = 0u64;
    for path in &batch.members {
        let bytes = t
            .try_span("trace.read", || fs::read(path))
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        bytes_in += bytes.len() as u64;
        let report = t
            .try_span("check.rules", || {
                check_bytes(&bytes, &mut RuleSet::standard())
            })
            .map_err(|e| format!("cannot check {}: {e}", path.display()))?;
        t.add("check.diagnostics", report.diagnostics().len() as u64);
        let trace = t
            .try_span("trace.open", || IndexedTrace::open(bytes))
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let rollup = if probe(ctx, &trace, path) {
            None
        } else {
            let decoded = t
                .try_span("trace.decode", || trace.par_decode(ctx.jobs))
                .map_err(|e| format!("decode failed: {e}"))?;
            t.add("trace.decoded_episodes", decoded.episodes().len() as u64);
            Some(t.span("core.rollup_build", || {
                lagalyzer_core::rollup::build(&decoded)
            }))
        };
        built.push(rollup);
        opened.push(trace);
    }
    let packed = t
        .try_span("corpus.pack", || {
            corpus::pack_with_rollups(&opened, built, PackOptions { compress: true })
        })
        .map_err(|e| format!("pack failed: {e}"))?;
    t.add("corpus.bytes_in", bytes_in);
    t.add("corpus.bytes_out", packed.len() as u64);
    drop(opened);
    t.try_span("corpus.write", || fs::write(&batch.corpus, &packed))
        .map_err(|e| format!("cannot write {}: {e}", batch.corpus.display()))
}

/// The read side of a batch: open the corpus, analyze it warm across
/// sessions, decode it, scan the merged lock graph for hazards, and
/// sketch the batch's longest episode.
fn fleet_read(ctx: &Ctx<'_>, batch: &Batch) -> Result<FleetAnswer, String> {
    let t = ctx.tracer;
    let jobs = ctx.jobs;
    let path = &batch.corpus;
    let bytes = t
        .try_span("trace.read", || fs::read(path))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let reader = t
        .try_span("corpus.open", || CorpusReader::open(bytes))
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    for view in reader.sessions() {
        count_rollup_health(t, Some(view.rollup_health()));
    }
    let warm: Option<Vec<WarmSession<'_>>> = t.span("core.warm", || {
        reader
            .sessions()
            .map(|view| WarmSession::of_corpus_session(&view, config(), &EpisodeFilter::new()))
            .collect()
    });
    let traces = t
        .try_span("corpus.decode", || reader.par_decode(jobs))
        .map_err(|e| format!("corpus decode failed: {e}"))?;
    let episodes: u64 = traces.iter().map(|t| t.episodes().len() as u64).sum();
    t.add("trace.decoded_episodes", episodes);
    let multi = match warm {
        Some(warm) => {
            let sets: Vec<PatternSet> = t.span("core.warm", || {
                warm.iter()
                    .map(|w| w.mine_patterns_with_jobs(jobs))
                    .collect()
            });
            t.span("core.mine", || MultiPatternSet::merge(&sets))
        }
        None => t.span("core.mine", || {
            MultiPatternSet::mine_traces_with_jobs(traces.clone(), config(), jobs)
        }),
    };
    t.add("core.patterns", multi.len() as u64);
    let mut symbols = reader.global_symbols().clone();
    let hazards = t.span("check.hazards", || {
        HazardReport::analyze_corpus(&traces, &mut symbols, jobs, &HazardConfig::default())
    });
    let (s, i) = longest_episode(reader.sessions().map(|v| v.extents())).ok_or("empty batch")?;
    let view = reader.session(s);
    let episode = t
        .try_span("corpus.decode", || view.decode_episode(i))
        .map_err(|e| format!("episode decode failed: {e}"))?;
    t.add("trace.decoded_episodes", 1);
    t.add(
        "trace.skipped_extents",
        (reader.total_episodes() - 1) as u64,
    );
    let sketch = t.span("viz.sketch", || sketch_digest(&episode, view.symbols()));
    Ok(FleetAnswer {
        episodes,
        multi,
        hazards,
        sketch,
    })
}

/// One `fleet_corpus` operation: a batch through the write and read sides.
fn fleet_op(ctx: &Ctx<'_>, answers: &mut Answers, batch: &Batch) -> Result<(u64, bool), String> {
    let FleetAnswer {
        episodes,
        multi,
        hazards,
        sketch,
    } = if ctx.cold {
        fleet_reference(ctx, batch)?
    } else {
        fleet_write(ctx, batch)?;
        fleet_read(ctx, batch)?
    };
    let t = ctx.tracer;
    t.add("check.lock_nodes", hazards.locks as u64);
    t.add("check.lock_edges", hazards.held_edges as u64);
    t.add("check.hazard_findings", hazards.findings.len() as u64);
    let key = &batch.key;
    let mut ok = answers.check(
        &format!("fleet/{key}/patterns"),
        digest(&multi_text(&multi)),
    ) & answers.check(
        &format!("fleet/{key}/hazards"),
        digest(&hazards.render_json(key)),
    ) & answers.check(&format!("fleet/{key}/sketch"), sketch);
    for failure in hazard_truth_failures(&hazards, &batch.hazards) {
        answers.fail(format!("fleet/{key}: {failure}"));
        ok = false;
    }
    Ok((episodes, ok))
}

fn fleet_pass(plan: &Plan, ctx: &Ctx<'_>, answers: &mut Answers, rec: &mut Recorder) {
    for batch in &plan.batches {
        let started = rec.start_op();
        match fleet_op(ctx, answers, batch) {
            Ok((episodes, ok)) => rec.op(started, episodes, ok),
            Err(e) => {
                answers.fail(e);
                rec.op(started, 0, false);
            }
        }
    }
}

/// Records the reference answers for `plan`: one serial cold pass.
pub fn reference(plan: &Plan) -> Answers {
    let tracer = Tracer::off();
    let ctx = Ctx {
        jobs: 1,
        tracer: &tracer,
        cold: true,
        calibrate: false,
    };
    let mut answers = Answers::recorder();
    run(plan, &ctx, &mut answers, Duration::ZERO, 0);
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;

    /// Generates a tiny input set, records its reference answers, and runs
    /// one measured pass at two workers with tracing on.
    fn smoke(workload: Workload) {
        let dir = std::env::temp_dir().join(format!(
            "perfbench-smoke-{}-{}",
            workload.name(),
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let plan = Plan::new(workload, Scale::tiny(), 7, &dir);
        plan.generate(|| ()).unwrap();
        let mut answers = reference(&plan);
        assert!(
            answers.mismatches().is_empty(),
            "{:?}",
            answers.mismatches()
        );
        let path = dir.join("answers.txt");
        answers.save(&path).unwrap();
        answers = Answers::load(&path).unwrap();
        let tracer = Tracer::on();
        let ctx = Ctx {
            jobs: 2,
            tracer: &tracer,
            cold: false,
            calibrate: true,
        };
        let rec = run(&plan, &ctx, &mut answers, Duration::ZERO, 0);
        fs::remove_dir_all(&dir).unwrap();
        assert!(
            answers.mismatches().is_empty(),
            "{:?}",
            answers.mismatches()
        );
        assert_eq!(rec.failed(), 0);
        assert!(!rec.ops.is_empty());
        assert!(rec.passes[0].episodes > 0);
        let scaled = rec
            .op_ref_ms()
            .expect("a calibrated run has kernel samples");
        assert!(scaled.iter().all(|ms| ms.is_finite() && *ms > 0.0));
        assert!(rec.pass_ref_rates().is_some());
        let counters = tracer.counters();
        let hits = counters.get("trace.rollup_hit").copied().unwrap_or(0);
        match workload {
            Workload::SuiteCold => {
                assert_eq!(hits, 0);
                assert_eq!(counters["trace.rollup_absent"], plan.sessions.len() as u64);
            }
            Workload::WarmQuery => {
                assert!(hits > 0);
                assert_eq!(counters.get("trace.rollup_absent"), None);
                assert!(tracer.rows().contains_key("viz.sketch"));
            }
            Workload::FleetCorpus => {
                assert!(hits > 0);
                assert!(counters["corpus.bytes_out"] < counters["corpus.bytes_in"]);
                assert!(counters["check.hazard_findings"] > 0);
                assert!(tracer.rows().contains_key("viz.sketch"));
            }
        }
    }

    #[test]
    fn suite_cold_smoke() {
        smoke(Workload::SuiteCold);
    }

    #[test]
    fn warm_query_smoke() {
        smoke(Workload::WarmQuery);
    }

    #[test]
    fn fleet_corpus_smoke() {
        smoke(Workload::FleetCorpus);
    }
}
