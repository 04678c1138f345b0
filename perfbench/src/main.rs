//! End-to-end LagAlyzer benchmark.
//!
//! ```text
//! perfbench --workload suite_cold|warm_query|fleet_corpus --seed N --seconds S --trace 0|1
//! ```
//!
//! The process generates the workload's seeded traces under
//! `.bench_work/` in the current directory (timing that as `setup_s`),
//! records the serial cold reference answers, then starts a fresh child
//! process that only reads the files, so the child's peak resident set
//! covers the workload and not the set-up. The child runs an untimed
//! warm-up pass, measures closed-loop passes for `S` seconds, checks every
//! answer, and prints one JSON object as the last line of standard output:
//! the end-to-end metrics with `--trace 0`, the traced per-layer rows at
//! one worker and at every core with `--trace 1`. The end-to-end run uses
//! one worker and times it in reference-core CPU time (see `cpu.rs` and
//! `calib.rs`). See `README.md`.

mod calib;
mod cpu;
mod inputs;
mod spans;
mod stats;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use lagalyzer_core::parallel::{available_jobs, effective_jobs, resolve_jobs};

use crate::cpu::Stamp;
use crate::inputs::{Answers, Plan, Scale, Workload};
use crate::spans::Tracer;
use crate::workloads::{Ctx, Recorder};

/// Times the inputs are generated in one run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Operations a measured run needs for a p90 with ten samples beyond it.
const MIN_OPS: usize = 100;

/// Layers timed by the traced run, by span name.
const LAYERS: [&str; 18] = [
    "trace.read",
    "trace.open",
    "trace.rollup_probe",
    "trace.decode",
    "corpus.pack",
    "corpus.write",
    "corpus.open",
    "corpus.decode",
    "core.stats",
    "core.mine",
    "core.outliers",
    "core.warm",
    "core.rollup_build",
    "report.aggregate",
    "report.render",
    "viz.sketch",
    "check.rules",
    "check.hazards",
];

/// Counters reported per pass by the traced run.
const COUNTERS: [&str; 12] = [
    "trace.decoded_episodes",
    "trace.skipped_extents",
    "trace.rollup_hit",
    "trace.rollup_absent",
    "trace.rollup_stale",
    "trace.rollup_bypassed",
    "core.patterns",
    "core.outlier_findings",
    "check.diagnostics",
    "check.lock_nodes",
    "check.lock_edges",
    "check.hazard_findings",
];

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the measuring child (`perfbench measure ...`).
    child: Option<Child>,
}

/// What the parent hands the measuring child.
struct Child {
    /// The input directory.
    dir: PathBuf,
    /// Set-up time measured by the parent.
    setup_s: f64,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace expects 0 or 1, got {n}")),
    };
    let child = if args.first().map(String::as_str) == Some("measure") {
        let setup: f64 = value("--setup-s")?
            .parse()
            .map_err(|_| "--setup-s expects seconds".to_string())?;
        Some(Child {
            dir: PathBuf::from(value("--dir")?),
            setup_s: setup,
        })
    } else {
        None
    };
    Ok(Options {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|opts| match &opts.child {
        Some(child) => measure(&opts, child),
        None => orchestrate(&opts, &args),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes the run's input directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Parent process: set-up, reference answers, then the measuring child.
fn orchestrate(opts: &Options, args: &[String]) -> Result<ExitCode, String> {
    let base = PathBuf::from(".bench_work");
    let work = WorkDir(base.join(format!("{}-{}", opts.workload.name(), std::process::id())));
    fs::create_dir_all(&work.0).map_err(|e| format!("cannot create {}: {e}", work.0.display()))?;
    let plan = Plan::new(opts.workload, Scale::table2(), opts.seed, &work.0);

    // The traced run reports no set-up time, so it sets up once.
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::with_capacity(reps);
    let mut setup_cpu = Vec::with_capacity(reps);
    let mut setup_wall = Vec::with_capacity(reps);
    for _ in 0..reps {
        // The kernel runs before each trace is generated, as it runs
        // between operations in the measured run.
        let mut samples = Vec::new();
        let started = Stamp::now();
        plan.generate(|| samples.push(calib::kernel_ns()))?;
        let (wall, cpu) = started.elapsed();
        let cpu = cpu.saturating_sub(samples.iter().sum());
        let samples: Vec<f64> = samples.iter().map(|&k| k as f64).collect();
        let kernel_ns = stats::median(&samples).expect("a plan writes at least one trace");
        setup.push(calib::scale(cpu, kernel_ns) / 1e9);
        setup_cpu.push(cpu as f64 / 1e9);
        setup_wall.push(wall as f64 / 1e9);
    }
    let setup_s = stats::median(&setup).expect("at least one set-up");
    eprintln!(
        "perfbench: wrote {} bytes of {} input in {setup:.3?} reference-core s \
         ({setup_cpu:.3?} CPU s, {setup_wall:.3?} wall s)",
        plan.input_bytes(),
        opts.workload.name()
    );

    let started = Instant::now();
    let answers = workloads::reference(&plan);
    if !answers.mismatches().is_empty() {
        return Err(format!("reference pass failed: {:?}", answers.mismatches()));
    }
    let answers_path = work.0.join("answers.txt");
    answers.save(&answers_path)?;
    eprintln!(
        "perfbench: reference answers (jobs 1, cold) in {:.2} s",
        started.elapsed().as_secs_f64()
    );

    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let status = Command::new(exe)
        .arg("measure")
        .args(args)
        .arg("--dir")
        .arg(&work.0)
        .arg("--setup-s")
        .arg(setup_s.to_string())
        .status()
        .map_err(|e| format!("cannot start the measuring process: {e}"))?;
    drop(work);
    let _ = fs::remove_dir(&base);
    Ok(if status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Child process: warm-up, measured (or traced) phases, result line.
fn measure(opts: &Options, child: &Child) -> Result<ExitCode, String> {
    let plan = Plan::new(opts.workload, Scale::table2(), opts.seed, &child.dir);
    let mut answers = Answers::load(&child.dir.join("answers.txt"))?;
    let cores = available_jobs();
    let all_jobs = resolve_jobs(None);
    // The end-to-end run is timed on the measuring thread's CPU clock, so
    // it keeps every layer call on that thread: one worker.
    let jobs = if opts.trace { all_jobs } else { 1 };
    if cpu::thread_ns().is_none() {
        return Err("cannot read the thread's CPU time from /proc/thread-self/schedstat".into());
    }
    let budget = Duration::from_secs(opts.seconds);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} commit={} host_cores={cores} jobs={jobs} effective_jobs={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        commit(),
        effective_jobs(jobs),
    );

    // Untimed warm-up: page cache, allocator and lazy set-up settle.
    let off = Tracer::off();
    let mut ctx = Ctx {
        jobs,
        tracer: &off,
        cold: false,
        calibrate: false,
    };
    let warmup = workloads::run(&plan, &ctx, &mut answers, Duration::ZERO, 0);
    let mut attempted = warmup.ops.len() as u64;
    let mut failed = warmup.failed();
    drop(warmup);

    let metrics = if opts.trace {
        let mut metrics = vec![metric("host_cores", cores as f64, "count")];
        let quarter = budget / 4;
        for (tag, phase_jobs) in [("j1", 1), ("jall", all_jobs)] {
            let ctx = Ctx {
                jobs: phase_jobs,
                tracer: &off,
                cold: false,
                calibrate: false,
            };
            let plain = workloads::run(&plan, &ctx, &mut answers, quarter, 0);
            let tracer = Tracer::on();
            let ctx = Ctx {
                jobs: phase_jobs,
                tracer: &tracer,
                cold: false,
                calibrate: false,
            };
            let traced = workloads::run(&plan, &ctx, &mut answers, quarter, 0);
            let wall_ns = tracer.now_ns();
            for rec in [&plain, &traced] {
                attempted += rec.ops.len() as u64;
                failed += rec.failed();
            }
            layer_metrics(
                &mut metrics,
                tag,
                phase_jobs,
                &plain,
                &traced,
                &tracer,
                wall_ns,
            );
        }
        metrics
    } else {
        ctx.calibrate = true;
        let rec = workloads::run(&plan, &ctx, &mut answers, budget, MIN_OPS);
        attempted += rec.ops.len() as u64;
        failed += rec.failed();
        end_to_end_metrics(&rec, child.setup_s)?
    };

    for why in answers.mismatches().iter().take(10) {
        eprintln!("perfbench: wrong answer: {why}");
    }
    println!(
        "perfbench: {attempted} operations attempted, {failed} failed (failed_ratio {})",
        failed as f64 / attempted.max(1) as f64
    );
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(ExitCode::SUCCESS)
}

fn end_to_end_metrics(rec: &Recorder, setup_s: f64) -> Result<Vec<Metric>, String> {
    let ms = rec.op_ref_ms().ok_or("no calibration kernel samples")?;
    let p50 = stats::median(&ms).ok_or("no operations measured")?;
    let p90 = stats::tail(&ms, 90.0)
        .ok_or_else(|| format!("{} operations cannot support a p90", ms.len()))?;
    let rates = rec
        .pass_ref_rates()
        .ok_or("no calibration kernel samples")?;
    let rate = stats::median(&rates).ok_or("no passes measured")?;
    let peaks: Option<Vec<f64>> = rec.passes.iter().map(|p| p.peak_rss_mb).collect();
    let rss = peaks
        .and_then(|p| stats::median(&p))
        .ok_or("cannot read VmHWM from /proc/self/status")?;
    let kernel: Vec<f64> = rec.kernel_ns.iter().map(|&k| k as f64 / 1e6).collect();
    println!(
        "perfbench: {} passes, episodes_per_ref_s median {rate:.0} (per pass {rates:.0?}); op_ref p50 {p50:.3} ms, \
         p90 {:.3} ms from {} operations ({} beyond); peak RSS median {rss:.1} MB (per pass {:.1?}); \
         setup {setup_s:.3} reference-core s; calibration kernel median {:.3} ms over {} samples",
        rec.passes.len(),
        p90.value,
        p90.samples,
        p90.beyond,
        rec.passes.iter().filter_map(|p| p.peak_rss_mb).collect::<Vec<_>>(),
        stats::median(&kernel).unwrap_or(0.0),
        kernel.len(),
    );
    // The unscaled figures, for the reader.
    let cpu_ms: Vec<f64> = rec.ops.iter().map(|o| o.cpu_ns as f64 / 1e6).collect();
    let wall_ms: Vec<f64> = rec.ops.iter().map(|o| o.ns as f64 / 1e6).collect();
    println!(
        "perfbench: unscaled: op CPU p50 {:.3} ms, op wall p50 {:.3} ms, p90 {:.3} ms; episodes per wall s median {:.0}",
        stats::median(&cpu_ms).unwrap_or(0.0),
        stats::median(&wall_ms).unwrap_or(0.0),
        stats::tail(&wall_ms, 90.0).map_or(0.0, |t| t.value),
        stats::median(&rec.pass_rates()).unwrap_or(0.0),
    );
    Ok(vec![
        metric("episodes_per_ref_s", rate, "1/s"),
        metric("op_ref_p50_ms", p50, "ms"),
        metric("op_ref_p90_ms", p90.value, "ms"),
        metric("peak_rss_mb", rss, "MB"),
        metric("setup_s", setup_s, "s"),
    ])
}

/// Appends the traced phase's per-layer rows for one jobs setting;
/// `wall_ns` is the phase's wall time on the tracer's clock.
fn layer_metrics(
    out: &mut Vec<Metric>,
    tag: &str,
    jobs: usize,
    plain: &Recorder,
    traced: &Recorder,
    tracer: &Tracer,
    wall_ns: u64,
) {
    let passes = traced.passes.len() as f64;
    let per_pass = |v: u64| v as f64 / passes;
    let rows = tracer.rows();
    let counters = tracer.counters();
    let effective = effective_jobs(jobs);
    println!(
        "perfbench: traced {tag}: jobs={jobs} effective_jobs={effective} host_cores={} passes={} (per pass below)",
        available_jobs(),
        traced.passes.len()
    );
    println!(
        "  {:<20} {:>8} {:>7} {:>12} {:>12}",
        "layer", "calls", "errors", "total_ms", "self_ms"
    );
    let mut errors = 0;
    for layer in LAYERS {
        let row = rows.get(layer).copied().unwrap_or_default();
        errors += row.errors;
        println!(
            "  {layer:<20} {:>8} {:>7} {:>12.3} {:>12.3}",
            per_pass(row.calls),
            row.errors,
            per_pass(row.total_ns) / 1e6,
            per_pass(row.self_ns) / 1e6
        );
        out.push(metric(
            format!("{layer}_ms.{tag}"),
            per_pass(row.self_ns) / 1e6,
            "ms",
        ));
        if tag == "jall" {
            out.push(metric(
                format!("{layer}.calls"),
                per_pass(row.calls),
                "count",
            ));
        }
    }
    let glue = per_pass(tracer.glue_ns(0, wall_ns)) / 1e6;
    println!(
        "  {:<20} {:>8} {:>7} {:>12.3} {:>12.3}",
        "glue", "", "", glue, glue
    );
    let plain_rate = stats::median(&plain.pass_rates()).unwrap_or(0.0);
    let traced_rate = stats::median(&traced.pass_rates()).unwrap_or(0.0);
    let overhead = if plain_rate > 0.0 {
        (plain_rate - traced_rate) / plain_rate * 100.0
    } else {
        0.0
    };
    println!("  episodes_per_s untraced {plain_rate:.0}, traced {traced_rate:.0}: tracing overhead {overhead:.2} %");
    out.push(metric(format!("glue_ms.{tag}"), glue, "ms"));
    out.push(metric(
        format!("layer_errors.{tag}"),
        errors as f64,
        "count",
    ));
    out.push(metric(format!("jobs.{tag}"), jobs as f64, "count"));
    out.push(metric(
        format!("effective_jobs.{tag}"),
        effective as f64,
        "count",
    ));
    out.push(metric(format!("trace_overhead_pct.{tag}"), overhead, "%"));
    if tag != "jall" {
        return;
    }
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    for name in COUNTERS {
        out.push(metric(name, per_pass(count(name)), "count"));
    }
    let probes =
        count("trace.rollup_hit") + count("trace.rollup_absent") + count("trace.rollup_stale");
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.push(metric(
        "trace.rollup_hit_ratio",
        ratio(count("trace.rollup_hit"), probes),
        "ratio",
    ));
    out.push(metric(
        "corpus.compress_ratio",
        ratio(count("corpus.bytes_out"), count("corpus.bytes_in")),
        "ratio",
    ));
}

/// Prints the result object as the last line of standard output.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// JSON has no NaN or infinity; a non-finite value prints as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The checked-out commit when run from a git work tree, else `unknown`.
/// Reads `.git` in the current directory only.
fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .or_else(|| {
                fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(reference))
                            .and_then(|l| l.split_whitespace().next())
                            .map(str::to_owned)
                    })
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let resolved = resolved.trim();
    if resolved.is_empty() {
        "unknown".into()
    } else {
        resolved.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Op, Pass};

    /// `(name, unit)` of every metric listed under `key` in the
    /// repository's `BENCHMARK.json`, sorted.
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = fs::read_to_string(&path).expect("BENCHMARK.json sits beside the benchmark");
        let section = &text[text.find(&format!("\"{key}\"")).expect("section present")..];
        let section = &section[..section.find(']').expect("section is an array")];
        let field = |entry: &str, name: &str| -> String {
            let rest = &entry[entry
                .find(&format!("\"{name}\": \""))
                .expect("field present")
                + name.len()
                + 5..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        };
        let mut out: Vec<_> = section
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect();
        out.sort();
        out
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        let mut out: Vec<_> = metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let mut rec = Recorder::default();
        rec.ops = (1..=100)
            .map(|i| Op {
                ns: i * 3_000_000,
                cpu_ns: i * 2_000_000,
                kernel_at: 0,
                episodes: 10,
                ok: true,
            })
            .collect();
        rec.passes = vec![Pass {
            ns: 3_000_000_000,
            cpu_ns: 2_000_000_000,
            kernel: 0..1,
            episodes: 1000,
            peak_rss_mb: Some(20.0),
        }];
        // The kernel took twice its reference time: a core half as fast as
        // the reference, so CPU times are halved.
        rec.kernel_ns = vec![2 * calib::REFERENCE_NS as u64];
        let metrics = end_to_end_metrics(&rec, 1.5).expect("100 operations support a p90");
        assert_eq!(emitted(&metrics), listed("end_to_end"));
        let value = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(value("op_ref_p90_ms"), Some(90.0));
        assert_eq!(value("episodes_per_ref_s"), Some(1000.0));
    }

    #[test]
    fn traced_metrics_match_benchmark_json() {
        let tracer = Tracer::on();
        let empty = Recorder::default();
        let mut metrics = vec![metric("host_cores", 2.0, "count")];
        for tag in ["j1", "jall"] {
            layer_metrics(&mut metrics, tag, 1, &empty, &empty, &tracer, 0);
        }
        assert_eq!(emitted(&metrics), listed("per_layer"));
    }
}
