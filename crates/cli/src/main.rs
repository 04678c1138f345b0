//! `lagalyzer` — the command-line front end.
//!
//! Subcommands:
//!
//! * `apps` — list the built-in application profiles (Table II);
//! * `simulate` — synthesize a session trace (or, with `--sessions N`, a
//!   multi-session corpus) to a file;
//! * `pack` — pack N `.lgz` traces into one `.lgzc` corpus;
//! * `compact` — re-pack a corpus, dropping salvage-skipped bytes;
//! * `analyze` — print overall statistics for a trace (a Table III row)
//!   or corpus-wide statistics for a `.lgzc` file;
//! * `patterns` — print the pattern browser table for a trace, or the
//!   merged cross-session table for a corpus;
//! * `sketch` — render an episode sketch (SVG or ASCII);
//! * `lint` — check a trace file for damage and print the salvage report;
//! * `check` — run the semantic rule checker and print its diagnostics;
//! * `outliers` — flag per-pattern duration outliers and attribute each
//!   one's excess to a cause (lock wait, GC, slow I/O, self time);
//! * `experiments` — regenerate every table and figure of the paper.
//!
//! Exit codes: `0` success on a clean trace, `1` usage or I/O error,
//! `2` the trace was damaged but salvageable (for `check`: semantic
//! errors were found), `3` the trace is unrecoverable. `check` exits `1`
//! when only warnings were found.

#![forbid(unsafe_code)]

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lagalyzer_check::{check_bytes, HazardConfig, HazardReport, RuleSet, Severity};
use lagalyzer_core::browser::{PatternBrowser, SortBy};
use lagalyzer_core::prelude::*;
use lagalyzer_model::{DurationNs, Episode, SymbolTable, TimeNs};
use lagalyzer_report::{figures, table3, Study};
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer_trace::{DamageVerdict, EpisodeFilter, IndexedTrace};
use lagalyzer_viz::ascii::ascii_sketch;
use lagalyzer_viz::sketch::{render_pattern_gallery, render_sketch, SketchOptions};
use lagalyzer_viz::timeline::{render_timeline, TimelineOptions};

/// Exit code for a trace that was damaged but salvageable.
const EXIT_SALVAGED: u8 = 2;
/// Exit code for a trace that could not be decoded at all.
const EXIT_UNRECOVERABLE: u8 = 3;

/// A command failure: the message printed to stderr plus the process
/// exit code it maps to (plain errors exit `1`).
struct Failure {
    msg: String,
    code: u8,
}

impl Failure {
    fn unrecoverable(msg: String) -> Failure {
        Failure {
            msg,
            code: EXIT_UNRECOVERABLE,
        }
    }
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure { msg, code: 1 }
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Failure {
        Failure {
            msg: msg.to_owned(),
            code: 1,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(failure) => {
            eprintln!("error: {}", failure.msg);
            ExitCode::from(failure.code)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Failure> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(ExitCode::SUCCESS);
    };
    let rest = &args[1..];
    match command.as_str() {
        "apps" => cmd_apps(),
        "simulate" => cmd_simulate(rest),
        "pack" => cmd_pack(rest),
        "compact" => cmd_compact(rest),
        "analyze" => cmd_analyze(rest),
        "patterns" => cmd_patterns(rest),
        "sketch" => cmd_sketch(rest),
        "timeline" => cmd_timeline(rest),
        "stable" => cmd_stable(rest),
        "diff" => cmd_diff(rest),
        "lint" => cmd_lint(rest),
        "check" => cmd_check(rest),
        "hazards" => cmd_hazards(rest),
        "outliers" => cmd_outliers(rest),
        "experiments" => cmd_experiments(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}; try `lagalyzer help`").into()),
    }
}

fn print_usage() {
    println!(
        "lagalyzer — latency profile analysis and visualization\n\
         \n\
         usage: lagalyzer <command> [options]\n\
         \n\
         commands:\n\
           apps                               list built-in application profiles\n\
           simulate --app NAME [--session N] [--seed S] [--text] --out FILE\n\
                    [--sessions N] [--compress]\n\
                                              synthesize a session trace; --sessions N\n\
                                              writes an N-session .lgzc corpus instead\n\
           pack IN.lgz [IN.lgz...] --out OUT.lgzc [--compress] [--salvage] [--jobs N]\n\
                                              pack traces into one corpus with a\n\
                                              deduplicated corpus-wide symbol table\n\
           compact IN.lgzc --out OUT.lgzc [--compress] [--jobs N]\n\
                                              re-pack a corpus, dropping salvage-skipped\n\
                                              bytes and re-deduplicating symbols\n\
           analyze FILE [--threshold-ms MS] [--histogram] [--jobs N] [--salvage] [--check]\n\
                   [--session K] [--format text|json]\n\
                                              overall statistics of a trace; on a .lgzc\n\
                                              corpus: corpus-wide stats (or one session\n\
                                              via --session K)\n\
           patterns FILE [--perceptible-only] [--sort count|total|max|perceptible] [--jobs N] [--salvage]\n\
                    [--session K]\n\
                                              browse mined patterns; on a corpus: the\n\
                                              cross-session merged table\n\
           lint FILE                          check a trace (or corpus) for damage; print the salvage report and index health\n\
           check FILE [--format text|json] [--allow CODE] [--deny CODE] [--level CODE=SEV] [--fix-report FILE.json]\n\
                                              run the semantic rule checker (codes LA001..);\n\
                                              check --list-rules prints the full rule table\n\
           hazards FILE [--format text|json] [--jobs N] [--salvage] [--explain N]\n\
                   [--min-samples N] [--starvation-streak N]\n\
                                              concurrency-hazard analysis over the session\n\
                                              lock graph (LA020 lock-order inversion, LA021\n\
                                              held-across-IO, LA022 held-across-pause, LA023\n\
                                              starvation, LA024 self-wait); on a .lgzc\n\
                                              corpus also LA025 cross-session inversions\n\
           outliers FILE [--format text|json] [--mad-k K] [--min-excess-ms MS] [--min-count N]\n\
                    [--explain N] [--jobs N] [--salvage]\n\
                                              flag per-pattern duration outliers and attribute\n\
                                              each one's excess (codes OC-LOCK, OC-WAIT, OC-SLEEP,\n\
                                              OC-GC, OC-IO, OC-NATIVE, OC-SELF)\n\
           sketch FILE [--episode N | --pattern N [--gallery]] [--ascii] [--out FILE.svg]\n\
                                              render an episode sketch\n\
           timeline FILE [--out FILE.svg]     render the whole-session timeline\n\
           stable FILE [FILE...] [--jobs N]   stable slow patterns across several traces\n\
           diff BASELINE CANDIDATE            pattern-level regression report\n\
           experiments [--out-dir DIR] [--sessions N] [--seed S] [--jobs N]\n\
                                              regenerate the paper's tables and figures\n\
         \n\
         --jobs N shards trace decoding and analysis work across N worker\n\
         threads (0 or omitted: all cores; 1: serial). Results are\n\
         byte-identical for any N.\n\
         \n\
         --min-lag MS, --perceptible, --since-ms MS and --until-ms MS\n\
         filter episodes at ingest; on indexed binary traces the excluded\n\
         episodes are never even decoded (skip-decode filtering).\n\
         \n\
         --salvage decodes a damaged trace leniently, dropping corrupt\n\
         records and reporting every skip. Exit codes: 0 clean, 1 usage or\n\
         I/O error, 2 damaged but salvaged, 3 unrecoverable.\n\
         \n\
         analyze, patterns and outliers answer from a persisted rollup\n\
         section when the trace (or every corpus session) carries a valid\n\
         one — zero episode decoding, byte-identical output, a `rollup:\n\
         cache hit` note on stderr. --no-cache forces the cold decode\n\
         path; stale or missing rollups fall back to it automatically.\n\
         \n\
         check exits 0 when clean (notes allowed), 1 on warnings, 2 on\n\
         errors, 3 when the trace is unrecoverable. analyze --check runs\n\
         the checker first and refuses analysis when it reports errors."
    );
}

/// Every value-taking flag shared by the trace-loading commands, so
/// positional-argument scanning can skip their values.
const VALUE_FLAGS: &[&str] = &[
    "--threshold-ms",
    "--jobs",
    "--min-lag",
    "--since-ms",
    "--until-ms",
    "--session",
    "--format",
];

/// Fetches the value following a `--flag`.
fn opt_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn opt_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Every value given for a repeatable flag, in order
/// (`--allow LA007 --allow LA011` yields both codes).
fn opt_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            if let Some(value) = iter.next() {
                out.push(value.as_str());
            }
        }
    }
    out
}

/// Positional (non-flag) arguments, skipping the values of value-taking
/// flags so `stable a.lgz b.lgz --jobs 4` does not try to load "4".
fn positional_args<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut skip_value = false;
    for arg in args {
        if skip_value {
            skip_value = false;
        } else if arg.starts_with("--") {
            skip_value = value_flags.contains(&arg.as_str());
        } else {
            out.push(arg);
        }
    }
    out
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match opt_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects a number, got {v:?}")),
    }
}

/// Resolves `--jobs N` into a worker count. Absent or `0` means "use all
/// available cores"; `--jobs 1` runs the original serial path. Parallel
/// analysis output is byte-identical to serial, so this only affects speed.
fn parse_jobs(args: &[String]) -> Result<usize, String> {
    match opt_value(args, "--jobs") {
        None => Ok(lagalyzer_core::parallel::resolve_jobs(None)),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("--jobs expects a number, got {v:?}"))?;
            Ok(lagalyzer_core::parallel::resolve_jobs(Some(n)))
        }
    }
}

fn cmd_apps() -> Result<ExitCode, Failure> {
    println!(
        "{:<15} {:<10} {:>8}  description",
        "name", "version", "classes"
    );
    for p in apps::standard_suite() {
        println!(
            "{:<15} {:<10} {:>8}  {}",
            p.name, p.version, p.classes, p.description
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_simulate(args: &[String]) -> Result<ExitCode, Failure> {
    let app_name = opt_value(args, "--app").ok_or("simulate requires --app NAME")?;
    let profile = apps::by_name(app_name)
        .ok_or_else(|| format!("unknown application {app_name:?}; see `lagalyzer apps`"))?;
    let session = parse_u64(args, "--session", 0)? as u32;
    let seed = parse_u64(args, "--seed", 42)?;
    let out = opt_value(args, "--out").ok_or("simulate requires --out FILE")?;
    if let Some(v) = opt_value(args, "--sessions") {
        // Multi-session corpus generation: N consecutive sessions of the
        // application, packed straight into one .lgzc file.
        let n: u32 = v
            .parse()
            .map_err(|_| format!("--sessions expects a count, got {v:?}"))?;
        if n == 0 {
            return Err("--sessions must be at least 1".into());
        }
        if opt_flag(args, "--text") {
            return Err("--text cannot be combined with --sessions (corpora are binary)".into());
        }
        let traces = runner::simulate_corpus(&profile, n, seed);
        let mut opened = Vec::with_capacity(traces.len());
        for trace in &traces {
            let mut buf = Vec::new();
            let rollup = lagalyzer_core::rollup::build(trace);
            lagalyzer_trace::binary::write_with_rollup(trace, &mut buf, rollup)
                .map_err(|e| e.to_string())?;
            opened.push(IndexedTrace::open(buf).map_err(|e| e.to_string())?);
        }
        let packed = corpus::pack(
            &opened,
            PackOptions {
                compress: opt_flag(args, "--compress"),
            },
        )
        .map_err(|e| e.to_string())?;
        fs::write(out, &packed).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "wrote {} corpus of {n} sessions ({} traced episodes) to {out}",
            profile.name,
            opened.iter().map(IndexedTrace::len).sum::<usize>()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let trace = runner::simulate_session(&profile, session, seed);
    let file = fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut writer = std::io::BufWriter::new(file);
    if opt_flag(args, "--text") {
        lagalyzer_trace::text::write(&trace, &mut writer).map_err(|e| e.to_string())?;
    } else {
        // Binary traces ship with a rollup section so every later
        // `analyze`/`patterns`/`outliers` run takes the warm path.
        let rollup = lagalyzer_core::rollup::build(&trace);
        lagalyzer_trace::binary::write_with_rollup(&trace, &mut writer, rollup)
            .map_err(|e| e.to_string())?;
    }
    writer.flush().map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} traced episodes, {} filtered) to {out}",
        profile.name,
        trace.episodes().len(),
        trace.short_episode_count()
    );
    Ok(ExitCode::SUCCESS)
}

/// Value-taking flags of the `pack` subcommand.
const PACK_VALUE_FLAGS: &[&str] = &["--out", "--jobs"];

fn cmd_pack(args: &[String]) -> Result<ExitCode, Failure> {
    let out = opt_value(args, "--out").ok_or("pack requires --out FILE.lgzc")?;
    let inputs = positional_args(args, PACK_VALUE_FLAGS);
    if inputs.is_empty() {
        return Err("pack requires at least one input .lgz trace".into());
    }
    let salvage = opt_flag(args, "--salvage");
    let options = PackOptions {
        compress: opt_flag(args, "--compress"),
    };
    let mut opened = Vec::with_capacity(inputs.len());
    for path in &inputs {
        let bytes = fs::read(path.as_str()).map_err(|e| format!("cannot read {path}: {e}"))?;
        if !bytes.starts_with(b"LGLZTRC") {
            return Err(format!("{path} is not a binary .lgz trace").into());
        }
        let trace = if salvage {
            IndexedTrace::open_salvage(bytes)
                .map_err(|e| Failure::unrecoverable(format!("cannot salvage {path}: {e}")))?
        } else {
            IndexedTrace::open(bytes)
                .map_err(|e| format!("cannot load {path}: {e} (retry with --salvage)"))?
        };
        if let Some(report) = trace.salvage_report() {
            if !report.is_clean() {
                eprintln!(
                    "salvage: {path}: recovered {} episode(s), lost {}, {} skip(s)",
                    report.episodes_recovered,
                    report.episodes_lost,
                    report.skips.len()
                );
            }
        }
        opened.push(trace);
    }
    let per_file_symbols: usize = opened.iter().map(|t| t.symbols().len()).sum();
    let distinct_symbols = {
        let mut set = std::collections::HashSet::new();
        for trace in &opened {
            for (_, name) in trace.symbols().iter() {
                set.insert(name);
            }
        }
        set.len()
    };
    let episodes: usize = opened.iter().map(IndexedTrace::len).sum();
    let damaged = opened
        .iter()
        .filter(|t| t.salvage_report().is_some_and(|r| !r.is_clean()))
        .count();
    // Clean inputs without a persisted rollup get one built at pack time
    // (decode once now, answer warm forever); salvaged inputs stay cold
    // since the warm path refuses damaged sessions anyway.
    let jobs = parse_jobs(args)?;
    let built: Vec<Option<lagalyzer_trace::Rollup>> = opened
        .iter()
        .map(|t| {
            if t.rollup().is_some() || t.salvage_report().is_some() {
                return None;
            }
            t.par_decode(jobs)
                .ok()
                .map(|trace| lagalyzer_core::rollup::build(&trace))
        })
        .collect();
    let packed = corpus::pack_with_rollups(&opened, built, options).map_err(|e| e.to_string())?;
    fs::write(out, &packed).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "packed {} session(s), {episodes} episode(s) into {out} ({} bytes): \
         {per_file_symbols} per-file symbols deduplicated to {distinct_symbols}",
        opened.len(),
        packed.len(),
    );
    if damaged > 0 {
        Ok(ExitCode::from(EXIT_SALVAGED))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Value-taking flags of the `compact` subcommand.
const COMPACT_VALUE_FLAGS: &[&str] = &["--out", "--jobs"];

fn cmd_compact(args: &[String]) -> Result<ExitCode, Failure> {
    let positionals = positional_args(args, COMPACT_VALUE_FLAGS);
    let path = positionals
        .first()
        .ok_or("compact requires a corpus file")?;
    let out = opt_value(args, "--out").ok_or("compact requires --out FILE.lgzc")?;
    let jobs = parse_jobs(args)?;
    let options = PackOptions {
        compress: opt_flag(args, "--compress"),
    };
    let bytes = fs::read(path.as_str()).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !corpus::is_corpus(&bytes) {
        return Err(format!("{path} is not a .lgzc corpus (pack traces first)").into());
    }
    let before = bytes.len();
    let reader = CorpusReader::open(bytes)
        .map_err(|e| Failure::unrecoverable(format!("cannot load {path}: {e}")))?;
    // Sessions keep their valid rollups through compaction; sessions
    // without one get theirs built from the re-encoded payload.
    let build = |trace: &lagalyzer_model::SessionTrace| lagalyzer_core::rollup::build(trace);
    let compacted = corpus::compact_with_rollups(&reader, jobs, options, Some(&build))
        .map_err(|e| e.to_string())?;
    let after = compacted.len();
    fs::write(out, compacted).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "compacted {} session(s): {before} -> {after} bytes in {out}",
        reader.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// Builds the ingest-time episode filter from `--min-lag MS`,
/// `--perceptible` and the `--since-ms`/`--until-ms` session window. On
/// indexed binary traces the filter is evaluated against the extent index
/// alone, so excluded episodes are never decoded.
fn parse_filter(args: &[String]) -> Result<EpisodeFilter, String> {
    let mut filter = EpisodeFilter::new();
    if let Some(v) = opt_value(args, "--min-lag") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--min-lag expects milliseconds, got {v:?}"))?;
        filter = filter.min_duration(DurationNs::from_millis(ms));
    }
    if opt_flag(args, "--perceptible") {
        filter = filter.min_duration(DurationNs::PERCEPTIBLE_DEFAULT);
    }
    let since = opt_value(args, "--since-ms");
    let until = opt_value(args, "--until-ms");
    if since.is_some() || until.is_some() {
        let parse = |flag: &str, v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag} expects milliseconds, got {v:?}"))
        };
        let from = match since {
            Some(v) => TimeNs::from_millis(parse("--since-ms", v)?),
            None => TimeNs::from_nanos(0),
        };
        let to = match until {
            Some(v) => TimeNs::from_millis(parse("--until-ms", v)?),
            None => TimeNs::from_nanos(u64::MAX),
        };
        filter = filter.window(from, to);
    }
    Ok(filter)
}

/// Prints the salvage summary to stderr and builds the matching
/// provenance; clean reports stay silent.
fn salvage_provenance(path: &str, report: &lagalyzer_trace::SalvageReport) -> Provenance {
    if report.is_clean() {
        return Provenance::Clean;
    }
    eprintln!(
        "salvage: {path}: recovered {} episode(s), lost {}, {} skip(s)",
        report.episodes_recovered,
        report.episodes_lost,
        report.skips.len(),
    );
    Provenance::Salvaged {
        skips: report.skips.len() as u64,
        episodes_lost: report.episodes_lost,
    }
}

fn session_from(args: &[String], path: &str) -> Result<AnalysisSession, Failure> {
    let threshold = parse_u64(args, "--threshold-ms", 100)?;
    let config = AnalysisConfig {
        perceptible_threshold: DurationNs::from_millis(threshold),
    };
    let filter = parse_filter(args)?;
    let jobs = parse_jobs(args)?;
    let salvage = opt_flag(args, "--salvage");

    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if salvage => {
            return Err(Failure::unrecoverable(format!(
                "cannot salvage {path}: {e}"
            )))
        }
        Err(e) => return Err(format!("cannot load {path}: {e}").into()),
    };

    if corpus::is_corpus(&bytes) {
        // Corpus file: --session K selects one member session; the filter
        // rides the corpus extent index exactly as it does for a single
        // indexed trace.
        let reader = CorpusReader::open(bytes)
            .map_err(|e| Failure::unrecoverable(format!("cannot load {path}: {e}")))?;
        let k = match opt_value(args, "--session") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| format!("--session expects a session index, got {v:?}"))?,
            None => {
                return Err(format!(
                    "{path} is a corpus of {} sessions; select one with --session K",
                    reader.len()
                )
                .into())
            }
        };
        if k >= reader.len() {
            return Err(format!("{path} has {} sessions, no index {k}", reader.len()).into());
        }
        let view = reader.session(k);
        let excluded = view.excluded_by(&filter) as u64;
        let provenance = if view.is_damaged() {
            eprintln!(
                "salvage: {path} session {k}: {} skip(s), {} episode(s) lost at pack time",
                view.skips(),
                view.episodes_lost()
            );
            Provenance::Salvaged {
                skips: view.skips(),
                episodes_lost: view.episodes_lost(),
            }
        } else {
            Provenance::Clean
        };
        let trace = view
            .decode_filtered(jobs, &filter)
            .map_err(|e| format!("cannot load {path}: {e}"))?;
        return Ok(AnalysisSession::with_exclusions(
            trace, config, provenance, excluded,
        ));
    }

    if bytes.starts_with(b"LGLZTRC") {
        // Binary trace: open through the episode extent index. The filter
        // prunes episodes against index entries before any record is
        // decoded, and decoding fans the surviving extents over --jobs
        // worker threads.
        let indexed = if salvage {
            IndexedTrace::open_salvage(bytes)
                .map_err(|e| Failure::unrecoverable(format!("cannot salvage {path}: {e}")))?
        } else {
            IndexedTrace::open(bytes).map_err(|e| format!("cannot load {path}: {e}"))?
        };
        let admitted = indexed
            .extents()
            .iter()
            .filter(|e| filter.admits_extent(e))
            .count();
        let excluded = (indexed.len() - admitted) as u64;
        let provenance = match indexed.salvage_report() {
            Some(report) => salvage_provenance(path, report),
            None => Provenance::Clean,
        };
        let trace = indexed
            .par_decode_filtered(jobs, &filter)
            .map_err(|e| format!("cannot load {path}: {e}"))?;
        return Ok(AnalysisSession::with_exclusions(
            trace, config, provenance, excluded,
        ));
    }

    // Text trace (or unrecognized bytes): serial decode, then drop the
    // episodes the filter rejects.
    let (trace, provenance) = if salvage {
        let salvaged = lagalyzer_trace::read_bytes_salvage(&bytes)
            .map_err(|e| Failure::unrecoverable(format!("cannot salvage {path}: {e}")))?;
        let provenance = salvage_provenance(path, &salvaged.report);
        (salvaged.trace, provenance)
    } else {
        let trace =
            lagalyzer_trace::read_bytes(&bytes).map_err(|e| format!("cannot load {path}: {e}"))?;
        (trace, Provenance::Clean)
    };
    let before = trace.episodes().len();
    let trace = filter.retain(trace);
    let excluded = (before - trace.episodes().len()) as u64;
    Ok(AnalysisSession::with_exclusions(
        trace, config, provenance, excluded,
    ))
}

/// The exit code for a command that analyzed `session` successfully:
/// clean traces exit `0`; salvaged traces exit [`EXIT_SALVAGED`] so
/// scripts can tell the results may rest on an incomplete trace.
fn exit_for(session: &AnalysisSession) -> ExitCode {
    if session.is_salvaged() {
        ExitCode::from(EXIT_SALVAGED)
    } else {
        ExitCode::SUCCESS
    }
}

/// `true` when `path` starts with the `.lgzc` corpus signature.
fn sniff_corpus(path: &str) -> bool {
    use std::io::Read as _;
    let mut magic = [0u8; 8];
    fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .is_ok_and(|()| corpus::is_corpus(&magic))
}

/// Minimal JSON string escaping for the corpus `--format json` output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, Failure> {
    let path = args.first().ok_or("analyze requires a trace file")?;
    let jobs = parse_jobs(args)?;
    if sniff_corpus(path) && opt_value(args, "--session").is_none() {
        return cmd_analyze_corpus(args, path, jobs);
    }
    if let Some(format) = opt_value(args, "--format") {
        if format != "text" {
            return Err(
                format!("--format {format} is only supported for corpus-wide analyze").into(),
            );
        }
    }
    if let Some(code) = try_warm_analyze(args, path, jobs)? {
        return Ok(code);
    }
    // --check gates analysis on a semantically sound trace: errors refuse
    // analysis outright (exit 2); warnings and notes are recorded on the
    // session so the report carries them.
    let checked = if opt_flag(args, "--check") {
        let bytes = fs::read(path.as_str()).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report = check_bytes(&bytes, &mut RuleSet::standard())
            .map_err(|e| Failure::unrecoverable(format!("cannot check {path}: {e}")))?;
        if report.errors() > 0 {
            eprint!("{}", report.render_text(path));
            return Err(Failure {
                msg: format!(
                    "check found {} error(s) in {path}; refusing analysis",
                    report.errors()
                ),
                code: EXIT_SALVAGED,
            });
        }
        if !report.is_clean() {
            eprintln!(
                "check: {path}: {} warning(s), {} note(s); analyzing anyway",
                report.warnings(),
                report.notes()
            );
        }
        Some(CheckOutcome {
            errors: report.errors() as u64,
            warnings: report.warnings() as u64,
            notes: report.notes() as u64,
        })
    } else {
        None
    };
    let mut session = session_from(args, path)?;
    if let Some(outcome) = checked {
        session.record_check(outcome);
    }
    let stats = SessionStats::compute_with_jobs(&session, jobs);
    let meta = session.trace().meta();
    println!("application       {}", meta.application);
    println!("session           {}", meta.session);
    println!("E2E               {:.0} s", stats.end_to_end.as_secs_f64());
    println!(
        "in-episode        {:.0} %",
        stats.in_episode_fraction * 100.0
    );
    println!("episodes < 3ms    {}", stats.short_count);
    println!("episodes >= 3ms   {}", stats.traced_count);
    println!("episodes >= 100ms {}", stats.perceptible_count);
    if session.excluded_episodes() > 0 {
        println!("filtered out      {}", session.excluded_episodes());
    }
    println!("long per minute   {:.0}", stats.long_per_minute);
    println!("distinct patterns {}", stats.distinct_patterns);
    println!("episodes in pats  {}", stats.episodes_in_patterns);
    println!(
        "singleton pats    {:.0} %",
        stats.singleton_fraction * 100.0
    );
    println!("mean tree size    {:.1}", stats.mean_tree_size);
    println!("mean tree depth   {:.1}", stats.mean_tree_depth);
    {
        // Per-pattern outlier scan with the default config; the dedicated
        // `outliers` subcommand exposes the knobs and the full report.
        let patterns = session.patterns_with_jobs(jobs);
        let outliers =
            OutlierReport::analyze_with_jobs(&session, patterns, &OutlierConfig::default(), jobs);
        println!("outliers          {}", outliers.summary());
    }
    if let Some(check) = session.check_outcome() {
        println!(
            "semantic check    {} error(s), {} warning(s), {} note(s)",
            check.errors, check.warnings, check.notes
        );
    }
    if opt_flag(args, "--histogram") {
        let histogram = lagalyzer_core::DurationHistogram::of(&session);
        println!("\nepisode duration distribution:");
        print!("{}", histogram.to_ascii(50));
        println!(
            "fraction handled under 128ms: {:.1} %",
            histogram.fraction_under(DurationNs::from_millis(128)) * 100.0
        );
    }
    Ok(exit_for(&session))
}

/// `analyze` over a persisted rollup: Table III statistics, the outlier
/// summary and the optional histogram, all reconstructed from summaries
/// without decoding any episode payload. `Ok(None)` falls back to the
/// cold decode path; everything is computed before the first byte is
/// printed so the fallback never emits a partial report.
fn try_warm_analyze(args: &[String], path: &str, jobs: usize) -> Result<Option<ExitCode>, Failure> {
    let Some(indexed) = warm_trace(args, path) else {
        return Ok(None);
    };
    let (config, filter) = warm_config(args)?;
    let Some(warm) = WarmSession::of_indexed(&indexed, config, &filter) else {
        return Ok(None);
    };
    let patterns = warm.mine_patterns_with_jobs(jobs);
    let stats = warm.session_stats_from(&patterns, jobs);
    let decode = |positions: &[usize]| indexed.par_decode_subset(jobs, positions).ok();
    let Some(outliers) = warm.outliers(&patterns, &OutlierConfig::default(), &decode) else {
        return Ok(None);
    };
    let histogram = opt_flag(args, "--histogram").then(|| warm.histogram());
    eprintln!(
        "rollup: cache hit ({} episode summaries, zero decode)",
        warm.rollup().summaries.len()
    );
    let meta = warm.meta();
    println!("application       {}", meta.application);
    println!("session           {}", meta.session);
    println!("E2E               {:.0} s", stats.end_to_end.as_secs_f64());
    println!(
        "in-episode        {:.0} %",
        stats.in_episode_fraction * 100.0
    );
    println!("episodes < 3ms    {}", stats.short_count);
    println!("episodes >= 3ms   {}", stats.traced_count);
    println!("episodes >= 100ms {}", stats.perceptible_count);
    if warm.excluded() > 0 {
        println!("filtered out      {}", warm.excluded());
    }
    println!("long per minute   {:.0}", stats.long_per_minute);
    println!("distinct patterns {}", stats.distinct_patterns);
    println!("episodes in pats  {}", stats.episodes_in_patterns);
    println!(
        "singleton pats    {:.0} %",
        stats.singleton_fraction * 100.0
    );
    println!("mean tree size    {:.1}", stats.mean_tree_size);
    println!("mean tree depth   {:.1}", stats.mean_tree_depth);
    println!("outliers          {}", outliers.summary());
    if let Some(histogram) = histogram {
        println!("\nepisode duration distribution:");
        print!("{}", histogram.to_ascii(50));
        println!(
            "fraction handled under 128ms: {:.1} %",
            histogram.fraction_under(DurationNs::from_millis(128)) * 100.0
        );
    }
    Ok(Some(ExitCode::SUCCESS))
}

/// Opens a corpus for the corpus-wide commands.
fn open_corpus(path: &str) -> Result<CorpusReader, Failure> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    CorpusReader::open(bytes)
        .map_err(|e| Failure::unrecoverable(format!("cannot load {path}: {e}")))
}

/// Decodes every corpus session through the extent index (the cold
/// path), honouring the ingest filter.
fn decode_corpus_sessions(
    reader: &CorpusReader,
    filter: &EpisodeFilter,
    jobs: usize,
) -> Result<Vec<lagalyzer_model::SessionTrace>, lagalyzer_trace::TraceError> {
    if filter.is_unrestricted() {
        reader.par_decode(jobs)
    } else {
        reader
            .sessions()
            .map(|v| v.decode_filtered(jobs, filter))
            .collect()
    }
}

/// Opens `path` as a clean v2+ binary trace carrying a validated rollup —
/// the precondition for the zero-decode warm analysis path. `None`
/// routes the caller down the cold decode path (text traces, corpora,
/// `--salvage`, `--check`, `--no-cache`, missing or stale rollups).
fn warm_trace(args: &[String], path: &str) -> Option<IndexedTrace> {
    if opt_flag(args, "--no-cache") || opt_flag(args, "--salvage") || opt_flag(args, "--check") {
        return None;
    }
    let bytes = fs::read(path).ok()?;
    if !bytes.starts_with(b"LGLZTRC") {
        return None;
    }
    let trace = IndexedTrace::open(bytes).ok()?;
    trace.rollup()?;
    Some(trace)
}

/// The analysis config and ingest filter shared by the warm entry points.
fn warm_config(args: &[String]) -> Result<(AnalysisConfig, EpisodeFilter), Failure> {
    let threshold = parse_u64(args, "--threshold-ms", 100)?;
    Ok((
        AnalysisConfig {
            perceptible_threshold: DurationNs::from_millis(threshold),
        },
        parse_filter(args)?,
    ))
}

/// Warm-corpus precondition: every session clean with a validated rollup
/// (and the cache not disabled). Returns the per-session warm sessions
/// in corpus order, or `None` to decode cold.
fn warm_corpus_sessions<'a>(
    args: &[String],
    reader: &'a CorpusReader,
    config: AnalysisConfig,
    filter: &EpisodeFilter,
) -> Option<Vec<WarmSession<'a>>> {
    if opt_flag(args, "--no-cache") {
        return None;
    }
    reader
        .sessions()
        .map(|view| WarmSession::of_corpus_session(&view, config, filter))
        .collect()
}

/// Corpus-wide `analyze`: every session decoded through the corpus
/// extent index, patterns mined across all of them through the mergeable
/// multi-session path (byte-identical to mining the N files separately).
fn cmd_analyze_corpus(args: &[String], path: &str, jobs: usize) -> Result<ExitCode, Failure> {
    let format = opt_value(args, "--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(format!("unknown format {format:?}; expected text or json").into());
    }
    if opt_flag(args, "--check") {
        return Err("--check is not supported on corpus files".into());
    }
    let threshold = DurationNs::from_millis(parse_u64(args, "--threshold-ms", 100)?);
    let config = AnalysisConfig {
        perceptible_threshold: threshold,
    };
    let filter = parse_filter(args)?;

    struct Row {
        application: String,
        session: String,
        episodes: usize,
        perceptible: usize,
        salvaged: bool,
        damaged: bool,
        compressed: bool,
        health: String,
    }
    let reader = open_corpus(path)?;
    let (rows, multi, excluded): (Vec<Row>, lagalyzer_core::MultiPatternSet, u64) =
        match warm_corpus_sessions(args, &reader, config, &filter) {
            Some(warms) => {
                let rows = warms
                    .iter()
                    .zip(reader.sessions())
                    .map(|(warm, view)| Row {
                        application: warm.meta().application.clone(),
                        session: warm.meta().session.to_string(),
                        episodes: warm.len(),
                        perceptible: (0..warm.len())
                            .filter(|&i| warm.duration(i) >= threshold)
                            .count(),
                        salvaged: view.is_salvaged(),
                        damaged: view.is_damaged(),
                        compressed: view.is_compressed(),
                        health: view.health().to_string(),
                    })
                    .collect();
                let excluded = warms.iter().map(WarmSession::excluded).sum();
                // Per-session warm mining is byte-identical to the cold
                // per-session miner, so the merged set is too.
                let sets: Vec<PatternSet> = warms
                    .iter()
                    .map(|w| w.mine_patterns_with_jobs(jobs))
                    .collect();
                eprintln!("rollup: cache hit ({} sessions, zero decode)", reader.len());
                (
                    rows,
                    lagalyzer_core::MultiPatternSet::merge(&sets),
                    excluded,
                )
            }
            None => {
                let excluded: u64 = reader
                    .sessions()
                    .map(|v| v.excluded_by(&filter) as u64)
                    .sum();
                let traces = decode_corpus_sessions(&reader, &filter, jobs)
                    .map_err(|e| format!("cannot load {path}: {e}"))?;
                let rows = traces
                    .iter()
                    .zip(reader.sessions())
                    .map(|(trace, view)| Row {
                        application: trace.meta().application.clone(),
                        session: trace.meta().session.to_string(),
                        episodes: trace.episodes().len(),
                        perceptible: trace.perceptible_episodes(threshold).count(),
                        salvaged: view.is_salvaged(),
                        damaged: view.is_damaged(),
                        compressed: view.is_compressed(),
                        health: view.health().to_string(),
                    })
                    .collect();
                let multi =
                    lagalyzer_core::MultiPatternSet::mine_traces_with_jobs(traces, config, jobs);
                (rows, multi, excluded)
            }
        };
    let episodes: usize = rows.iter().map(|r| r.episodes).sum();
    let perceptible: usize = rows.iter().map(|r| r.perceptible).sum();
    let damaged = rows.iter().filter(|r| r.damaged).count();

    if format == "json" {
        let sessions_json: Vec<String> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                format!(
                    "{{\"index\":{i},\"application\":{},\"session\":{},\"episodes\":{},\
                     \"perceptible\":{},\"salvaged\":{},\"damaged\":{},\"compressed\":{},\
                     \"health\":{}}}",
                    json_str(&r.application),
                    json_str(&r.session),
                    r.episodes,
                    r.perceptible,
                    r.salvaged,
                    r.damaged,
                    r.compressed,
                    json_str(&r.health),
                )
            })
            .collect();
        println!(
            "{{\"corpus\":{{\"sessions\":{},\"episodes\":{episodes},\"perceptible\":{perceptible},\
             \"filtered_out\":{excluded},\"global_symbols\":{},\"damaged_sessions\":{damaged}}},\
             \"sessions\":[{}],\
             \"patterns\":{{\"merged\":{},\"recurring\":{},\"stable_problems\":{}}}}}",
            reader.len(),
            reader.global_symbols().len(),
            sessions_json.join(","),
            multi.len(),
            multi.recurring().count(),
            multi.stable_problems().len(),
        );
    } else {
        println!("corpus            {path}");
        println!("sessions          {}", reader.len());
        println!("episodes          {episodes}");
        println!("episodes >= 100ms {perceptible}");
        if excluded > 0 {
            println!("filtered out      {excluded}");
        }
        println!("global symbols    {}", reader.global_symbols().len());
        println!("damaged sessions  {damaged}");
        for (i, r) in rows.iter().enumerate() {
            let mut notes = Vec::new();
            if r.damaged {
                notes.push("damaged");
            } else if r.salvaged {
                notes.push("salvaged");
            }
            if r.compressed {
                notes.push("compressed");
            }
            println!(
                "  session {i:<3} {} {}  {:>6} episodes {:>5} perceptible  [{}]{}",
                r.application,
                r.session,
                r.episodes,
                r.perceptible,
                r.health,
                if notes.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", notes.join(", "))
                },
            );
        }
        println!(
            "merged patterns   {} ({} recurring in every session)",
            multi.len(),
            multi.recurring().count()
        );
        println!("stable problems   {}", multi.stable_problems().len());
    }
    Ok(ExitCode::from(reader.damage_verdict().exit_code()))
}

/// Corpus-wide `patterns`: the merged cross-session table.
fn cmd_patterns_corpus(args: &[String], path: &str, jobs: usize) -> Result<ExitCode, Failure> {
    let threshold = DurationNs::from_millis(parse_u64(args, "--threshold-ms", 100)?);
    let config = AnalysisConfig {
        perceptible_threshold: threshold,
    };
    let filter = parse_filter(args)?;
    let reader = open_corpus(path)?;
    let multi = match warm_corpus_sessions(args, &reader, config, &filter) {
        Some(warms) => {
            let sets: Vec<PatternSet> = warms
                .iter()
                .map(|w| w.mine_patterns_with_jobs(jobs))
                .collect();
            eprintln!("rollup: cache hit ({} sessions, zero decode)", reader.len());
            lagalyzer_core::MultiPatternSet::merge(&sets)
        }
        None => {
            let traces = decode_corpus_sessions(&reader, &filter, jobs)
                .map_err(|e| format!("cannot load {path}: {e}"))?;
            lagalyzer_core::MultiPatternSet::mine_traces_with_jobs(traces, config, jobs)
        }
    };
    println!(
        "{} sessions, {} merged patterns ({} recurring in every session)",
        multi.sessions(),
        multi.len(),
        multi.recurring().count()
    );
    let perceptible_only = opt_flag(args, "--perceptible-only");
    println!(
        "{:>5} {:>5} {:>8} {:>12}  signature",
        "eps", "perc", "sessions", "total lag"
    );
    for p in multi.patterns() {
        if perceptible_only && p.total_perceptible() == 0 {
            continue;
        }
        let sig: String = p.signature().as_str().chars().take(60).collect();
        println!(
            "{:>5} {:>5} {:>8} {:>12}  {sig}",
            p.total_episodes(),
            p.total_perceptible(),
            p.session_coverage(),
            p.total_lag().to_string(),
        );
    }
    Ok(ExitCode::from(reader.damage_verdict().exit_code()))
}

fn cmd_patterns(args: &[String]) -> Result<ExitCode, Failure> {
    let path = args.first().ok_or("patterns requires a trace file")?;
    let jobs = parse_jobs(args)?;
    if sniff_corpus(path) && opt_value(args, "--session").is_none() {
        return cmd_patterns_corpus(args, path, jobs);
    }
    if let Some(code) = try_warm_patterns(args, path, jobs)? {
        return Ok(code);
    }
    let session = session_from(args, path)?;
    let mut browser = PatternBrowser::new(&session, session.patterns_with_jobs(jobs));
    if opt_flag(args, "--perceptible-only") {
        browser.perceptible_only(true);
    }
    if let Some(sort) = opt_value(args, "--sort") {
        browser.sort_by(match sort {
            "count" => SortBy::Count,
            "total" => SortBy::TotalLag,
            "max" => SortBy::MaxLag,
            "perceptible" => SortBy::PerceptibleCount,
            other => return Err(format!("unknown sort order {other:?}").into()),
        });
    }
    print!("{}", browser.to_table());
    Ok(exit_for(&session))
}

/// `patterns` over a persisted rollup: the browser table mined from
/// summaries alone. `Ok(None)` falls back to the cold decode path.
fn try_warm_patterns(
    args: &[String],
    path: &str,
    jobs: usize,
) -> Result<Option<ExitCode>, Failure> {
    let Some(indexed) = warm_trace(args, path) else {
        return Ok(None);
    };
    let (config, filter) = warm_config(args)?;
    let Some(warm) = WarmSession::of_indexed(&indexed, config, &filter) else {
        return Ok(None);
    };
    let patterns = warm.mine_patterns_with_jobs(jobs);
    let mut browser = PatternBrowser::of_patterns(&patterns);
    if opt_flag(args, "--perceptible-only") {
        browser.perceptible_only(true);
    }
    if let Some(sort) = opt_value(args, "--sort") {
        browser.sort_by(match sort {
            "count" => SortBy::Count,
            "total" => SortBy::TotalLag,
            "max" => SortBy::MaxLag,
            "perceptible" => SortBy::PerceptibleCount,
            other => return Err(format!("unknown sort order {other:?}").into()),
        });
    }
    eprintln!(
        "rollup: cache hit ({} episode summaries, zero decode)",
        warm.rollup().summaries.len()
    );
    print!("{}", browser.to_table());
    Ok(Some(ExitCode::SUCCESS))
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, Failure> {
    let path = args.first().ok_or("lint requires a trace file")?;
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if corpus::is_corpus(&bytes) {
        // Corpus: one index-health line per member session, then the
        // aggregate verdict. Exit codes follow the same 0/2/3 contract
        // as single traces (1 is reserved for usage/I-O errors).
        return match CorpusReader::open(bytes) {
            Err(e) => {
                println!("unrecoverable: {e}");
                Ok(ExitCode::from(DamageVerdict::Unrecoverable.exit_code()))
            }
            Ok(reader) => {
                println!(
                    "corpus              {} session(s), {} episode(s), {} symbol(s)",
                    reader.len(),
                    reader.total_episodes(),
                    reader.global_symbols().len()
                );
                for view in reader.sessions() {
                    let status = if view.is_damaged() {
                        format!(
                            "damaged ({} skip(s), {} episode(s) lost)",
                            view.skips(),
                            view.episodes_lost()
                        )
                    } else if view.is_salvaged() {
                        "salvaged clean".to_string()
                    } else {
                        "clean".to_string()
                    };
                    println!(
                        "session {:<11} index {}; rollup {}; {status}",
                        view.index(),
                        view.health(),
                        view.rollup_health(),
                    );
                }
                let verdict = reader.damage_verdict();
                println!(
                    "aggregate           {}",
                    if matches!(verdict, DamageVerdict::Clean) {
                        "clean"
                    } else {
                        "damaged corpus"
                    }
                );
                Ok(ExitCode::from(verdict.exit_code()))
            }
        };
    }
    // The exit code comes from the shared damage classification so `lint`
    // and `check` can never disagree on what counts as salvaged.
    match lagalyzer_trace::read_bytes_salvage(&bytes) {
        Err(e) => {
            println!("unrecoverable: {e}");
            Ok(ExitCode::from(DamageVerdict::Unrecoverable.exit_code()))
        }
        Ok(salvaged) => {
            print!("{}", salvaged.report.render());
            // Index health is diagnostic only; it never changes the exit
            // code (a footerless or footer-damaged trace still decodes).
            match lagalyzer_trace::index::probe_health(&bytes) {
                Some(health) => println!("index               {health}"),
                None => println!("index               not applicable (text trace)"),
            }
            // Rollup health is diagnostic too: a stale cache only costs
            // the warm path, never correctness.
            match lagalyzer_trace::probe_rollup(&bytes) {
                Some(health) => println!("rollup              {health}"),
                None => println!("rollup              not applicable (no v2 section region)"),
            }
            Ok(ExitCode::from(
                DamageVerdict::of_report(&salvaged.report).exit_code(),
            ))
        }
    }
}

/// Value-taking flags of the `check` subcommand.
const CHECK_VALUE_FLAGS: &[&str] = &["--format", "--allow", "--deny", "--level", "--fix-report"];

/// Builds the rule set for `check`, applying every `--allow CODE`,
/// `--deny CODE` and `--level CODE=SEVERITY` override in turn. Rules may
/// be named by code (`LA007`) or by name (`sub-floor-episode`).
fn check_ruleset(args: &[String]) -> Result<RuleSet, Failure> {
    let mut rules = RuleSet::standard();
    for code in opt_values(args, "--allow") {
        rules.allow(code).map_err(|e| e.to_string())?;
    }
    for code in opt_values(args, "--deny") {
        rules.deny(code).map_err(|e| e.to_string())?;
    }
    for spec in opt_values(args, "--level") {
        let (code, sev) = spec
            .split_once('=')
            .ok_or_else(|| format!("--level expects CODE=SEVERITY, got {spec:?}"))?;
        let severity = Severity::parse(sev)
            .ok_or_else(|| format!("unknown severity {sev:?}; expected note, warning or error"))?;
        rules.level(code, severity).map_err(|e| e.to_string())?;
    }
    Ok(rules)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, Failure> {
    if opt_flag(args, "--list-rules") {
        println!("{:<7} {:<25} {:<8} summary", "code", "name", "level");
        for (code, name, severity, summary) in RuleSet::standard().descriptions() {
            println!("{code:<7} {name:<25} {:<8} {summary}", severity.name());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let positionals = positional_args(args, CHECK_VALUE_FLAGS);
    let path = positionals.first().ok_or("check requires a trace file")?;
    let format = opt_value(args, "--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(format!("unknown format {format:?}; expected text or json").into());
    }
    let mut rules = check_ruleset(args)?;
    let bytes = fs::read(path.as_str()).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = check_bytes(&bytes, &mut rules)
        .map_err(|e| Failure::unrecoverable(format!("cannot check {path}: {e}")))?;
    if format == "json" {
        println!("{}", report.render_json(path));
    } else {
        print!("{}", report.render_text(path));
    }
    if let Some(out) = opt_value(args, "--fix-report") {
        let mut json = report.render_json(path);
        json.push('\n');
        fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    Ok(ExitCode::from(report.exit_code()))
}

/// Value-taking flags of the `hazards` subcommand.
const HAZARD_VALUE_FLAGS: &[&str] = &[
    "--format",
    "--jobs",
    "--explain",
    "--min-samples",
    "--starvation-streak",
];

/// Builds the hazard detection config from `--min-samples` and
/// `--starvation-streak`.
fn parse_hazard_config(args: &[String]) -> Result<HazardConfig, Failure> {
    let mut config = HazardConfig::default();
    if let Some(v) = opt_value(args, "--min-samples") {
        let n: u64 = v
            .parse()
            .map_err(|_| format!("--min-samples expects a number, got {v:?}"))?;
        config.min_wait_samples = n.max(1);
        config.min_edge_samples = n.max(1);
    }
    if let Some(v) = opt_value(args, "--starvation-streak") {
        let n: u64 = v
            .parse()
            .map_err(|_| format!("--starvation-streak expects a number, got {v:?}"))?;
        config.starvation_streak = n.max(2);
    }
    Ok(config)
}

fn cmd_hazards(args: &[String]) -> Result<ExitCode, Failure> {
    let positionals = positional_args(args, HAZARD_VALUE_FLAGS);
    let path = positionals.first().ok_or("hazards requires a trace file")?;
    let format = opt_value(args, "--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(format!("unknown format {format:?}; expected text or json").into());
    }
    let jobs = parse_jobs(args)?;
    let config = parse_hazard_config(args)?;
    let salvage = opt_flag(args, "--salvage");
    let bytes = fs::read(path.as_str()).map_err(|e| format!("cannot read {path}: {e}"))?;

    if corpus::is_corpus(&bytes) {
        // Corpus: per-session lock graphs re-interned through the
        // corpus-wide symbol table, then the cross-session merge (LA025).
        let reader = CorpusReader::open(bytes)
            .map_err(|e| Failure::unrecoverable(format!("cannot load {path}: {e}")))?;
        let mut traces = Vec::with_capacity(reader.len());
        let mut damaged = false;
        for k in 0..reader.len() {
            let view = reader.session(k);
            damaged |= view.is_damaged();
            traces.push(
                view.decode(jobs)
                    .map_err(|e| format!("cannot load {path} session {k}: {e}"))?,
            );
        }
        if opt_value(args, "--explain").is_some() {
            return Err("--explain works on single traces, not corpora".into());
        }
        let mut symbols = reader.global_symbols().clone();
        let report = HazardReport::analyze_corpus(&traces, &mut symbols, jobs, &config);
        if format == "json" {
            println!("{}", report.render_json(path));
        } else {
            print!("{}", report.render_text(path));
        }
        return Ok(if damaged {
            ExitCode::from(EXIT_SALVAGED)
        } else {
            ExitCode::SUCCESS
        });
    }

    // Single trace: binary traces go through the extent index (byte-span
    // provenance, subset re-decode for --explain); text traces decode
    // serially without spans.
    let indexed: Option<IndexedTrace> = if bytes.starts_with(b"LGLZTRC") {
        Some(if salvage {
            IndexedTrace::open_salvage(bytes.clone())
                .map_err(|e| Failure::unrecoverable(format!("cannot salvage {path}: {e}")))?
        } else {
            IndexedTrace::open(bytes.clone()).map_err(|e| format!("cannot load {path}: {e}"))?
        })
    } else {
        None
    };
    let (trace, salvaged) = match &indexed {
        Some(ix) => (
            ix.par_decode(jobs)
                .map_err(|e| format!("cannot load {path}: {e}"))?,
            ix.salvage_report().is_some(),
        ),
        None if salvage => {
            let out = lagalyzer_trace::read_bytes_salvage(&bytes)
                .map_err(|e| Failure::unrecoverable(format!("cannot salvage {path}: {e}")))?;
            let salvaged = !out.report.skips.is_empty() || out.report.episodes_lost > 0;
            (out.trace, salvaged)
        }
        None => (
            lagalyzer_trace::read_bytes(&bytes).map_err(|e| format!("cannot load {path}: {e}"))?,
            false,
        ),
    };
    let report = HazardReport::analyze(
        &trace,
        indexed.as_ref().map(IndexedTrace::extents),
        jobs,
        &config,
    );
    if format == "json" {
        println!("{}", report.render_json(path));
    } else {
        print!("{}", report.render_text(path));
    }
    if let Some(v) = opt_value(args, "--explain") {
        let index: usize = v
            .parse()
            .map_err(|_| format!("--explain expects a finding index, got {v:?}"))?;
        let finding = report.findings.get(index).ok_or_else(|| {
            format!(
                "report has {} finding(s), no index {index}",
                report.findings.len()
            )
        })?;
        explain_hazard(&trace, indexed.as_ref(), finding, jobs)?;
    }
    Ok(if salvaged {
        ExitCode::from(EXIT_SALVAGED)
    } else {
        ExitCode::SUCCESS
    })
}

/// Deep-dive for one hazard finding: the episode's contended waits and an
/// ASCII sketch. On an indexed binary trace the flagged episode is
/// re-decoded alone through [`IndexedTrace::par_decode_subset`] — the
/// skip-decode path the finding's byte span points at.
fn explain_hazard(
    trace: &lagalyzer_model::SessionTrace,
    indexed: Option<&IndexedTrace>,
    finding: &lagalyzer_check::Diagnostic,
    jobs: usize,
) -> Result<(), Failure> {
    let id = finding
        .episode_id
        .ok_or("this finding is graph-wide, not tied to one episode")?;
    let subset_decoded: Option<Episode> = indexed.and_then(|ix| {
        let pos = ix.extents().iter().position(|e| e.id == id)?;
        ix.par_decode_subset(jobs, &[pos]).ok()?.pop()
    });
    let episode = match &subset_decoded {
        Some(e) => e,
        None => trace
            .episodes()
            .iter()
            .find(|e| e.id() == id)
            .ok_or("finding points outside the decoded session")?,
    };
    let symbols = trace.symbols();
    println!(
        "\nepisode {} — {}: {}",
        id.as_raw(),
        finding.code,
        finding.message
    );
    let waits = lagalyzer_model::lockgraph::extract_waits(episode);
    if waits.is_empty() {
        println!("contended waits: none");
    } else {
        println!("contended waits:");
        for wait in &waits {
            println!(
                "  t{:<4} {:>4} sample(s)  {:<9} on {}",
                wait.thread.as_raw(),
                wait.samples,
                wait.kind.name(),
                symbols.render(wait.lock),
            );
        }
    }
    print!("{}", ascii_sketch(episode, symbols, 100));
    Ok(())
}

/// Value-taking flags of the `outliers` subcommand (on top of the shared
/// trace-loading ones).
const OUTLIER_VALUE_FLAGS: &[&str] = &[
    "--threshold-ms",
    "--jobs",
    "--min-lag",
    "--since-ms",
    "--until-ms",
    "--session",
    "--format",
    "--mad-k",
    "--min-excess-ms",
    "--min-count",
    "--explain",
];

/// Builds the outlier detection config from `--mad-k`, `--min-excess-ms`
/// and `--min-count`.
fn parse_outlier_config(args: &[String]) -> Result<OutlierConfig, Failure> {
    let mut config = OutlierConfig::default();
    if let Some(v) = opt_value(args, "--mad-k") {
        let k: f64 = v
            .parse()
            .map_err(|_| format!("--mad-k expects a number, got {v:?}"))?;
        if !k.is_finite() || k <= 0.0 {
            return Err(format!("--mad-k must be a positive number, got {v:?}").into());
        }
        config.mad_k = k;
    }
    if let Some(v) = opt_value(args, "--min-excess-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--min-excess-ms expects milliseconds, got {v:?}"))?;
        config.min_excess = DurationNs::from_millis(ms);
    }
    if let Some(v) = opt_value(args, "--min-count") {
        let n: usize = v
            .parse()
            .map_err(|_| format!("--min-count expects a number, got {v:?}"))?;
        config.min_count = n.max(2);
    }
    Ok(config)
}

fn cmd_outliers(args: &[String]) -> Result<ExitCode, Failure> {
    let positionals = positional_args(args, OUTLIER_VALUE_FLAGS);
    let path = positionals
        .first()
        .ok_or("outliers requires a trace file")?;
    let format = opt_value(args, "--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(format!("unknown format {format:?}; expected text or json").into());
    }
    let jobs = parse_jobs(args)?;
    let config = parse_outlier_config(args)?;
    if let Some(code) = try_warm_outliers(args, path, jobs, &config, format)? {
        return Ok(code);
    }
    let session = session_from(args, path)?;
    let mut report =
        OutlierReport::analyze_with_jobs(&session, session.patterns_with_jobs(jobs), &config, jobs);

    // On indexed binary traces, stamp each finding with the byte span of
    // its episode's records (same provenance `check` diagnostics carry),
    // and keep the index around so `--explain` can re-decode a flagged
    // episode without touching any other extent.
    let indexed: Option<IndexedTrace> = match fs::read(path.as_str()) {
        Ok(bytes) if bytes.starts_with(b"LGLZTRC") => {
            if opt_flag(args, "--salvage") {
                IndexedTrace::open_salvage(bytes).ok()
            } else {
                IndexedTrace::open(bytes).ok()
            }
        }
        _ => None,
    };
    if let Some(indexed) = &indexed {
        report.attach_spans(|id| {
            indexed
                .extents()
                .iter()
                .find(|e| e.id == id)
                .map(|e| (e.offset, e.offset + e.len))
        });
    }

    if format == "json" {
        println!("{}", report.render_json(session.trace().symbols()));
    } else {
        print!("{}", report.render_text(session.trace().symbols()));
    }

    if let Some(v) = opt_value(args, "--explain") {
        let index: usize = v
            .parse()
            .map_err(|_| format!("--explain expects a finding index, got {v:?}"))?;
        let finding = report
            .findings()
            .get(index)
            .ok_or_else(|| format!("report has {} finding(s), no index {index}", report.len()))?;
        explain_finding(&session, indexed.as_ref(), finding, jobs)?;
    }
    Ok(exit_for(&session))
}

/// `outliers` over a persisted rollup: detection, medians, baselines and
/// cause attribution all come from summaries; only flagged lock/wait
/// episodes are re-decoded (through the subset decoder) for their wait
/// graphs. `Ok(None)` falls back to the cold decode path.
fn try_warm_outliers(
    args: &[String],
    path: &str,
    jobs: usize,
    config: &OutlierConfig,
    format: &str,
) -> Result<Option<ExitCode>, Failure> {
    let Some(indexed) = warm_trace(args, path) else {
        return Ok(None);
    };
    let (analysis_config, filter) = warm_config(args)?;
    let Some(warm) = WarmSession::of_indexed(&indexed, analysis_config, &filter) else {
        return Ok(None);
    };
    let patterns = warm.mine_patterns_with_jobs(jobs);
    let decode = |positions: &[usize]| indexed.par_decode_subset(jobs, positions).ok();
    let Some(mut report) = warm.outliers(&patterns, config, &decode) else {
        return Ok(None);
    };
    report.attach_spans(|id| {
        indexed
            .extents()
            .iter()
            .find(|e| e.id == id)
            .map(|e| (e.offset, e.offset + e.len))
    });
    eprintln!(
        "rollup: cache hit ({} episode summaries, decoded only flagged lock/wait)",
        warm.rollup().summaries.len()
    );
    if format == "json" {
        println!("{}", report.render_json(warm.symbols()));
    } else {
        print!("{}", report.render_text(warm.symbols()));
    }
    if let Some(v) = opt_value(args, "--explain") {
        let index: usize = v
            .parse()
            .map_err(|_| format!("--explain expects a finding index, got {v:?}"))?;
        let finding = report
            .findings()
            .get(index)
            .ok_or_else(|| format!("report has {} finding(s), no index {index}", report.len()))?;
        let pos = indexed
            .extents()
            .iter()
            .position(|e| e.id == finding.episode_id)
            .ok_or("finding points outside the extent index")?;
        let episode = indexed
            .par_decode_subset(jobs, &[pos])
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or("flagged episode missing from the subset decode")?;
        print_explanation(&episode, warm.symbols(), finding);
    }
    Ok(Some(ExitCode::SUCCESS))
}

/// Prints the deep-dive for one finding: the wait-edge evidence and an
/// ASCII sketch. On an indexed binary trace the episode is re-decoded
/// through [`IndexedTrace::par_decode_subset`] — only the flagged extent's
/// bytes are touched, demonstrating the skip-decode path the report's byte
/// spans point at.
fn explain_finding(
    session: &AnalysisSession,
    indexed: Option<&IndexedTrace>,
    finding: &lagalyzer_core::OutlierFinding,
    jobs: usize,
) -> Result<ExitCode, Failure> {
    let subset_decoded: Option<Episode> = indexed.and_then(|ix| {
        let pos = ix
            .extents()
            .iter()
            .position(|e| e.id == finding.episode_id)?;
        ix.par_decode_subset(jobs, &[pos]).ok()?.pop()
    });
    let episode = match &subset_decoded {
        Some(e) => e,
        None => session
            .episodes()
            .get(finding.episode_index)
            .ok_or("finding points outside the decoded session")?,
    };
    print_explanation(episode, session.trace().symbols(), finding);
    Ok(ExitCode::SUCCESS)
}

/// The deep-dive body shared by the warm and cold `--explain` paths.
fn print_explanation(
    episode: &Episode,
    symbols: &SymbolTable,
    finding: &lagalyzer_core::OutlierFinding,
) {
    println!(
        "\nepisode {} — {} ({}), excess +{}ms over the pattern median",
        finding.episode_id.as_raw(),
        finding.cause.code(),
        finding.cause.label(),
        finding.excess.as_nanos() / 1_000_000,
    );
    let graph = lagalyzer_model::WaitGraph::extract(episode);
    if graph.wait_samples() > 0 {
        println!(
            "wait edges: {} blocked + {} waiting sample(s)",
            graph.blocked_samples, graph.waiting_samples
        );
        for holder in graph.holders().iter().take(5) {
            println!(
                "  t{:<4} {:>4} sample(s)  {}",
                holder.thread.as_raw(),
                holder.samples,
                holder
                    .top_frame
                    .map_or_else(|| "<vm>".to_string(), |(m, _)| symbols.render(m)),
            );
        }
    } else {
        println!("wait edges: none (dispatch thread never sampled blocked/waiting)");
    }
    print!("{}", ascii_sketch(episode, symbols, 100));
}

fn cmd_sketch(args: &[String]) -> Result<ExitCode, Failure> {
    let path = args.first().ok_or("sketch requires a trace file")?;
    // Random access: a plain `--episode N` on an unfiltered binary trace
    // decodes just that episode through the extent index instead of the
    // whole file.
    if opt_value(args, "--pattern").is_none() && !opt_flag(args, "--salvage") {
        let filter = parse_filter(args)?;
        let bytes = fs::read(path).map_err(|e| format!("cannot load {path}: {e}"))?;
        if bytes.starts_with(b"LGLZTRC") && filter.is_unrestricted() {
            let indexed =
                IndexedTrace::open(bytes).map_err(|e| format!("cannot load {path}: {e}"))?;
            let index = parse_u64(args, "--episode", 0)? as usize;
            if index >= indexed.len() {
                return Err(
                    format!("trace has {} episodes, no index {index}", indexed.len()).into(),
                );
            }
            let episode = indexed
                .decode_episode(index)
                .map_err(|e| format!("cannot load {path}: {e}"))?;
            return render_episode_sketch(args, &episode, indexed.symbols(), index);
        }
    }
    let session = session_from(args, path)?;
    // --pattern N selects the first episode of the N-th pattern (what the
    // paper's pattern browser shows on selection); --episode N selects by
    // dispatch order.
    let index = if let Some(p) = opt_value(args, "--pattern") {
        let rank: usize = p
            .parse()
            .map_err(|_| format!("--pattern expects a number, got {p:?}"))?;
        let patterns = session.patterns();
        let pattern = patterns
            .patterns()
            .get(rank)
            .ok_or_else(|| format!("trace has {} patterns, no rank {rank}", patterns.len()))?;
        if opt_flag(args, "--gallery") {
            // Render all of the pattern's episodes as mini-sketches on a
            // common scale (paper §II-E browsing flow).
            let episodes: Vec<_> = pattern
                .episode_indices()
                .iter()
                .map(|&i| &session.episodes()[i])
                .collect();
            let svg = render_pattern_gallery(
                &episodes,
                session.trace().symbols(),
                &SketchOptions::default(),
            );
            return match opt_value(args, "--out") {
                Some(out) => {
                    fs::write(out, svg).map_err(|e| format!("cannot write {out}: {e}"))?;
                    println!("wrote gallery of {} episodes to {out}", episodes.len());
                    Ok(ExitCode::SUCCESS)
                }
                None => {
                    println!("{svg}");
                    Ok(ExitCode::SUCCESS)
                }
            };
        }
        pattern.episode_indices()[0]
    } else {
        parse_u64(args, "--episode", 0)? as usize
    };
    let episode = session.episodes().get(index).ok_or_else(|| {
        format!(
            "trace has {} episodes, no index {index}",
            session.episodes().len()
        )
    })?;
    render_episode_sketch(args, episode, session.trace().symbols(), index)
}

fn render_episode_sketch(
    args: &[String],
    episode: &Episode,
    symbols: &SymbolTable,
    index: usize,
) -> Result<ExitCode, Failure> {
    if opt_flag(args, "--ascii") {
        print!("{}", ascii_sketch(episode, symbols, 100));
        return Ok(ExitCode::SUCCESS);
    }
    let svg = render_sketch(episode, symbols, &SketchOptions::default());
    match opt_value(args, "--out") {
        Some(out) => {
            fs::write(out, svg).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote sketch of episode {index} to {out}");
        }
        None => println!("{svg}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_timeline(args: &[String]) -> Result<ExitCode, Failure> {
    let path = args.first().ok_or("timeline requires a trace file")?;
    let session = session_from(args, path)?;
    let svg = render_timeline(&session, &TimelineOptions::default());
    match opt_value(args, "--out") {
        Some(out) => {
            fs::write(out, svg).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote timeline to {out}");
        }
        None => println!("{svg}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_stable(args: &[String]) -> Result<ExitCode, Failure> {
    let paths = positional_args(args, VALUE_FLAGS);
    if paths.is_empty() {
        return Err("stable requires at least one trace file".into());
    }
    let jobs = parse_jobs(args)?;
    let sessions: Vec<AnalysisSession> = paths
        .iter()
        .map(|p| session_from(args, p))
        .collect::<Result<_, _>>()?;
    let multi = lagalyzer_core::MultiPatternSet::mine_with_jobs(&sessions, jobs);
    println!(
        "{} traces, {} merged patterns ({} recurring in every trace)",
        sessions.len(),
        multi.len(),
        multi.recurring().count()
    );
    let problems = multi.stable_problems();
    println!("stable slow patterns (perceptible wherever they occur):");
    for (i, p) in problems.iter().take(15).enumerate() {
        let sig: String = p.signature().as_str().chars().take(70).collect();
        println!(
            "  {i:>2}. {:>4} episodes / {:>3} perceptible, total {} — {sig}",
            p.total_episodes(),
            p.total_perceptible(),
            p.total_lag(),
        );
    }
    if problems.is_empty() {
        println!("  (none)");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, Failure> {
    let paths = positional_args(args, VALUE_FLAGS);
    let [baseline_path, candidate_path] = paths.as_slice() else {
        return Err("diff requires exactly two trace files: BASELINE CANDIDATE".into());
    };
    let baseline = session_from(args, baseline_path)?;
    let candidate = session_from(args, candidate_path)?;
    let diff = lagalyzer_core::SessionDiff::between(&baseline, &candidate);
    const TOLERANCE: f64 = 0.20;
    println!("{}", diff.summary(TOLERANCE));
    let trim = |sig: &lagalyzer_core::ShapeSignature| -> String {
        sig.as_str().chars().take(64).collect()
    };
    let regressions = diff.regressions(TOLERANCE);
    if !regressions.is_empty() {
        println!("\nregressions (mean lag, perceptible count):");
        for d in regressions.iter().take(10) {
            println!(
                "  {} -> {}  ({} -> {} perceptible)  {}",
                d.baseline_mean,
                d.candidate_mean,
                d.baseline_perceptible,
                d.candidate_perceptible,
                trim(&d.signature)
            );
        }
    }
    let improvements = diff.improvements(TOLERANCE);
    if !improvements.is_empty() {
        println!("\nimprovements:");
        for d in improvements.iter().take(10) {
            println!(
                "  {} -> {}  ({} -> {} perceptible)  {}",
                d.baseline_mean,
                d.candidate_mean,
                d.baseline_perceptible,
                d.candidate_perceptible,
                trim(&d.signature)
            );
        }
    }
    if !diff.appeared.is_empty() {
        println!("\nnew patterns (episodes, perceptible):");
        for (sig, eps, perc) in diff.appeared.iter().take(10) {
            println!("  {eps:>5} {perc:>4}  {}", trim(sig));
        }
    }
    if !diff.disappeared.is_empty() {
        println!("\ndisappeared patterns (episodes, perceptible):");
        for (sig, eps, perc) in diff.disappeared.iter().take(10) {
            println!("  {eps:>5} {perc:>4}  {}", trim(sig));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_experiments(args: &[String]) -> Result<ExitCode, Failure> {
    let out_dir = PathBuf::from(opt_value(args, "--out-dir").unwrap_or("target/experiments"));
    let sessions = parse_u64(args, "--sessions", 4)? as u32;
    let seed = parse_u64(args, "--seed", 42)?;
    let jobs = parse_jobs(args)?;
    fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;

    eprintln!(
        "simulating {} apps x {sessions} sessions on {jobs} worker(s) ...",
        apps::standard_suite().len()
    );
    let study = Study::run_with_jobs(&apps::standard_suite(), sessions, seed, jobs);

    let table = table3::render(&study);
    write_out(&out_dir, "table3.txt", &table)?;
    println!("{table}");

    let mut figs = vec![
        figures::fig3(&study),
        figures::fig4(&study),
        figures::fig5(&study, false),
        figures::fig5(&study, true),
        figures::fig7(&study, false),
        figures::fig7(&study, true),
        figures::fig8(&study, false),
        figures::fig8(&study, true),
    ];
    for scope in [false, true] {
        let (a, b) = figures::fig6(&study, scope);
        figs.push(a);
        figs.push(b);
    }
    for fig in &figs {
        write_out(&out_dir, &format!("{}.svg", fig.id), &fig.svg)?;
        write_out(&out_dir, &format!("{}.txt", fig.id), &fig.text)?;
    }
    let html = lagalyzer_report::html::render(&study);
    write_out(&out_dir, "report.html", &html)?;
    println!(
        "wrote {} figures and report.html to {}",
        figs.len(),
        out_dir.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn write_out(dir: &Path, name: &str, content: &str) -> Result<(), String> {
    let path = dir.join(name);
    fs::write(&path, content).map_err(|e| format!("cannot write {path:?}: {e}"))
}
