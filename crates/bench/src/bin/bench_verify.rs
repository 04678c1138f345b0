//! `bench-verify` — validates the machine-readable bench artifacts.
//!
//! The benches emit `BENCH_ingest.json`, `BENCH_mining.json`, and
//! `BENCH_corpus.json` (see `lagalyzer_bench::benchjson`); this binary
//! is the CI gate over them. Three subcommands:
//!
//! * `check FILE...` — structural validation: the file parses, is a
//!   non-empty JSON object, contains no `zz_`/placeholder keys anywhere,
//!   the file's required sections are present, and every speedup field
//!   is a finite number greater than zero.
//! * `gate FILE --min-ingest-speedup X` — `check` plus the performance
//!   gate on the ingest numbers: decode speedups must be monotone
//!   non-regressing along the jobs axis, and the widest row must clear
//!   the threshold. The threshold only applies where the hardware can
//!   express it: when the widest row's `effective_jobs` is below 4 the
//!   parallel section degenerates to the single-worker schedule, and the
//!   gate instead requires the single-core algorithmic floor
//!   ([`SINGLE_CORE_FLOOR`]) so a 1-core runner still verifies that
//!   indexed decode beats the serial reader.
//! * `gate FILE --min-corpus-speedup X` — for the corpus artifact: the
//!   end-to-end (load + mine) corpus-vs-separate-files speedup must be
//!   *strictly above* the threshold, so `--min-corpus-speedup 1.0`
//!   enforces that corpus-wide mining actually beats N separate file
//!   loads rather than merely tying them.
//! * `gate FILE --min-warm-speedup X` — for the warm-analysis artifact:
//!   the rollup-backed warm `analyze` must be strictly more than X times
//!   faster than the cold full-decode pipeline on the same trace, so the
//!   persisted cache keeps paying for its section bytes.
//! * `drift SMOKE COMMITTED` — compares the *section names* of a CI
//!   smoke artifact against the committed full-budget file, so a bench
//!   that silently stops emitting (or starts emitting a new, unreviewed
//!   section) fails the build even though smoke timings themselves are
//!   too noisy to gate on.
//!
//! Exit status: 0 on success, 1 on a failed validation, 2 on usage or
//! I/O errors. No serde in the tree — the parser below is a minimal
//! recursive-descent JSON reader sufficient for our own artifacts.

use std::fmt::Write as _;
use std::process::ExitCode;

/// Decode speedup every host must reach at its widest row, even with a
/// single effective worker: the indexed path skips the checksum pass,
/// the streaming-reader indirection, and the intermediate record vector,
/// which beats the serial reader without any parallelism at all.
const SINGLE_CORE_FLOOR: f64 = 1.15;

/// Effective worker count from which the full `--min-ingest-speedup`
/// threshold applies.
const PARALLEL_GATE_MIN_WORKERS: f64 = 4.0;

/// Relative tolerance for the monotone-speedup check: one step down the
/// jobs axis may lose at most this fraction before it counts as a
/// regression (absorbs timer noise between separately measured rows).
const MONOTONE_TOLERANCE: f64 = 0.95;

// ---------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (no serde in the tree).
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_document(text: &'a str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing input after JSON value"));
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.fail("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.fail("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs don't occur in our own
                            // artifacts; map lone surrogates to the
                            // replacement character instead of failing.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.fail("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.fail("bad number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// Collects human-readable failures for one file.
#[derive(Default)]
struct Findings {
    problems: Vec<String>,
}

impl Findings {
    fn push(&mut self, msg: String) {
        self.problems.push(msg);
    }
}

/// Keys that mark a section or field as not-real data.
fn is_placeholder_key(key: &str) -> bool {
    let lower = key.to_ascii_lowercase();
    lower.starts_with("zz_")
        || lower.contains("placeholder")
        || lower.contains("todo")
        || lower.contains("fixme")
}

/// Walks the whole value rejecting placeholder keys at any depth.
fn check_no_placeholders(value: &Json, path: &str, out: &mut Findings) {
    match value {
        Json::Obj(fields) => {
            for (key, child) in fields {
                let here = format!("{path}.{key}");
                if is_placeholder_key(key) {
                    out.push(format!("placeholder key `{here}`"));
                }
                check_no_placeholders(child, &here, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                check_no_placeholders(item, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// A field that must exist and be a finite number strictly above `min`.
fn require_num(obj: &Json, key: &str, min: f64, path: &str, out: &mut Findings) -> Option<f64> {
    match obj.get(key).and_then(Json::as_num) {
        Some(n) if n.is_finite() && n > min => Some(n),
        Some(n) => {
            out.push(format!("`{path}.{key}` = {n} (must be > {min} and finite)"));
            None
        }
        None => {
            out.push(format!("`{path}.{key}` missing or not a number"));
            None
        }
    }
}

fn require_str(obj: &Json, key: &str, path: &str, out: &mut Findings) {
    match obj.get(key) {
        Some(Json::Str(s)) if !s.is_empty() => {}
        _ => out.push(format!("`{path}.{key}` missing or not a non-empty string")),
    }
}

/// One decode-scaling row as validated out of `indexed_decode_by_jobs`.
struct DecodeRow {
    jobs: f64,
    effective_jobs: f64,
    speedup: f64,
}

/// Validates the `trace_ingest` section; returns the decode rows for the
/// `gate` subcommand.
fn check_ingest(doc: &Json, out: &mut Findings) -> Vec<DecodeRow> {
    let Some(section) = doc.get("trace_ingest") else {
        out.push("required section `trace_ingest` is missing".into());
        return Vec::new();
    };
    let path = "trace_ingest";
    require_str(section, "corpus", path, out);
    require_num(section, "episodes", 0.0, path, out);
    require_num(section, "trace_bytes", 0.0, path, out);
    require_num(section, "available_jobs", 0.0, path, out);
    require_num(section, "serial_read_ns_per_iter", 0.0, path, out);

    let mut rows = Vec::new();
    match section.get("indexed_decode_by_jobs").and_then(Json::as_arr) {
        Some([]) | None => {
            out.push("`trace_ingest.indexed_decode_by_jobs` missing or empty".into());
        }
        Some(items) => {
            for (i, row) in items.iter().enumerate() {
                let row_path = format!("{path}.indexed_decode_by_jobs[{i}]");
                let jobs = require_num(row, "jobs", 0.0, &row_path, out);
                let effective = require_num(row, "effective_jobs", 0.0, &row_path, out);
                require_num(row, "ns_per_iter", 0.0, &row_path, out);
                let speedup = require_num(row, "speedup_vs_serial", 0.0, &row_path, out);
                if let (Some(jobs), Some(effective_jobs), Some(speedup)) =
                    (jobs, effective, speedup)
                {
                    rows.push(DecodeRow {
                        jobs,
                        effective_jobs,
                        speedup,
                    });
                }
            }
        }
    }

    match section.get("filtered_analysis") {
        Some(fa) => {
            let fa_path = format!("{path}.filtered_analysis");
            require_str(fa, "filter", &fa_path, out);
            require_num(fa, "full_decode_ns_per_iter", 0.0, &fa_path, out);
            require_num(fa, "skip_decode_ns_per_iter", 0.0, &fa_path, out);
            require_num(fa, "speedup", 0.0, &fa_path, out);
        }
        None => out.push("`trace_ingest.filtered_analysis` is missing".into()),
    }
    rows
}

/// Validates the `pattern_mining` section of the mining artifact.
fn check_mining(doc: &Json, out: &mut Findings) {
    let Some(section) = doc.get("pattern_mining") else {
        out.push("required section `pattern_mining` is missing".into());
        return;
    };
    let path = "pattern_mining";
    match section.get("apps").and_then(Json::as_arr) {
        Some([]) | None => out.push("`pattern_mining.apps` missing or empty".into()),
        Some(apps) => {
            for (i, app) in apps.iter().enumerate() {
                let app_path = format!("{path}.apps[{i}]");
                require_str(app, "app", &app_path, out);
                require_num(app, "episodes", 0.0, &app_path, out);
                require_num(app, "before_ns_per_iter", 0.0, &app_path, out);
                require_num(app, "after_ns_per_iter", 0.0, &app_path, out);
                require_num(app, "speedup", 0.0, &app_path, out);
            }
        }
    }
    match section.get("total") {
        Some(total) => {
            require_num(total, "speedup", 0.0, &format!("{path}.total"), out);
        }
        None => out.push("`pattern_mining.total` is missing".into()),
    }
}

/// Validates the `hazard_scan` section of the hazards artifact: the
/// lock-graph build pair and the rule-engine timing. No gate rides on
/// it — shard-merge cost makes the build speedup hardware-dependent — so
/// only structure is enforced.
fn check_hazards(doc: &Json, out: &mut Findings) {
    let Some(section) = doc.get("hazard_scan") else {
        out.push("required section `hazard_scan` is missing".into());
        return;
    };
    let path = "hazard_scan";
    require_str(section, "corpus", path, out);
    require_num(section, "episodes", 0.0, path, out);
    require_num(section, "available_jobs", 0.0, path, out);
    require_num(section, "waits", 0.0, path, out);
    require_num(section, "locks", 0.0, path, out);
    match section.get("build") {
        Some(pair) => {
            let pair_path = format!("{path}.build");
            require_num(pair, "serial_ns_per_iter", 0.0, &pair_path, out);
            require_num(pair, "sharded_ns_per_iter", 0.0, &pair_path, out);
            require_num(pair, "speedup", 0.0, &pair_path, out);
        }
        None => out.push(format!("`{path}.build` is missing")),
    }
    match section.get("rules") {
        Some(rules) => {
            require_num(rules, "ns_per_iter", 0.0, &format!("{path}.rules"), out);
        }
        None => out.push(format!("`{path}.rules` is missing")),
    }
}

/// Validates the `analysis_warm` section of the warm-analysis artifact
/// and returns the warm-over-cold speedup for the `gate` subcommand.
fn check_warm(doc: &Json, out: &mut Findings) -> Option<f64> {
    let Some(section) = doc.get("analysis_warm") else {
        out.push("required section `analysis_warm` is missing".into());
        return None;
    };
    let path = "analysis_warm";
    require_str(section, "corpus", path, out);
    require_num(section, "episodes", 0.0, path, out);
    require_num(section, "available_jobs", 0.0, path, out);
    require_num(section, "trace_bytes", 0.0, path, out);
    require_num(section, "trace_bytes_with_rollup", 0.0, path, out);
    match section.get("analyze") {
        Some(pair) => {
            let pair_path = format!("{path}.analyze");
            require_num(pair, "cold_ns_per_iter", 0.0, &pair_path, out);
            require_num(pair, "warm_ns_per_iter", 0.0, &pair_path, out);
            require_num(pair, "speedup", 0.0, &pair_path, out)
        }
        None => {
            out.push(format!("`{path}.analyze` is missing"));
            None
        }
    }
}

/// Validates the `corpus_ingest` section of the corpus artifact and
/// returns the end-to-end speedup for the `gate` subcommand.
fn check_corpus(doc: &Json, out: &mut Findings) -> Option<f64> {
    let Some(section) = doc.get("corpus_ingest") else {
        out.push("required section `corpus_ingest` is missing".into());
        return None;
    };
    let path = "corpus_ingest";
    require_str(section, "corpus", path, out);
    require_num(section, "sessions", 0.0, path, out);
    require_num(section, "episodes", 0.0, path, out);
    require_num(section, "available_jobs", 0.0, path, out);
    require_num(section, "separate_bytes", 0.0, path, out);
    require_num(section, "corpus_bytes", 0.0, path, out);
    let mut end_to_end = None;
    for key in ["load_only", "load_and_mine"] {
        match section.get(key) {
            Some(pair) => {
                let pair_path = format!("{path}.{key}");
                require_num(pair, "separate_files_ns_per_iter", 0.0, &pair_path, out);
                require_num(pair, "corpus_ns_per_iter", 0.0, &pair_path, out);
                let speedup = require_num(pair, "speedup", 0.0, &pair_path, out);
                if key == "load_and_mine" {
                    end_to_end = speedup;
                }
            }
            None => out.push(format!("`{path}.{key}` is missing")),
        }
    }
    end_to_end
}

/// Which artifact a path holds, by file name. `corpus` is matched before
/// `ingest` so that corpus-flavoured names never fall into the
/// trace-ingest rules.
fn artifact_kind(path: &str) -> Option<&'static str> {
    let name = path.rsplit('/').next().unwrap_or(path);
    if name.contains("hazard") {
        Some("hazards")
    } else if name.contains("corpus") {
        Some("corpus")
    } else if name.contains("warm") {
        Some("warm")
    } else if name.contains("ingest") {
        Some("ingest")
    } else if name.contains("mining") {
        Some("mining")
    } else {
        None
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read file: {e}"))?;
    let doc = Parser::parse_document(&text).map_err(|e| format!("{path}: parse error: {e}"))?;
    match &doc {
        Json::Obj(fields) if !fields.is_empty() => Ok(doc),
        Json::Obj(_) => Err(format!("{path}: top-level object is empty")),
        _ => Err(format!("{path}: top level is not a JSON object")),
    }
}

/// Everything `check` learned about one file: the problems found, plus
/// the numbers the `gate` subcommand gates on (each present only for
/// the artifact kind that carries them).
struct Checked {
    findings: Findings,
    decode_rows: Vec<DecodeRow>,
    corpus_speedup: Option<f64>,
    warm_speedup: Option<f64>,
}

/// The `check` validation for one already-parsed file.
fn check_doc(path: &str, doc: &Json) -> Checked {
    let mut findings = Findings::default();
    check_no_placeholders(doc, "", &mut findings);
    let mut decode_rows = Vec::new();
    let mut corpus_speedup = None;
    let mut warm_speedup = None;
    match artifact_kind(path) {
        Some("ingest") => decode_rows = check_ingest(doc, &mut findings),
        Some("mining") => check_mining(doc, &mut findings),
        Some("corpus") => corpus_speedup = check_corpus(doc, &mut findings),
        Some("warm") => warm_speedup = check_warm(doc, &mut findings),
        Some("hazards") => check_hazards(doc, &mut findings),
        _ => {}
    }
    Checked {
        findings,
        decode_rows,
        corpus_speedup,
        warm_speedup,
    }
}

fn report(path: &str, findings: &Findings) -> bool {
    if findings.problems.is_empty() {
        eprintln!("bench-verify: {path}: ok");
        true
    } else {
        let mut msg = format!(
            "bench-verify: {path}: {} problem(s)\n",
            findings.problems.len()
        );
        for p in &findings.problems {
            let _ = writeln!(msg, "  - {p}");
        }
        eprint!("{msg}");
        false
    }
}

fn cmd_check(paths: &[String]) -> Result<ExitCode, String> {
    if paths.is_empty() {
        return Err("check: at least one FILE required".into());
    }
    let mut ok = true;
    for path in paths {
        let doc = load(path)?;
        ok &= report(path, &check_doc(path, &doc).findings);
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The `gate` performance rules over validated decode rows.
fn gate_rows(rows: &[DecodeRow], min_speedup: f64, out: &mut Findings) {
    let mut sorted: Vec<&DecodeRow> = rows.iter().collect();
    sorted.sort_by(|a, b| a.jobs.total_cmp(&b.jobs));
    for pair in sorted.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        if hi.speedup < lo.speedup * MONOTONE_TOLERANCE {
            out.push(format!(
                "decode speedup regresses along the jobs axis: jobs={} gives {:.3}x but \
                 jobs={} gives {:.3}x",
                lo.jobs, lo.speedup, hi.jobs, hi.speedup
            ));
        }
    }
    let Some(widest) = sorted.last() else {
        out.push("no decode rows to gate on".into());
        return;
    };
    if widest.effective_jobs >= PARALLEL_GATE_MIN_WORKERS {
        if widest.speedup < min_speedup {
            out.push(format!(
                "jobs={} (effective {}) speedup {:.3}x is below the gate {min_speedup}x",
                widest.jobs, widest.effective_jobs, widest.speedup
            ));
        }
    } else {
        // Too few workers to express parallel scaling; hold the
        // single-core algorithmic floor instead (see module docs).
        eprintln!(
            "bench-verify: widest row has only {} effective worker(s); applying the \
             single-core floor {SINGLE_CORE_FLOOR}x instead of the parallel gate \
             {min_speedup}x",
            widest.effective_jobs
        );
        if widest.speedup < SINGLE_CORE_FLOOR {
            out.push(format!(
                "jobs={} (effective {}) speedup {:.3}x is below the single-core floor \
                 {SINGLE_CORE_FLOOR}x",
                widest.jobs, widest.effective_jobs, widest.speedup
            ));
        }
    }
}

/// The `gate` rule for the corpus artifact: strictly above threshold,
/// so a tie with the per-file path does not pass (see module docs).
fn gate_corpus(speedup: Option<f64>, min_speedup: f64, out: &mut Findings) {
    match speedup {
        Some(s) if s > min_speedup => {}
        Some(s) => out.push(format!(
            "corpus load+mine speedup {s:.3}x is not above the gate {min_speedup}x"
        )),
        None => out.push("no corpus speedup to gate on".into()),
    }
}

/// The `gate` rule for the warm-analysis artifact: the warm path must be
/// strictly more than `min_speedup` times faster than the cold decode.
fn gate_warm(speedup: Option<f64>, min_speedup: f64, out: &mut Findings) {
    match speedup {
        Some(s) if s > min_speedup => {}
        Some(s) => out.push(format!(
            "warm analyze speedup {s:.3}x is not above the gate {min_speedup}x"
        )),
        None => out.push("no warm-analysis speedup to gate on".into()),
    }
}

fn cmd_gate(paths: &[String]) -> Result<ExitCode, String> {
    let mut file = None;
    let mut min_ingest = None;
    let mut min_corpus = None;
    let mut min_warm = None;
    let mut iter = paths.iter();
    while let Some(arg) = iter.next() {
        if arg == "--min-ingest-speedup"
            || arg == "--min-corpus-speedup"
            || arg == "--min-warm-speedup"
        {
            let v = iter.next().ok_or(format!("gate: {arg} needs a value"))?;
            let parsed = v
                .parse::<f64>()
                .map_err(|_| format!("gate: bad speedup `{v}`"))?;
            match arg.as_str() {
                "--min-ingest-speedup" => min_ingest = Some(parsed),
                "--min-corpus-speedup" => min_corpus = Some(parsed),
                _ => min_warm = Some(parsed),
            }
        } else if file.is_none() {
            file = Some(arg.clone());
        } else {
            return Err(format!("gate: unexpected argument `{arg}`"));
        }
    }
    let file = file.ok_or("gate: FILE required")?;
    let doc = load(&file)?;
    let mut checked = check_doc(&file, &doc);
    match artifact_kind(&file) {
        Some("ingest") => {
            let min = min_ingest.ok_or("gate: --min-ingest-speedup required")?;
            gate_rows(&checked.decode_rows, min, &mut checked.findings);
        }
        Some("corpus") => {
            let min = min_corpus.ok_or("gate: --min-corpus-speedup required")?;
            gate_corpus(checked.corpus_speedup, min, &mut checked.findings);
        }
        Some("warm") => {
            let min = min_warm.ok_or("gate: --min-warm-speedup required")?;
            gate_warm(checked.warm_speedup, min, &mut checked.findings);
        }
        _ => return Err(format!("gate: `{file}` is not a gateable artifact")),
    }
    Ok(if report(&file, &checked.findings) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn section_names(doc: &Json) -> Vec<String> {
    match doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

fn cmd_drift(paths: &[String]) -> Result<ExitCode, String> {
    let [smoke, committed] = paths else {
        return Err("drift: exactly two files required (SMOKE COMMITTED)".into());
    };
    let smoke_doc = load(smoke)?;
    let committed_doc = load(committed)?;
    let mut smoke_names = section_names(&smoke_doc);
    let mut committed_names = section_names(&committed_doc);
    smoke_names.sort();
    committed_names.sort();
    let mut findings = Findings::default();
    for name in &committed_names {
        if !smoke_names.contains(name) {
            findings.push(format!(
                "section `{name}` is in {committed} but the smoke run did not emit it"
            ));
        }
    }
    for name in &smoke_names {
        if !committed_names.contains(name) {
            findings.push(format!(
                "smoke run emitted section `{name}` that {committed} does not have — \
                 refresh the committed artifact"
            ));
        }
    }
    Ok(if report(&format!("{smoke} vs {committed}"), &findings) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

const USAGE: &str = "usage: bench-verify <check FILE...|gate FILE \
     (--min-ingest-speedup X|--min-corpus-speedup X|--min-warm-speedup X)|\
     drift SMOKE COMMITTED>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "check" => cmd_check(rest),
        Some((cmd, rest)) if cmd == "gate" => cmd_gate(rest),
        Some((cmd, rest)) if cmd == "drift" => cmd_drift(rest),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bench-verify: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        Parser::parse_document(text).unwrap()
    }

    #[test]
    fn parser_round_trips_shapes() {
        let doc = parse(r#"{"a": 1.5, "b": [true, null, "x\ny"], "c": {"d": -2e3}, "e": ""}"#);
        assert_eq!(doc.get("a").unwrap().as_num(), Some(1.5));
        let b = doc.get("b").unwrap().as_arr().unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2], Json::Str("x\ny".into()));
        assert_eq!(
            doc.get("c").unwrap().get("d").unwrap().as_num(),
            Some(-2000.0)
        );
        assert_eq!(doc.get("e").unwrap(), &Json::Str(String::new()));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Parser::parse_document("{").is_err());
        assert!(Parser::parse_document("[1, 2").is_err());
        assert!(Parser::parse_document("{\"a\": 1} extra").is_err());
        assert!(Parser::parse_document("nul").is_err());
    }

    fn ingest_doc(rows: &str) -> String {
        format!(
            r#"{{"trace_ingest": {{
                "corpus": "Euclide-3x", "episodes": 29000, "trace_bytes": 5333478,
                "available_jobs": 8, "serial_read_ns_per_iter": 40000000.0,
                "indexed_decode_by_jobs": [{rows}],
                "filtered_analysis": {{"filter": "min-lag 100ms",
                    "full_decode_ns_per_iter": 50000000.0,
                    "skip_decode_ns_per_iter": 1000000.0, "speedup": 50.0}}
            }}}}"#
        )
    }

    fn row(jobs: u32, eff: u32, speedup: f64) -> String {
        format!(
            r#"{{"jobs": {jobs}, "effective_jobs": {eff}, "ns_per_iter": 1000.0,
                "speedup_vs_serial": {speedup}}}"#
        )
    }

    #[test]
    fn check_accepts_complete_ingest() {
        let text = ingest_doc(&[row(1, 1, 1.4), row(8, 8, 3.1)].join(","));
        let doc = Parser::parse_document(&text).unwrap();
        let checked = check_doc("BENCH_ingest.json", &doc);
        assert!(
            checked.findings.problems.is_empty(),
            "{:?}",
            checked.findings.problems
        );
        assert_eq!(checked.decode_rows.len(), 2);
    }

    #[test]
    fn check_rejects_placeholder_keys_anywhere() {
        let doc = parse(r#"{"trace_ingest": {"zz_placeholder": 1}, "zz_x": 2}"#);
        let findings = check_doc("BENCH_ingest.json", &doc).findings;
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("placeholder key `.zz_x`")));
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("trace_ingest.zz_placeholder")));
    }

    #[test]
    fn check_rejects_missing_sections_and_bad_numbers() {
        let doc = parse(r#"{"something_else": {}}"#);
        let findings = check_doc("BENCH_ingest.json", &doc).findings;
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("`trace_ingest` is missing")));

        let text = ingest_doc(&row(8, 8, 0.0));
        let doc = Parser::parse_document(&text).unwrap();
        let findings = check_doc("BENCH_ingest.json", &doc).findings;
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("speedup_vs_serial")));
    }

    fn corpus_doc(load_speedup: f64, mine_speedup: f64) -> String {
        format!(
            r#"{{"corpus_ingest": {{
                "corpus": "CrosswordSage-fleet", "sessions": 16, "episodes": 6400,
                "budget_ms": 500, "available_jobs": 1,
                "separate_bytes": 3000000, "corpus_bytes": 2800000,
                "load_only": {{"separate_files_ns_per_iter": 2000000.0,
                    "corpus_ns_per_iter": 1500000.0, "speedup": {load_speedup}}},
                "load_and_mine": {{"separate_files_ns_per_iter": 9000000.0,
                    "corpus_ns_per_iter": 8000000.0, "speedup": {mine_speedup}}}
            }}}}"#
        )
    }

    #[test]
    fn check_accepts_complete_corpus_and_extracts_speedup() {
        let doc = Parser::parse_document(&corpus_doc(1.3, 1.12)).unwrap();
        let checked = check_doc("BENCH_corpus.json", &doc);
        assert!(
            checked.findings.problems.is_empty(),
            "{:?}",
            checked.findings.problems
        );
        assert_eq!(checked.corpus_speedup, Some(1.12));
    }

    #[test]
    fn check_rejects_incomplete_corpus() {
        let doc = parse(r#"{"something_else": {}}"#);
        let findings = check_doc("BENCH_corpus.json", &doc).findings;
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("`corpus_ingest` is missing")));

        let doc = parse(r#"{"corpus_ingest": {"corpus": "x", "load_only": {}}}"#);
        let findings = check_doc("BENCH_corpus.json", &doc).findings;
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("load_and_mine` is missing")));
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("load_only.speedup")));
    }

    #[test]
    fn corpus_gate_requires_strictly_above_threshold() {
        let mut findings = Findings::default();
        gate_corpus(Some(1.08), 1.0, &mut findings);
        assert!(findings.problems.is_empty(), "{:?}", findings.problems);

        // A tie is not a win: exactly 1.0x fails the default gate.
        let mut findings = Findings::default();
        gate_corpus(Some(1.0), 1.0, &mut findings);
        assert!(findings.problems.iter().any(|p| p.contains("not above")));

        let mut findings = Findings::default();
        gate_corpus(None, 1.0, &mut findings);
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("no corpus speedup")));
    }

    #[test]
    fn corpus_names_never_fall_into_ingest_rules() {
        assert_eq!(artifact_kind("BENCH_corpus.json"), Some("corpus"));
        assert_eq!(
            artifact_kind("target/smoke/BENCH_corpus.json"),
            Some("corpus")
        );
        assert_eq!(artifact_kind("corpus_ingest.json"), Some("corpus"));
        assert_eq!(artifact_kind("BENCH_ingest.json"), Some("ingest"));
        assert_eq!(artifact_kind("BENCH_mining.json"), Some("mining"));
        assert_eq!(artifact_kind("BENCH_warm.json"), Some("warm"));
        assert_eq!(artifact_kind("target/smoke/BENCH_warm.json"), Some("warm"));
        assert_eq!(artifact_kind("BENCH_hazards.json"), Some("hazards"));
        assert_eq!(
            artifact_kind("target/smoke/BENCH_hazards.json"),
            Some("hazards")
        );
        assert_eq!(artifact_kind("notes.json"), None);
    }

    #[test]
    fn check_validates_hazards_structure() {
        let doc = parse(
            r#"{"hazard_scan": {
                "corpus": "jEdit-hazards", "episodes": 1200, "budget_ms": 500,
                "available_jobs": 4, "waits": 900, "locks": 5, "held_edges": 7,
                "build": {"serial_ns_per_iter": 9000000.0,
                    "sharded_ns_per_iter": 3000000.0, "speedup": 3.0},
                "rules": {"ns_per_iter": 20000000.0}
            }}"#,
        );
        let checked = check_doc("BENCH_hazards.json", &doc);
        assert!(
            checked.findings.problems.is_empty(),
            "{:?}",
            checked.findings.problems
        );

        let findings = check_doc("BENCH_hazards.json", &parse(r#"{"other": {}}"#)).findings;
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("`hazard_scan` is missing")));

        let doc = parse(r#"{"hazard_scan": {"corpus": "x"}}"#);
        let findings = check_doc("BENCH_hazards.json", &doc).findings;
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("build` is missing")));
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("rules` is missing")));
        assert!(findings.problems.iter().any(|p| p.contains("waits")));
    }

    fn warm_doc(speedup: f64) -> String {
        format!(
            r#"{{"analysis_warm": {{
                "corpus": "jEdit-warm", "episodes": 1200, "budget_ms": 500,
                "available_jobs": 1, "trace_bytes": 1583639,
                "trace_bytes_with_rollup": 1645885,
                "analyze": {{"cold_ns_per_iter": 12000000.0,
                    "warm_ns_per_iter": 3200000.0, "speedup": {speedup}}}
            }}}}"#
        )
    }

    #[test]
    fn check_accepts_complete_warm_and_extracts_speedup() {
        let doc = Parser::parse_document(&warm_doc(3.75)).unwrap();
        let checked = check_doc("BENCH_warm.json", &doc);
        assert!(
            checked.findings.problems.is_empty(),
            "{:?}",
            checked.findings.problems
        );
        assert_eq!(checked.warm_speedup, Some(3.75));
    }

    #[test]
    fn check_rejects_incomplete_warm() {
        let doc = parse(r#"{"something_else": {}}"#);
        let findings = check_doc("BENCH_warm.json", &doc).findings;
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("`analysis_warm` is missing")));

        let doc = parse(r#"{"analysis_warm": {"corpus": "x"}}"#);
        let findings = check_doc("BENCH_warm.json", &doc).findings;
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("analyze` is missing")));
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("trace_bytes_with_rollup")));
    }

    #[test]
    fn warm_gate_requires_strictly_above_threshold() {
        let mut findings = Findings::default();
        gate_warm(Some(3.6), 3.0, &mut findings);
        assert!(findings.problems.is_empty(), "{:?}", findings.problems);

        let mut findings = Findings::default();
        gate_warm(Some(3.0), 3.0, &mut findings);
        assert!(findings.problems.iter().any(|p| p.contains("not above")));

        let mut findings = Findings::default();
        gate_warm(None, 3.0, &mut findings);
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("no warm-analysis speedup")));
    }

    #[test]
    fn gate_applies_threshold_with_enough_workers() {
        let rows = vec![
            DecodeRow {
                jobs: 1.0,
                effective_jobs: 1.0,
                speedup: 1.4,
            },
            DecodeRow {
                jobs: 8.0,
                effective_jobs: 8.0,
                speedup: 2.0,
            },
        ];
        let mut findings = Findings::default();
        gate_rows(&rows, 2.5, &mut findings);
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("below the gate")));

        let rows = vec![
            DecodeRow {
                jobs: 1.0,
                effective_jobs: 1.0,
                speedup: 1.4,
            },
            DecodeRow {
                jobs: 8.0,
                effective_jobs: 8.0,
                speedup: 2.6,
            },
        ];
        let mut findings = Findings::default();
        gate_rows(&rows, 2.5, &mut findings);
        assert!(findings.problems.is_empty(), "{:?}", findings.problems);
    }

    #[test]
    fn gate_holds_single_core_floor_without_parallelism() {
        let rows = vec![
            DecodeRow {
                jobs: 1.0,
                effective_jobs: 1.0,
                speedup: 1.5,
            },
            DecodeRow {
                jobs: 8.0,
                effective_jobs: 1.0,
                speedup: 1.5,
            },
        ];
        let mut findings = Findings::default();
        gate_rows(&rows, 2.5, &mut findings);
        assert!(findings.problems.is_empty(), "{:?}", findings.problems);

        let rows = vec![DecodeRow {
            jobs: 8.0,
            effective_jobs: 1.0,
            speedup: 1.0,
        }];
        let mut findings = Findings::default();
        gate_rows(&rows, 2.5, &mut findings);
        assert!(findings
            .problems
            .iter()
            .any(|p| p.contains("single-core floor")));
    }

    #[test]
    fn gate_rejects_regressions_along_the_jobs_axis() {
        let rows = vec![
            DecodeRow {
                jobs: 1.0,
                effective_jobs: 1.0,
                speedup: 2.0,
            },
            DecodeRow {
                jobs: 2.0,
                effective_jobs: 2.0,
                speedup: 1.2,
            },
            DecodeRow {
                jobs: 8.0,
                effective_jobs: 8.0,
                speedup: 2.6,
            },
        ];
        let mut findings = Findings::default();
        gate_rows(&rows, 2.5, &mut findings);
        assert!(findings.problems.iter().any(|p| p.contains("regresses")));
    }

    #[test]
    fn mining_checks_apps_and_total() {
        let doc = parse(
            r#"{"pattern_mining": {
                "apps": [{"app": "Jmol", "episodes": 100, "before_ns_per_iter": 10.0,
                          "after_ns_per_iter": 5.0, "speedup": 2.0}],
                "total": {"speedup": 2.0}
            }}"#,
        );
        let findings = check_doc("BENCH_mining.json", &doc).findings;
        assert!(findings.problems.is_empty(), "{:?}", findings.problems);

        let doc = parse(r#"{"pattern_mining": {"apps": [], "total": {}}}"#);
        let findings = check_doc("BENCH_mining.json", &doc).findings;
        assert!(!findings.problems.is_empty());
    }
}
