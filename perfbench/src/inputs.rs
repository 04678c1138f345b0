//! Seeded benchmark inputs: which traces each workload reads, how they
//! are generated and written to disk, and the reference answers file.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use lagalyzer_model::{EpisodeId, SessionTrace};
use lagalyzer_sim::profile::AppProfile;
use lagalyzer_sim::{apps, runner, scenarios};

/// The three benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Table II suite without rollups, decoded and analyzed cold.
    SuiteCold,
    /// Interactive queries against the suite written with rollups.
    WarmQuery,
    /// Per-app batches checked, packed into a corpus and read back warm.
    FleetCorpus,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::SuiteCold,
        Workload::WarmQuery,
        Workload::FleetCorpus,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite_cold",
            Workload::WarmQuery => "warm_query",
            Workload::FleetCorpus => "fleet_corpus",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's traces carry persisted rollup sections.
    fn with_rollups(self) -> bool {
        self == Workload::WarmQuery
    }
}

/// How many applications and sessions the inputs cover.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Application profiles, in suite order.
    pub apps: Vec<AppProfile>,
    /// Sessions recorded per application.
    pub sessions_per_app: u32,
}

impl Scale {
    /// The paper's study: the 14 Table II applications, four sessions each.
    pub fn table2() -> Scale {
        Scale {
            apps: apps::standard_suite(),
            sessions_per_app: 4,
        }
    }

    /// A two-application, two-session scale for smoke tests.
    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            apps: vec![apps::crossword_sage(), apps::jfree_chart()],
            sessions_per_app: 2,
        }
    }
}

/// One trace file of the suite.
#[derive(Clone, Debug)]
pub struct SessionFile {
    /// Index of the application in [`Scale::apps`].
    pub app: usize,
    /// Session index within the application.
    pub session: u32,
    /// Stable key naming the session in the answers file.
    pub key: String,
    /// Where the trace lives.
    pub path: PathBuf,
}

/// What a hazard scenario's report must show (from the scenario's
/// recorded ground truth).
#[derive(Clone, Debug)]
pub struct HazardExpectation {
    /// Expected rule code, `None` for the hazard-free control.
    pub code: Option<&'static str>,
    /// Lock identities the finding must name.
    pub locks: Vec<&'static str>,
    /// Culprit threads the finding must name.
    pub culprits: Vec<&'static str>,
    /// Episodes that received the injected hazard.
    pub injected: Vec<EpisodeId>,
}

/// Seed of the simulated applications' pattern libraries (the CLI's
/// default `--seed`).
const STUDY_SEED: u64 = 42;
/// Benchmark seeds map onto this many disjoint groups of session indices.
const SEED_SPAN: u64 = 1 << 20;

/// Sessions of one application packed into each `fleet_corpus` batch.
pub const BATCH_SESSIONS: usize = 2;

/// A group of traces packed into one corpus by `fleet_corpus`.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Stable key naming the batch in the answers file.
    pub key: String,
    /// Member traces, in corpus order.
    pub members: Vec<PathBuf>,
    /// Where the packed corpus is written.
    pub corpus: PathBuf,
    /// Per-member hazard ground truth (only for the scenario batch;
    /// `None` entries carry no hazard expectation).
    pub hazards: Vec<Option<HazardExpectation>>,
}

/// The interactive query kinds of `warm_query`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// `analyze`: Table III statistics and the outlier summary.
    Analyze,
    /// `patterns --perceptible-only`.
    Patterns,
    /// `outliers --format json`.
    Outliers,
    /// Perceptible-only drill-down (`--min-lag 100 --no-cache`).
    DrillDown,
    /// SVG sketch of one flagged episode.
    Sketch,
}

impl QueryKind {
    /// Every kind; a pass asks each one of each session.
    pub const ALL: [QueryKind; 5] = [
        QueryKind::Analyze,
        QueryKind::Patterns,
        QueryKind::Outliers,
        QueryKind::DrillDown,
        QueryKind::Sketch,
    ];

    /// Short name used in answer keys.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Analyze => "analyze",
            QueryKind::Patterns => "patterns",
            QueryKind::Outliers => "outliers",
            QueryKind::DrillDown => "drilldown",
            QueryKind::Sketch => "sketch",
        }
    }
}

/// One `warm_query` operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// Index into [`Plan::sessions`].
    pub session: usize,
    /// What is asked.
    pub kind: QueryKind,
}

/// Everything a workload reads, laid out under one directory.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The input scale.
    pub scale: Scale,
    /// The input seed.
    pub seed: u64,
    /// The suite's trace files, grouped by application in suite order.
    pub sessions: Vec<SessionFile>,
    /// `fleet_corpus` batches (empty otherwise).
    pub batches: Vec<Batch>,
    /// One `warm_query` pass: every (session, kind) pair once, session by
    /// session (empty otherwise). The order is fixed: a seeded order
    /// changed the allocator's state enough to move peak RSS by a third
    /// between seeds, with latency unchanged.
    pub queries: Vec<Query>,
}

/// The scenario traces of the extra `fleet_corpus` batch: the hazard
/// ground truths followed by the lock-contention outlier scenario.
fn scenario_traces() -> Vec<(&'static str, SessionTrace, Option<HazardExpectation>)> {
    let mut out: Vec<_> = scenarios::hazard_truths()
        .into_iter()
        .map(|t| {
            let expectation = HazardExpectation {
                code: t.expected_code,
                locks: t.locks,
                culprits: t.culprits,
                injected: t.injected,
            };
            (t.title, t.trace, Some(expectation))
        })
        .collect();
    let contention = scenarios::lock_contention();
    out.push((contention.title, contention.trace, None));
    out
}

impl Plan {
    /// Lays out the inputs of `workload` under `dir`. Deterministic in its
    /// arguments, so the process that writes the inputs and the one that
    /// measures them agree without exchanging a manifest.
    pub fn new(workload: Workload, scale: Scale, seed: u64, dir: &Path) -> Plan {
        let mut sessions = Vec::new();
        for (app, profile) in scale.apps.iter().enumerate() {
            for s in 0..scale.sessions_per_app {
                let key = format!("{app:02}-{}-s{s}", profile.name);
                let path = dir.join(format!("{key}.lgz"));
                sessions.push(SessionFile {
                    app,
                    session: s,
                    key,
                    path,
                });
            }
        }
        let mut batches = Vec::new();
        let mut queries = Vec::new();
        match workload {
            Workload::SuiteCold => {}
            Workload::WarmQuery => {
                for session in 0..sessions.len() {
                    for kind in QueryKind::ALL {
                        queries.push(Query { session, kind });
                    }
                }
            }
            Workload::FleetCorpus => {
                for (app, profile) in scale.apps.iter().enumerate() {
                    let members: Vec<PathBuf> = sessions
                        .iter()
                        .filter(|f| f.app == app)
                        .map(|f| f.path.clone())
                        .collect();
                    for (i, chunk) in members.chunks(BATCH_SESSIONS).enumerate() {
                        let key = format!("{app:02}-{}-b{i}", profile.name);
                        batches.push(Batch {
                            members: chunk.to_vec(),
                            corpus: dir.join(format!("{key}.lgzc")),
                            hazards: Vec::new(),
                            key,
                        });
                    }
                }
                let scenarios = scenario_traces();
                batches.push(Batch {
                    key: "scenarios".into(),
                    members: scenarios
                        .iter()
                        .map(|(title, _, _)| dir.join(format!("scenario-{title}.lgz")))
                        .collect(),
                    corpus: dir.join("scenarios.lgzc"),
                    hazards: scenarios.into_iter().map(|(_, _, h)| h).collect(),
                });
            }
        }
        Plan {
            workload,
            scale,
            seed,
            sessions,
            batches,
            queries,
        }
    }

    /// Simulates every session and writes it as a binary trace (with a
    /// rollup section for `warm_query`), calling `before_each` before each
    /// trace. This is the benchmark's set-up; no timed region ever
    /// simulates.
    pub fn generate(&self, mut before_each: impl FnMut()) -> Result<(), String> {
        for file in &self.sessions {
            before_each();
            let profile = &self.scale.apps[file.app];
            // The applications' pattern libraries are fixed by the study
            // seed; the benchmark seed picks which of their sessions are
            // recorded, so every seed measures the same applications.
            let index = u32::try_from(self.seed % SEED_SPAN).expect("bounded by SEED_SPAN")
                * self.scale.sessions_per_app
                + file.session;
            let trace = runner::simulate_session(profile, index, STUDY_SEED);
            self.write_trace(&trace, &file.path)?;
        }
        if self.workload == Workload::FleetCorpus {
            let members = &self
                .batches
                .last()
                .expect("fleet plans end with the scenario batch")
                .members;
            for ((_, trace, _), path) in scenario_traces().into_iter().zip(members) {
                before_each();
                self.write_trace(&trace, path)?;
            }
        }
        Ok(())
    }

    fn write_trace(&self, trace: &SessionTrace, path: &Path) -> Result<(), String> {
        let file =
            fs::File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        let written = if self.workload.with_rollups() {
            let rollup = lagalyzer_core::rollup::build(trace);
            lagalyzer_trace::binary::write_with_rollup(trace, &mut w, rollup)
        } else {
            lagalyzer_trace::binary::write(trace, &mut w)
        };
        written.map_err(|e| format!("cannot encode {}: {e}", path.display()))?;
        w.flush()
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Bytes of trace input on disk.
    pub fn input_bytes(&self) -> u64 {
        let scenarios = self
            .batches
            .iter()
            .filter(|b| !b.hazards.is_empty())
            .flat_map(|b| &b.members);
        self.sessions
            .iter()
            .map(|f| &f.path)
            .chain(scenarios)
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// One SplitMix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a digest of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Reference answers keyed by query, recorded once at set-up by the
/// serial (`jobs` = 1) cold path and compared against every measured
/// answer.
#[derive(Debug, Default)]
pub struct Answers {
    recording: bool,
    map: BTreeMap<String, String>,
    mismatches: Vec<String>,
}

impl Answers {
    /// An empty table that records every answer it is given.
    pub fn recorder() -> Answers {
        Answers {
            recording: true,
            ..Answers::default()
        }
    }

    /// `true` while answers are being recorded rather than checked.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Records `value` under `key`, or checks it against the recorded
    /// answer. Returns whether the answer is correct.
    pub fn check(&mut self, key: &str, value: String) -> bool {
        if self.recording {
            self.map.insert(key.to_owned(), value);
            return true;
        }
        let ok = self.map.get(key) == Some(&value);
        if !ok {
            let expected = self.map.get(key).map_or("<missing>", String::as_str);
            self.mismatches
                .push(format!("{key}: got {value:?}, expected {expected:?}"));
        }
        ok
    }

    /// Records a failure that has no reference answer (a property check).
    pub fn fail(&mut self, why: String) {
        self.mismatches.push(why);
    }

    /// A recorded answer.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// Failures noted so far, oldest first.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// Writes the table as `key<TAB>value` lines.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (k, v) in &self.map {
            text.push_str(k);
            text.push('\t');
            text.push_str(v);
            text.push('\n');
        }
        fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Loads a table written by [`Answers::save`], for checking.
    pub fn load(path: &Path) -> Result<Answers, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let (k, v) = line
                .split_once('\t')
                .ok_or_else(|| format!("malformed answers line {line:?}"))?;
            map.insert(k.to_owned(), v.to_owned());
        }
        Ok(Answers {
            recording: false,
            map,
            mismatches: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_plan_asks_every_pair_once() {
        let plan = Plan::new(Workload::WarmQuery, Scale::tiny(), 1, Path::new("unused"));
        assert_eq!(
            plan.queries.len(),
            plan.sessions.len() * QueryKind::ALL.len()
        );
        let mut pairs: Vec<(usize, &str)> = plan
            .queries
            .iter()
            .map(|q| (q.session, q.kind.name()))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), plan.queries.len());
    }

    #[test]
    fn fleet_plan_batches_each_app_plus_the_scenarios() {
        let plan = Plan::new(Workload::FleetCorpus, Scale::tiny(), 1, Path::new("d"));
        // Two apps of two sessions: one batch each, then the scenarios.
        assert_eq!(plan.batches.len(), 3);
        assert_eq!(plan.batches[0].members.len(), BATCH_SESSIONS);
        let scenarios = &plan.batches[2];
        assert_eq!(scenarios.members.len(), 4);
        assert_eq!(scenarios.hazards.len(), 4);
        assert_eq!(
            scenarios.hazards[0].as_ref().and_then(|h| h.code),
            Some("LA020")
        );
        assert!(scenarios.hazards[3].is_none());
    }

    #[test]
    fn answers_record_then_check() {
        let mut rec = Answers::recorder();
        assert!(rec.check("a", "1".into()));
        let path = std::env::temp_dir().join(format!("perfbench-answers-{}", std::process::id()));
        rec.save(&path).unwrap();
        let mut loaded = Answers::load(&path).unwrap();
        fs::remove_file(&path).unwrap();
        assert!(loaded.check("a", "1".into()));
        assert!(!loaded.check("a", "2".into()));
        assert!(!loaded.check("b", "1".into()));
        assert_eq!(loaded.mismatches().len(), 2);
    }
}
