//! Multi-trace pattern analysis.
//!
//! LagAlyzer "integrates multiple traces in its analysis" (paper §VI):
//! because shape signatures are canonical strings over resolved names,
//! patterns can be merged across sessions, letting a developer see whether
//! a slow pattern recurs in every session (a stable problem) or only in
//! one (an environmental fluke).

use std::collections::HashMap;

use lagalyzer_model::DurationNs;

use crate::occurrence::Occurrence;
use crate::patterns::PatternSet;
use crate::session::{AnalysisConfig, AnalysisSession};
use crate::shape::ShapeSignature;

/// One pattern merged across several sessions.
#[derive(Clone, Debug)]
pub struct MultiPattern {
    signature: ShapeSignature,
    /// Per-session episode counts, indexed like the input sessions; zero
    /// when the session never exhibited the pattern.
    episodes_per_session: Vec<u64>,
    /// Per-session perceptible counts.
    perceptible_per_session: Vec<u64>,
    total_lag: DurationNs,
    max_lag: DurationNs,
}

impl MultiPattern {
    /// The shared structural signature.
    pub fn signature(&self) -> &ShapeSignature {
        &self.signature
    }

    /// Episode counts per session.
    pub fn episodes_per_session(&self) -> &[u64] {
        &self.episodes_per_session
    }

    /// Perceptible episode counts per session.
    pub fn perceptible_per_session(&self) -> &[u64] {
        &self.perceptible_per_session
    }

    /// Total episodes across sessions.
    pub fn total_episodes(&self) -> u64 {
        self.episodes_per_session.iter().sum()
    }

    /// Total perceptible episodes across sessions.
    pub fn total_perceptible(&self) -> u64 {
        self.perceptible_per_session.iter().sum()
    }

    /// Number of sessions in which the pattern occurred at all.
    pub fn session_coverage(&self) -> usize {
        self.episodes_per_session.iter().filter(|&&n| n > 0).count()
    }

    /// True if the pattern was perceptible in every session it occurred in
    /// — a *stable* performance problem worth a developer's attention.
    pub fn consistently_perceptible(&self) -> bool {
        self.total_perceptible() > 0
            && self
                .episodes_per_session
                .iter()
                .zip(&self.perceptible_per_session)
                .all(|(&eps, &perc)| eps == 0 || perc > 0)
    }

    /// The pattern's occurrence class over the merged episode population.
    pub fn occurrence(&self) -> Occurrence {
        let total = self.total_episodes();
        let perceptible = self.total_perceptible();
        if perceptible == 0 {
            Occurrence::Never
        } else if perceptible == total {
            Occurrence::Always
        } else if perceptible == 1 {
            Occurrence::Once
        } else {
            Occurrence::Sometimes
        }
    }

    /// Total lag across all sessions.
    pub fn total_lag(&self) -> DurationNs {
        self.total_lag
    }

    /// The worst single episode across all sessions.
    pub fn max_lag(&self) -> DurationNs {
        self.max_lag
    }
}

/// Patterns merged across sessions.
///
/// ```
/// use lagalyzer_core::prelude::*;
/// use lagalyzer_sim::{apps, runner};
///
/// let sessions: Vec<AnalysisSession> = (0..2)
///     .map(|i| AnalysisSession::new(
///         runner::simulate_session(&apps::crossword_sage(), i, 1),
///         AnalysisConfig::default(),
///     ))
///     .collect();
/// let multi = MultiPatternSet::mine(&sessions);
/// assert_eq!(multi.sessions(), 2);
/// assert!(multi.recurring().count() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct MultiPatternSet {
    patterns: Vec<MultiPattern>,
    sessions: usize,
}

impl MultiPatternSet {
    /// Mines each session and merges the resulting pattern sets by
    /// signature. Sessions may come from different applications, but the
    /// merge is only meaningful within one application (as in the paper's
    /// four-sessions-per-app methodology).
    pub fn mine(sessions: &[AnalysisSession]) -> MultiPatternSet {
        MultiPatternSet::mine_with_jobs(sessions, 1)
    }

    /// Like [`MultiPatternSet::mine`], but shards the *sessions* over up
    /// to `jobs` worker threads (each session is mined serially within its
    /// shard). Per-session pattern sets are borrowed from each session's
    /// memo ([`AnalysisSession::patterns`]) and merged in session order, so
    /// the result is byte-identical to the serial path for any `jobs`.
    pub fn mine_with_jobs(sessions: &[AnalysisSession], jobs: usize) -> MultiPatternSet {
        let per_session: Vec<&PatternSet> =
            crate::parallel::map_shards(sessions.len(), jobs, |range| {
                sessions[range]
                    .iter()
                    .map(AnalysisSession::patterns)
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        MultiPatternSet::merge(per_session)
    }

    /// Mines raw decoded traces — the corpus-wide mining entry point:
    /// wraps each trace in an [`AnalysisSession`] and runs
    /// [`MultiPatternSet::mine_with_jobs`], so mining a corpus's
    /// [`par_decode`](lagalyzer_trace::CorpusReader) output is
    /// byte-identical to mining the same sessions loaded from N separate
    /// files.
    pub fn mine_traces_with_jobs(
        traces: Vec<lagalyzer_model::SessionTrace>,
        config: AnalysisConfig,
        jobs: usize,
    ) -> MultiPatternSet {
        let sessions: Vec<AnalysisSession> = traces
            .into_iter()
            .map(|t| AnalysisSession::new(t, config))
            .collect();
        MultiPatternSet::mine_with_jobs(&sessions, jobs)
    }

    /// Merges already-mined pattern sets (one per session, in order).
    pub fn merge<'a>(sets: impl IntoIterator<Item = &'a PatternSet>) -> MultiPatternSet {
        let sets: Vec<&PatternSet> = sets.into_iter().collect();
        let n = sets.len();
        let mut merged: HashMap<ShapeSignature, MultiPattern> = HashMap::new();
        for (i, set) in sets.into_iter().enumerate() {
            for p in set.patterns() {
                let entry = merged
                    .entry(p.signature().clone())
                    .or_insert_with(|| MultiPattern {
                        signature: p.signature().clone(),
                        episodes_per_session: vec![0; n],
                        perceptible_per_session: vec![0; n],
                        total_lag: DurationNs::ZERO,
                        max_lag: DurationNs::ZERO,
                    });
                entry.episodes_per_session[i] += p.count();
                entry.perceptible_per_session[i] += p.perceptible_count();
                entry.total_lag += p.stats().total;
                entry.max_lag = entry.max_lag.max(p.stats().max);
            }
        }
        let mut patterns: Vec<MultiPattern> = merged.into_values().collect();
        patterns.sort_by(|a, b| {
            b.total_episodes()
                .cmp(&a.total_episodes())
                .then_with(|| a.signature.cmp(&b.signature))
        });
        MultiPatternSet {
            patterns,
            sessions: n,
        }
    }

    /// Merged patterns, most episodes first.
    pub fn patterns(&self) -> &[MultiPattern] {
        &self.patterns
    }

    /// Number of distinct merged patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if no session contained structured episodes.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Number of merged sessions.
    pub fn sessions(&self) -> usize {
        self.sessions
    }

    /// Patterns present in every session — the application's recurring
    /// behaviours.
    pub fn recurring(&self) -> impl Iterator<Item = &MultiPattern> {
        let n = self.sessions;
        self.patterns
            .iter()
            .filter(move |p| p.session_coverage() == n)
    }

    /// The stable performance problems: perceptible in every session they
    /// occur in, sorted by total lag.
    pub fn stable_problems(&self) -> Vec<&MultiPattern> {
        let mut out: Vec<&MultiPattern> = self
            .patterns
            .iter()
            .filter(|p| p.consistently_perceptible())
            .collect();
        out.sort_by_key(|p| std::cmp::Reverse(p.total_lag()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisConfig;
    use lagalyzer_model::prelude::*;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    /// One session: each spec is (class name, durations).
    fn session(specs: &[(&str, &[u64])]) -> AnalysisSession {
        let meta = SessionMeta {
            application: "M".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(100),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let mut cursor = 0u64;
        let mut id = 0u32;
        for (name, durations) in specs {
            for &dur in *durations {
                let m = b.symbols_mut().method(name, "run");
                let mut t = IntervalTreeBuilder::new();
                t.enter(IntervalKind::Dispatch, None, ms(cursor)).unwrap();
                t.leaf(
                    IntervalKind::Listener,
                    Some(m),
                    ms(cursor + 1),
                    ms(cursor + dur - 1),
                )
                .unwrap();
                t.exit(ms(cursor + dur)).unwrap();
                b.push_episode(
                    EpisodeBuilder::new(EpisodeId::from_raw(id), ThreadId::from_raw(0))
                        .tree(t.finish().unwrap())
                        .build()
                        .unwrap(),
                )
                .unwrap();
                id += 1;
                cursor += dur + 5;
            }
        }
        AnalysisSession::new(b.finish(), AnalysisConfig::default())
    }

    #[test]
    fn merges_by_signature_across_sessions() {
        let s1 = session(&[("a.A", &[200, 50]), ("b.B", &[30])]);
        let s2 = session(&[("a.A", &[300]), ("c.C", &[40])]);
        let multi = MultiPatternSet::mine(&[s1, s2]);
        assert_eq!(multi.len(), 3);
        assert_eq!(multi.sessions(), 2);
        let a = multi
            .patterns()
            .iter()
            .find(|p| p.signature().as_str().contains("a.A"))
            .unwrap();
        assert_eq!(a.episodes_per_session(), &[2, 1]);
        assert_eq!(a.perceptible_per_session(), &[1, 1]);
        assert_eq!(a.total_episodes(), 3);
        assert_eq!(a.session_coverage(), 2);
        assert_eq!(a.max_lag(), DurationNs::from_millis(300));
        assert_eq!(a.total_lag(), DurationNs::from_millis(550));
    }

    #[test]
    fn recurring_requires_every_session() {
        let s1 = session(&[("a.A", &[50]), ("b.B", &[30])]);
        let s2 = session(&[("a.A", &[60])]);
        let multi = MultiPatternSet::mine(&[s1, s2]);
        let recurring: Vec<&str> = multi.recurring().map(|p| p.signature().as_str()).collect();
        assert_eq!(recurring.len(), 1);
        assert!(recurring[0].contains("a.A"));
    }

    #[test]
    fn stable_problems_are_perceptible_wherever_present() {
        let s1 = session(&[("stable.S", &[200]), ("flaky.F", &[250, 20])]);
        let s2 = session(&[("stable.S", &[150]), ("flaky.F", &[25])]);
        let multi = MultiPatternSet::mine(&[s1, s2]);
        let stable = multi.stable_problems();
        assert_eq!(stable.len(), 1);
        assert!(stable[0].signature().as_str().contains("stable.S"));
        assert!(stable[0].consistently_perceptible());
    }

    #[test]
    fn merged_occurrence_classes() {
        let s1 = session(&[
            ("always.A", &[200]),
            ("never.N", &[10]),
            ("mix.M", &[150, 10, 160]),
        ]);
        let s2 = session(&[("always.A", &[220]), ("once.O", &[120, 10])]);
        let multi = MultiPatternSet::mine(&[s1, s2]);
        let by_name = |n: &str| {
            multi
                .patterns()
                .iter()
                .find(|p| p.signature().as_str().contains(n))
                .unwrap()
                .occurrence()
        };
        assert_eq!(by_name("always.A"), Occurrence::Always);
        assert_eq!(by_name("never.N"), Occurrence::Never);
        assert_eq!(by_name("mix.M"), Occurrence::Sometimes);
        assert_eq!(by_name("once.O"), Occurrence::Once);
    }

    #[test]
    fn empty_inputs() {
        let multi = MultiPatternSet::merge(&[]);
        assert!(multi.is_empty());
        assert_eq!(multi.sessions(), 0);
        assert!(multi.stable_problems().is_empty());
    }

    #[test]
    fn simulated_sessions_share_most_patterns() {
        // Four sessions of the same app should share their big patterns
        // (the template library is identical given the same study seed).
        use lagalyzer_sim::{apps, runner};
        let sessions: Vec<AnalysisSession> = (0..2)
            .map(|i| {
                AnalysisSession::new(
                    runner::simulate_session(&apps::crossword_sage(), i, 7),
                    AnalysisConfig::default(),
                )
            })
            .collect();
        let multi = MultiPatternSet::mine(&sessions);
        let recurring = multi.recurring().count();
        assert!(
            recurring > 10,
            "expected shared patterns across sessions, got {recurring}"
        );
    }
}
