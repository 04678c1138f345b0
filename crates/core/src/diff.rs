//! Session diffing: pattern-level regression detection.
//!
//! The paper's workflow is "find the slow pattern, fix the code, measure
//! again". This module closes that loop: given a *baseline* session and a
//! *candidate* session (e.g. before and after an optimization), it aligns
//! their patterns by structural signature and reports what appeared, what
//! disappeared, and how the lag of the common patterns moved.

use lagalyzer_model::DurationNs;

use crate::patterns::PatternSet;
use crate::session::AnalysisSession;
use crate::shape::ShapeSignature;

/// How one pattern changed between baseline and candidate.
#[derive(Clone, Debug)]
pub struct PatternDelta {
    /// The pattern's structural signature.
    pub signature: ShapeSignature,
    /// Episodes in the baseline session.
    pub baseline_episodes: u64,
    /// Episodes in the candidate session.
    pub candidate_episodes: u64,
    /// Mean lag in the baseline.
    pub baseline_mean: DurationNs,
    /// Mean lag in the candidate.
    pub candidate_mean: DurationNs,
    /// Perceptible episodes in the baseline.
    pub baseline_perceptible: u64,
    /// Perceptible episodes in the candidate.
    pub candidate_perceptible: u64,
}

impl PatternDelta {
    /// Candidate mean over baseline mean; 1.0 means unchanged, above 1 a
    /// regression. Returns `None` when the baseline mean is zero.
    pub fn mean_ratio(&self) -> Option<f64> {
        (self.baseline_mean.as_nanos() > 0)
            .then(|| self.candidate_mean.as_nanos() as f64 / self.baseline_mean.as_nanos() as f64)
    }

    /// True if the pattern got perceptibly worse: more perceptible
    /// episodes, or the mean grew by more than `tolerance` (for example
    /// 0.2 for +20%).
    pub fn regressed(&self, tolerance: f64) -> bool {
        self.candidate_perceptible > self.baseline_perceptible
            || self.mean_ratio().is_some_and(|r| r > 1.0 + tolerance)
    }

    /// True if the pattern improved: fewer perceptible episodes, or the
    /// mean shrank by more than `tolerance`.
    pub fn improved(&self, tolerance: f64) -> bool {
        self.candidate_perceptible < self.baseline_perceptible
            || self.mean_ratio().is_some_and(|r| r < 1.0 - tolerance)
    }
}

/// The aligned comparison of two sessions.
///
/// ```
/// use lagalyzer_core::prelude::*;
/// use lagalyzer_sim::{apps, runner};
///
/// let baseline = AnalysisSession::new(
///     runner::simulate_session(&apps::jedit(), 0, 1),
///     AnalysisConfig::default(),
/// );
/// let candidate = AnalysisSession::new(
///     runner::simulate_session(&apps::jedit(), 1, 1),
///     AnalysisConfig::default(),
/// );
/// let diff = SessionDiff::between(&baseline, &candidate);
/// // Same application, same pattern library: nothing appears or vanishes.
/// assert!(diff.appeared.is_empty());
/// assert!(diff.disappeared.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct SessionDiff {
    /// Patterns present in both sessions.
    pub common: Vec<PatternDelta>,
    /// Patterns only in the candidate (new behaviour), with episode count
    /// and perceptible count.
    pub appeared: Vec<(ShapeSignature, u64, u64)>,
    /// Patterns only in the baseline (removed behaviour).
    pub disappeared: Vec<(ShapeSignature, u64, u64)>,
}

impl SessionDiff {
    /// Diffs `candidate` against `baseline`.
    pub fn between(baseline: &AnalysisSession, candidate: &AnalysisSession) -> SessionDiff {
        SessionDiff::from_patterns(baseline.patterns(), candidate.patterns())
    }

    /// Diffs two already-mined pattern sets.
    pub fn from_patterns(baseline: &PatternSet, candidate: &PatternSet) -> SessionDiff {
        let base: std::collections::HashMap<&ShapeSignature, _> = baseline
            .patterns()
            .iter()
            .map(|p| (p.signature(), p))
            .collect();
        let cand: std::collections::HashMap<&ShapeSignature, _> = candidate
            .patterns()
            .iter()
            .map(|p| (p.signature(), p))
            .collect();

        let mut common = Vec::new();
        let mut appeared = Vec::new();
        let mut disappeared = Vec::new();
        for (sig, cp) in &cand {
            match base.get(*sig) {
                Some(bp) => common.push(PatternDelta {
                    signature: (*sig).clone(),
                    baseline_episodes: bp.count(),
                    candidate_episodes: cp.count(),
                    baseline_mean: bp.stats().mean(),
                    candidate_mean: cp.stats().mean(),
                    baseline_perceptible: bp.perceptible_count(),
                    candidate_perceptible: cp.perceptible_count(),
                }),
                None => appeared.push(((*sig).clone(), cp.count(), cp.perceptible_count())),
            }
        }
        for (sig, bp) in &base {
            if !cand.contains_key(*sig) {
                disappeared.push(((*sig).clone(), bp.count(), bp.perceptible_count()));
            }
        }
        // Deterministic ordering: worst regressions first, then by name.
        common.sort_by(|a, b| {
            let ra = a.mean_ratio().unwrap_or(1.0);
            let rb = b.mean_ratio().unwrap_or(1.0);
            rb.partial_cmp(&ra)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.signature.cmp(&b.signature))
        });
        appeared.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        disappeared.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        SessionDiff {
            common,
            appeared,
            disappeared,
        }
    }

    /// The regressions among common patterns, worst first.
    pub fn regressions(&self, tolerance: f64) -> Vec<&PatternDelta> {
        self.common
            .iter()
            .filter(|d| d.regressed(tolerance))
            .collect()
    }

    /// The improvements among common patterns.
    pub fn improvements(&self, tolerance: f64) -> Vec<&PatternDelta> {
        self.common
            .iter()
            .filter(|d| d.improved(tolerance))
            .collect()
    }

    /// A one-line summary for logs and CLIs.
    pub fn summary(&self, tolerance: f64) -> String {
        format!(
            "{} common patterns ({} regressed, {} improved), {} appeared, {} disappeared",
            self.common.len(),
            self.regressions(tolerance).len(),
            self.improvements(tolerance).len(),
            self.appeared.len(),
            self.disappeared.len()
        )
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

    /// Builds a session; each spec is (class name, durations).
    fn session(specs: &[(&str, &[u64])]) -> AnalysisSession {
        let meta = SessionMeta {
            application: "D".into(),
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
    fn aligns_common_appeared_disappeared() {
        let baseline = session(&[("stay.S", &[50, 60]), ("gone.G", &[40])]);
        let candidate = session(&[("stay.S", &[55, 65]), ("new.N", &[30])]);
        let diff = SessionDiff::between(&baseline, &candidate);
        assert_eq!(diff.common.len(), 1);
        assert!(diff.common[0].signature.as_str().contains("stay.S"));
        assert_eq!(diff.appeared.len(), 1);
        assert!(diff.appeared[0].0.as_str().contains("new.N"));
        assert_eq!(diff.disappeared.len(), 1);
        assert!(diff.disappeared[0].0.as_str().contains("gone.G"));
    }

    #[test]
    fn regression_detection() {
        let baseline = session(&[("p.P", &[50, 50])]);
        let candidate = session(&[("p.P", &[150, 150])]);
        let diff = SessionDiff::between(&baseline, &candidate);
        let delta = &diff.common[0];
        assert!((delta.mean_ratio().unwrap() - 3.0).abs() < 1e-9);
        assert!(delta.regressed(0.2));
        assert!(!delta.improved(0.2));
        assert_eq!(diff.regressions(0.2).len(), 1);
        assert!(diff.improvements(0.2).is_empty());
    }

    #[test]
    fn improvement_detection() {
        let baseline = session(&[("p.P", &[200, 300])]);
        let candidate = session(&[("p.P", &[50, 60])]);
        let diff = SessionDiff::between(&baseline, &candidate);
        let delta = &diff.common[0];
        assert!(delta.improved(0.2));
        assert!(!delta.regressed(0.2));
        assert_eq!(delta.baseline_perceptible, 2);
        assert_eq!(delta.candidate_perceptible, 0);
    }

    #[test]
    fn perceptible_increase_is_regression_even_with_similar_mean() {
        // One more episode crosses the threshold while the mean barely
        // moves — still a perceptible regression.
        let baseline = session(&[("p.P", &[95, 95, 95, 95])]);
        let candidate = session(&[("p.P", &[101, 95, 95, 95])]);
        let diff = SessionDiff::between(&baseline, &candidate);
        assert!(diff.common[0].regressed(0.2));
    }

    #[test]
    fn identical_sessions_are_clean() {
        let a = session(&[("p.P", &[50, 60]), ("q.Q", &[120])]);
        let b = session(&[("p.P", &[50, 60]), ("q.Q", &[120])]);
        let diff = SessionDiff::between(&a, &b);
        assert_eq!(diff.common.len(), 2);
        assert!(diff.appeared.is_empty());
        assert!(diff.disappeared.is_empty());
        assert!(diff.regressions(0.05).is_empty());
        assert!(diff.improvements(0.05).is_empty());
        assert!(diff
            .summary(0.05)
            .starts_with("2 common patterns (0 regressed, 0 improved)"));
    }

    #[test]
    fn zero_baseline_mean_ratio_is_none() {
        let delta = PatternDelta {
            signature: ShapeSignature::of_tree(
                &{
                    let mut t = IntervalTreeBuilder::new();
                    t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
                    t.exit(ms(0)).unwrap();
                    t.finish().unwrap()
                },
                &SymbolTable::new(),
            ),
            baseline_episodes: 1,
            candidate_episodes: 1,
            baseline_mean: DurationNs::ZERO,
            candidate_mean: DurationNs::from_millis(5),
            baseline_perceptible: 0,
            candidate_perceptible: 0,
        };
        assert!(delta.mean_ratio().is_none());
        assert!(!delta.regressed(0.1));
    }

    #[test]
    fn ordering_worst_regression_first() {
        let baseline = session(&[("a.A", &[100]), ("b.B", &[100])]);
        let candidate = session(&[("a.A", &[200]), ("b.B", &[400])]);
        let diff = SessionDiff::between(&baseline, &candidate);
        assert!(diff.common[0].signature.as_str().contains("b.B"));
    }
}
