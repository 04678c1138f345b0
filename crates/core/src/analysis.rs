//! The extension API for custom analyses (paper §II-A: "Developers who
//! want to write their own analysis can implement it using the
//! straightforward API provided by the core").

use crate::session::AnalysisSession;

/// A named analysis over one session.
///
/// All built-in analyses are expressible through this trait; downstream
/// users implement it to plug their own metrics into the same driver
/// machinery.
///
/// ```
/// use lagalyzer_core::prelude::*;
/// use lagalyzer_core::analysis::run;
/// use lagalyzer_sim::{apps, runner};
///
/// /// Counts episodes longer than one second.
/// struct ExtremeLag;
///
/// impl Analysis for ExtremeLag {
///     type Output = usize;
///     fn name(&self) -> &str {
///         "extreme-lag"
///     }
///     fn run(&self, session: &AnalysisSession) -> usize {
///         session
///             .episodes()
///             .iter()
///             .filter(|e| e.duration() >= lagalyzer_model::DurationNs::from_secs(1))
///             .count()
///     }
/// }
///
/// let trace = runner::simulate_session(&apps::crossword_sage(), 0, 1);
/// let session = AnalysisSession::new(trace, AnalysisConfig::default());
/// let (name, extreme) = run(&ExtremeLag, &session);
/// assert_eq!(name, "extreme-lag");
/// assert!(extreme <= session.episodes().len());
/// ```
pub trait Analysis {
    /// The analysis result type.
    type Output;

    /// A stable, human-readable analysis name.
    fn name(&self) -> &str;

    /// Runs the analysis over one session.
    fn run(&self, session: &AnalysisSession) -> Self::Output;
}

/// Runs an analysis, returning its name alongside the result.
pub fn run<A: Analysis>(analysis: &A, session: &AnalysisSession) -> (String, A::Output) {
    (analysis.name().to_owned(), analysis.run(session))
}

/// Built-in [`Analysis`] adapters so the standard analyses compose with
/// custom drivers.
pub mod builtin {
    use super::Analysis;
    use crate::causes::CauseStats;
    use crate::concurrency::{concurrency_stats, ConcurrencyStats};
    use crate::location::LocationStats;
    use crate::occurrence::OccurrenceBreakdown;
    use crate::session::AnalysisSession;
    use crate::stats::SessionStats;
    use crate::trigger::TriggerBreakdown;
    use lagalyzer_model::OriginClassifier;

    /// Table III row.
    pub struct OverallStats;

    impl Analysis for OverallStats {
        type Output = SessionStats;
        fn name(&self) -> &str {
            "overall-statistics"
        }
        fn run(&self, session: &AnalysisSession) -> SessionStats {
            SessionStats::compute(session)
        }
    }

    /// Fig 5 trigger breakdowns (all, perceptible).
    pub struct Triggers;

    impl Analysis for Triggers {
        type Output = (TriggerBreakdown, TriggerBreakdown);
        fn name(&self) -> &str {
            "triggers"
        }
        fn run(&self, session: &AnalysisSession) -> Self::Output {
            (
                TriggerBreakdown::of_all(session),
                TriggerBreakdown::of_perceptible(session),
            )
        }
    }

    /// Fig 4 occurrence breakdown.
    pub struct Occurrences;

    impl Analysis for Occurrences {
        type Output = OccurrenceBreakdown;
        fn name(&self) -> &str {
            "occurrences"
        }
        fn run(&self, session: &AnalysisSession) -> Self::Output {
            OccurrenceBreakdown::of(session.patterns())
        }
    }

    /// Fig 6 location shares (all, perceptible).
    pub struct Locations;

    impl Analysis for Locations {
        type Output = (LocationStats, LocationStats);
        fn name(&self) -> &str {
            "locations"
        }
        fn run(&self, session: &AnalysisSession) -> Self::Output {
            let classifier = OriginClassifier::java_default();
            (
                LocationStats::of_all(session, &classifier),
                LocationStats::of_perceptible(session, &classifier),
            )
        }
    }

    /// Fig 7 concurrency.
    pub struct Concurrency;

    impl Analysis for Concurrency {
        type Output = ConcurrencyStats;
        fn name(&self) -> &str {
            "concurrency"
        }
        fn run(&self, session: &AnalysisSession) -> Self::Output {
            concurrency_stats(session)
        }
    }

    /// Fig 8 cause partitions (all, perceptible).
    pub struct Causes;

    impl Analysis for Causes {
        type Output = (CauseStats, CauseStats);
        fn name(&self) -> &str {
            "causes"
        }
        fn run(&self, session: &AnalysisSession) -> Self::Output {
            (
                CauseStats::of_all(session),
                CauseStats::of_perceptible(session),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::builtin;
    use super::*;
    use crate::session::AnalysisConfig;
    use lagalyzer_model::prelude::*;

    fn empty_session() -> AnalysisSession {
        let meta = SessionMeta {
            application: "A".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(1),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        AnalysisSession::new(
            SessionTraceBuilder::new(meta, SymbolTable::new()).finish(),
            AnalysisConfig::default(),
        )
    }

    #[test]
    fn custom_analysis_runs() {
        struct EpisodeCount;
        impl Analysis for EpisodeCount {
            type Output = usize;
            fn name(&self) -> &str {
                "episode-count"
            }
            fn run(&self, session: &AnalysisSession) -> usize {
                session.episodes().len()
            }
        }
        let session = empty_session();
        let (name, count) = run(&EpisodeCount, &session);
        assert_eq!(name, "episode-count");
        assert_eq!(count, 0);
    }

    #[test]
    fn builtins_run_on_empty_session() {
        let session = empty_session();
        let _ = run(&builtin::OverallStats, &session);
        let _ = run(&builtin::Triggers, &session);
        let _ = run(&builtin::Occurrences, &session);
        let _ = run(&builtin::Locations, &session);
        let _ = run(&builtin::Concurrency, &session);
        let _ = run(&builtin::Causes, &session);
    }

    #[test]
    fn builtin_names_are_distinct() {
        let names = [
            builtin::OverallStats.name().to_owned(),
            builtin::Triggers.name().to_owned(),
            builtin::Occurrences.name().to_owned(),
            builtin::Locations.name().to_owned(),
            builtin::Concurrency.name().to_owned(),
            builtin::Causes.name().to_owned(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
