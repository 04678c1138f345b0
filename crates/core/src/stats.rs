//! Overall session statistics — one Table III row.

use lagalyzer_model::DurationNs;

use crate::session::AnalysisSession;

/// The Table III columns for one session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionStats {
    /// End-to-end session time ("E2E").
    pub end_to_end: DurationNs,
    /// Fraction of end-to-end time spent handling requests ("In-Eps").
    pub in_episode_fraction: f64,
    /// Episodes filtered out by the tracer ("< 3ms").
    pub short_count: u64,
    /// Traced episodes ("≥ 3ms").
    pub traced_count: u64,
    /// Perceptible episodes ("≥ 100ms").
    pub perceptible_count: u64,
    /// Perceptible episodes per minute of in-episode time ("Long/min").
    pub long_per_minute: f64,
    /// Distinct patterns ("Dist").
    pub distinct_patterns: u64,
    /// Episodes covered by patterns ("#Eps").
    pub episodes_in_patterns: u64,
    /// Fraction of singleton patterns ("One-Ep").
    pub singleton_fraction: f64,
    /// Mean dispatch-descendant count over patterns ("Descs").
    pub mean_tree_size: f64,
    /// Mean interval-tree depth over patterns ("Depth").
    pub mean_tree_depth: f64,
}

impl SessionStats {
    /// Computes the full row for one session. The pattern columns come
    /// from the session's memoized patterns
    /// ([`AnalysisSession::patterns`]), so computing the row and then
    /// mining the same session mines it once.
    pub fn compute(session: &AnalysisSession) -> SessionStats {
        SessionStats::compute_with_jobs(session, 1)
    }

    /// Computes the full row on up to `jobs` worker threads. Pattern
    /// mining (when the session's memo is still empty) and the
    /// perceptible-episode count are sharded over episodes; both merges
    /// are exact, so the row is byte-identical to [`SessionStats::compute`]
    /// for any `jobs`, and whichever `jobs` fills the memo does not matter.
    pub fn compute_with_jobs(session: &AnalysisSession, jobs: usize) -> SessionStats {
        let trace = session.trace();
        let patterns = session.patterns_with_jobs(jobs);
        let perceptible_count: u64 =
            crate::parallel::map_shards(session.episodes().len(), jobs, |range| {
                session.episodes()[range]
                    .iter()
                    .filter(|e| session.is_perceptible(e))
                    .count() as u64
            })
            .into_iter()
            .sum();
        let in_episode = trace.in_episode_time();
        let in_minutes = in_episode.as_secs_f64() / 60.0;
        SessionStats {
            end_to_end: trace.meta().end_to_end,
            in_episode_fraction: trace.in_episode_fraction(),
            short_count: trace.short_episode_count(),
            traced_count: trace.episodes().len() as u64,
            perceptible_count,
            long_per_minute: if in_minutes > 0.0 {
                perceptible_count as f64 / in_minutes
            } else {
                0.0
            },
            distinct_patterns: patterns.len() as u64,
            episodes_in_patterns: patterns.covered_episodes(),
            singleton_fraction: patterns.singleton_fraction(),
            mean_tree_size: patterns.mean_tree_size(),
            mean_tree_depth: patterns.mean_tree_depth(),
        }
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

    fn build_session() -> AnalysisSession {
        let meta = SessionMeta {
            application: "S".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(60),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let m = b.symbols_mut().method("a.A", "run");
        let mut cursor = 0u64;
        // Three structured episodes of one pattern (one perceptible), one
        // bare episode, 100 filtered-out shorts worth 150 ms.
        for (i, dur) in [50u64, 120, 60].iter().enumerate() {
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
                EpisodeBuilder::new(EpisodeId::from_raw(i as u32), ThreadId::from_raw(0))
                    .tree(t.finish().unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
            cursor += dur + 100;
        }
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(cursor)).unwrap();
        t.exit(ms(cursor + 10)).unwrap();
        b.push_episode(
            EpisodeBuilder::new(EpisodeId::from_raw(3), ThreadId::from_raw(0))
                .tree(t.finish().unwrap())
                .build()
                .unwrap(),
        )
        .unwrap();
        b.add_short_episodes(100, DurationNs::from_millis(150));
        AnalysisSession::new(b.finish(), AnalysisConfig::default())
    }

    #[test]
    fn row_matches_hand_computation() {
        let stats = SessionStats::compute(&build_session());
        assert_eq!(stats.end_to_end, DurationNs::from_secs(60));
        assert_eq!(stats.short_count, 100);
        assert_eq!(stats.traced_count, 4);
        assert_eq!(stats.perceptible_count, 1);
        assert_eq!(stats.distinct_patterns, 1);
        assert_eq!(stats.episodes_in_patterns, 3);
        assert_eq!(stats.singleton_fraction, 0.0);
        assert!((stats.mean_tree_size - 1.0).abs() < 1e-12);
        assert!((stats.mean_tree_depth - 1.0).abs() < 1e-12);
        // In-episode time: 50+120+60+10 traced + 150 short = 390 ms of 60 s.
        assert!((stats.in_episode_fraction - 0.39 / 60.0).abs() < 1e-9);
        // Long/min: 1 perceptible / (0.39s / 60) minutes.
        let expected = 1.0 / (0.39 / 60.0);
        assert!(
            (stats.long_per_minute - expected).abs() < 1e-6,
            "{} vs {expected}",
            stats.long_per_minute
        );
    }

    #[test]
    fn empty_session_is_all_zero() {
        let meta = SessionMeta {
            application: "E".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(1),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let trace = SessionTraceBuilder::new(meta, SymbolTable::new()).finish();
        let stats = SessionStats::compute(&AnalysisSession::new(trace, AnalysisConfig::default()));
        assert_eq!(stats.traced_count, 0);
        assert_eq!(stats.perceptible_count, 0);
        assert_eq!(stats.long_per_minute, 0.0);
        assert_eq!(stats.distinct_patterns, 0);
    }
}
