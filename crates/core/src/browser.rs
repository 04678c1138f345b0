//! The pattern browser (the paper's §II-E).
//!
//! Presents a table of patterns with episode counts and min / average /
//! max / total lag, lets the developer hide patterns without perceptible
//! episodes, and supports selecting a pattern to list its episodes (the
//! first of which the GUI shows as an episode sketch).

use lagalyzer_model::{DurationNs, Episode};

use crate::occurrence::Occurrence;
use crate::patterns::{Pattern, PatternSet};
use crate::session::AnalysisSession;

/// Sort orders for the pattern table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortBy {
    /// Most episodes first (the default).
    Count,
    /// Largest total lag first.
    TotalLag,
    /// Largest maximum lag first.
    MaxLag,
    /// Most perceptible episodes first.
    PerceptibleCount,
}

/// One row of the pattern table.
#[derive(Clone, Debug)]
pub struct BrowserRow<'a> {
    /// Position in the current view (0-based).
    pub rank: usize,
    /// The pattern behind this row.
    pub pattern: &'a Pattern,
    /// The pattern's occurrence class.
    pub occurrence: Occurrence,
}

/// An interactive view over a mined [`PatternSet`].
pub struct PatternBrowser<'a> {
    /// Absent when the patterns were mined from persisted summaries (the
    /// warm path) — episode listings are then unavailable, but the table
    /// renders identically because a warm set is clean by construction.
    session: Option<&'a AnalysisSession>,
    patterns: &'a PatternSet,
    perceptible_only: bool,
    sort: SortBy,
}

impl<'a> PatternBrowser<'a> {
    /// Opens a browser over `patterns` mined from `session`.
    pub fn new(session: &'a AnalysisSession, patterns: &'a PatternSet) -> Self {
        PatternBrowser {
            session: Some(session),
            patterns,
            perceptible_only: false,
            sort: SortBy::Count,
        }
    }

    /// Opens a browser over `patterns` alone — the warm path has no
    /// decoded session. [`episodes_of`](Self::episodes_of) and
    /// [`first_episode`](Self::first_episode) must not be called on such
    /// a browser.
    pub fn of_patterns(patterns: &'a PatternSet) -> Self {
        PatternBrowser {
            session: None,
            patterns,
            perceptible_only: false,
            sort: SortBy::Count,
        }
    }

    /// Shows only patterns with at least one perceptible episode.
    pub fn perceptible_only(&mut self, on: bool) -> &mut Self {
        self.perceptible_only = on;
        self
    }

    /// Changes the sort order.
    pub fn sort_by(&mut self, sort: SortBy) -> &mut Self {
        self.sort = sort;
        self
    }

    /// The rows of the current view.
    pub fn rows(&self) -> Vec<BrowserRow<'a>> {
        let mut rows: Vec<&Pattern> = self
            .patterns
            .patterns()
            .iter()
            .filter(|p| !self.perceptible_only || p.perceptible_count() > 0)
            .collect();
        match self.sort {
            SortBy::Count => rows.sort_by_key(|p| std::cmp::Reverse(p.count())),
            SortBy::TotalLag => rows.sort_by_key(|p| std::cmp::Reverse(p.stats().total)),
            SortBy::MaxLag => rows.sort_by_key(|p| std::cmp::Reverse(p.stats().max)),
            SortBy::PerceptibleCount => {
                rows.sort_by_key(|p| std::cmp::Reverse(p.perceptible_count()));
            }
        }
        rows.into_iter()
            .enumerate()
            .map(|(rank, pattern)| BrowserRow {
                rank,
                pattern,
                occurrence: Occurrence::of_pattern(pattern),
            })
            .collect()
    }

    /// The episodes of one pattern, in dispatch order — the list the
    /// developer reveals by selecting a row.
    pub fn episodes_of(&self, pattern: &Pattern) -> Vec<&'a Episode> {
        let session = self
            .session
            .expect("episode listing needs a decoded session");
        pattern
            .episode_indices()
            .iter()
            .map(|&i| &session.episodes()[i])
            .collect()
    }

    /// The first episode of a pattern — the one the GUI sketches when a
    /// pattern is selected.
    pub fn first_episode(&self, pattern: &Pattern) -> &'a Episode {
        let session = self
            .session
            .expect("episode listing needs a decoded session");
        &session.episodes()[pattern.episode_indices()[0]]
    }

    /// Renders the current view as a plain-text table (used by the CLI and
    /// handy in tests).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("rank  episodes  perceptible  min        avg        max        total      occurrence  signature\n");
        for row in self.rows() {
            let s = row.pattern.stats();
            out.push_str(&format!(
                "{:<5} {:<9} {:<12} {:<10} {:<10} {:<10} {:<10} {:<11} {}\n",
                row.rank,
                s.count,
                row.pattern.perceptible_count(),
                fmt_dur(s.min),
                fmt_dur(s.mean()),
                fmt_dur(s.max),
                fmt_dur(s.total),
                row.occurrence,
                truncate(row.pattern.signature().as_str(), 60),
            ));
        }
        if self.session.is_some_and(AnalysisSession::is_salvaged) || self.patterns.salvaged() {
            out.push_str(
                "note: trace salvaged from a damaged file; pattern population may be incomplete\n",
            );
        }
        if let Some(check) = self.session.and_then(AnalysisSession::check_outcome) {
            if !check.is_clean() {
                out.push_str(&format!(
                    "note: semantic check reported {} error(s), {} warning(s), {} note(s); run `lagalyzer check` for details\n",
                    check.errors, check.warnings, check.notes
                ));
            }
        }
        out
    }
}

fn fmt_dur(d: DurationNs) -> String {
    d.to_string()
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_owned()
    } else {
        format!("{}…", &s[..max])
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
            application: "B".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(60),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let mut cursor = 0u64;
        let mut id = 0u32;
        // Pattern A: 3 fast episodes. Pattern B: 2 episodes, one slow.
        for (name, durs) in [("a.A", vec![10u64, 11, 12]), ("b.B", vec![500, 20])] {
            for dur in durs {
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
                cursor += dur + 10;
                id += 1;
            }
        }
        AnalysisSession::new(b.finish(), AnalysisConfig::default())
    }

    #[test]
    fn default_view_sorted_by_count() {
        let session = build_session();
        let browser = PatternBrowser::new(&session, session.patterns());
        let rows = browser.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].pattern.count(), 3);
        assert_eq!(rows[1].pattern.count(), 2);
        assert_eq!(rows[0].rank, 0);
    }

    #[test]
    fn perceptible_filter_elides_fast_patterns() {
        let session = build_session();
        let mut browser = PatternBrowser::new(&session, session.patterns());
        browser.perceptible_only(true);
        let rows = browser.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].pattern.perceptible_count(), 1);
        assert_eq!(rows[0].occurrence, Occurrence::Once);
    }

    #[test]
    fn sort_orders() {
        let session = build_session();
        let mut browser = PatternBrowser::new(&session, session.patterns());
        browser.sort_by(SortBy::TotalLag);
        let rows = browser.rows();
        // Pattern B's 520 ms total beats pattern A's 33 ms.
        assert_eq!(rows[0].pattern.count(), 2);
        browser.sort_by(SortBy::MaxLag);
        assert_eq!(
            browser.rows()[0].pattern.stats().max,
            DurationNs::from_millis(500)
        );
        browser.sort_by(SortBy::PerceptibleCount);
        assert_eq!(browser.rows()[0].pattern.perceptible_count(), 1);
    }

    #[test]
    fn episode_listing_and_first() {
        let session = build_session();
        let browser = PatternBrowser::new(&session, session.patterns());
        let slow_pattern = browser
            .rows()
            .into_iter()
            .find(|r| r.pattern.perceptible_count() > 0)
            .unwrap()
            .pattern;
        let episodes = browser.episodes_of(slow_pattern);
        assert_eq!(episodes.len(), 2);
        assert!(episodes[0].start() < episodes[1].start());
        let first = browser.first_episode(slow_pattern);
        assert_eq!(first.id(), episodes[0].id());
        assert_eq!(first.duration(), DurationNs::from_millis(500));
    }

    #[test]
    fn table_renders() {
        let session = build_session();
        let browser = PatternBrowser::new(&session, session.patterns());
        let table = browser.to_table();
        assert!(table.contains("episodes"));
        assert!(table.contains("a.A"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn truncate_helper() {
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("0123456789abc", 10), "0123456789…");
    }
}
