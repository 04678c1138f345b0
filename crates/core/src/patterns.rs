//! Pattern mining: grouping episodes into structural equivalence classes.
//!
//! Following the paper's §II-C: episodes whose dispatch interval has no
//! children carry no structure and are excluded; the remaining episodes are
//! grouped by tree shape. Each pattern records lag statistics
//! (min / average / max / total, paper §II-E) and the set of member
//! episodes; [`PatternSet::cumulative_coverage`] reproduces Fig 3.
//!
//! # The hot path
//!
//! Grouping uses the two-level signature scheme documented in
//! [`crate::shape`]: inside a session each episode's tree is serialized
//! into a compact token stream over raw symbol ids (one zero-allocation
//! traversal into a reused scratch buffer) and hash-consed by a
//! [`ShapeInterner`] into a dense [`ShapeId`], so bucketing is an array
//! index — no name resolution, no string formatting, no per-episode heap
//! allocation. The canonical signature *string* is rendered once per
//! pattern when the table is finalized. The previous implementation,
//! which rendered and hashed a string per episode, is retained as
//! [`PatternSet::mine_reference`] so tests (and benches) can prove the
//! two produce byte-identical results.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use lagalyzer_model::{DurationNs, Episode, IntervalTree, SymbolTable};

use crate::intern::{ShapeId, ShapeInterner};
use crate::parallel;
use crate::session::AnalysisSession;
use crate::shape::{write_shape_tokens, ShapeSignature};

/// Lag statistics over one pattern's episodes (paper §II-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LagStats {
    /// Number of episodes.
    pub count: u64,
    /// Shortest episode.
    pub min: DurationNs,
    /// Longest episode.
    pub max: DurationNs,
    /// Total lag over all episodes.
    pub total: DurationNs,
}

impl LagStats {
    /// The average lag.
    pub fn mean(&self) -> DurationNs {
        if self.count == 0 {
            DurationNs::ZERO
        } else {
            self.total / self.count
        }
    }
}

/// One mined pattern: a structural equivalence class of episodes.
#[derive(Clone, Debug)]
pub struct Pattern {
    signature: ShapeSignature,
    /// Indices into the session's episode slice, in dispatch order.
    episodes: Vec<usize>,
    stats: LagStats,
    perceptible: u64,
    first_is_perceptible: bool,
    /// Descendants of the dispatch interval of the pattern's first episode
    /// (Table III "Descs").
    tree_size: usize,
    /// Interval-tree depth of the first episode (Table III "Depth").
    tree_depth: u32,
    gc_episode_count: u64,
}

impl Pattern {
    /// The structural signature shared by all member episodes.
    pub fn signature(&self) -> &ShapeSignature {
        &self.signature
    }

    /// Indices of member episodes into [`AnalysisSession::episodes`], in
    /// dispatch order.
    pub fn episode_indices(&self) -> &[usize] {
        &self.episodes
    }

    /// Number of member episodes.
    pub fn count(&self) -> u64 {
        self.stats.count
    }

    /// Lag statistics.
    pub fn stats(&self) -> &LagStats {
        &self.stats
    }

    /// Number of perceptible member episodes.
    pub fn perceptible_count(&self) -> u64 {
        self.perceptible
    }

    /// True if the pattern has exactly one episode.
    pub fn is_singleton(&self) -> bool {
        self.stats.count == 1
    }

    /// True if the pattern's first (earliest-dispatched) episode is the
    /// perceptible one — the initialization tell the paper describes.
    pub fn first_is_perceptible(&self) -> bool {
        self.first_is_perceptible
    }

    /// Dispatch-descendant count of the representative episode.
    pub fn tree_size(&self) -> usize {
        self.tree_size
    }

    /// Interval-tree depth of the representative episode.
    pub fn tree_depth(&self) -> u32 {
        self.tree_depth
    }

    /// How many member episodes contain at least one GC interval. Because
    /// GC is excluded from the signature, this tells a developer whether a
    /// pattern always or rarely collects (paper §II-D).
    pub fn gc_episode_count(&self) -> u64 {
        self.gc_episode_count
    }
}

/// The result of mining one session.
#[derive(Clone, Debug)]
pub struct PatternSet {
    /// Patterns sorted by descending episode count (ties: by signature).
    patterns: Vec<Pattern>,
    structureless: u64,
    total_structured: u64,
    salvaged: bool,
}

impl PatternSet {
    /// Mines the patterns of `session`. This is the uncached miner: every
    /// call mines afresh, which is what benches and reference checks
    /// need. Analyses read the session's memo instead
    /// ([`AnalysisSession::patterns`]), which calls this once.
    pub fn mine(session: &AnalysisSession) -> PatternSet {
        PatternSet::mine_with_jobs(session, 1)
    }

    /// Mines the patterns of `session` on up to `jobs` worker threads.
    ///
    /// Episodes are sharded into contiguous index ranges, each shard is
    /// scanned into its own [`PatternTable`] (with its own shard-local
    /// [`ShapeInterner`]), and the tables are merged in shard order by
    /// remapping each shard's dense [`ShapeId`]s into the accumulating
    /// table's interner. Every accumulator is exact (counts, nanosecond
    /// sums, minima/maxima), so the result is byte-identical to
    /// [`PatternSet::mine`] for any `jobs`; `jobs <= 1` runs serially
    /// without spawning threads.
    pub fn mine_with_jobs(session: &AnalysisSession, jobs: usize) -> PatternSet {
        let tables = parallel::map_shards(session.episodes().len(), jobs, |range| {
            PatternTable::scan(session, range)
        });
        let mut merged = PatternTable::new();
        for table in tables {
            merged.merge(table);
        }
        merged.into_pattern_set(session.trace().symbols())
    }

    /// The string-keyed baseline miner: renders and hashes a canonical
    /// signature string per episode, exactly as the pre-interning
    /// implementation did. Serial only.
    ///
    /// Retained deliberately — equivalence tests assert the hash-consed
    /// pipeline ([`PatternSet::mine`] / [`PatternSet::mine_with_jobs`])
    /// produces byte-identical output to this baseline, and the benches
    /// measure the speedup against it.
    pub fn mine_reference(session: &AnalysisSession) -> PatternSet {
        let symbols = session.trace().symbols();
        let threshold = session.perceptible_threshold();
        let mut groups: HashMap<ShapeSignature, PatternAccum> = HashMap::new();
        let mut structureless = 0u64;
        for (idx, episode) in session.episodes().iter().enumerate() {
            if episode.is_structureless() {
                structureless += 1;
                continue;
            }
            let sig = ShapeSignature::of_tree(episode.tree(), symbols);
            let d = episode.duration();
            let single = PatternAccum {
                episodes: vec![idx],
                stats: LagStats {
                    count: 1,
                    min: d,
                    max: d,
                    total: d,
                },
                perceptible: u64::from(d >= threshold),
                gc_episode_count: u64::from(
                    episode
                        .tree()
                        .contains_kind(lagalyzer_model::IntervalKind::Gc),
                ),
                first_is_perceptible: d >= threshold,
                // The pre-interning code sized trees with a stack-based
                // pre-order walk per episode; keep that exact cost model
                // here (same value as `descendant_count`) so before/after
                // bench comparisons measure the real former hot path.
                tree_size: episode.tree().pre_order_from(episode.tree().root()).count() - 1,
                tree_depth: episode.tree().max_depth(),
            };
            match groups.entry(sig) {
                Entry::Vacant(v) => {
                    v.insert(single);
                }
                Entry::Occupied(mut o) => o.get_mut().absorb(single),
            }
        }
        let mut total_structured = 0u64;
        let mut patterns: Vec<Pattern> = groups
            .into_iter()
            .map(|(signature, accum)| {
                total_structured += accum.stats.count;
                accum.into_pattern(signature)
            })
            .collect();
        sort_patterns(&mut patterns);
        PatternSet {
            patterns,
            structureless,
            total_structured,
            salvaged: session.is_salvaged(),
        }
    }

    /// Patterns in descending episode-count order.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Number of distinct patterns (Table III "Dist").
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if the session had no structured episodes.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Number of episodes covered by patterns (Table III "#Eps").
    pub fn covered_episodes(&self) -> u64 {
        self.total_structured
    }

    /// True when any contributing session's trace was salvaged from a
    /// damaged file — the mined population may be incomplete.
    pub fn salvaged(&self) -> bool {
        self.salvaged
    }

    /// Number of structureless episodes excluded from mining.
    pub fn structureless_episodes(&self) -> u64 {
        self.structureless
    }

    /// Number of singleton patterns (Table III "One-Ep" numerator).
    pub fn singleton_count(&self) -> usize {
        self.patterns.iter().filter(|p| p.is_singleton()).count()
    }

    /// Fraction of patterns that are singletons.
    pub fn singleton_fraction(&self) -> f64 {
        if self.patterns.is_empty() {
            0.0
        } else {
            self.singleton_count() as f64 / self.patterns.len() as f64
        }
    }

    /// Mean dispatch-descendant count over patterns (Table III "Descs").
    pub fn mean_tree_size(&self) -> f64 {
        if self.patterns.is_empty() {
            return 0.0;
        }
        self.patterns
            .iter()
            .map(|p| p.tree_size as f64)
            .sum::<f64>()
            / self.patterns.len() as f64
    }

    /// Mean interval-tree depth over patterns (Table III "Depth").
    pub fn mean_tree_depth(&self) -> f64 {
        if self.patterns.is_empty() {
            return 0.0;
        }
        self.patterns
            .iter()
            .map(|p| f64::from(p.tree_depth))
            .sum::<f64>()
            / self.patterns.len() as f64
    }

    /// The Fig 3 curve: for each prefix of patterns (sorted by descending
    /// episode count), the fraction of patterns used (x) and the fraction
    /// of episodes covered (y), both in `[0, 1]`.
    pub fn cumulative_coverage(&self) -> Vec<(f64, f64)> {
        let n = self.patterns.len();
        let total = self.total_structured.max(1) as f64;
        let mut out = Vec::with_capacity(n);
        let mut cum = 0u64;
        for (i, p) in self.patterns.iter().enumerate() {
            cum += p.count();
            out.push(((i + 1) as f64 / n as f64, cum as f64 / total));
        }
        out
    }

    /// Convenience for the Pareto check: the episode coverage of the top
    /// `fraction` of patterns.
    pub fn coverage_of_top(&self, fraction: f64) -> f64 {
        let take = ((self.patterns.len() as f64) * fraction).ceil() as usize;
        let covered: u64 = self.patterns.iter().take(take).map(Pattern::count).sum();
        covered as f64 / self.total_structured.max(1) as f64
    }
}

/// The canonical pattern order: descending episode count, ties by
/// signature string.
fn sort_patterns(patterns: &mut [Pattern]) {
    patterns.sort_by(|a, b| {
        b.count()
            .cmp(&a.count())
            .then_with(|| a.signature.cmp(&b.signature))
    });
}

/// One episode's mining-relevant facts, lifted out of a persisted rollup
/// (see `lagalyzer_trace::rollup`) so [`PatternTable::scan_summaries`] can
/// mine patterns without decoding episode payloads. The token slice
/// borrows from the rollup's deduplicated shape table.
#[derive(Clone, Copy, Debug)]
pub struct SummarizedEpisode<'a> {
    /// True when the dispatch interval has no children; counted, never
    /// grouped.
    pub structureless: bool,
    /// True when the episode contains a GC bracket.
    pub has_gc: bool,
    /// Canonical shape token stream (as produced by
    /// [`write_shape_tokens`]).
    pub tokens: &'a [u8],
    /// `descendant_count(root)` of the episode's interval tree.
    pub tree_size: usize,
    /// `max_depth()` of the episode's interval tree.
    pub tree_depth: u32,
    /// Wall-clock duration of the episode.
    pub duration: DurationNs,
}

/// Per-shape accumulator inside a [`PatternTable`]. All fields are exact,
/// so two accumulators for the same shape merge without loss.
#[derive(Clone, Debug)]
struct PatternAccum {
    /// Member episode indices, ascending.
    episodes: Vec<usize>,
    stats: LagStats,
    perceptible: u64,
    gc_episode_count: u64,
    /// Metrics of the earliest-dispatched member episode seen so far.
    first_is_perceptible: bool,
    tree_size: usize,
    tree_depth: u32,
}

impl PatternAccum {
    /// An accumulator holding one episode.
    fn single(
        idx: usize,
        tree: &IntervalTree,
        d: DurationNs,
        threshold: DurationNs,
        has_gc: bool,
    ) -> PatternAccum {
        Self::single_metrics(
            idx,
            tree.descendant_count(tree.root()),
            tree.max_depth(),
            d,
            threshold,
            has_gc,
        )
    }

    /// As [`single`](Self::single), but with the representative tree
    /// metrics supplied directly — the warm path reads them from a
    /// persisted rollup instead of a decoded tree.
    fn single_metrics(
        idx: usize,
        tree_size: usize,
        tree_depth: u32,
        d: DurationNs,
        threshold: DurationNs,
        has_gc: bool,
    ) -> PatternAccum {
        PatternAccum {
            episodes: vec![idx],
            stats: LagStats {
                count: 1,
                min: d,
                max: d,
                total: d,
            },
            perceptible: u64::from(d >= threshold),
            gc_episode_count: u64::from(has_gc),
            first_is_perceptible: d >= threshold,
            tree_size,
            tree_depth,
        }
    }

    /// Adds one more member episode in place — the hot path. Representative
    /// tree metrics are only (re)computed in the rare case that `idx`
    /// precedes every member seen so far (chunks fed out of order).
    fn add_member(
        &mut self,
        idx: usize,
        tree: &IntervalTree,
        d: DurationNs,
        threshold: DurationNs,
        has_gc: bool,
    ) {
        if idx < self.episodes[0] {
            self.add_member_metrics(
                idx,
                tree.descendant_count(tree.root()),
                tree.max_depth(),
                d,
                threshold,
                has_gc,
            );
        } else {
            // Representative metrics are untouched on the hot path, so the
            // placeholder values are never read.
            self.add_member_metrics(idx, 0, 0, d, threshold, has_gc);
        }
    }

    /// As [`add_member`](Self::add_member), but with the candidate
    /// representative's tree metrics supplied directly (the warm path reads
    /// them from a persisted rollup). `tree_size`/`tree_depth` are only
    /// consulted when `idx` becomes the new representative.
    fn add_member_metrics(
        &mut self,
        idx: usize,
        tree_size: usize,
        tree_depth: u32,
        d: DurationNs,
        threshold: DurationNs,
        has_gc: bool,
    ) {
        let perceptible = d >= threshold;
        if idx < self.episodes[0] {
            self.first_is_perceptible = perceptible;
            self.tree_size = tree_size;
            self.tree_depth = tree_depth;
        }
        match self.episodes.last() {
            Some(&last) if last > idx => {
                let pos = self.episodes.partition_point(|&e| e < idx);
                self.episodes.insert(pos, idx);
            }
            _ => self.episodes.push(idx),
        }
        self.stats.count += 1;
        self.stats.min = self.stats.min.min(d);
        self.stats.max = self.stats.max.max(d);
        self.stats.total += d;
        self.perceptible += u64::from(perceptible);
        self.gc_episode_count += u64::from(has_gc);
    }

    /// Folds `other` into `self`; both must accumulate the same shape.
    fn absorb(&mut self, other: PatternAccum) {
        // The representative ("first") episode is the one with the lowest
        // index across both sides, which makes the merge order-independent.
        if other.episodes[0] < self.episodes[0] {
            self.first_is_perceptible = other.first_is_perceptible;
            self.tree_size = other.tree_size;
            self.tree_depth = other.tree_depth;
        }
        self.episodes = merge_sorted(std::mem::take(&mut self.episodes), other.episodes);
        self.stats.count += other.stats.count;
        self.stats.min = self.stats.min.min(other.stats.min);
        self.stats.max = self.stats.max.max(other.stats.max);
        self.stats.total += other.stats.total;
        self.perceptible += other.perceptible;
        self.gc_episode_count += other.gc_episode_count;
    }

    /// Finalizes the accumulator under its rendered signature.
    fn into_pattern(self, signature: ShapeSignature) -> Pattern {
        Pattern {
            signature,
            episodes: self.episodes,
            stats: self.stats,
            perceptible: self.perceptible,
            first_is_perceptible: self.first_is_perceptible,
            tree_size: self.tree_size,
            tree_depth: self.tree_depth,
            gc_episode_count: self.gc_episode_count,
        }
    }
}

/// Merges two ascending index lists into one. Shard ranges are contiguous,
/// so in-order merges hit the O(1)-dispatch append path; the general merge
/// keeps the table correct even when tables are merged out of order.
fn merge_sorted(mut a: Vec<usize>, mut b: Vec<usize>) -> Vec<usize> {
    if a.last() < b.first() {
        a.append(&mut b);
        return a;
    }
    if b.last() < a.first() {
        b.append(&mut a);
        return b;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(&x), Some(&y)) if x <= y => out.push(ai.next().unwrap()),
            (Some(_), Some(_)) => out.push(bi.next().unwrap()),
            (Some(_), None) => {
                out.extend(ai);
                return out;
            }
            (None, _) => {
                out.extend(bi);
                return out;
            }
        }
    }
}

/// A mergeable, shard-local pattern table — the accumulation half of
/// pattern mining.
///
/// One table holds a [`ShapeInterner`] plus per-shape lag statistics,
/// membership lists and representative-episode metrics for a contiguous
/// slice of a session's episodes; accumulators are indexed directly by
/// the interner's dense [`ShapeId`]s. Tables from different shards merge
/// exactly (integer sums, minima, maxima; see [`PatternTable::merge`]),
/// and [`PatternTable::into_pattern_set`] finalizes the merged table into
/// the same [`PatternSet`] a serial scan produces. This is the primitive
/// the parallel pipeline (see [`crate::parallel`]) is built on, and it
/// also supports incremental use: chunks of episodes can be fed to
/// [`PatternTable::scan_episodes`] while a codec is still streaming the
/// rest of the trace.
///
/// Shape ids are table-local: tables may only be merged when their
/// episodes share one symbol-id assignment (shards of the same session).
/// Cross-session aggregation goes through the canonical signature
/// strings instead (see [`crate::multi`]).
#[derive(Clone, Debug, Default)]
pub struct PatternTable {
    interner: ShapeInterner,
    /// Accumulators indexed by [`ShapeId`].
    groups: Vec<PatternAccum>,
    structureless: u64,
    salvaged: bool,
    /// Reused token buffer: the scan loop allocates nothing per episode.
    scratch: Vec<u8>,
}

impl PatternTable {
    /// An empty table (the merge identity).
    pub fn new() -> PatternTable {
        PatternTable::default()
    }

    /// Scans one shard of `session`'s episodes into a fresh table.
    pub fn scan(session: &AnalysisSession, range: std::ops::Range<usize>) -> PatternTable {
        let mut table = PatternTable::new();
        if session.is_salvaged() {
            table.mark_salvaged();
        }
        table.scan_episodes(
            &session.episodes()[range.clone()],
            range.start,
            session.perceptible_threshold(),
        );
        table
    }

    /// Accumulates `episodes` (whose session-wide indices start at
    /// `base_index`) into the table. Chunks must not overlap and must come
    /// from the same session (shape ids are only comparable under one
    /// symbol assignment); feeding them in ascending index order keeps the
    /// per-shape membership lists on the cheap append path, but any order
    /// produces the same table.
    pub fn scan_episodes(
        &mut self,
        episodes: &[Episode],
        base_index: usize,
        threshold: DurationNs,
    ) {
        for (offset, episode) in episodes.iter().enumerate() {
            let idx = base_index + offset;
            if episode.is_structureless() {
                self.structureless += 1;
                continue;
            }
            let tree = episode.tree();
            self.scratch.clear();
            let has_gc = write_shape_tokens(tree, &mut self.scratch);
            let (id, fresh) = self.interner.intern(&self.scratch);
            let d = episode.duration();
            if fresh {
                debug_assert_eq!(id.index(), self.groups.len(), "interner ids must be dense");
                self.groups
                    .push(PatternAccum::single(idx, tree, d, threshold, has_gc));
            } else {
                self.groups[id.index()].add_member(idx, tree, d, threshold, has_gc);
            }
        }
    }

    /// Accumulates pre-summarized episodes (whose session-wide indices
    /// start at `base_index`) into the table, without ever touching a
    /// decoded tree: the shape token stream and representative tree
    /// metrics come from a persisted rollup. The resulting table is
    /// identical to the one [`PatternTable::scan_episodes`] builds over
    /// the decoded episodes the summaries were computed from.
    pub fn scan_summaries(
        &mut self,
        episodes: &[SummarizedEpisode<'_>],
        base_index: usize,
        threshold: DurationNs,
    ) {
        for (offset, episode) in episodes.iter().enumerate() {
            let idx = base_index + offset;
            if episode.structureless {
                self.structureless += 1;
                continue;
            }
            let (id, fresh) = self.interner.intern(episode.tokens);
            if fresh {
                debug_assert_eq!(id.index(), self.groups.len(), "interner ids must be dense");
                self.groups.push(PatternAccum::single_metrics(
                    idx,
                    episode.tree_size,
                    episode.tree_depth,
                    episode.duration,
                    threshold,
                    episode.has_gc,
                ));
            } else {
                self.groups[id.index()].add_member_metrics(
                    idx,
                    episode.tree_size,
                    episode.tree_depth,
                    episode.duration,
                    threshold,
                    episode.has_gc,
                );
            }
        }
    }

    /// Flags the table as derived from a salvaged trace. The flag is
    /// sticky: it survives [`PatternTable::merge`] (logical OR) and is
    /// carried into the finished [`PatternSet`].
    pub fn mark_salvaged(&mut self) {
        self.salvaged = true;
    }

    /// True when any scanned session was salvaged.
    pub fn salvaged(&self) -> bool {
        self.salvaged
    }

    /// The table's shape interner (one entry per distinct signature).
    pub fn shape_interner(&self) -> &ShapeInterner {
        &self.interner
    }

    /// Folds another shard's table into this one by remapping each of
    /// `other`'s dense [`ShapeId`]s into this table's interner (a token
    /// lookup, never a string). The merge is exact and order-independent,
    /// which is what makes the parallel pipeline byte-identical to the
    /// serial scan. Both tables must have scanned episodes of the same
    /// session (see the type-level note on symbol assignments).
    pub fn merge(&mut self, other: PatternTable) {
        let PatternTable {
            interner,
            groups,
            structureless,
            salvaged,
            scratch: _,
        } = other;
        self.salvaged |= salvaged;
        self.structureless += structureless;
        for (index, accum) in groups.into_iter().enumerate() {
            let tokens = interner.tokens(ShapeId::from_index(index));
            let (id, fresh) = self.interner.intern(tokens);
            if fresh {
                debug_assert_eq!(id.index(), self.groups.len(), "interner ids must be dense");
                self.groups.push(accum);
            } else {
                self.groups[id.index()].absorb(accum);
            }
        }
    }

    /// Number of structureless episodes seen so far.
    pub fn structureless_episodes(&self) -> u64 {
        self.structureless
    }

    /// Number of distinct signatures accumulated so far.
    pub fn distinct_signatures(&self) -> usize {
        self.groups.len()
    }

    /// Finalizes the table into a [`PatternSet`]: renders each shape's
    /// canonical signature string *once* (this is the only place mining
    /// resolves symbol names — `symbols` must be the table the scanned
    /// episodes were recorded against), materializes one [`Pattern`] per
    /// shape and applies the canonical sort (descending episode count,
    /// ties by signature).
    pub fn into_pattern_set(self, symbols: &SymbolTable) -> PatternSet {
        let mut total_structured = 0u64;
        let interner = self.interner;
        let mut patterns: Vec<Pattern> = self
            .groups
            .into_iter()
            .enumerate()
            .map(|(index, accum)| {
                total_structured += accum.stats.count;
                let signature = interner.render(ShapeId::from_index(index), symbols);
                accum.into_pattern(signature)
            })
            .collect();
        sort_patterns(&mut patterns);
        PatternSet {
            patterns,
            structureless: self.structureless,
            total_structured,
            salvaged: self.salvaged,
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

    /// Builds a trace with `specs`: each entry is (symbol name, duration
    /// ms, include GC child).
    fn trace_with(specs: &[(&str, u64, bool)]) -> AnalysisSession {
        let meta = SessionMeta {
            application: "P".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(100),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let mut cursor = 0u64;
        for (i, (name, dur, gc)) in specs.iter().enumerate() {
            let mut t = IntervalTreeBuilder::new();
            t.enter(IntervalKind::Dispatch, None, ms(cursor)).unwrap();
            if !name.is_empty() {
                let m = b.symbols_mut().method(name, "run");
                t.enter(IntervalKind::Listener, Some(m), ms(cursor + 1))
                    .unwrap();
                if *gc {
                    t.leaf(IntervalKind::Gc, None, ms(cursor + 2), ms(cursor + 3))
                        .unwrap();
                }
                t.exit(ms(cursor + dur - 1)).unwrap();
            }
            t.exit(ms(cursor + dur)).unwrap();
            b.push_episode(
                EpisodeBuilder::new(EpisodeId::from_raw(i as u32), ThreadId::from_raw(0))
                    .tree(t.finish().unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
            cursor += dur + 10;
        }
        AnalysisSession::new(b.finish(), AnalysisConfig::default())
    }

    #[test]
    fn equivalent_episodes_group() {
        let s = trace_with(&[("a.A", 50, false), ("a.A", 200, false), ("b.B", 50, false)]);
        let set = s.mine_patterns();
        assert_eq!(set.len(), 2);
        assert_eq!(set.covered_episodes(), 3);
        // Sorted by count: a.A pattern (2 episodes) first.
        assert_eq!(set.patterns()[0].count(), 2);
        assert_eq!(set.patterns()[1].count(), 1);
        assert!(set.patterns()[1].is_singleton());
    }

    #[test]
    fn gc_exclusion_merges_variants() {
        let s = trace_with(&[("a.A", 50, false), ("a.A", 60, true)]);
        let set = s.mine_patterns();
        assert_eq!(set.len(), 1, "GC child must not split the pattern");
        assert_eq!(set.patterns()[0].gc_episode_count(), 1);
    }

    #[test]
    fn structureless_episodes_excluded() {
        let s = trace_with(&[("", 50, false), ("a.A", 60, false), ("", 200, false)]);
        let set = s.mine_patterns();
        assert_eq!(set.len(), 1);
        assert_eq!(set.covered_episodes(), 1);
        assert_eq!(set.structureless_episodes(), 2);
    }

    #[test]
    fn lag_stats_computed() {
        let s = trace_with(&[("a.A", 50, false), ("a.A", 150, false), ("a.A", 100, false)]);
        let set = s.mine_patterns();
        let p = &set.patterns()[0];
        assert_eq!(p.count(), 3);
        assert_eq!(p.stats().min, DurationNs::from_millis(50));
        assert_eq!(p.stats().max, DurationNs::from_millis(150));
        assert_eq!(p.stats().total, DurationNs::from_millis(300));
        assert_eq!(p.stats().mean(), DurationNs::from_millis(100));
        assert_eq!(p.perceptible_count(), 2);
    }

    #[test]
    fn first_is_perceptible_flag() {
        let slow_first = trace_with(&[("a.A", 200, false), ("a.A", 50, false)]);
        assert!(slow_first.mine_patterns().patterns()[0].first_is_perceptible());
        let fast_first = trace_with(&[("a.A", 50, false), ("a.A", 200, false)]);
        assert!(!fast_first.mine_patterns().patterns()[0].first_is_perceptible());
    }

    #[test]
    fn partition_property() {
        let s = trace_with(&[
            ("a.A", 50, false),
            ("b.B", 60, false),
            ("a.A", 70, false),
            ("c.C", 80, false),
            ("", 90, false),
        ]);
        let set = s.mine_patterns();
        let sum: u64 = set.patterns().iter().map(Pattern::count).sum();
        assert_eq!(sum, set.covered_episodes());
        assert_eq!(
            set.covered_episodes() + set.structureless_episodes(),
            s.episodes().len() as u64
        );
        // Every structured episode appears in exactly one pattern.
        let mut seen = std::collections::HashSet::new();
        for p in set.patterns() {
            for &idx in p.episode_indices() {
                assert!(seen.insert(idx), "episode {idx} in two patterns");
            }
        }
    }

    #[test]
    fn cumulative_coverage_monotone_and_complete() {
        let s = trace_with(&[
            ("a.A", 10, false),
            ("a.A", 11, false),
            ("a.A", 12, false),
            ("b.B", 13, false),
            ("c.C", 14, false),
        ]);
        let curve = s.mine_patterns().cumulative_coverage();
        assert_eq!(curve.len(), 3);
        for w in curve.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        let last = curve.last().unwrap();
        assert!((last.0 - 1.0).abs() < 1e-12);
        assert!((last.1 - 1.0).abs() < 1e-12);
        // Top pattern covers 3/5 of episodes.
        assert!((curve[0].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn coverage_of_top_fraction() {
        let s = trace_with(&[
            ("a.A", 10, false),
            ("a.A", 11, false),
            ("a.A", 12, false),
            ("b.B", 13, false),
        ]);
        let set = s.mine_patterns();
        // Top 50% of 2 patterns = 1 pattern = 3 of 4 episodes.
        assert!((set.coverage_of_top(0.5) - 0.75).abs() < 1e-12);
        assert!((set.coverage_of_top(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_session_mines_empty_set() {
        let s = trace_with(&[]);
        let set = s.mine_patterns();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert_eq!(set.singleton_fraction(), 0.0);
        assert_eq!(set.mean_tree_size(), 0.0);
        assert!(set.cumulative_coverage().is_empty());
    }

    #[test]
    fn tree_metrics_recorded() {
        let s = trace_with(&[("a.A", 50, false)]);
        let set = s.mine_patterns();
        let p = &set.patterns()[0];
        assert_eq!(p.tree_size(), 1);
        assert_eq!(p.tree_depth(), 1);
        assert!((set.mean_tree_size() - 1.0).abs() < 1e-12);
        assert!((set.mean_tree_depth() - 1.0).abs() < 1e-12);
    }

    /// Field-by-field equality of two pattern sets (no `PartialEq` on
    /// `PatternSet`: episode indices make derive-equality too strict for
    /// public API, but tests want exactly that).
    fn assert_sets_identical(a: &PatternSet, b: &PatternSet) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.structureless_episodes(), b.structureless_episodes());
        assert_eq!(a.covered_episodes(), b.covered_episodes());
        for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
            assert_eq!(pa.signature(), pb.signature());
            assert_eq!(pa.episode_indices(), pb.episode_indices());
            assert_eq!(pa.stats(), pb.stats());
            assert_eq!(pa.perceptible_count(), pb.perceptible_count());
            assert_eq!(pa.gc_episode_count(), pb.gc_episode_count());
            assert_eq!(pa.first_is_perceptible(), pb.first_is_perceptible());
            assert_eq!(pa.tree_size(), pb.tree_size());
            assert_eq!(pa.tree_depth(), pb.tree_depth());
        }
    }

    #[test]
    fn parallel_mining_matches_serial() {
        let s = trace_with(&[
            ("a.A", 50, false),
            ("b.B", 160, false),
            ("a.A", 70, true),
            ("", 90, false),
            ("c.C", 80, false),
            ("b.B", 20, false),
            ("a.A", 110, false),
        ]);
        let serial = s.mine_patterns();
        for jobs in [1usize, 2, 3, 8] {
            let parallel = PatternSet::mine_with_jobs(&s, jobs);
            assert_sets_identical(&serial, &parallel);
        }
    }

    #[test]
    fn interned_mining_matches_string_keyed_reference() {
        let s = trace_with(&[
            ("a.A", 50, false),
            ("b.B", 160, false),
            ("a.A", 70, true),
            ("", 90, false),
            ("c.C", 80, false),
            ("b.B", 20, true),
            ("a.A", 110, false),
        ]);
        let reference = PatternSet::mine_reference(&s);
        assert_sets_identical(&reference, &s.mine_patterns());
        for jobs in [2usize, 5] {
            assert_sets_identical(&reference, &PatternSet::mine_with_jobs(&s, jobs));
        }
    }

    #[test]
    fn table_merge_is_order_independent() {
        let s = trace_with(&[
            ("a.A", 50, false),
            ("b.B", 160, false),
            ("a.A", 70, false),
            ("b.B", 20, false),
            ("a.A", 110, false),
        ]);
        let symbols = s.trace().symbols();
        let shard = |r: std::ops::Range<usize>| PatternTable::scan(&s, r);
        let mut forward = shard(0..2);
        forward.merge(shard(2..4));
        forward.merge(shard(4..5));
        let mut backward = shard(4..5);
        backward.merge(shard(2..4));
        backward.merge(shard(0..2));
        assert_eq!(
            forward.distinct_signatures(),
            backward.distinct_signatures()
        );
        assert_sets_identical(
            &forward.into_pattern_set(symbols),
            &backward.into_pattern_set(symbols),
        );
    }

    #[test]
    fn incremental_chunks_match_whole_scan() {
        let s = trace_with(&[
            ("a.A", 50, false),
            ("b.B", 160, false),
            ("a.A", 70, false),
            ("c.C", 80, false),
        ]);
        let symbols = s.trace().symbols();
        let threshold = s.perceptible_threshold();
        let mut chunked = PatternTable::new();
        for (start, end) in [(0usize, 1usize), (1, 3), (3, 4)] {
            chunked.scan_episodes(&s.episodes()[start..end], start, threshold);
        }
        assert_sets_identical(
            &chunked.into_pattern_set(symbols),
            &PatternTable::scan(&s, 0..4).into_pattern_set(symbols),
        );
    }

    #[test]
    fn out_of_order_chunks_match_whole_scan() {
        // Feeding later episodes first exercises the representative
        // take-over path in `PatternAccum::add_member`.
        let s = trace_with(&[
            ("a.A", 150, false),
            ("b.B", 60, false),
            ("a.A", 70, true),
            ("b.B", 200, false),
        ]);
        let symbols = s.trace().symbols();
        let threshold = s.perceptible_threshold();
        let mut reversed = PatternTable::new();
        for (start, end) in [(2usize, 4usize), (0, 2)] {
            reversed.scan_episodes(&s.episodes()[start..end], start, threshold);
        }
        assert_sets_identical(
            &reversed.into_pattern_set(symbols),
            &PatternTable::scan(&s, 0..4).into_pattern_set(symbols),
        );
    }

    #[test]
    fn salvaged_flag_survives_scan_and_merge() {
        let clean = trace_with(&[("a.A", 50, false), ("b.B", 60, false)]);
        assert!(!clean.mine_patterns().salvaged());
        let salvaged = crate::session::AnalysisSession::with_provenance(
            clean.trace().clone(),
            AnalysisConfig::default(),
            crate::session::Provenance::Salvaged {
                skips: 1,
                episodes_lost: 0,
            },
        );
        assert!(salvaged.mine_patterns().salvaged());
        assert!(PatternSet::mine_with_jobs(&salvaged, 4).salvaged());
        // Merging a salvaged table into a clean one taints the result.
        let mut merged = PatternTable::scan(&clean, 0..2);
        merged.merge(PatternTable::scan(&salvaged, 0..2));
        assert!(merged.salvaged());
        assert!(merged.into_pattern_set(clean.trace().symbols()).salvaged());
    }

    #[test]
    fn mining_is_deterministic() {
        let s = trace_with(&[
            ("a.A", 50, false),
            ("b.B", 60, false),
            ("c.C", 70, false),
            ("b.B", 80, false),
        ]);
        // The uncached miner both times: the session memo would hand back
        // the first result and compare it with itself.
        let a = PatternSet::mine(&s);
        let b = PatternSet::mine(&s);
        let sig_a: Vec<&str> = a
            .patterns()
            .iter()
            .map(|p| p.signature().as_str())
            .collect();
        let sig_b: Vec<&str> = b
            .patterns()
            .iter()
            .map(|p| p.signature().as_str())
            .collect();
        assert_eq!(sig_a, sig_b);
    }
}
