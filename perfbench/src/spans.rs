//! Span tracing from the benchmark's own code.
//!
//! Every call into a layer's public API is wrapped in a named span; spans
//! nest when a layer call runs inside another one (the warm outlier pass
//! calls back into the subset decoder, for example). Spans and counters
//! are kept in memory and folded into per-layer rows when the run ends.
//! A disabled tracer calls straight through and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span: a layer call with its interval on the run's clock.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    failed: bool,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

/// Collects spans and counters for one traced run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    state: RefCell<State>,
}

/// The per-layer fold of every span sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Row {
    /// Calls made into the layer.
    pub calls: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records nothing and adds no timing calls.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            state: RefCell::default(),
        }
    }

    /// `true` when spans and counters are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let index = self.enter(name);
        let out = f();
        self.exit(index, false);
        out
    }

    /// Like [`Tracer::span`], counting an `Err` against the layer.
    pub fn try_span<T, E>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        if !self.on {
            return f();
        }
        let index = self.enter(name);
        let out = f();
        self.exit(index, out.is_err());
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&self, name: &'static str, n: u64) {
        if self.on {
            *self.state.borrow_mut().counters.entry(name).or_default() += n;
        }
    }

    fn enter(&self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        let parent = state.open.last().copied();
        let index = state.spans.len();
        state.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            failed: false,
        });
        state.open.push(index);
        index
    }

    fn exit(&self, index: usize, failed: bool) {
        let end_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        let closed = state.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
        let span = &mut state.spans[index];
        span.end_ns = end_ns;
        span.failed = failed;
    }

    /// Counter values recorded so far.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.state.borrow().counters.clone()
    }

    /// Folds every closed span into one row per layer name.
    pub fn rows(&self) -> BTreeMap<&'static str, Row> {
        let state = self.state.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); state.spans.len()];
        for span in &state.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (span, kids) in state.spans.iter().zip(&children) {
            let row = rows.entry(span.name).or_default();
            row.calls += 1;
            row.errors += u64::from(span.failed);
            row.total_ns += span.end_ns - span.start_ns;
            row.self_ns += self_time_ns((span.start_ns, span.end_ns), kids);
        }
        rows
    }

    /// Time inside `[from, to)` that no top-level span covers: the glue
    /// between layer calls.
    pub fn glue_ns(&self, from: u64, to: u64) -> u64 {
        let state = self.state.borrow();
        let roots: Vec<(u64, u64)> = state
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self_time_ns((from, to), &roots)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// the child intervals cover. Children may overlap one another (their
/// union is counted once) and may reach outside the span (only the part
/// inside counts).
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    if end <= start {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns((10, 50), &[]), 40);
        assert_eq!(self_time_ns((50, 50), &[]), 0);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Union of [10,40) and [30,60) is 50 long.
        assert_eq!(self_time_ns((0, 100), &[(30, 60), (10, 40)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time_ns((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_span() {
        assert_eq!(self_time_ns((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time_ns((10, 20), &[(30, 40)]), 10);
        assert_eq!(self_time_ns((10, 20), &[(0, 100)]), 0);
    }

    #[test]
    fn nested_spans_fold_into_rows_with_self_time() {
        let tracer = Tracer::on();
        let value = tracer.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(3));
            });
            7
        });
        assert_eq!(value, 7);
        let failed: Result<(), &str> = tracer.try_span("inner", || Err("boom"));
        assert!(failed.is_err());
        let rows = tracer.rows();
        let outer = rows["outer"];
        let inner = rows["inner"];
        assert_eq!((outer.calls, outer.errors), (1, 0));
        assert_eq!((inner.calls, inner.errors), (2, 1));
        assert_eq!(inner.self_ns, inner.total_ns);
        // The outer span's self time excludes exactly the nested call.
        assert!(outer.total_ns >= outer.self_ns + 3_000_000);
        assert!(outer.self_ns >= 2_000_000);
        // Glue is the part of the run outside the two root spans.
        let end = tracer.now_ns();
        assert!(tracer.glue_ns(0, end) <= end - outer.total_ns);
        assert_eq!(tracer.glue_ns(0, 0), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        tracer.span("x", || ());
        tracer.add("c", 3);
        assert!(tracer.rows().is_empty());
        assert!(tracer.counters().is_empty());
    }
}
