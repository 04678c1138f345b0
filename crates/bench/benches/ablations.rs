//! Ablation benches for the design choices called out in DESIGN.md.
//!
//! * `gc_exclusion`: mining with the paper's GC-excluding signature vs a
//!   variant that keeps GC nodes in the signature (how much pattern-count
//!   inflation and time the exclusion saves/costs);
//! * `signature_representation`: canonical-string signatures vs hashing
//!   the structure directly (strings are kept because they make patterns
//!   stable across sessions and debuggable; this measures their cost);
//! * `timing_buckets`: structure-only equivalence vs structure plus
//!   duration-bucket keys (what the paper deliberately avoids).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lagalyzer_core::prelude::*;
use lagalyzer_model::{Episode, IntervalKind, IntervalTree, NodeId, SymbolTable};
use lagalyzer_sim::{apps, runner};

/// A signature variant that *keeps* GC nodes (ablation of §II-D).
fn signature_with_gc(tree: &IntervalTree, symbols: &SymbolTable) -> String {
    fn walk(tree: &IntervalTree, id: NodeId, symbols: &SymbolTable, out: &mut String) {
        let interval = tree.interval(id);
        out.push(interval.kind.tag() as char);
        if let Some(sym) = interval.symbol {
            out.push('(');
            out.push_str(symbols.resolve(sym.class).unwrap_or("?"));
            out.push('.');
            out.push_str(symbols.resolve(sym.method).unwrap_or("?"));
            out.push(')');
        }
        let children = tree.children(id);
        if !children.is_empty() {
            out.push('[');
            for &c in children {
                walk(tree, c, symbols, out);
            }
            out.push(']');
        }
    }
    let mut out = String::new();
    walk(tree, tree.root(), symbols, &mut out);
    out
}

/// A hash-only signature (no canonical string).
fn signature_hash(tree: &IntervalTree, symbols: &SymbolTable) -> u64 {
    fn walk(tree: &IntervalTree, id: NodeId, symbols: &SymbolTable, h: &mut DefaultHasher) {
        let interval = tree.interval(id);
        if interval.kind == IntervalKind::Gc {
            return;
        }
        interval.kind.tag().hash(h);
        if let Some(sym) = interval.symbol {
            symbols.resolve(sym.class).hash(h);
            symbols.resolve(sym.method).hash(h);
        }
        0xfeu8.hash(h);
        for &c in tree.children(id) {
            walk(tree, c, symbols, h);
        }
        0xffu8.hash(h);
    }
    let mut h = DefaultHasher::new();
    walk(tree, tree.root(), symbols, &mut h);
    h.finish()
}

/// Coarse duration bucket (powers of ~4 of milliseconds).
fn duration_bucket(e: &Episode) -> u32 {
    let ms = e.duration().as_millis().max(1);
    (64 - u64::leading_zeros(ms) as u64) as u32 / 2
}

fn bench_ablations(c: &mut Criterion) {
    let session = AnalysisSession::new(
        runner::simulate_session(&apps::argo_uml(), 0, 42),
        AnalysisConfig::default(),
    );
    let symbols = session.trace().symbols();
    let episodes: Vec<&Episode> = session
        .episodes()
        .iter()
        .filter(|e| !e.is_structureless())
        .collect();

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    group.bench_function("mining_gc_excluded_paper", |b| {
        b.iter(|| PatternSet::mine(&session).len());
    });
    group.bench_function("mining_gc_included_variant", |b| {
        b.iter(|| {
            let mut groups: HashMap<String, u64> = HashMap::new();
            for e in &episodes {
                *groups
                    .entry(signature_with_gc(e.tree(), symbols))
                    .or_default() += 1;
            }
            groups.len()
        });
    });
    group.bench_function("signature_strings", |b| {
        b.iter(|| {
            for e in &episodes {
                black_box(ShapeSignature::of_tree(e.tree(), symbols));
            }
        });
    });
    group.bench_function("signature_hash_only", |b| {
        b.iter(|| {
            for e in &episodes {
                black_box(signature_hash(e.tree(), symbols));
            }
        });
    });
    group.bench_function("timing_buckets_variant", |b| {
        b.iter(|| {
            let mut groups: HashMap<(String, u32), u64> = HashMap::new();
            for e in &episodes {
                let key = (
                    ShapeSignature::of_tree(e.tree(), symbols)
                        .as_str()
                        .to_owned(),
                    duration_bucket(e),
                );
                *groups.entry(key).or_default() += 1;
            }
            groups.len()
        });
    });
    group.finish();

    // Report the pattern-count effect of the ablations once.
    let paper = session.patterns().len();
    let mut with_gc: HashMap<String, u64> = HashMap::new();
    let mut with_time: HashMap<(String, u32), u64> = HashMap::new();
    for e in &episodes {
        *with_gc
            .entry(signature_with_gc(e.tree(), symbols))
            .or_default() += 1;
        let key = (
            ShapeSignature::of_tree(e.tree(), symbols)
                .as_str()
                .to_owned(),
            duration_bucket(e),
        );
        *with_time.entry(key).or_default() += 1;
    }
    eprintln!(
        "pattern counts — paper signature: {paper}; GC included: {}; timing buckets: {}",
        with_gc.len(),
        with_time.len()
    );
}

criterion_group!(benches, bench_ablations, bench_tree_storage);
criterion_main!(benches);

/// Tree-storage ablation: the arena layout used by `IntervalTree` vs a
/// boxed-node tree, compared on full pre-order traversal (the access
/// pattern every analysis uses).
mod tree_storage {
    use lagalyzer_model::{Interval, IntervalTree, NodeId};

    /// The boxed alternative a naive implementation would use. The
    /// per-child `Box` is the whole point of the ablation (pointer-chasing
    /// vs the arena's contiguous layout), so the `vec_box` lint is
    /// silenced deliberately.
    #[allow(clippy::vec_box)]
    pub struct BoxedNode {
        pub interval: Interval,
        pub children: Vec<Box<BoxedNode>>,
    }

    pub fn to_boxed(tree: &IntervalTree, id: NodeId) -> Box<BoxedNode> {
        Box::new(BoxedNode {
            interval: *tree.interval(id),
            children: tree
                .children(id)
                .iter()
                .map(|&c| to_boxed(tree, c))
                .collect(),
        })
    }

    pub fn boxed_pre_order_sum(node: &BoxedNode) -> u64 {
        let mut sum = node.interval.duration().as_nanos();
        for c in &node.children {
            sum += boxed_pre_order_sum(c);
        }
        sum
    }
}

fn bench_tree_storage(c: &mut Criterion) {
    use lagalyzer_sim::scenarios;
    let scenario = scenarios::figure2(); // the deep GanttProject tree
    let tree = scenario.episode.tree();
    let boxed = tree_storage::to_boxed(tree, tree.root());

    let mut group = c.benchmark_group("tree_storage");
    group.bench_function("arena_pre_order", |b| {
        b.iter(|| {
            black_box(&tree)
                .pre_order()
                .map(|id| tree.interval(id).duration().as_nanos())
                .sum::<u64>()
        });
    });
    group.bench_function("boxed_pre_order", |b| {
        b.iter(|| tree_storage::boxed_pre_order_sum(black_box(&boxed)));
    });
    group.finish();
}
