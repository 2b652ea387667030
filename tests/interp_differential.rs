//! Differential test of the lowered executor behind `Machine::run`
//! against the reference tree walker (`tests/support/tree_walker.rs`):
//! identical packed traces and batch boundaries, `ExecSummary`,
//! bit-identical final arrays and identical `ExecError`s, over the
//! verify corpus and its compound results, the paper kernels, the six
//! matmul orders and every suite model.
//!
//! `n = 1` is below every generated program's and kernel's intended
//! size, so it exercises empty ranges and out-of-bounds errors; the
//! larger sizes exercise the bounds-proven innermost loops. Every run
//! also goes through `Layout::trace`, which must give the same trace,
//! batches, summary and error.
//!
//! A last test samples the kernels and the corpus at the profiler's
//! size and policy: `Layout::trace` skipping what the sampler drops
//! must leave the sampler and its cache exactly as the full trace does.

#[path = "support/tree_walker.rs"]
mod tree_walker;

use cmt_locality_repro::cache::{CacheConfig, ShardedCache};
use cmt_locality_repro::interp::Machine;
use cmt_locality_repro::interp::{CacheSink, Layout, SampledSink};
use cmt_locality_repro::ir::program::Program;
use cmt_locality_repro::locality::compound::compound;
use cmt_locality_repro::locality::model::CostModel;
use cmt_locality_repro::suite::kernels::{matmul_orders, paper_kernels};
use cmt_locality_repro::suite::suite;
use cmt_locality_repro::verify::{corpus_seeds, generate};
use tree_walker::assert_same;

const SIZES: [i64; 3] = [1, 5, 9];

/// The size the sampled runs use: large enough for many windows, small
/// enough to run every corpus seed in full.
const SAMPLED_N: i64 = 16;

/// Successful and failed runs compared.
#[derive(Default)]
struct Tally {
    ok: usize,
    failed: usize,
}

impl Tally {
    /// Compares both executors on `program` at every size the layout
    /// admits.
    fn check(&mut self, label: &str, program: &Program) {
        for n in SIZES {
            let Ok(m) = Machine::new(program, &vec![n; program.params().len()]) else {
                continue;
            };
            match assert_same(&format!("{label} n={n}"), program, &m).result {
                Ok(_) => self.ok += 1,
                Err(_) => self.failed += 1,
            }
        }
    }
}

#[test]
fn corpus_seeds_and_their_compound_results() {
    let model = CostModel::new(4);
    let mut tally = Tally::default();
    for seed in corpus_seeds() {
        let original = generate(seed);
        let mut transformed = original.clone();
        let _ = compound(&mut transformed, &model);
        tally.check(&format!("seed {seed}"), &original);
        tally.check(&format!("seed {seed} compound"), &transformed);
    }
    // Both the proven fast path and the error paths were exercised.
    assert!(tally.ok > 1000, "{} successful runs", tally.ok);
    assert!(tally.failed > 0, "no run reached an error path");
}

#[test]
fn paper_kernels_and_matmul_orders() {
    let mut tally = Tally::default();
    for p in paper_kernels() {
        tally.check(p.name(), &p);
    }
    for (order, p) in matmul_orders() {
        tally.check(&format!("matmul {order}"), &p);
    }
    assert!(tally.ok >= 2 * 20, "{} successful runs", tally.ok);
}

#[test]
fn suite_models_optimized_and_rest() {
    let mut tally = Tally::default();
    for model in suite() {
        tally.check(&format!("{} optimized", model.spec.name), &model.optimized);
        tally.check(&format!("{} rest", model.spec.name), &model.rest);
    }
    assert!(tally.ok > 0);
}

/// A sampler over an attributed, snapshotting i860 cache, as the
/// profiler builds it.
fn sampler(layout: &Layout, program: &Program, seed: u64) -> SampledSink<ShardedCache> {
    let mut cache = ShardedCache::new(CacheConfig::i860()).with_interval(256);
    for (name, start, bytes) in layout.regions(program) {
        cache.register_region(name, start, bytes);
    }
    SampledSink::every_kth(cache, 256, 16, seed)
}

/// Everything a sampled run leaves in its sampler and cache.
fn sampled_state(mut s: SampledSink<ShardedCache>) -> String {
    let counts = (
        s.loads_seen,
        s.stores_seen,
        s.sampled,
        s.windows_total(),
        s.windows_sampled(),
    );
    s.inner.flush_window();
    format!(
        "{counts:?} {:?} {:?} {:?}",
        s.inner.stats(),
        s.inner.per_array(),
        s.inner.snapshots()
    )
}

#[test]
fn sampled_traces_skip_only_what_the_sampler_drops() {
    let mut programs = paper_kernels();
    programs.extend(corpus_seeds().into_iter().map(generate));
    let (mut seen, mut sampled) = (0, 0);
    for (k, program) in programs.iter().enumerate() {
        let params = vec![SAMPLED_N; program.params().len()];
        let layout = Layout::new(program, &params).expect("layout");
        let seed = k as u64;
        // The full trace: `CacheSink` keeps the default `dropped_span`,
        // so nothing is skipped.
        let mut want = sampler(&layout, program, seed);
        let want_result = layout.trace(program, &mut CacheSink(&mut want));
        let mut got = sampler(&layout, program, seed);
        let result = layout.trace(program, &mut got);
        assert_eq!(result, want_result, "{}", program.name());
        seen += got.accesses_seen();
        sampled += got.sampled;
        assert_eq!(
            sampled_state(got),
            sampled_state(want),
            "{}",
            program.name()
        );
    }
    assert!(sampled * 8 < seen, "{sampled} of {seen} accesses sampled");
}
