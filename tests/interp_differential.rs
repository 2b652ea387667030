//! Differential test of the lowered executor behind `Machine::run`
//! against the reference tree walker (`tests/support/tree_walker.rs`):
//! identical packed traces and batch boundaries, `ExecSummary`,
//! bit-identical final arrays and identical `ExecError`s, over the
//! verify corpus and its compound results, the paper kernels, the six
//! matmul orders and every suite model.
//!
//! `n = 1` is below every generated program's and kernel's intended
//! size, so it exercises empty ranges and out-of-bounds errors; the
//! larger sizes exercise the bounds-proven innermost loops.

#[path = "support/tree_walker.rs"]
mod tree_walker;

use cmt_locality_repro::interp::Machine;
use cmt_locality_repro::ir::program::Program;
use cmt_locality_repro::locality::compound::compound;
use cmt_locality_repro::locality::model::CostModel;
use cmt_locality_repro::suite::kernels::{matmul_orders, paper_kernels};
use cmt_locality_repro::suite::suite;
use cmt_locality_repro::verify::{corpus_seeds, generate};
use tree_walker::assert_same;

const SIZES: [i64; 3] = [1, 5, 9];

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
