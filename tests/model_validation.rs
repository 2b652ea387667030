//! Validation of the cost model against simulation — the experiment
//! behind the paper's §4.1.1 claim that "the entire ranking accurately
//! predicts relative performance".
//!
//! Two-deep nests are built in both loop orders over every subscript
//! pattern combination; whenever the model says one order is strictly
//! cheaper (by a factor, to stay away from ties), the cache simulation
//! must agree. The pattern space is small (4³ = 64), so these tests are
//! exhaustive rather than sampled.

use cmt_locality_repro::cache::{CacheConfig, ShardedCache};
use cmt_locality_repro::interp::Layout;
use cmt_locality_repro::ir::affine::Affine;
use cmt_locality_repro::ir::build::ProgramBuilder;
use cmt_locality_repro::ir::expr::Expr;
use cmt_locality_repro::ir::Program;
use cmt_locality_repro::locality::model::CostModel;

/// One statement: each of three refs picks a subscript pattern.
#[derive(Clone, Debug)]
struct Spec {
    /// Per-ref: 0 = (I,J), 1 = (J,I), 2 = (I,1) col, 3 = (1,J) invariant-I.
    patterns: [u8; 3],
}

fn all_specs() -> impl Iterator<Item = Spec> {
    (0u8..4).flat_map(|a| {
        (0u8..4).flat_map(move |b| {
            (0u8..4).map(move |c| Spec {
                patterns: [a, b, c],
            })
        })
    })
}

fn build(spec: &Spec, ji_order: bool) -> Program {
    let mut b = ProgramBuilder::new(if ji_order { "ji" } else { "ij" });
    let n = b.param("N");
    let arrays: Vec<_> = (0..3).map(|k| b.matrix(&format!("A{k}"), n)).collect();
    let body = |b: &mut ProgramBuilder| {
        let (i, j) = (b.var("I"), b.var("J"));
        let mk = |b: &ProgramBuilder, arr, pat: u8| match pat {
            0 => b.at(arr, [i, j]),
            1 => b.at(arr, [j, i]),
            2 => b.at_vec(arr, vec![Affine::var(i), Affine::constant(1)]),
            _ => b.at_vec(arr, vec![Affine::constant(1), Affine::var(j)]),
        };
        let lhs = mk(b, arrays[0], spec.patterns[0]);
        let rhs = Expr::load(mk(b, arrays[1], spec.patterns[1]))
            + Expr::load(mk(b, arrays[2], spec.patterns[2]));
        b.assign(lhs, rhs);
    };
    if ji_order {
        b.loop_("J", 1, n, |b| {
            b.loop_("I", 1, n, body);
        });
    } else {
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, body);
        });
    }
    b.finish()
}

fn simulate_misses(p: &Program, n: i64) -> u64 {
    let layout = Layout::new(p, &[n]).expect("allocation");
    let mut c = ShardedCache::new(CacheConfig::i860());
    layout.trace(p, &mut c).expect("execution");
    c.stats().warm_misses()
}

#[test]
fn cost_ranking_predicts_simulated_ranking() {
    let model = CostModel::new(4);
    const N: i64 = 96;
    for spec in all_specs() {
        let ij = build(&spec, false);
        let ji = build(&spec, true);

        let cost_ij = model
            .analyze(&ij, ij.nests()[0])
            .realized_cost()
            .eval_uniform(N as f64);
        let cost_ji = model
            .analyze(&ji, ji.nests()[0])
            .realized_cost()
            .eval_uniform(N as f64);

        // Only judge decisive predictions (≥ 1.5× apart): near-ties are
        // legitimately noise (conflict misses the model ignores).
        if cost_ij >= cost_ji * 1.5 {
            let (m_ij, m_ji) = (simulate_misses(&ij, N), simulate_misses(&ji, N));
            assert!(
                m_ji <= m_ij,
                "spec {spec:?}: model says JI cheaper ({cost_ji} vs {cost_ij}) but \
                 simulation disagrees: {m_ji} vs {m_ij} misses"
            );
        } else if cost_ji >= cost_ij * 1.5 {
            let (m_ij, m_ji) = (simulate_misses(&ij, N), simulate_misses(&ji, N));
            assert!(
                m_ij <= m_ji,
                "spec {spec:?}: model says IJ cheaper ({cost_ij} vs {cost_ji}) but \
                 simulation disagrees: {m_ij} vs {m_ji} misses"
            );
        }
    }
}

/// The orders compute the same values regardless of pattern.
#[test]
fn both_orders_equivalent() {
    for spec in all_specs() {
        let ij = build(&spec, false);
        let ji = build(&spec, true);
        let report = cmt_locality_repro::interp::equivalent(&ij, &ji, &[10]).expect("runs");
        assert!(report.equivalent, "spec {spec:?}: {:?}", report.first_diff);
    }
}
