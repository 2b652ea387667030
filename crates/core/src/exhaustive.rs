//! The exhaustive baseline the paper compares against (§2).
//!
//! Prior work (Ferrante/Sarkar/Thrash, Gannon/Jalby/Gallivan, and the
//! unimodular frameworks of Li/Pingali and Wolf/Lam) "generates all loop
//! permutations … evaluates the locality of all legal permutations, and
//! then picks the best. This process requires the evaluation of up to n!
//! loop permutations." The paper's contribution is doing it with **one**
//! evaluation per loop.
//!
//! This module implements that baseline faithfully — enumerate every
//! permutation of a perfect nest, keep the legal ones, evaluate each with
//! the same cost model, pick the minimum — so that (a) the claim "our
//! single evaluation finds the same answer" is *testable*, and (b) the
//! compile-time gap is measurable (`optimizer_cost` bench).

use crate::model::CostModel;
use crate::CostPoly;
use cmt_dependence::DepVector;
use cmt_ir::ids::LoopId;
use cmt_ir::node::Loop;
use cmt_ir::program::Program;
use cmt_ir::visit::{is_perfect, perfect_chain};

/// The exhaustive search result.
#[derive(Clone, Debug, PartialEq)]
pub struct ExhaustiveResult {
    /// The best legal permutation (original chain indices, outermost
    /// first).
    pub best: Vec<LoopId>,
    /// Its evaluation key (per-level costs, innermost first).
    pub best_cost: Vec<CostPoly>,
    /// Number of permutations enumerated (n!).
    pub enumerated: usize,
    /// Number that were legal.
    pub legal: usize,
}

/// Enumerates all permutations of the perfect nest's chain, filters by
/// dependence legality, evaluates each legal candidate with the cost
/// model, and returns the cheapest. Returns `None` for imperfect nests
/// or when *no* permutation is legal (cannot happen: identity is always
/// legal for a validly-built nest).
///
/// Evaluation key: the `LoopCost` sequence from the innermost position
/// outward, compared lexicographically by dominating term — "most reuse
/// innermost" with outer positions as tie-breaks, the same objective the
/// single-evaluation memory order optimizes.
pub fn best_permutation_exhaustive(
    program: &Program,
    nest: &Loop,
    model: &CostModel,
) -> Option<ExhaustiveResult> {
    if !is_perfect(nest) {
        return None;
    }
    let chain: Vec<&Loop> = perfect_chain(nest);
    let ids: Vec<LoopId> = chain.iter().map(|l| l.id()).collect();
    let n = ids.len();
    let costs = model.analyze(program, nest);
    let cost_of =
        |id: LoopId| -> CostPoly { costs.cost_of(id).expect("chain loop analyzed").cost.clone() };

    let vectors: Vec<DepVector> = costs
        .graph
        .constraining()
        .filter(|d| d.vector.len() == n && !d.vector.is_loop_independent())
        .map(|d| d.vector.clone())
        .collect();

    let mut best: Option<(Vec<LoopId>, Vec<CostPoly>)> = None;
    let mut enumerated = 0usize;
    let mut legal = 0usize;
    permutations(n, &mut |perm| {
        enumerated += 1;
        if !vectors
            .iter()
            .all(|v| v.permuted(perm).is_lex_nonnegative())
        {
            return;
        }
        legal += 1;
        // Key: innermost cost first, then outward.
        let key: Vec<CostPoly> = perm.iter().rev().map(|&k| cost_of(ids[k])).collect();
        let candidate: Vec<LoopId> = perm.iter().map(|&k| ids[k]).collect();
        let better = match &best {
            None => true,
            Some((_, cur)) => lex_cheaper(&key, cur),
        };
        if better {
            best = Some((candidate, key));
        }
    });

    let (best, best_cost) = best?;
    Some(ExhaustiveResult {
        best,
        best_cost,
        enumerated,
        legal,
    })
}

/// Lexicographic "cheaper" over cost sequences (dominating-term order).
fn lex_cheaper(a: &[CostPoly], b: &[CostPoly]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.dominating_cmp(y) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => continue,
        }
    }
    false
}

/// Heap's algorithm, calling `f` with each permutation of `0..n`.
fn permutations(n: usize, f: &mut impl FnMut(&[usize])) {
    let mut a: Vec<usize> = (0..n).collect();
    let mut c = vec![0usize; n];
    f(&a);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            f(&a);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permute::permute_nest;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;

    #[test]
    fn heap_enumerates_n_factorial() {
        let mut count = 0;
        permutations(4, &mut |_| count += 1);
        assert_eq!(count, 24);
        let mut seen = std::collections::HashSet::new();
        permutations(3, &mut |p| {
            seen.insert(p.to_vec());
        });
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn exhaustive_matches_single_evaluation_on_matmul() {
        let p = cmt_suite_free_matmul();
        let model = CostModel::new(4);
        let nest = p.nests()[0];
        let ex = best_permutation_exhaustive(&p, nest, &model).expect("perfect nest");
        assert_eq!(ex.enumerated, 6);
        assert_eq!(ex.legal, 6, "all matmul permutations are legal");

        let mut q = p.clone();
        let out = permute_nest(&mut q, 0, &model, true);
        assert!(out.memory_order);
        let greedy: Vec<LoopId> = cmt_ir::visit::perfect_chain(q.nests()[0])
            .iter()
            .map(|l| l.id())
            .collect();
        assert_eq!(ex.best, greedy, "one evaluation finds the n! answer");
    }

    /// Matmul without depending on cmt-suite (dev-dependency cycle).
    fn cmt_suite_free_matmul() -> cmt_ir::Program {
        let mut b = ProgramBuilder::new("mm");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let bb = b.matrix("B", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                b.loop_("K", 1, n, |b| {
                    let (i, j, k) = (b.var("I"), b.var("J"), b.var("K"));
                    let lhs = b.at(c, [i, j]);
                    let rhs = Expr::load(b.at(c, [i, j]))
                        + Expr::load(b.at(a, [i, k])) * Expr::load(b.at(bb, [k, j]));
                    b.assign(lhs, rhs);
                });
            });
        });
        b.finish()
    }

    #[test]
    fn legality_filter_respects_dependences() {
        // A(I,J) = A(I-1,J+1): only permutations keeping I before J … the
        // (1,−1) vector forbids J-outer orders.
        let mut b = ProgramBuilder::new("blocked");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 2, n, |b| {
            b.loop_("J", 1, cmt_ir::affine::Affine::param(n) - 1, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at_vec(
                    a,
                    vec![
                        cmt_ir::affine::Affine::var(i) - 1,
                        cmt_ir::affine::Affine::var(j) + 1,
                    ],
                ));
                b.assign(lhs, rhs);
            });
        });
        let p = b.finish();
        let model = CostModel::new(4);
        let ex = best_permutation_exhaustive(&p, p.nests()[0], &model).unwrap();
        assert_eq!(ex.enumerated, 2);
        assert_eq!(ex.legal, 1, "only the identity is legal");
        let chain: Vec<LoopId> = perfect_chain(p.nests()[0]).iter().map(|l| l.id()).collect();
        assert_eq!(ex.best, chain);
    }

    #[test]
    fn imperfect_nest_returns_none() {
        let mut b = ProgramBuilder::new("imp");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i, i]);
            b.assign(lhs, Expr::Const(0.0));
            b.loop_("J", 1, n, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::Const(1.0));
            });
        });
        let p = b.finish();
        let model = CostModel::new(4);
        assert!(best_permutation_exhaustive(&p, p.nests()[0], &model).is_none());
    }
}
