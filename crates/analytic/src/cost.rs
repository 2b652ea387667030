//! `AnalyticCost`: ranking loops by predicted misses instead of the
//! paper's coarse `RefCost` trichotomy.
//!
//! The paper's `LoopCost` charges each reference group `1`,
//! `trip/(cls/stride)`, or `trip` lines per candidate innermost loop —
//! a three-way classification that cannot see capacity effects or
//! cross-group interference. [`AnalyticCost`] instead asks the reuse
//! engine for the nest's *predicted miss count* with each loop rotated
//! innermost ([`candidate_misses`]) and sorts:
//! most misses outermost, fewest innermost. Plugged into the compound
//! driver through `cmt_locality::RankOracle` (the `oracle` argument
//! of `cmt_locality::compound_with`; `cmt-explain` runs it beside the
//! paper's ranking), every legality check stays exactly as before —
//! only the *desired* order changes.

use crate::reuse::candidate_misses;
use cmt_cache::CacheConfig;
use cmt_ir::ids::LoopId;
use cmt_ir::node::Loop;
use cmt_ir::program::Program;
use cmt_locality::RankOracle;

/// A [`RankOracle`] ordering loops by predicted miss counts.
///
/// ```
/// use cmt_analytic::AnalyticCost;
/// use cmt_cache::CacheConfig;
/// use cmt_ir::build::ProgramBuilder;
/// use cmt_ir::expr::Expr;
/// use cmt_locality::RankOracle;
///
/// // Row-major traversal of a column-major array: I should be
/// // innermost (unit stride), so the ranking ends with I's loop.
/// let mut b = ProgramBuilder::new("copy");
/// let n = b.param("N");
/// let a = b.matrix("A", n);
/// b.loop_("I", 1, n, |b| {
///     b.loop_("J", 1, n, |b| {
///         let (i, j) = (b.var("I"), b.var("J"));
///         let lhs = b.at(a, [i, j]);
///         b.assign(lhs, Expr::load(b.at(a, [i, j])) + Expr::Const(1.0));
///     });
/// });
/// let p = b.finish();
/// let root = p.nests()[0];
///
/// let oracle = AnalyticCost::new(CacheConfig::i860(), 64);
/// let order = oracle.rank(&p, root);
/// assert_eq!(order.len(), 2);
/// assert_eq!(*order.last().unwrap(), root.id()); // I innermost
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AnalyticCost {
    config: CacheConfig,
    n: i64,
}

impl AnalyticCost {
    /// An oracle predicting for `config` at parameter binding `n`.
    pub fn new(config: CacheConfig, n: i64) -> AnalyticCost {
        AnalyticCost { config, n }
    }

    /// The geometry predictions are made for.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The parameter binding used for trip counts.
    pub fn n(&self) -> i64 {
        self.n
    }
}

impl AnalyticCost {
    /// Predicted misses per candidate innermost loop, summed down a
    /// capacity ladder (cap, cap/8, …, 1): the full capacity captures
    /// which working sets fit, the small rungs keep streaming quality
    /// visible when every candidate's working set fits the top rung (a
    /// fully-associative model then correctly — but unhelpfully — calls
    /// the orders equal). This is both the ranking key and the
    /// per-candidate cost reported in decision-provenance records.
    fn ladder_scores(&self, program: &Program, root: &Loop) -> Vec<(LoopId, f64)> {
        let cls = self.config.cls_elements();
        let cap = (self.config.size() / self.config.line()) as f64;
        let mut total: Vec<(LoopId, f64)> = Vec::new();
        let mut rung = cap;
        loop {
            for (i, (id, m)) in candidate_misses(program, root, self.n, cls, rung)
                .into_iter()
                .enumerate()
            {
                match total.get_mut(i) {
                    Some(t) => {
                        debug_assert_eq!(t.0, id);
                        t.1 += m;
                    }
                    None => total.push((id, m)),
                }
            }
            if rung <= 1.0 {
                break;
            }
            rung /= 8.0;
        }
        total
    }
}

impl RankOracle for AnalyticCost {
    fn rank(&self, program: &Program, root: &Loop) -> Vec<LoopId> {
        let mut total = self.ladder_scores(program, root);
        // Most misses-if-innermost goes outermost; stable sort keeps
        // ties in original nesting order, like the paper's ranking.
        total.sort_by(|a, b| b.1.total_cmp(&a.1));
        total.into_iter().map(|(id, _)| id).collect()
    }

    fn name(&self) -> &'static str {
        "analytic"
    }

    fn scores(&self, program: &Program, root: &Loop) -> Vec<(LoopId, f64)> {
        self.ladder_scores(program, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;
    use cmt_ir::visit::perfect_chain;
    use cmt_locality::{compound_with, CompoundOptions, CostModel, NullProvenance};
    use cmt_obs::NullObs;

    #[test]
    fn matmul_ranks_i_innermost_last() {
        // C(I,J) += A(I,K) * B(K,J): I carries unit stride on all three
        // arrays, so every sensible model wants I innermost.
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
        let p = b.finish();
        let root = p.nests()[0];
        let oracle = AnalyticCost::new(CacheConfig::i860(), 64);
        let order = oracle.rank(&p, root);
        assert_eq!(order.len(), 3);
        assert_eq!(*order.last().unwrap(), root.id(), "I must rank innermost");
    }

    #[test]
    fn compound_with_analytic_oracle_reaches_ji() {
        // The strided copy: both oracles agree the J loop goes
        // outermost, and the driver's legality machinery is unchanged.
        let mut b = ProgramBuilder::new("copy");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [i, j]);
                b.assign(lhs, Expr::load(b.at(a, [i, j])));
            });
        });
        let mut p = b.finish();
        let oracle = AnalyticCost::new(CacheConfig::i860(), 64);
        let model = CostModel::new(CacheConfig::i860().cls_elements());
        let _ = compound_with(
            &mut p,
            &model,
            &CompoundOptions::default(),
            &mut NullObs,
            &mut NullProvenance,
            &oracle,
        );
        let names: Vec<&str> = perfect_chain(p.nests()[0])
            .iter()
            .map(|l| p.var_name(l.var()))
            .collect();
        assert_eq!(names, vec!["J", "I"]);
        cmt_ir::validate::validate(&p).unwrap();
    }
}
