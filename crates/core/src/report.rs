//! Transformation and locality statistics — the measurements behind the
//! paper's Tables 2 and 5 and Figures 8/9.

use crate::cost::CostPoly;
use crate::model::{CostModel, NestAnalysis, RefGroupBasis, SelfReuse};
use cmt_dependence::analyze_nest;
use cmt_ir::ids::LoopId;
use cmt_ir::node::{Loop, Node};
use cmt_ir::program::Program;
use cmt_ir::visit::{all_loops, stmts_with_context};

/// Per-program transformation statistics (one row of Table 2).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransformReport {
    /// Nests of depth ≥ 2 considered for transformation.
    pub nests_total: usize,
    /// All loops in the program (any depth).
    pub loops_total: usize,
    /// Nests originally in memory order.
    pub nests_orig_memory_order: usize,
    /// Nests permuted into memory order by the compound algorithm.
    pub nests_permuted: usize,
    /// Nests that failed to achieve memory order.
    pub nests_failed: usize,
    /// Nests whose most-reused loop was originally innermost.
    pub inner_orig: usize,
    /// Nests whose most-reused loop was positioned innermost by us.
    pub inner_permuted: usize,
    /// Nests whose inner loop could not be positioned.
    pub inner_failed: usize,
    /// `C`: candidate nests for fusion.
    pub fusion_candidates: usize,
    /// Imperfect nests where `FuseAll` exposed a permutable perfect nest.
    pub fusion_enabled_permutation: usize,
    /// `A`: nests actually fused.
    pub nests_fused: usize,
    /// `D`: nests distributed.
    pub distributions: usize,
    /// `R`: nests resulting from distribution.
    pub nests_resulting: usize,
    /// Loops reversed (the paper found none profitable; we count to show
    /// the same).
    pub reversals: usize,
    /// Failures attributed to dependence constraints.
    pub fail_dependences: usize,
    /// Failures attributed to complex loop bounds.
    pub fail_complex_bounds: usize,
    /// Average original/final `LoopCost` ratio (≥ 1 is an improvement).
    pub loopcost_ratio_final: f64,
    /// Average original/ideal ratio — ignoring correctness, the paper's
    /// "Ideal" column.
    pub loopcost_ratio_ideal: f64,
}

impl TransformReport {
    /// Percentage of nests originally in memory order.
    pub fn pct_orig(&self) -> f64 {
        percent(self.nests_orig_memory_order, self.nests_total)
    }

    /// Percentage of nests permuted into memory order.
    pub fn pct_permuted(&self) -> f64 {
        percent(self.nests_permuted, self.nests_total)
    }

    /// Percentage of nests that failed.
    pub fn pct_failed(&self) -> f64 {
        percent(self.nests_failed, self.nests_total)
    }

    /// Percentage of nests with the inner loop originally correct.
    pub fn pct_inner_orig(&self) -> f64 {
        percent(self.inner_orig, self.nests_total)
    }

    /// Percentage of nests whose inner loop we positioned.
    pub fn pct_inner_permuted(&self) -> f64 {
        percent(self.inner_permuted, self.nests_total)
    }

    /// Percentage of nests whose inner loop could not be positioned.
    pub fn pct_inner_failed(&self) -> f64 {
        percent(self.inner_failed, self.nests_total)
    }
}

fn percent(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

/// The Table-2 statistics of one nest state, answered from its analysis.
impl NestAnalysis {
    /// True when every statement of the nest sees its enclosing loops in
    /// non-increasing `LoopCost` order (the nest is *in memory order*).
    pub fn in_memory_order(&self) -> bool {
        self.stacks.iter().all(|stack| {
            stack.windows(2).all(|w| {
                let a = &self.cost_of(w[0]).expect("loop analyzed").cost;
                let b = &self.cost_of(w[1]).expect("loop analyzed").cost;
                !b.dominates(a)
            })
        })
    }

    /// True when, for every statement nested at depth ≥ 2, the innermost
    /// enclosing loop carries the most reuse (least `LoopCost`) among that
    /// statement's enclosing loops.
    pub fn inner_loop_in_position(&self) -> bool {
        self.stacks.iter().all(|stack| {
            if stack.len() < 2 {
                return true;
            }
            let inner = &self
                .cost_of(*stack.last().expect("nonempty"))
                .expect("loop analyzed")
                .cost;
            stack
                .iter()
                .all(|&id| !inner.dominates(&self.cost_of(id).expect("loop analyzed").cost))
        })
    }

    /// The realized cost of the nest: the sum of `LoopCost` over its leaf
    /// loops (for a perfect nest, simply the cost of the actual innermost
    /// loop).
    pub fn realized_cost(&self) -> CostPoly {
        let mut total = CostPoly::zero();
        for l in all_loops(self.nest()) {
            if is_leaf(l) {
                total += self.cost_of(l.id()).expect("loop analyzed").cost.clone();
            }
        }
        total
    }

    /// The ideal cost of the nest: for each leaf, the cheapest loop on its
    /// root-to-leaf path made innermost, ignoring legality — the paper's
    /// "Ideal" program.
    pub fn ideal_cost(&self) -> CostPoly {
        fn walk(l: &Loop, path: &mut Vec<LoopId>, costs: &NestAnalysis, total: &mut CostPoly) {
            path.push(l.id());
            if is_leaf(l) {
                let best = path
                    .iter()
                    .map(|id| costs.cost_of(*id).expect("loop analyzed").cost.clone())
                    .min_by(|a, b| a.dominating_cmp(b))
                    .expect("path nonempty");
                *total += best;
            } else {
                for n in l.body() {
                    if let Node::Loop(inner) = n {
                        walk(inner, path, costs, total);
                    }
                }
            }
            path.pop();
        }
        let mut total = CostPoly::zero();
        walk(self.nest(), &mut Vec::new(), self, &mut total);
        total
    }
}

fn is_leaf(l: &Loop) -> bool {
    !l.body().iter().any(|n| matches!(n, Node::Loop(_)))
}

/// Locality classification of the reference groups of a whole program —
/// one row block of the paper's Table 5.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LocalityStats {
    /// Groups whose representative is loop-invariant w.r.t. the innermost
    /// loop.
    pub invariant_groups: usize,
    /// Groups with unit(-ish) stride (consecutive).
    pub unit_groups: usize,
    /// Groups with no self reuse.
    pub none_groups: usize,
    /// Groups constructed partly or completely via group-spatial reuse.
    pub spatial_groups: usize,
    /// Total references in invariant groups.
    pub invariant_refs: usize,
    /// Total references in unit-stride groups.
    pub unit_refs: usize,
    /// Total references in no-reuse groups.
    pub none_refs: usize,
}

impl LocalityStats {
    /// Total number of groups.
    pub fn total_groups(&self) -> usize {
        self.invariant_groups + self.unit_groups + self.none_groups
    }

    /// Percentage of groups with the given reuse class.
    pub fn pct(&self, kind: SelfReuse) -> f64 {
        let n = match kind {
            SelfReuse::Invariant => self.invariant_groups,
            SelfReuse::Consecutive => self.unit_groups,
            SelfReuse::None => self.none_groups,
        };
        percent(n, self.total_groups())
    }

    /// Percentage of groups exhibiting group-spatial construction.
    pub fn pct_spatial(&self) -> f64 {
        percent(self.spatial_groups, self.total_groups())
    }

    /// Average references per group for a reuse class (`None` if no such
    /// groups).
    pub fn refs_per_group(&self, kind: SelfReuse) -> Option<f64> {
        let (r, g) = match kind {
            SelfReuse::Invariant => (self.invariant_refs, self.invariant_groups),
            SelfReuse::Consecutive => (self.unit_refs, self.unit_groups),
            SelfReuse::None => (self.none_refs, self.none_groups),
        };
        (g > 0).then(|| r as f64 / g as f64)
    }

    /// Average references per group over all classes.
    pub fn avg_refs_per_group(&self) -> f64 {
        let refs = self.invariant_refs + self.unit_refs + self.none_refs;
        if self.total_groups() == 0 {
            0.0
        } else {
            refs as f64 / self.total_groups() as f64
        }
    }

    /// Accumulates another program's statistics (for suite-wide rows).
    pub fn merge(&mut self, other: &LocalityStats) {
        self.invariant_groups += other.invariant_groups;
        self.unit_groups += other.unit_groups;
        self.none_groups += other.none_groups;
        self.spatial_groups += other.spatial_groups;
        self.invariant_refs += other.invariant_refs;
        self.unit_refs += other.unit_refs;
        self.none_refs += other.none_refs;
    }
}

/// Computes [`LocalityStats`] for every nest of a program: reference
/// groups are formed with respect to each statement's innermost loop and
/// classified by the representative's self reuse there.
pub fn locality_stats(program: &Program, model: &CostModel) -> LocalityStats {
    let mut out = LocalityStats::default();
    for nest in program.nests() {
        let nodes = [Node::Loop(nest.clone())];
        let ctxs = stmts_with_context(&nodes);
        if ctxs.is_empty() {
            continue;
        }
        let graph = analyze_nest(program, nest);
        // Use the innermost loop of the deepest statement as the grouping
        // candidate — the loop that actually runs innermost.
        let (deep_stack, _) = ctxs
            .iter()
            .max_by_key(|(stack, _)| stack.len())
            .expect("nonempty");
        let Some(inner) = deep_stack.last() else {
            continue;
        };
        let inner_var = inner.var();
        let inner_step = inner.step();
        let groups = RefGroupBasis::new(model.cls(), &ctxs, &graph).groups(Some(inner_var));
        for g in &groups {
            let rep = g.representative;
            let (stack, stmt) = &ctxs[rep.stmt_idx];
            let r = stmt.refs()[rep.ref_idx];
            // Classify w.r.t. the representative's own innermost loop when
            // it has one; fall back to the nest's innermost.
            let (v, step) = stack
                .last()
                .map(|l| (l.var(), l.step()))
                .unwrap_or((inner_var, inner_step));
            let trip = CostPoly::one();
            let (_, kind) = crate::model::ref_cost(model.cls(), r, v, step, &trip);
            match kind {
                SelfReuse::Invariant => {
                    out.invariant_groups += 1;
                    out.invariant_refs += g.members.len();
                }
                SelfReuse::Consecutive => {
                    out.unit_groups += 1;
                    out.unit_refs += g.members.len();
                }
                SelfReuse::None => {
                    out.none_groups += 1;
                    out.none_refs += g.members.len();
                }
            }
            if g.spatial_merge {
                out.spatial_groups += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;

    fn strided_copy(order_ij: bool) -> Program {
        let mut b = ProgramBuilder::new("copy");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        let body = |b: &mut ProgramBuilder| {
            let (i, j) = (b.var("I"), b.var("J"));
            let lhs = b.at(c, [i, j]);
            let rhs = Expr::load(b.at(a, [i, j]));
            b.assign(lhs, rhs);
        };
        if order_ij {
            b.loop_("I", 1, n, |b| {
                b.loop_("J", 1, n, body);
            });
        } else {
            b.loop_("J", 1, n, |b| {
                b.loop_("I", 1, n, body);
            });
        }
        b.finish()
    }

    #[test]
    fn memory_order_predicates() {
        let model = CostModel::new(4);
        let bad = strided_copy(true);
        let bad = model.analyze(&bad, bad.nests()[0]);
        assert!(!bad.in_memory_order());
        assert!(!bad.inner_loop_in_position());
        let good = strided_copy(false);
        let good = model.analyze(&good, good.nests()[0]);
        assert!(good.in_memory_order());
        assert!(good.inner_loop_in_position());
    }

    #[test]
    fn realized_vs_ideal_cost() {
        let model = CostModel::new(4);
        let bad = strided_copy(true);
        let bad = model.analyze(&bad, bad.nests()[0]);
        let r = bad.realized_cost();
        let i = bad.ideal_cost();
        assert!(r.dominates(&i), "realized {r} should exceed ideal {i}");
        let good = strided_copy(false);
        let good = model.analyze(&good, good.nests()[0]);
        let r2 = good.realized_cost();
        let i2 = good.ideal_cost();
        assert_eq!(r2.dominating_cmp(&i2), std::cmp::Ordering::Equal);
    }

    #[test]
    fn locality_stats_classify_unit_stride() {
        let model = CostModel::new(4);
        let good = strided_copy(false);
        let stats = locality_stats(&good, &model);
        assert_eq!(stats.total_groups(), 2);
        assert_eq!(stats.unit_groups, 2);
        assert_eq!(stats.none_groups, 0);
        let bad = strided_copy(true);
        let stats = locality_stats(&bad, &model);
        assert_eq!(stats.none_groups, 2);
    }

    #[test]
    fn locality_stats_merge() {
        let model = CostModel::new(4);
        let a = locality_stats(&strided_copy(false), &model);
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.total_groups(), 4);
        assert!((b.pct(SelfReuse::Consecutive) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn report_percentages() {
        let r = TransformReport {
            nests_total: 4,
            nests_orig_memory_order: 1,
            nests_permuted: 2,
            nests_failed: 1,
            ..Default::default()
        };
        assert_eq!(r.pct_orig(), 25.0);
        assert_eq!(r.pct_permuted(), 50.0);
        assert_eq!(r.pct_failed(), 25.0);
        let empty = TransformReport::default();
        assert_eq!(empty.pct_orig(), 0.0);
    }
}
