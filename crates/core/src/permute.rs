//! Loop permutation into memory order, with loop reversal as an enabler.
//!
//! `Permute` (paper §4.1) sorts the loops of a perfect nest by descending
//! `LoopCost`. Legality is the classic direction-matrix criterion: every
//! dependence vector must stay lexicographically non-negative under the
//! permutation. When full memory order is illegal, a greedy
//! outermost-first construction builds the nearest legal permutation; if a
//! loop cannot be placed, the extension of §4.2 tries *reversing* it.
//!
//! The mechanical rewrite handles rectangular nests (header swap) and the
//! triangular nests of §4.5.1 (bound exchange à la Cholesky's
//! `DO I=K+1,N / DO J=K+1,I` → `DO J=K+1,N / DO I=J,N`).

use crate::model::{CostModel, NestMemo, RankOracle};
use cmt_dependence::{DepVector, Direction};
use cmt_ir::affine::Affine;
use cmt_ir::ids::LoopId;
use cmt_ir::node::{Loop, Node};
use cmt_ir::program::Program;
use cmt_ir::visit::{is_perfect, perfect_chain};
use cmt_obs::{DecisionCandidate, DecisionRecord, NullObs, ObsSink};
use std::fmt;

/// Why a permutation attempt could not reach memory order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PermuteFailure {
    /// Dependences forbid every improving permutation.
    Dependences,
    /// The loop bounds are neither rectangular nor the supported
    /// triangular patterns, so the bound rewrite is unavailable.
    ComplexBounds,
    /// The nest is imperfect; `Permute` proper only handles perfect nests
    /// (the `Compound` driver reaches for fusion or distribution).
    Imperfect,
}

impl fmt::Display for PermuteFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PermuteFailure::Dependences => "dependences prevent memory order",
            PermuteFailure::ComplexBounds => "loop bounds too complex",
            PermuteFailure::Imperfect => "nest is not perfect",
        };
        f.write_str(s)
    }
}

/// Result of a permutation attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PermuteOutcome {
    /// The nest's loops now follow memory order exactly.
    pub memory_order: bool,
    /// The loop with the most reuse (least `LoopCost`) is innermost.
    pub inner_in_position: bool,
    /// The nest was already in memory order before the attempt.
    pub already_in_order: bool,
    /// Whether the IR was rewritten.
    pub changed: bool,
    /// Loops that were reversed to enable placement.
    pub reversed: Vec<LoopId>,
    /// Set when memory order was not achieved.
    pub failure: Option<PermuteFailure>,
    /// For dependence failures: the nest level (0 = outermost) at which
    /// the greedy construction could place no loop — i.e. where the
    /// direction matrix stops admitting a lexicographically positive
    /// order. Feeds optimization remarks.
    pub blocked_level: Option<usize>,
}

/// Attempts to permute the top-level nest `nest_idx` of `program` into
/// memory order. Returns the outcome; the program is modified only when a
/// strictly better legal permutation exists.
///
/// # Panics
///
/// Panics if `nest_idx` is out of bounds or not a loop node.
pub fn permute_nest(
    program: &mut Program,
    nest_idx: usize,
    model: &CostModel,
    allow_reversal: bool,
) -> PermuteOutcome {
    let memo = NestMemo::new(*model);
    permute_nest_observed(
        program,
        nest_idx,
        allow_reversal,
        &memo,
        &memo,
        &mut NullObs,
        "",
    )
}

/// [`permute_nest`] with an explicit [`RankOracle`] choosing the desired
/// loop order (alternative oracles such as `cmt-analytic`'s
/// predicted-miss ranking reuse the same legality machinery), the run's
/// [`NestMemo`] supplying dependence graphs, and decision provenance: one
/// [`DecisionRecord`] is emitted into `obs` for the permutation
/// decision (candidates with per-oracle costs, the desired order, the
/// legality verdict with the constraining dependence vector on
/// rejection, the achieved order, and the win margin). `nest` is the
/// stable label to stamp on the record; with a disabled sink no record
/// is constructed.
pub fn permute_nest_observed(
    program: &mut Program,
    nest_idx: usize,
    allow_reversal: bool,
    oracle: &dyn RankOracle,
    memo: &NestMemo,
    obs: &mut dyn ObsSink,
    nest: &str,
) -> PermuteOutcome {
    let root = program.body()[nest_idx]
        .as_loop()
        .expect("permute_nest requires a loop node");
    let analysis = memo.analysis(program, root);
    let root = analysis.nest();
    if !is_perfect(root) {
        let order = oracle.rank(program, root);
        let chain_ids: Vec<LoopId> = perfect_chain(root).iter().map(|l| l.id()).collect();
        let in_order = is_prefix_consistent(&chain_ids, &order);
        if obs.enabled() {
            let desired: Vec<LoopId> = order
                .iter()
                .filter(|id| chain_ids.contains(id))
                .copied()
                .collect();
            let mut rec = decision_skeleton(program, root, oracle, &desired, nest, "permute");
            rec.outcome = "imperfect";
            obs.decision(rec);
        }
        return PermuteOutcome {
            memory_order: in_order && chain_ids.len() == order.len(),
            inner_in_position: false,
            already_in_order: false,
            changed: false,
            reversed: Vec::new(),
            failure: Some(PermuteFailure::Imperfect),
            blocked_level: None,
        };
    }

    let outcome = permute_loop_in_place_observed(
        program,
        root,
        allow_reversal,
        oracle,
        memo,
        obs,
        nest,
        "permute",
    );
    if let Some(new_root) = outcome.1 {
        program.body_mut()[nest_idx] = Node::Loop(new_root);
    }
    outcome.0
}

/// Permutes the perfect chain of `root` (any loop — possibly a subtree of
/// a larger nest) into the order `oracle` ranks best, taking the
/// dependence graph from `memo`. Returns the outcome and, when the IR
/// changed, the rewritten loop.
///
/// Dependences are analyzed on the subtree alone: variables of enclosing
/// loops are fixed symbols for every iteration pair the subtree can
/// generate, which the dependence tester models exactly.
///
/// Every return path emits one [`DecisionRecord`] into `obs` (guarded by
/// [`ObsSink::enabled`], so [`NullObs`] runs are byte-identical).
/// `nest` labels the record; `action` distinguishes the driver step that
/// asked for the permutation (`"permute"`, `"fuse.permute"`, …).
#[allow(clippy::too_many_arguments)]
pub fn permute_loop_in_place_observed(
    program: &Program,
    root: &Loop,
    allow_reversal: bool,
    oracle: &dyn RankOracle,
    memo: &NestMemo,
    obs: &mut dyn ObsSink,
    nest: &str,
    action: &'static str,
) -> (PermuteOutcome, Option<Loop>) {
    let ranking = oracle.rank(program, root);
    let chain: Vec<LoopId> = perfect_chain(root).iter().map(|l| l.id()).collect();
    let depth = chain.len();

    // Desired order: the full ranking (all loops of a perfect nest are on
    // the chain).
    let desired: Vec<LoopId> = ranking
        .iter()
        .filter(|id| chain.contains(id))
        .copied()
        .collect();
    let already = desired == chain;
    if already || depth < 2 {
        if obs.enabled() {
            let mut rec = decision_skeleton(program, root, oracle, &desired, nest, action);
            rec.outcome = "already";
            obs.decision(rec);
        }
        let out = PermuteOutcome {
            memory_order: true,
            inner_in_position: true,
            already_in_order: true,
            changed: false,
            reversed: Vec::new(),
            failure: None,
            blocked_level: None,
        };
        return (out, None);
    }

    // Dependence vectors over the chain.
    let analysis = memo.analysis(program, root);
    let mut vectors: Vec<DepVector> = analysis
        .graph
        .constraining()
        .filter(|d| d.vector.len() == depth && !d.vector.is_loop_independent())
        .map(|d| d.vector.clone())
        .collect();
    vectors.sort_by_key(|v| format!("{v}"));
    vectors.dedup();

    // Greedy legal construction, preferring memory order.
    let pref: Vec<usize> = desired
        .iter()
        .map(|id| chain.iter().position(|c| c == id).expect("chain member"))
        .collect();
    let (perm, reversed_positions) = match build_legal_permutation(&vectors, &pref, allow_reversal)
    {
        Ok(found) => found,
        Err((blocked_at, blocking_vec)) => {
            if obs.enabled() {
                let mut rec = decision_skeleton(program, root, oracle, &desired, nest, action);
                rec.legal = false;
                rec.blocking = blocking_vec.map(|vi| format!("{}", vectors[vi]));
                rec.outcome = "blocked";
                obs.decision(rec);
            }
            let out = PermuteOutcome {
                memory_order: false,
                inner_in_position: false,
                already_in_order: false,
                changed: false,
                reversed: Vec::new(),
                failure: Some(PermuteFailure::Dependences),
                blocked_level: Some(blocked_at),
            };
            return (out, None);
        }
    };

    let identity: Vec<usize> = (0..depth).collect();
    if perm == identity && reversed_positions.is_empty() {
        // Legal "permutation" is to stay put: memory order unreachable.
        let inner_ok = chain.last() == desired.last();
        if obs.enabled() {
            let mut rec = decision_skeleton(program, root, oracle, &desired, nest, action);
            rec.legal = false;
            rec.blocking = constraining_vector(&vectors, &pref).map(|v| format!("{v}"));
            rec.outcome = "blocked";
            obs.decision(rec);
        }
        let out = PermuteOutcome {
            memory_order: false,
            inner_in_position: inner_ok,
            already_in_order: false,
            changed: false,
            reversed: Vec::new(),
            failure: Some(PermuteFailure::Dependences),
            blocked_level: None,
        };
        return (out, None);
    }

    // Apply on a clone; commit only on success.
    let mut work = root.clone();
    for &pos in &reversed_positions {
        reverse_chain_loop(&mut work, pos);
    }
    if apply_permutation(&mut work, &perm).is_err() {
        if obs.enabled() {
            let mut rec = decision_skeleton(program, root, oracle, &desired, nest, action);
            rec.outcome = "complex-bounds";
            obs.decision(rec);
        }
        let out = PermuteOutcome {
            memory_order: false,
            inner_in_position: false,
            already_in_order: false,
            changed: false,
            reversed: Vec::new(),
            failure: Some(PermuteFailure::ComplexBounds),
            blocked_level: None,
        };
        return (out, None);
    }

    let new_chain: Vec<LoopId> = perfect_chain(&work).iter().map(|l| l.id()).collect();
    let memory_order = new_chain == desired;
    let inner_ok = new_chain.last() == desired.last();
    let reversed: Vec<LoopId> = reversed_positions.iter().map(|&p| chain[p]).collect();
    if obs.enabled() {
        let mut rec = decision_skeleton(program, root, oracle, &desired, nest, action);
        rec.achieved = chain_names(program, &work);
        if memory_order {
            rec.outcome = "applied";
        } else {
            rec.legal = false;
            rec.blocking = constraining_vector(&vectors, &pref).map(|v| format!("{v}"));
            rec.outcome = "partial";
        }
        obs.decision(rec);
    }
    let out = PermuteOutcome {
        memory_order,
        inner_in_position: inner_ok,
        already_in_order: false,
        changed: true,
        reversed,
        failure: if memory_order {
            None
        } else {
            Some(PermuteFailure::Dependences)
        },
        blocked_level: None,
    };
    (out, Some(work))
}

/// Loop-variable names along the perfect chain of `root`, joined with
/// `.` (the order notation used in nest labels and decision records).
fn chain_names(program: &Program, root: &Loop) -> String {
    perfect_chain(root)
        .iter()
        .map(|l| program.var_name(l.var()))
        .collect::<Vec<_>>()
        .join(".")
}

/// The first dependence vector that forbids placing the most-preferred
/// loop (`pref[0]`) outermost — the witness reported when the desired
/// memory order is rejected wholesale.
fn constraining_vector<'v>(vectors: &'v [DepVector], pref: &[usize]) -> Option<&'v DepVector> {
    let want = *pref.first()?;
    vectors
        .iter()
        .find(|v| v.elems()[want].direction().may_gt())
}

/// Builds the provenance skeleton for one permutation decision:
/// candidates in original chain order with the oracle's per-candidate
/// costs, the desired order, the current (achieved-so-far) order, and
/// the innermost-position win margin. Callers override `achieved`,
/// `legal`, `blocking`, and `outcome` per return path.
fn decision_skeleton(
    program: &Program,
    root: &Loop,
    oracle: &dyn RankOracle,
    desired: &[LoopId],
    nest: &str,
    action: &'static str,
) -> DecisionRecord {
    let chain = perfect_chain(root);
    let scores = oracle.scores(program, root);
    let mut candidates = Vec::with_capacity(chain.len());
    for (pos, l) in chain.iter().enumerate() {
        let Some(&(_, cost)) = scores.iter().find(|(id, _)| *id == l.id()) else {
            continue;
        };
        let rank = desired.iter().position(|id| *id == l.id()).unwrap_or(pos);
        candidates.push(DecisionCandidate {
            var: program.var_name(l.var()).to_string(),
            cost,
            rank,
        });
    }
    // Innermost win margin: gap between the two cheapest candidates.
    let mut costs: Vec<f64> = candidates.iter().map(|c| c.cost).collect();
    costs.sort_by(f64::total_cmp);
    let margin = (costs.len() >= 2).then(|| costs[1] - costs[0]);

    let names = |ids: &[LoopId]| -> String {
        ids.iter()
            .map(|id| {
                chain
                    .iter()
                    .find(|l| l.id() == *id)
                    .map(|l| program.var_name(l.var()))
                    .unwrap_or("?")
            })
            .collect::<Vec<_>>()
            .join(".")
    };
    let mut rec = DecisionRecord::new("permute", nest, action);
    rec.oracle = oracle.name().to_string();
    rec.candidates = candidates;
    rec.desired = names(desired);
    rec.achieved = chain_names(program, root);
    rec.margin = margin;
    rec
}

/// Forces every perfect top-level nest into memory order **ignoring
/// dependence legality** — the paper's *ideal* program, used only for the
/// statistics of Tables 2 and 5 ("the best data locality one could
/// achieve" if correctness could be ignored). Returns the number of nests
/// rewritten. Nests whose bounds defeat the mechanical rewrite are left
/// unchanged.
pub fn force_memory_order(program: &mut Program, model: &CostModel) -> usize {
    let mut changed = 0;
    for idx in 0..program.body().len() {
        let Some(root) = program.body()[idx].as_loop() else {
            continue;
        };
        if !is_perfect(root) {
            continue;
        }
        let root = root.clone();
        let costs = model.analyze(program, &root);
        let ranking = costs.memory_order();
        let chain: Vec<LoopId> = perfect_chain(&root).iter().map(|l| l.id()).collect();
        let desired: Vec<LoopId> = ranking
            .iter()
            .filter(|id| chain.contains(id))
            .copied()
            .collect();
        if desired == chain {
            continue;
        }
        let perm: Vec<usize> = desired
            .iter()
            .map(|id| chain.iter().position(|c| c == id).expect("chain member"))
            .collect();
        let mut work = root.clone();
        if apply_permutation(&mut work, &perm).is_ok() {
            program.body_mut()[idx] = Node::Loop(work);
            changed += 1;
        }
    }
    changed
}

/// True when `chain` lists its members in the same relative order as
/// `ranking`.
fn is_prefix_consistent(chain: &[LoopId], ranking: &[LoopId]) -> bool {
    let positions: Vec<usize> = chain
        .iter()
        .filter_map(|id| ranking.iter().position(|r| r == id))
        .collect();
    positions.len() == chain.len() && positions.windows(2).all(|w| w[0] <= w[1])
}

/// Greedy outermost-first legal permutation: at each position, place the
/// highest-preference remaining loop whose column cannot make any
/// still-unsatisfied dependence vector negative; optionally reverse a loop
/// to flip its column. Returns `perm` (original indices in new order) and
/// the original positions reversed, or `Err((level, vector))` with the
/// nest level (0 = outermost) at which no remaining loop could be placed
/// and the index of the dependence vector that rejected the
/// most-preferred remaining loop there (the decision record's witness).
fn build_legal_permutation(
    vectors: &[DepVector],
    pref: &[usize],
    allow_reversal: bool,
) -> Result<(Vec<usize>, Vec<usize>), (usize, Option<usize>)> {
    let n = pref.len();
    let mut remaining: Vec<usize> = pref.to_vec();
    let mut satisfied = vec![false; vectors.len()];
    let mut perm = Vec::with_capacity(n);
    let mut reversed = Vec::new();

    let entry_dir = |v: &DepVector, col: usize, rev: bool| -> Direction {
        let d = v.elems()[col].direction();
        if rev {
            d.reversed()
        } else {
            d
        }
    };

    while perm.len() < n {
        let mut placed = false;
        for ri in 0..remaining.len() {
            let cand = remaining[ri];
            let rev_cand = reversed.contains(&cand);
            // Direct placement.
            let ok = vectors
                .iter()
                .enumerate()
                .all(|(vi, v)| satisfied[vi] || !entry_dir(v, cand, rev_cand).may_gt());
            if ok {
                for (vi, v) in vectors.iter().enumerate() {
                    if !satisfied[vi] && entry_dir(v, cand, rev_cand) == Direction::Lt {
                        satisfied[vi] = true;
                    }
                }
                perm.push(cand);
                remaining.remove(ri);
                placed = true;
                break;
            }
            // Reversal-enabled placement.
            if allow_reversal && !rev_cand {
                let ok_rev = vectors
                    .iter()
                    .enumerate()
                    .all(|(vi, v)| satisfied[vi] || !entry_dir(v, cand, true).may_gt());
                if ok_rev {
                    reversed.push(cand);
                    for (vi, v) in vectors.iter().enumerate() {
                        if !satisfied[vi] && entry_dir(v, cand, true) == Direction::Lt {
                            satisfied[vi] = true;
                        }
                    }
                    perm.push(cand);
                    remaining.remove(ri);
                    placed = true;
                    break;
                }
            }
        }
        if !placed {
            // Witness: the vector rejecting the most-preferred remaining
            // loop at this level.
            let witness = remaining.first().and_then(|&cand| {
                let rev_cand = reversed.contains(&cand);
                vectors
                    .iter()
                    .enumerate()
                    .find(|(vi, v)| !satisfied[*vi] && entry_dir(v, cand, rev_cand).may_gt())
                    .map(|(vi, _)| vi)
            });
            return Err((perm.len(), witness));
        }
    }
    Ok((perm, reversed))
}

/// Mutable access to the chain loop at `depth` under `root` (0 = root).
fn chain_loop_mut(root: &mut Loop, depth: usize) -> &mut Loop {
    if depth == 0 {
        root
    } else {
        let child = root.body_mut()[0]
            .as_loop_mut()
            .expect("perfect chain expected");
        chain_loop_mut(child, depth - 1)
    }
}

/// Reverses the chain loop at `depth`: iterations run in the opposite
/// order. The loop variable is re-expressed as `lb + ub − i` throughout
/// the subtree, keeping bounds and subscripts affine.
pub fn reverse_chain_loop(root: &mut Loop, depth: usize) {
    let target = chain_loop_mut(root, depth);
    let v = target.var();
    let repl = target.lower().clone() + target.upper().clone() - Affine::var(v);
    substitute_var_in_body(target.body_mut(), v, &repl);
}

/// Substitutes `v := e` in every subscript, loop bound, and index
/// expression under `nodes`.
pub(crate) fn substitute_var_in_body(nodes: &mut [Node], v: cmt_ir::ids::VarId, e: &Affine) {
    for n in nodes {
        match n {
            Node::Stmt(s) => {
                let mapped = s.map_refs(|r| r.map_subscripts(|sub| sub.substitute_var(v, e)));
                let rhs = mapped.rhs().map_index(&mut |w| {
                    if w == v {
                        cmt_ir::expr::Expr::from_affine(e)
                    } else {
                        cmt_ir::expr::Expr::Index(w)
                    }
                });
                *s = cmt_ir::stmt::Stmt::new(mapped.id(), mapped.lhs().clone(), rhs);
            }
            Node::Loop(l) => {
                let lo = l.lower().substitute_var(v, e);
                let hi = l.upper().substitute_var(v, e);
                l.set_header(l.id(), l.var(), lo, hi, l.step());
                substitute_var_in_body(l.body_mut(), v, e);
            }
        }
    }
}

/// Applies a chain permutation via adjacent interchanges (selection sort).
/// `perm[k]` is the original chain position that should end at position
/// `k`.
fn apply_permutation(root: &mut Loop, perm: &[usize]) -> Result<(), PermuteFailure> {
    // Track current positions of original loops.
    let n = perm.len();
    let mut current: Vec<usize> = (0..n).collect(); // current[i] = original at position i
    for (target_pos, &want) in perm.iter().enumerate() {
        let mut cur_pos = current
            .iter()
            .position(|&o| o == want)
            .expect("permutation member");
        let _ = n;
        while cur_pos > target_pos {
            interchange_adjacent(root, cur_pos - 1)?;
            current.swap(cur_pos - 1, cur_pos);
            cur_pos -= 1;
        }
    }
    Ok(())
}

/// Interchanges the chain loops at `depth` and `depth+1`.
///
/// Rectangular pairs swap headers; triangular pairs (inner bound mentions
/// the outer variable with coefficient **+1** in exactly one bound) are
/// rewritten per §4.5.1. Anything else is [`PermuteFailure::ComplexBounds`].
pub fn interchange_adjacent(root: &mut Loop, depth: usize) -> Result<(), PermuteFailure> {
    let outer = chain_loop_mut(root, depth);
    let u = outer.var();
    let (outer_id, outer_lo, outer_hi, outer_step) = (
        outer.id(),
        outer.lower().clone(),
        outer.upper().clone(),
        outer.step(),
    );
    let inner = outer
        .only_loop_child()
        .ok_or(PermuteFailure::Imperfect)?
        .clone();
    let w = inner.var();
    let (inner_id, inner_lo, inner_hi, inner_step) = (
        inner.id(),
        inner.lower().clone(),
        inner.upper().clone(),
        inner.step(),
    );

    let c_l = inner_lo.coeff_of_var(u);
    let c_u = inner_hi.coeff_of_var(u);

    let (new_outer, new_inner): ((Affine, Affine), (Affine, Affine)) = if c_l == 0 && c_u == 0 {
        // Rectangular: swap directly.
        ((inner_lo, inner_hi), (outer_lo, outer_hi))
    } else if outer_step != 1 || inner_step != 1 {
        return Err(PermuteFailure::ComplexBounds);
    } else if c_l == 1 && c_u == 0 {
        // w ∈ [u + R, U]: new w ∈ [lo_u + R, U]; u ∈ [lo_u, w − R].
        let r = inner_lo.clone() - Affine::var(u);
        // Exactness requires hi_u + R ≥ hi_w symbolically.
        let diff = outer_hi.clone() + r.clone() - inner_hi.clone();
        if !diff.is_constant() || diff.constant_term() < 0 {
            return Err(PermuteFailure::ComplexBounds);
        }
        (
            (outer_lo.clone() + r.clone(), inner_hi),
            (outer_lo, Affine::var(w) - r),
        )
    } else if c_l == 0 && c_u == 1 {
        // w ∈ [L2, u + R]: new w ∈ [L2, hi_u + R]; u ∈ [w − R, hi_u].
        let r = inner_hi.clone() - Affine::var(u);
        // Exactness requires lo_w − R ≥ lo_u symbolically.
        let diff = inner_lo.clone() - r.clone() - outer_lo.clone();
        if !diff.is_constant() || diff.constant_term() < 0 {
            return Err(PermuteFailure::ComplexBounds);
        }
        (
            (inner_lo, outer_hi.clone() + r.clone()),
            (Affine::var(w) - r, outer_hi),
        )
    } else {
        return Err(PermuteFailure::ComplexBounds);
    };

    let outer = chain_loop_mut(root, depth);
    outer.set_header(inner_id, w, new_outer.0, new_outer.1, inner_step);
    let child = outer.body_mut()[0]
        .as_loop_mut()
        .expect("perfect chain expected");
    child.set_header(outer_id, u, new_inner.0, new_inner.1, outer_step);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;
    use cmt_ir::validate::validate;

    fn copy_ij() -> Program {
        // Strided copy: memory order wants J outermost.
        let mut b = ProgramBuilder::new("copy");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [i, j]);
                let rhs = Expr::load(b.at(a, [i, j]));
                b.assign(lhs, rhs);
            });
        });
        b.finish()
    }

    #[test]
    fn rectangular_interchange() {
        let mut p = copy_ij();
        let model = CostModel::new(4);
        let out = permute_nest(&mut p, 0, &model, true);
        assert!(out.memory_order, "{out:?}");
        assert!(out.changed);
        assert!(out.reversed.is_empty());
        let root = p.nests()[0];
        assert_eq!(p.var_name(root.var()), "J");
        assert_eq!(p.var_name(root.only_loop_child().unwrap().var()), "I");
        validate(&p).unwrap();
    }

    #[test]
    fn matmul_permutes_to_jki() {
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
        let mut p = b.finish();
        let out = permute_nest(&mut p, 0, &CostModel::new(4), true);
        assert!(out.memory_order, "{out:?}");
        let chain_names: Vec<&str> = perfect_chain(p.nests()[0])
            .iter()
            .map(|l| p.var_name(l.var()))
            .collect();
        assert_eq!(chain_names, vec!["J", "K", "I"]);
        validate(&p).unwrap();
    }

    #[test]
    fn already_in_memory_order_is_reported() {
        let mut b = ProgramBuilder::new("good");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("J", 1, n, |b| {
            b.loop_("I", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::Const(0.0));
            });
        });
        let mut p = b.finish();
        let out = permute_nest(&mut p, 0, &CostModel::new(4), true);
        assert!(out.already_in_order);
        assert!(!out.changed);
        assert!(out.memory_order);
    }

    #[test]
    fn dependence_blocks_interchange() {
        // A(I,J) = A(I-1, J+1): dep vector (1, −1); interchange illegal.
        // Memory order would prefer J outer (stride on I), but (−1, 1)
        // is lexicographically negative.
        let mut b = ProgramBuilder::new("blocked");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 2, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at_vec(a, vec![Affine::var(i) - 1, Affine::var(j) + 1]));
                b.assign(lhs, rhs);
            });
        });
        let mut p = b.finish();
        let before = p.clone();
        let out = permute_nest(&mut p, 0, &CostModel::new(4), false);
        assert!(!out.memory_order);
        assert_eq!(out.failure, Some(PermuteFailure::Dependences));
        assert_eq!(p, before, "program must not change on failure");
    }

    #[test]
    fn reversal_enables_interchange() {
        // A(I,J) = A(I-1,J+1) again, but with reversal allowed: reversing
        // J turns the vector (1,−1) into (1,1); after placing J outer the
        // reversed column is (1): J-placement needs column J non-negative…
        // Greedy: prefer J first; direct J column is −1→Gt (illegal),
        // reversed J column is Lt → place reversed J, then I. Memory
        // order achieved via reversal.
        let mut b = ProgramBuilder::new("rev");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 2, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at_vec(a, vec![Affine::var(i) - 1, Affine::var(j) + 1]));
                b.assign(lhs, rhs);
            });
        });
        let mut p = b.finish();
        let out = permute_nest(&mut p, 0, &CostModel::new(4), true);
        assert!(out.memory_order, "{out:?}");
        assert_eq!(out.reversed.len(), 1);
        let root = p.nests()[0];
        assert_eq!(p.var_name(root.var()), "J");
        // Reversal replaced J by lb+ub−J in subscripts.
        let inner = root.only_loop_child().unwrap();
        let stmt = inner.body()[0].as_stmt().unwrap();
        let j = p.find_var("J").unwrap();
        assert_eq!(stmt.lhs().subscripts()[1].coeff_of_var(j), -1);
        validate(&p).unwrap();
    }

    #[test]
    fn triangular_interchange_upper() {
        // DO I = K+1, N; DO J = K+1, I  →  DO J = K+1, N; DO I = J, N
        // (inside an outer K loop; here K is a parameter for simplicity).
        let mut b = ProgramBuilder::new("tri");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            b.loop_("J", 1, i, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at(a, [i, j])) + Expr::Const(1.0);
                b.assign(lhs, rhs);
            });
        });
        let mut p = b.finish();
        let mut root = p.nests()[0].clone();
        interchange_adjacent(&mut root, 0).unwrap();
        *p.body_mut() = vec![Node::Loop(root)];
        validate(&p).unwrap();
        let outer = p.nests()[0];
        assert_eq!(p.var_name(outer.var()), "J");
        assert_eq!(outer.lower(), &Affine::constant(1));
        assert_eq!(outer.upper(), &Affine::param(p.find_param("N").unwrap()));
        let inner = outer.only_loop_child().unwrap();
        assert_eq!(p.var_name(inner.var()), "I");
        assert_eq!(inner.lower(), &Affine::var(p.find_var("J").unwrap()));
    }

    #[test]
    fn triangular_interchange_lower() {
        // DO I = 1, N; DO J = I, N  →  DO J = 1, N; DO I = 1, J.
        let mut b = ProgramBuilder::new("tri2");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            b.loop_("J", Affine::var(i), n, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::Const(2.0));
            });
        });
        let mut p = b.finish();
        let mut root = p.nests()[0].clone();
        interchange_adjacent(&mut root, 0).unwrap();
        *p.body_mut() = vec![Node::Loop(root)];
        validate(&p).unwrap();
        let outer = p.nests()[0];
        assert_eq!(p.var_name(outer.var()), "J");
        let inner = outer.only_loop_child().unwrap();
        assert_eq!(inner.upper(), &Affine::var(p.find_var("J").unwrap()));
        assert_eq!(inner.lower(), &Affine::constant(1));
    }

    #[test]
    fn banded_bounds_rejected() {
        // DO I = 1, N; DO J = I, I+2 — both bounds mention I.
        let mut b = ProgramBuilder::new("band");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            b.loop_("J", Affine::var(i), Affine::var(i) + 2, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::Const(0.0));
            });
        });
        let p = b.finish();
        let mut root = p.nests()[0].clone();
        assert_eq!(
            interchange_adjacent(&mut root, 0),
            Err(PermuteFailure::ComplexBounds)
        );
    }

    #[test]
    fn imperfect_nest_is_not_permuted() {
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
        let mut p = b.finish();
        let out = permute_nest(&mut p, 0, &CostModel::new(4), true);
        assert_eq!(out.failure, Some(PermuteFailure::Imperfect));
        assert!(!out.changed);
    }

    #[test]
    fn decision_record_applied_carries_candidates_and_margin() {
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
        let mut p = b.finish();
        let memo = NestMemo::new(CostModel::new(4));
        let mut sink = cmt_obs::CollectSink::new();
        let out = permute_nest_observed(&mut p, 0, true, &memo, &memo, &mut sink, "mm/nest0:I.J.K");
        assert!(out.memory_order);
        assert_eq!(sink.decisions.len(), 1);
        let rec = &sink.decisions[0];
        assert_eq!(rec.pass, "permute");
        assert_eq!(rec.action, "permute");
        assert_eq!(rec.oracle, "loopcost");
        assert_eq!(rec.nest, "mm/nest0:I.J.K");
        assert_eq!(rec.outcome, "applied");
        assert!(rec.legal);
        assert_eq!(rec.candidates.len(), 3);
        assert_eq!(rec.desired, "J.K.I");
        assert_eq!(rec.achieved, "J.K.I");
        // The innermost winner (I, rank 2 in the desired order) must be
        // the cheapest candidate, and the margin is the gap to the
        // runner-up.
        let i = rec.candidates.iter().find(|c| c.var == "I").unwrap();
        assert_eq!(i.rank, 2);
        assert!(rec.candidates.iter().all(|c| c.cost >= i.cost));
        assert!(rec.margin.unwrap() >= 0.0);
    }

    #[test]
    fn decision_record_blocked_names_constraining_vector() {
        // Same dependence as dependence_blocks_interchange: (1, -1).
        let mut b = ProgramBuilder::new("blocked");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 2, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at_vec(a, vec![Affine::var(i) - 1, Affine::var(j) + 1]));
                b.assign(lhs, rhs);
            });
        });
        let mut p = b.finish();
        let memo = NestMemo::new(CostModel::new(4));
        let mut sink = cmt_obs::CollectSink::new();
        let out = permute_nest_observed(&mut p, 0, false, &memo, &memo, &mut sink, "blocked/nest0");
        assert!(!out.memory_order);
        assert_eq!(sink.decisions.len(), 1);
        let rec = &sink.decisions[0];
        assert_eq!(rec.outcome, "blocked");
        assert!(!rec.legal);
        let witness = rec.blocking.as_deref().expect("blocking vector recorded");
        assert!(!witness.is_empty());
        // The record is self-consistent JSON.
        let v = cmt_obs::json::parse(&rec.to_json()).unwrap();
        assert_eq!(v.get("outcome").unwrap().as_str().unwrap(), "blocked");
    }

    #[test]
    fn decision_records_on_degenerate_nests() {
        // Zero-trip, single-iteration, and depth-1 nests all produce a
        // well-formed "already" record (nothing to permute).
        let cases: [(&str, i64, i64); 2] = [("zero-trip", 5, 4), ("single-iter", 3, 3)];
        for (name, lo, hi) in cases {
            let mut b = ProgramBuilder::new(name);
            let n = b.param("N");
            let a = b.matrix("A", n);
            b.loop_("I", lo, hi, |b| {
                let i = b.var("I");
                let lhs = b.at(a, [i, i]);
                b.assign(lhs, Expr::Const(0.0));
            });
            let mut p = b.finish();
            let mut sink = cmt_obs::CollectSink::new();
            let memo = NestMemo::new(CostModel::new(4));
            let out = permute_nest_observed(&mut p, 0, true, &memo, &memo, &mut sink, "nest0");
            assert!(out.memory_order, "{name}: depth-1 is trivially in order");
            assert_eq!(sink.decisions.len(), 1, "{name}");
            let rec = &sink.decisions[0];
            assert_eq!(rec.outcome, "already", "{name}");
            assert!(rec.legal);
            assert!(rec.margin.is_none(), "{name}: no runner-up at depth 1");
            assert!(cmt_obs::json::parse(&rec.to_json()).is_ok(), "{name}");
        }
    }

    #[test]
    fn decision_record_imperfect_outcome() {
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
        let mut p = b.finish();
        let mut sink = cmt_obs::CollectSink::new();
        let memo = NestMemo::new(CostModel::new(4));
        let out = permute_nest_observed(&mut p, 0, true, &memo, &memo, &mut sink, "imp/0");
        assert_eq!(out.failure, Some(PermuteFailure::Imperfect));
        assert_eq!(sink.decisions.len(), 1);
        assert_eq!(sink.decisions[0].outcome, "imperfect");
    }
}
