//! Loop distribution (paper §4.4, Figure 5).
//!
//! Distribution splits a loop's body into the *finest partitions* that
//! keep every recurrence (dependence cycle) intact, emitted in dependence
//! order. The compound algorithm uses it purely as a permutation enabler:
//! starting at the second-innermost level and working outward, it performs
//! the smallest amount of distribution for which some resulting nest can
//! be permuted into memory order.

use crate::model::{CostModel, NestMemo, RankOracle};
use crate::permute::permute_loop_in_place_observed;
use cmt_dependence::scc::partitions_at_level;
use cmt_ir::ids::{LoopId, StmtId};
use cmt_ir::node::{Loop, Node};
use cmt_ir::program::Program;
use cmt_ir::visit::all_loops;
use cmt_obs::NullObs;
use std::collections::HashSet;

/// Outcome of a successful distribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistributeOutcome {
    /// The loop that was distributed.
    pub distributed_loop: LoopId,
    /// Number of loops the distributed loop became.
    pub resulting: usize,
    /// Loops (new copies) whose subtrees were permuted afterwards.
    pub permuted_copies: usize,
    /// Number of top-level body nodes now occupying the nest's slot (1
    /// unless the outermost loop itself was distributed).
    pub top_level_span: usize,
}

/// Attempts to distribute some loop of top-level nest `nest_idx` so that
/// permutation can reach memory order in at least one resulting nest
/// (Figure 5: deepest level first, smallest distribution that works).
///
/// On success the program is rewritten (distribution + the enabled
/// permutations) and the outcome returned; on failure the program is
/// untouched.
pub fn distribute_nest(
    program: &mut Program,
    nest_idx: usize,
    model: &CostModel,
    allow_reversal: bool,
) -> Option<DistributeOutcome> {
    let memo = NestMemo::new(*model);
    distribute_nest_with(program, nest_idx, allow_reversal, &memo, &memo)
}

/// [`distribute_nest`] with an explicit [`RankOracle`] choosing the loop
/// order the enabled permutations aim for, and the run's [`NestMemo`]
/// supplying the dependence graphs of the nest and of its copies.
pub fn distribute_nest_with(
    program: &mut Program,
    nest_idx: usize,
    allow_reversal: bool,
    oracle: &dyn RankOracle,
    memo: &NestMemo,
) -> Option<DistributeOutcome> {
    let node = &program.body()[nest_idx];
    let depth = node.depth();
    if depth < 2 {
        return None;
    }
    let analysis = memo.analysis(program, node.as_loop()?);
    let (root, graph) = (analysis.nest(), &analysis.graph);

    // Candidate loops by depth, deepest (m−1) outward to the root (0).
    for d in (0..depth - 1).rev() {
        let targets: Vec<LoopId> = loops_at_depth(root, d)
            .into_iter()
            .filter(|l| Node::Loop((*l).clone()).statements().len() > 1)
            .map(|l| l.id())
            .collect();
        for target in targets {
            let target_loop = all_loops(root)
                .into_iter()
                .find(|l| l.id() == target)
                .expect("target collected above")
                .clone();

            // Finest partitions of the statements under the target.
            let stmts: Vec<StmtId> = Node::Loop(target_loop.clone())
                .statements()
                .iter()
                .map(|s| s.id())
                .collect();
            let parts = partitions_at_level(graph, &stmts, d);
            if parts.len() < 2 {
                continue;
            }

            // Build the distributed version on a clone: one copy of the
            // target per partition, keeping only that partition's
            // statements (empty loops vanish, loop ids are fresh).
            let mut work = program.clone();
            let copies: Vec<Loop> = parts
                .iter()
                .filter_map(|part| {
                    let keep: HashSet<StmtId> = part.iter().copied().collect();
                    copy_for_partition(&mut work, &target_loop, &keep)
                })
                .collect();
            if copies.len() < 2 {
                continue;
            }
            let copy_ids: Vec<LoopId> = copies.iter().map(|l| l.id()).collect();
            let resulting = copies.len();
            let root_split = target == root.id();
            if root_split {
                // Distributing the outermost loop yields several adjacent
                // top-level nests.
                work.body_mut()
                    .splice(nest_idx..=nest_idx, copies.into_iter().map(Node::Loop));
            } else {
                let body = work.body_mut();
                let Node::Loop(work_root) = &mut body[nest_idx] else {
                    return None;
                };
                if !replace_loop_with(work_root, target, copies) {
                    continue;
                }
            }

            // Try to permute each new copy's subtree into memory order.
            let mut permuted = 0;
            for (ci, id) in copy_ids.iter().enumerate() {
                let holder_idx = if root_split { nest_idx + ci } else { nest_idx };
                let Node::Loop(holder) = &work.body()[holder_idx] else {
                    continue;
                };
                let copy = all_loops(holder)
                    .into_iter()
                    .find(|l| l.id() == *id)
                    .expect("copy placed above")
                    .clone();
                let (outcome, rewritten) = permute_loop_in_place_observed(
                    &work,
                    &copy,
                    allow_reversal,
                    oracle,
                    memo,
                    &mut NullObs,
                    "",
                    "permute",
                );
                if outcome.changed && outcome.inner_in_position {
                    if let Some(new_loop) = rewritten {
                        let Node::Loop(holder) = &mut work.body_mut()[holder_idx] else {
                            continue;
                        };
                        if root_split {
                            *holder = new_loop;
                        } else {
                            // The permuted subtree's root keeps one of the
                            // chain ids; replace by the original copy id.
                            replace_loop_with(holder, *id, vec![new_loop]);
                        }
                        permuted += 1;
                    }
                }
            }

            if permuted > 0 {
                *program = work;
                return Some(DistributeOutcome {
                    distributed_loop: target,
                    resulting,
                    permuted_copies: permuted,
                    top_level_span: if root_split { resulting } else { 1 },
                });
            }
        }
    }
    None
}

/// The loops at exactly `depth` below `root` (root itself is depth 0).
fn loops_at_depth(root: &Loop, depth: usize) -> Vec<&Loop> {
    let mut out = Vec::new();
    fn go<'a>(l: &'a Loop, depth: usize, out: &mut Vec<&'a Loop>) {
        if depth == 0 {
            out.push(l);
            return;
        }
        for n in l.body() {
            if let Node::Loop(inner) = n {
                go(inner, depth - 1, out);
            }
        }
    }
    go(root, depth, &mut out);
    out
}

/// Builds one distribution copy: a clone of `l` (with a fresh loop id at
/// every level) containing only the statements in `keep`; returns `None`
/// when nothing remains.
fn copy_for_partition(program: &mut Program, l: &Loop, keep: &HashSet<StmtId>) -> Option<Loop> {
    let body: Vec<Node> = l
        .body()
        .iter()
        .filter_map(|n| match n {
            Node::Stmt(s) => keep.contains(&s.id()).then(|| Node::Stmt(s.clone())),
            Node::Loop(il) => copy_for_partition(program, il, keep).map(Node::Loop),
        })
        .collect();
    if body.is_empty() {
        return None;
    }
    Some(Loop::new(
        program.fresh_loop_id(),
        l.var(),
        l.lower().clone(),
        l.upper().clone(),
        l.step(),
        body,
    ))
}

/// Replaces the loop `target` somewhere under `root` with `replacement`
/// loops (in order). Returns false when `target` is not found.
pub(crate) fn replace_loop_with(root: &mut Loop, target: LoopId, replacement: Vec<Loop>) -> bool {
    // The root itself cannot be replaced by multiple loops here; callers
    // only target inner loops (distribution at depth ≥ 1) or 1-for-1
    // swaps.
    if root.id() == target {
        assert_eq!(replacement.len(), 1, "cannot replace the root with many");
        *root = replacement.into_iter().next().expect("checked length");
        return true;
    }
    fn go(l: &mut Loop, target: LoopId, replacement: &mut Option<Vec<Loop>>) -> bool {
        let body = l.body_mut();
        if let Some(pos) = body
            .iter()
            .position(|n| matches!(n, Node::Loop(il) if il.id() == target))
        {
            let reps = replacement.take().expect("single use");
            body.splice(pos..=pos, reps.into_iter().map(Node::Loop));
            return true;
        }
        for n in body {
            if let Node::Loop(inner) = n {
                if go(inner, target, replacement) {
                    return true;
                }
            }
        }
        false
    }
    let mut slot = Some(replacement);
    go(root, target, &mut slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::affine::Affine;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;
    use cmt_ir::validate::validate;
    use cmt_ir::visit::perfect_chain;

    /// The paper's Cholesky (Figure 7a, KIJ form).
    fn cholesky() -> Program {
        let mut b = ProgramBuilder::new("cholesky");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("K", 1, n, |b| {
            let k = b.var("K");
            let akk = b.at(a, [k, k]);
            let rhs = Expr::sqrt(Expr::load(b.at(a, [k, k])));
            b.assign(akk, rhs);
            b.loop_("I", Affine::var(k) + 1, n, |b| {
                let i = b.var("I");
                let lhs = b.at(a, [i, k]);
                let rhs = Expr::load(b.at(a, [i, k])) / Expr::load(b.at(a, [k, k]));
                b.assign(lhs, rhs);
                b.loop_("J", Affine::var(k) + 1, i, |b| {
                    let j = b.var("J");
                    let lhs = b.at(a, [i, j]);
                    let rhs = Expr::load(b.at(a, [i, j]))
                        - Expr::load(b.at(a, [i, k])) * Expr::load(b.at(a, [j, k]));
                    b.assign(lhs, rhs);
                });
            });
        });
        b.finish()
    }

    #[test]
    fn cholesky_distribution_enables_kji() {
        let mut p = cholesky();
        let model = CostModel::new(4);
        let out = distribute_nest(&mut p, 0, &model, false).expect("distribution succeeds");
        assert_eq!(out.resulting, 2);
        assert_eq!(out.permuted_copies, 1);
        validate(&p).unwrap();

        // Structure: K { S1; I { S2 }; J { I { S3 } } } — the S3 copy
        // interchanged to J-outer/I-inner.
        let root = p.nests()[0];
        assert_eq!(p.var_name(root.var()), "K");
        assert_eq!(root.body().len(), 3);
        let last = root.body()[2].as_loop().expect("distributed copy");
        let chain: Vec<&str> = perfect_chain(last)
            .iter()
            .map(|l| p.var_name(l.var()))
            .collect();
        assert_eq!(chain, vec!["J", "I"]);
        // Triangular bounds rewritten: J = K+1..N, I = J..N.
        let jl = last;
        let k = p.find_var("K").unwrap();
        assert_eq!(jl.lower(), &(Affine::var(k) + 1));
        let il = jl.only_loop_child().unwrap();
        let j = p.find_var("J").unwrap();
        assert_eq!(il.lower(), &Affine::var(j));
    }

    #[test]
    fn recurrence_blocks_distribution() {
        // Mutual recurrence: distribution impossible, permutation of the
        // (I,J) nest blocked too.
        let mut b = ProgramBuilder::new("rec");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("I", 2, n, |b| {
            b.loop_("J", 2, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at_vec(c, vec![Affine::var(i) - 1, Affine::var(j)]));
                b.assign(lhs, rhs);
                let lhs2 = b.at(c, [i, j]);
                let rhs2 = Expr::load(b.at_vec(a, vec![Affine::var(i), Affine::var(j) - 1]));
                b.assign(lhs2, rhs2);
            });
        });
        let mut p = b.finish();
        let before = p.clone();
        let model = CostModel::new(4);
        // The nest is already JI-good? Memory order here: both stmts
        // stride in I (first subscript) → I innermost wanted; original
        // order I,J has I outer. The recurrence (1 in I via C, 1 in J via
        // A) forms an SCC at every level → one partition → distribution
        // returns None.
        let out = distribute_nest(&mut p, 0, &model, false);
        assert!(out.is_none());
        assert_eq!(p, before);
    }

    #[test]
    fn independent_statements_distribute_for_permutation() {
        // DO I { DO J { A(I,J) = A(I,J-1); B(J,I) = B(J-1,I) } }:
        // S1 wants I innermost but J carries its recurrence … actually
        // S1's dependence (0,1) allows interchange; S2's (1,0) also; but
        // their desired inner loops differ: S1 strides on I (A(I,J):
        // column-major → I consecutive), S2 strides on J. Memory order of
        // the whole nest is a compromise; distribution lets each
        // statement get its own order.
        let mut b = ProgramBuilder::new("split");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("B", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 2, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at_vec(a, vec![Affine::var(i), Affine::var(j) - 1]));
                b.assign(lhs, rhs);
                let lhs2 = b.at(c, [j, i]);
                let rhs2 = Expr::load(b.at_vec(c, vec![Affine::var(j) - 1, Affine::var(i)]));
                b.assign(lhs2, rhs2);
            });
        });
        let mut p = b.finish();
        let model = CostModel::new(4);
        let out = distribute_nest(&mut p, 0, &model, false);
        assert!(out.is_some(), "distribution should enable a permutation");
        validate(&p).unwrap();
    }

    #[test]
    fn replace_loop_with_splices_in_order() {
        let mut b = ProgramBuilder::new("r");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::Const(0.0));
            });
        });
        let mut p = b.finish();
        let root = p.nests()[0].clone();
        let inner = root.only_loop_child().unwrap().clone();
        let id1 = p.fresh_loop_id();
        let id2 = p.fresh_loop_id();
        let mk = |id| {
            Loop::new(
                id,
                inner.var(),
                inner.lower().clone(),
                inner.upper().clone(),
                1,
                vec![],
            )
        };
        let mut work = root.clone();
        assert!(replace_loop_with(
            &mut work,
            inner.id(),
            vec![mk(id1), mk(id2)]
        ));
        assert_eq!(work.body().len(), 2);
        assert!(!replace_loop_with(
            &mut work,
            inner.id(),
            vec![mk(LoopId(99))]
        ));
    }
}
