//! Loop fusion (paper §4.3).
//!
//! Fusion serves two purposes: improving group-temporal locality by
//! bringing accesses to the same data into one loop body, and creating
//! perfect nests (by fusing all inner loops) so that permutation applies.
//! Optimizing fusion is NP-hard; like the paper we fuse greedily, deepest
//! compatibility first, when it is legal (no dependence between the nests
//! is reversed) and the cost model reports a locality benefit.

use crate::model::{CostModel, NestMemo};
use cmt_dependence::analyze_fused_pair;
use cmt_ir::ids::StmtId;
use cmt_ir::node::{Loop, Node};
use cmt_ir::program::Program;
use cmt_ir::visit::{chain_label, perfect_chain};
use cmt_obs::{NullObs, ObsSink, Remark, RemarkKind};
use std::collections::HashSet;

/// Counters matching the paper's Table 2 "Loop Fusion" columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// `C`: nests that were fusion candidates (adjacent to a compatible
    /// nest).
    pub candidates: usize,
    /// `A`: nests actually fused with one or more other nests.
    pub fused: usize,
}

/// The deepest level to which two nests' headers are compatible: loops at
/// levels `0..depth` have equal bounds (after renaming the second nest's
/// outer variables to the first's) and equal steps, and both nests are
/// perfectly nested down to that level.
pub fn compatible_depth(a: &Loop, b: &Loop) -> usize {
    let ca = perfect_chain(a);
    let cb = perfect_chain(b);
    let mut renames: Vec<(cmt_ir::ids::VarId, cmt_ir::ids::VarId)> = Vec::new();
    let mut depth = 0;
    for (la, lb) in ca.iter().zip(cb.iter()) {
        if la.step() != lb.step() {
            break;
        }
        if lb.lower().rename_vars(&renames) != *la.lower()
            || lb.upper().rename_vars(&renames) != *la.upper()
        {
            break;
        }
        renames.push((lb.var(), la.var()));
        depth += 1;
    }
    depth
}

/// True when fusing `a` (first) and `b` (second) preserves every
/// dependence: no constraining dependence runs from a statement of `b` to
/// a statement of `a` in the aligned iteration space.
pub fn legal_to_fuse(program: &Program, a: &Loop, b: &Loop) -> bool {
    let a_stmts: HashSet<StmtId> = Node::Loop(a.clone())
        .statements()
        .iter()
        .map(|s| s.id())
        .collect();
    let deps = analyze_fused_pair(program, a, b);
    deps.iter()
        .all(|d| !(d.kind.constrains() && a_stmts.contains(&d.dst) && !a_stmts.contains(&d.src)))
}

/// Structurally fuses `b` into `a` at `depth` (≥ 1) compatible levels:
/// `a`'s headers are kept; `b`'s body at level `depth−1` is appended with
/// `b`'s outer variables renamed (simultaneously — the map may be a
/// permutation of shared variables) to `a`'s.
///
/// Returns `None` when the rename would capture: a target variable is
/// bound by a loop inside the moved body.
///
/// # Panics
///
/// Panics if `depth` is zero or exceeds either chain.
pub fn fuse_pair(a: &Loop, b: &Loop, depth: usize) -> Option<Loop> {
    assert!(depth >= 1, "fusion depth must be at least 1");
    let ca = perfect_chain(a);
    let cb = perfect_chain(b);
    assert!(
        depth <= ca.len() && depth <= cb.len(),
        "depth exceeds chains"
    );
    let renames: Vec<(cmt_ir::ids::VarId, cmt_ir::ids::VarId)> =
        (0..depth).map(|k| (cb[k].var(), ca[k].var())).collect();

    let mut appended: Vec<Node> = cb[depth - 1].body().to_vec();
    // Capture check: a rename target bound by a deeper loop of the moved
    // body would change meaning.
    let sources: Vec<_> = renames.iter().map(|&(f, _)| f).collect();
    for n in &appended {
        if let Node::Loop(l) = n {
            for inner in cmt_ir::visit::all_loops(l) {
                let v = inner.var();
                if renames.iter().any(|&(f, t)| f != t && t == v) && !sources.contains(&v) {
                    return None;
                }
            }
        }
    }
    rename_vars_in_body(&mut appended, &renames);

    let mut out = a.clone();
    fn extend_at(l: &mut Loop, depth: usize, nodes: Vec<Node>) {
        if depth == 1 {
            l.body_mut().extend(nodes);
        } else {
            let child = l.body_mut()[0]
                .as_loop_mut()
                .expect("perfect chain expected");
            extend_at(child, depth - 1, nodes);
        }
    }
    extend_at(&mut out, depth, appended);
    Some(out)
}

/// Renames variables simultaneously in every subscript and loop bound
/// under `nodes`.
fn rename_vars_in_body(nodes: &mut [Node], map: &[(cmt_ir::ids::VarId, cmt_ir::ids::VarId)]) {
    for n in nodes {
        match n {
            Node::Stmt(s) => {
                let mapped = s.map_refs(|r| r.map_subscripts(|sub| sub.rename_vars(map)));
                let rhs = mapped.rhs().map_index(&mut |w| {
                    let target = map
                        .iter()
                        .find(|&&(from, _)| from == w)
                        .map(|&(_, to)| to)
                        .unwrap_or(w);
                    cmt_ir::expr::Expr::Index(target)
                });
                *s = cmt_ir::stmt::Stmt::new(mapped.id(), mapped.lhs().clone(), rhs);
            }
            Node::Loop(l) => {
                let lo = l.lower().rename_vars(map);
                let hi = l.upper().rename_vars(map);
                l.set_header(l.id(), l.var(), lo, hi, l.step());
                rename_vars_in_body(l.body_mut(), map);
            }
        }
    }
}

/// Locality benefit of fusing at the innermost compatible level: compares
/// `LoopCost` of that loop in the fused nest against the sum over the two
/// nests (paper §4.3.1), all three analyses taken from `memo`. Positive
/// means fusion reduces cache lines.
pub fn fusion_benefit(program: &Program, memo: &NestMemo, a: &Loop, b: &Loop) -> Option<bool> {
    let depth = compatible_depth(a, b);
    if depth == 0 {
        return None;
    }
    let fused = fuse_pair(a, b, depth)?;
    let level_loop = perfect_chain(a)[depth - 1].id();
    let level_loop_b = perfect_chain(b)[depth - 1].id();
    let fused_cost = memo
        .analysis(program, &fused)
        .cost_of(level_loop)?
        .cost
        .clone();
    let cost_a = memo.analysis(program, a).cost_of(level_loop)?.cost.clone();
    let cost_b = memo
        .analysis(program, b)
        .cost_of(level_loop_b)?
        .cost
        .clone();
    let sum = cost_a + cost_b;
    Some(sum.dominates(&fused_cost))
}

/// Greedy fusion pass over the adjacent top-level nests of a program
/// (`Fuse(N)` in the compound algorithm). Fuses an adjacent compatible
/// pair whenever it is legal and the cost model reports a benefit, until
/// no pair qualifies. Returns Table-2 style statistics.
pub fn fuse_adjacent(program: &mut Program, model: &CostModel) -> FuseStats {
    fuse_adjacent_observed(program, &NestMemo::new(*model), &mut NullObs)
}

/// [`fuse_adjacent`] with the run's [`NestMemo`] supplying every
/// `LoopCost`, plus optimization remarks: an `Applied` remark for
/// every pair actually fused, and after the greedy loop settles, one
/// `Missed` remark per adjacent compatible pair left unfused explaining
/// which test (legality, benefit, or renaming) blocked it.
pub fn fuse_adjacent_observed(
    program: &mut Program,
    memo: &NestMemo,
    obs: &mut dyn ObsSink,
) -> FuseStats {
    // Candidate count: nests adjacent to a compatible nest, in the
    // *original* program.
    let candidates = {
        let body = program.body();
        let mut is_candidate = vec![false; body.len()];
        for i in 0..body.len().saturating_sub(1) {
            if let (Node::Loop(a), Node::Loop(b)) = (&body[i], &body[i + 1]) {
                if compatible_depth(a, b) > 0 {
                    is_candidate[i] = true;
                    is_candidate[i + 1] = true;
                }
            }
        }
        is_candidate.iter().filter(|&&c| c).count()
    };

    // Weights: how many original nests each body entry contains.
    let mut weights: Vec<usize> = program.body().iter().map(|_| 1).collect();

    // Legality and benefit are pure functions of the pair, so pairs left
    // of a fusion keep their verdicts: after fusing at `i` the scan
    // resumes at the first pair that changed, `i - 1`.
    let mut start = 0;
    loop {
        let mut fused_at: Option<usize> = None;
        for i in start..program.body().len().saturating_sub(1) {
            let (Node::Loop(a), Node::Loop(b)) = (&program.body()[i], &program.body()[i + 1])
            else {
                continue;
            };
            let depth = compatible_depth(a, b);
            if depth == 0 {
                continue;
            }
            if !legal_to_fuse(program, a, b) {
                continue;
            }
            if fusion_benefit(program, memo, a, b) != Some(true) {
                continue;
            }
            let Some(fused) = fuse_pair(a, b, depth) else {
                continue;
            };
            if obs.enabled() {
                obs.remark(
                    Remark::new(
                        "fuse",
                        format!("{}/fuse@{}:{}", program.name(), i, chain_label(program, a)),
                        RemarkKind::Applied,
                    )
                    .reason(format!(
                        "fused with following nest {} at depth {depth} for \
                         group-temporal locality",
                        chain_label(program, b)
                    )),
                );
            }
            program.body_mut()[i] = Node::Loop(fused);
            program.body_mut().remove(i + 1);
            let w = weights.remove(i + 1);
            weights[i] += w;
            fused_at = Some(i);
            break;
        }
        match fused_at {
            Some(i) => start = i.saturating_sub(1),
            None => break,
        }
    }

    // Remark on every adjacent compatible pair the greedy loop left
    // unfused, naming the test that blocked it.
    if obs.enabled() {
        for i in 0..program.body().len().saturating_sub(1) {
            let (Node::Loop(a), Node::Loop(b)) = (&program.body()[i], &program.body()[i + 1])
            else {
                continue;
            };
            let depth = compatible_depth(a, b);
            if depth == 0 {
                continue;
            }
            let reason = if !legal_to_fuse(program, a, b) {
                "fusion would reverse a dependence between the nests"
            } else if fusion_benefit(program, memo, a, b) != Some(true) {
                "cost model reports no locality benefit from fusing"
            } else {
                "variable capture prevents renaming the second nest"
            };
            obs.remark(
                Remark::new(
                    "fuse",
                    format!("{}/fuse@{}:{}", program.name(), i, chain_label(program, a)),
                    RemarkKind::Missed,
                )
                .reason(format!(
                    "not fused with following nest {}: {reason}",
                    chain_label(program, b)
                )),
            );
        }
    }

    let fused = weights.iter().filter(|&&w| w >= 2).copied().sum();
    FuseStats { candidates, fused }
}

/// `FuseAll` (§4.3.2): fuses *all* sibling inner loops at the shallowest
/// imperfect level of `root`, producing a deeper (possibly perfect) nest —
/// a permutation enabler. Returns the rewritten loop on success; `None`
/// when the body mixes statements and loops, headers are incompatible, or
/// a fusion is illegal.
pub fn fuse_all_inner(program: &Program, root: &Loop) -> Option<Loop> {
    let mut out = root.clone();
    loop {
        // Find the shallowest level with more than one body node.
        let mut depth = 0;
        let mut cur: &Loop = &out;
        while cur.body().len() == 1 {
            match &cur.body()[0] {
                Node::Loop(l) => {
                    cur = l;
                    depth += 1;
                }
                Node::Stmt(_) => return Some(out), // perfect already
            }
        }
        if cur.body().is_empty() || cur.body().len() == 1 {
            return Some(out);
        }
        // A statement-only body is a perfect innermost level — done.
        if cur.body().iter().all(|n| matches!(n, Node::Stmt(_))) {
            return Some(out);
        }
        // Otherwise all siblings must be loops.
        if !cur.body().iter().all(|n| matches!(n, Node::Loop(_))) {
            return None;
        }
        // Fuse them left to right.
        let siblings: Vec<Loop> = cur
            .body()
            .iter()
            .map(|n| n.as_loop().expect("checked above").clone())
            .collect();
        let mut acc = siblings[0].clone();
        for b in &siblings[1..] {
            let d = compatible_depth(&acc, b);
            if d == 0 || !legal_to_fuse(program, &acc, b) {
                return None;
            }
            acc = fuse_pair(&acc, b, d)?;
        }
        // Replace the body at `depth` with the single fused loop.
        fn set_body(l: &mut Loop, depth: usize, node: Node) {
            if depth == 0 {
                *l.body_mut() = vec![node];
            } else {
                let child = l.body_mut()[0]
                    .as_loop_mut()
                    .expect("walked through single-loop levels");
                set_body(child, depth - 1, node);
            }
        }
        set_body(&mut out, depth, Node::Loop(acc));
        // Loop again: deeper imperfections may remain.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::affine::Affine;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;
    use cmt_ir::validate::validate;

    /// Two compatible single-statement loops over the same data.
    fn two_loops(shift: i64) -> Program {
        let mut b = ProgramBuilder::new("two");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        let c = b.array("C", vec![n.into()]);
        let d = b.array("D", vec![n.into()]);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i]);
            let rhs = Expr::load(b.at(c, [i]));
            b.assign(lhs, rhs);
        });
        b.loop_("I2", 1, n, |b| {
            let i2 = b.var("I2");
            let lhs = b.at(d, [i2]);
            let rhs = Expr::load(b.at_vec(a, vec![Affine::var(i2) + shift]));
            b.assign(lhs, rhs);
        });
        b.finish()
    }

    #[test]
    fn compatible_depth_same_bounds() {
        let p = two_loops(0);
        let nests = p.nests();
        assert_eq!(compatible_depth(nests[0], nests[1]), 1);
    }

    #[test]
    fn incompatible_bounds() {
        let mut b = ProgramBuilder::new("mismatch");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i]);
            b.assign(lhs, Expr::Const(0.0));
        });
        b.loop_("I2", 2, n, |b| {
            let i2 = b.var("I2");
            let lhs = b.at(a, [i2]);
            b.assign(lhs, Expr::Const(1.0));
        });
        let p = b.finish();
        let nests = p.nests();
        assert_eq!(compatible_depth(nests[0], nests[1]), 0);
    }

    #[test]
    fn legal_and_beneficial_fusion_applies() {
        let mut p = two_loops(0);
        let model = CostModel::new(4);
        let stats = fuse_adjacent(&mut p, &model);
        assert_eq!(stats.candidates, 2);
        assert_eq!(stats.fused, 2);
        assert_eq!(p.nests().len(), 1);
        let fused = p.nests()[0];
        assert_eq!(fused.body().len(), 2);
        validate(&p).unwrap();
    }

    #[test]
    fn fusion_preventing_dependence_blocks() {
        // Second loop reads A(I+1): fusing would reverse the write→read
        // order for that element.
        let mut p = two_loops(1);
        let nests = p.nests();
        assert!(!legal_to_fuse(&p, nests[0], nests[1]));
        let model = CostModel::new(4);
        let before_nests = p.nests().len();
        let stats = fuse_adjacent(&mut p, &model);
        assert_eq!(p.nests().len(), before_nests);
        assert_eq!(stats.fused, 0);
    }

    #[test]
    fn backward_shift_is_legal() {
        // Second loop reads A(I-1): the producer iteration precedes in the
        // fused loop — legal.
        let p = two_loops(-1);
        let nests = p.nests();
        assert!(legal_to_fuse(&p, nests[0], nests[1]));
    }

    #[test]
    fn no_shared_data_no_benefit() {
        let mut b = ProgramBuilder::new("disjoint");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        let c = b.array("C", vec![n.into()]);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i]);
            b.assign(lhs, Expr::Const(0.0));
        });
        b.loop_("I2", 1, n, |b| {
            let i2 = b.var("I2");
            let lhs = b.at(c, [i2]);
            b.assign(lhs, Expr::Const(1.0));
        });
        let mut p = b.finish();
        let model = CostModel::new(4);
        let stats = fuse_adjacent(&mut p, &model);
        // Compatible (candidates counted) but no locality benefit.
        assert_eq!(stats.candidates, 2);
        assert_eq!(stats.fused, 0);
        assert_eq!(p.nests().len(), 2);
    }

    /// Five adjacent compatible loops; the third reads `D` one element
    /// ahead of the second's write, so no fusion may join them.
    fn five_loops() -> Program {
        let mut b = ProgramBuilder::new("five");
        let n = b.param("N");
        let arrays: Vec<_> = ["A", "C", "D", "E", "F", "G"]
            .iter()
            .map(|name| b.array(name, vec![n.into()]))
            .collect();
        let [a, c, d, e, f, g] = arrays[..] else {
            unreachable!()
        };
        // (loop variable, written array, read array, read offset)
        let loops = [
            ("I1", a, c, 0),
            ("I2", d, a, 0),
            ("I3", e, d, 1),
            ("I4", f, e, 0),
            ("I5", g, f, 0),
        ];
        for (var, dst, src, shift) in loops {
            b.loop_(var, 1, n, |b| {
                let i = b.var(var);
                let lhs = b.at(dst, [i]);
                let rhs = Expr::load(b.at_vec(src, vec![Affine::var(i) + shift]));
                b.assign(lhs, rhs);
            });
        }
        b.finish()
    }

    #[test]
    fn greedy_fusion_resumes_after_each_fusion() {
        let mut p = five_loops();
        let stats = fuse_adjacent(&mut p, &CostModel::new(4));
        assert_eq!(
            stats,
            FuseStats {
                candidates: 5,
                fused: 5
            }
        );
        validate(&p).unwrap();
        assert_eq!(
            cmt_ir::pretty::program_to_source(&p),
            "PROGRAM five\n\
             PARAM N\n\
             REAL A(N), C(N), D(N), E(N), F(N), G(N)\n\
             DO I1 = 1, N\n  A(I1) = C(I1)\n  D(I1) = A(I1)\nENDDO\n\
             DO I3 = 1, N\n  E(I3) = D(I3+1)\n  F(I3) = E(I3)\n  G(I3) = F(I3)\nENDDO\n"
        );
    }

    #[test]
    fn fuse_all_inner_creates_perfect_nest() {
        // The ADI pattern of Figure 3(b): DO I { DO K {S1}; DO K2 {S2} }.
        let mut b = ProgramBuilder::new("adi");
        let n = b.param("N");
        let x = b.matrix("X", n);
        let aa = b.matrix("A", n);
        let bb = b.matrix("B", n);
        b.loop_("I", 2, n, |b| {
            let i = b.var("I");
            b.loop_("K", 1, n, |b| {
                let k = b.var("K");
                let lhs = b.at(x, [i, k]);
                let rhs = Expr::load(b.at(x, [i, k]))
                    - Expr::load(b.at_vec(x, vec![Affine::var(i) - 1, Affine::var(k)]))
                        * Expr::load(b.at(aa, [i, k]))
                        / Expr::load(b.at_vec(bb, vec![Affine::var(i) - 1, Affine::var(k)]));
                b.assign(lhs, rhs);
            });
            b.loop_("K2", 1, n, |b| {
                let k2 = b.var("K2");
                let lhs = b.at(bb, [i, k2]);
                let rhs = Expr::load(b.at(bb, [i, k2]))
                    - Expr::load(b.at(aa, [i, k2])) * Expr::load(b.at(aa, [i, k2]))
                        / Expr::load(b.at_vec(bb, vec![Affine::var(i) - 1, Affine::var(k2)]));
                b.assign(lhs, rhs);
            });
        });
        let p = b.finish();
        let root = p.nests()[0];
        let fused = fuse_all_inner(&p, root).expect("ADI inner loops fuse");
        assert!(cmt_ir::visit::is_perfect(&fused));
        assert_eq!(fused.only_loop_child().unwrap().body().len(), 2);
    }

    #[test]
    fn fuse_all_inner_rejects_mixed_bodies() {
        let mut b = ProgramBuilder::new("mixed");
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
        assert!(fuse_all_inner(&p, p.nests()[0]).is_none());
    }

    #[test]
    fn fuse_pair_renames_second_nest_vars() {
        let p = two_loops(0);
        let nests = p.nests();
        let fused = fuse_pair(nests[0], nests[1], 1).expect("no capture");
        let i = p.find_var("I").unwrap();
        for s in Node::Loop(fused).statements() {
            for r in s.refs() {
                assert_eq!(r.subscripts()[0].coeff_of_var(i), 1);
            }
        }
    }
}
