//! Loop tiling (paper §6) — strip-mine + interchange.
//!
//! Memory order maximizes short-term reuse across inner-loop iterations;
//! tiling captures *long-term* reuse carried by outer loops, the paper's
//! stated next step ("the primary criterion for tiling is to create
//! loop-invariant references with respect to the target loop"). This
//! module applies the mechanical transformation on candidates found by
//! [`crate::tiling::tiling_candidates`]:
//!
//! ```text
//! DO I = lb, ub            DO II = lb, ub, T        (control, hoisted)
//!   body          →          …
//!                            DO I = II, II+T−1      (intra-tile)
//!                              body
//! ```
//!
//! # Exactness
//!
//! Our affine bounds cannot express `MIN(II+T−1, ub)`, so the intra-tile
//! loop always runs a full tile: **the transformation is exact only when
//! the loop's trip count is a multiple of the tile size.** Callers pick
//! tile sizes accordingly (the included tests and benches do); an
//! indivisible trip over-runs and is caught by the interpreter's bounds
//! checking rather than silently mis-executing.

use cmt_dependence::analyze_nest;
use cmt_ir::affine::Affine;
use cmt_ir::ids::{LoopId, VarId};
use cmt_ir::node::{Loop, Node};
use cmt_ir::program::Program;
use cmt_ir::visit::{is_perfect, perfect_chain};
use std::fmt;

/// Why tiling was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileError {
    /// The nest is not a perfect chain down to statements.
    NotPerfect,
    /// A dependence in the band `hoist_to..=depth` has a negative entry,
    /// so interchanging the control loop outward would be illegal.
    IllegalBand,
    /// The target loop's bounds reference variables of the loops the
    /// control loop must cross (non-rectangular hoist).
    ComplexBounds,
    /// Tile size must be at least 2.
    BadTile,
    /// `depth`/`hoist_to` do not address the chain properly.
    BadPosition,
}

impl fmt::Display for TileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TileError::NotPerfect => "nest is not perfect",
            TileError::IllegalBand => "dependences forbid tiling this band",
            TileError::ComplexBounds => "bounds too complex to hoist the control loop",
            TileError::BadTile => "tile size must be at least 2",
            TileError::BadPosition => "invalid depth or hoist position",
        };
        f.write_str(s)
    }
}

/// Result of a successful [`tile_loop`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileOutcome {
    /// The new tile-control variable.
    pub control_var: VarId,
    /// The new control loop's id (now at `hoist_to`).
    pub control_loop: LoopId,
}

/// Tiles the chain loop at `depth` of top-level nest `nest_idx` with the
/// given `tile` size, hoisting the control loop to chain position
/// `hoist_to` (≤ `depth`).
///
/// Legality follows the classic criterion: every dependence vector must
/// be non-negative throughout the band `hoist_to..=depth` (the band is
/// fully permutable), since tiling reorders iterations within the band.
///
/// # Errors
///
/// See [`TileError`].
pub fn tile_loop(
    program: &mut Program,
    nest_idx: usize,
    depth: usize,
    tile: i64,
    hoist_to: usize,
) -> Result<TileOutcome, TileError> {
    if tile < 2 {
        return Err(TileError::BadTile);
    }
    let root = program.body()[nest_idx]
        .as_loop()
        .ok_or(TileError::BadPosition)?
        .clone();
    if !is_perfect(&root) {
        return Err(TileError::NotPerfect);
    }
    let chain = perfect_chain(&root);
    if depth >= chain.len() || hoist_to > depth {
        return Err(TileError::BadPosition);
    }
    let target = chain[depth];
    if target.step() != 1 {
        return Err(TileError::ComplexBounds);
    }
    // The control loop will sit above loops hoist_to..depth; its bounds
    // (the target's bounds) must not reference those loops' variables.
    for crossed in &chain[hoist_to..depth] {
        if target.lower().mentions_var(crossed.var()) || target.upper().mentions_var(crossed.var())
        {
            return Err(TileError::ComplexBounds);
        }
    }
    // Band legality: vectors not already carried by a loop outside the
    // band must be non-negative at every band entry.
    let graph = analyze_nest(program, &root);
    for d in graph.constraining() {
        if d.vector.len() != chain.len() {
            continue;
        }
        let carried_outside = d.vector.elems()[..hoist_to]
            .iter()
            .any(|e| e.direction() == cmt_dependence::Direction::Lt);
        if carried_outside {
            continue;
        }
        for k in hoist_to..=depth {
            let e = d.vector.elems()[k];
            if e.direction().may_gt() {
                return Err(TileError::IllegalBand);
            }
        }
    }

    // Build the rewritten chain.
    let control_name = format!("{}T", program.var_name(target.var()));
    let control_var = program.declare_var(control_name);
    let control_id = program.fresh_loop_id();
    let (t_lo, t_hi) = (target.lower().clone(), target.upper().clone());
    let target_var = target.var();
    let target_id = target.id();

    // New intra-tile bounds: II .. II+T−1.
    let Node::Loop(root_mut) = &mut program.body_mut()[nest_idx] else {
        return Err(TileError::BadPosition);
    };
    rewrite_target_bounds(
        root_mut,
        target_id,
        Affine::var(control_var),
        Affine::var(control_var) + (tile - 1),
    );

    // Wrap: take the subtree at hoist_to, nest it under the control loop.
    insert_control(
        root_mut,
        hoist_to,
        control_id,
        control_var,
        t_lo,
        t_hi,
        tile,
    );
    let _ = target_var;
    Ok(TileOutcome {
        control_var,
        control_loop: control_id,
    })
}

/// Rewrites the bounds of the chain loop with the given id.
fn rewrite_target_bounds(root: &mut Loop, target: LoopId, lo: Affine, hi: Affine) {
    if root.id() == target {
        root.set_header(root.id(), root.var(), lo, hi, root.step());
        return;
    }
    if let Some(Node::Loop(child)) = root.body_mut().first_mut() {
        rewrite_target_bounds(child, target, lo, hi);
    }
}

/// Nests the chain subtree at `pos` under a new control loop.
fn insert_control(
    root: &mut Loop,
    pos: usize,
    id: LoopId,
    var: VarId,
    lo: Affine,
    hi: Affine,
    step: i64,
) {
    if pos == 0 {
        // The control loop becomes the new root content: swap root's
        // header into a fresh loop below the control header. Easiest:
        // clone the whole subtree, wrap, and replace.
        let inner = root.clone();
        let control = Loop::new(id, var, lo, hi, step, vec![Node::Loop(inner)]);
        *root = control;
        return;
    }
    if pos == 1 {
        let child = root.body_mut()[0]
            .as_loop_mut()
            .expect("perfect chain expected");
        let inner = child.clone();
        let control = Loop::new(id, var, lo, hi, step, vec![Node::Loop(inner)]);
        *child = control;
        return;
    }
    let child = root.body_mut()[0]
        .as_loop_mut()
        .expect("perfect chain expected");
    insert_control(child, pos - 1, id, var, lo, hi, step);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;
    use cmt_ir::validate::validate;

    fn matmul_jki() -> Program {
        let mut b = ProgramBuilder::new("mm");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let bb = b.matrix("B", n);
        let c = b.matrix("C", n);
        b.loop_("J", 1, n, |b| {
            b.loop_("K", 1, n, |b| {
                b.loop_("I", 1, n, |b| {
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
    fn tiled_matmul_is_equivalent() {
        let orig = matmul_jki();
        let mut p = orig.clone();
        // Tile the K loop (depth 1) with T=8, hoist to outermost.
        let out = tile_loop(&mut p, 0, 1, 8, 0).expect("tiling legal");
        validate(&p).unwrap();
        // Chain is now KT, J, K, I.
        let chain: Vec<&str> = perfect_chain(p.nests()[0])
            .iter()
            .map(|l| p.var_name(l.var()))
            .collect();
        assert_eq!(chain, vec!["KT", "J", "K", "I"]);
        let control = perfect_chain(p.nests()[0])[0];
        assert_eq!(control.id(), out.control_loop);
        assert_eq!(control.step(), 8);
        // Exact for divisible trip counts.
        cmt_interp::assert_equivalent(&orig, &p, &[16]);
        cmt_interp::assert_equivalent(&orig, &p, &[24]);
    }

    #[test]
    fn tiling_two_loops_composes() {
        let orig = matmul_jki();
        let mut p = orig.clone();
        tile_loop(&mut p, 0, 1, 4, 0).expect("tile K");
        // Chain: KT, J, K, I — now tile I (depth 3) hoisting below KT.
        tile_loop(&mut p, 0, 3, 4, 1).expect("tile I");
        validate(&p).unwrap();
        let chain: Vec<&str> = perfect_chain(p.nests()[0])
            .iter()
            .map(|l| p.var_name(l.var()))
            .collect();
        assert_eq!(chain, vec!["KT", "IT", "J", "K", "I"]);
        cmt_interp::assert_equivalent(&orig, &p, &[16]);
    }

    #[test]
    fn dependence_blocks_tiling() {
        // A wavefront: (1, −1)-style vectors make the band not fully
        // permutable.
        let mut b = ProgramBuilder::new("w");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 2, n, |b| {
            b.loop_("J", 2, Affine::param(n) - 1, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at_vec(a, vec![Affine::var(i) - 1, Affine::var(j) + 1]));
                b.assign(lhs, rhs);
            });
        });
        let mut p = b.finish();
        assert_eq!(tile_loop(&mut p, 0, 1, 4, 0), Err(TileError::IllegalBand));
    }

    #[test]
    fn triangular_hoist_rejected() {
        let mut b = ProgramBuilder::new("tri");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            b.loop_("J", 1, i, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::Const(0.0));
            });
        });
        let mut p = b.finish();
        // J's upper bound references I: hoisting J's control past I is
        // refused.
        assert_eq!(tile_loop(&mut p, 0, 1, 4, 0), Err(TileError::ComplexBounds));
    }

    #[test]
    fn bad_parameters_rejected() {
        let mut p = matmul_jki();
        assert_eq!(tile_loop(&mut p, 0, 1, 1, 0), Err(TileError::BadTile));
        assert_eq!(tile_loop(&mut p, 0, 9, 4, 0), Err(TileError::BadPosition));
        assert_eq!(tile_loop(&mut p, 0, 1, 4, 2), Err(TileError::BadPosition));
    }

    #[test]
    fn tiling_improves_small_cache_reuse() {
        use cmt_cache::{CacheConfig, ShardedCache};
        use cmt_interp::Layout;
        let orig = matmul_jki();
        let mut tiled = orig.clone();
        tile_loop(&mut tiled, 0, 1, 8, 0).expect("tile K");
        let run = |p: &cmt_ir::Program| {
            let layout = Layout::new(p, &[64]).expect("alloc");
            let mut c = ShardedCache::new(CacheConfig::i860());
            layout.trace(p, &mut c).expect("exec");
            c.stats().warm_misses()
        };
        let untiled = run(&orig);
        let after = run(&tiled);
        assert!(
            after < untiled,
            "tiling should cut misses: {after} vs {untiled}"
        );
    }
}
