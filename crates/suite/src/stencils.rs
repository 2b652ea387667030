//! Additional scientific kernels in the paper's domain.
//!
//! These extend [`crate::kernels`] with the loop shapes the benchmark
//! suites of the era are made of: relaxations, transposition, banded and
//! block solvers, and BLAS-style updates. Each comes in a "bad stride"
//! and/or natural form so the optimizer has real work to do, and each is
//! exercised by equivalence and transformation tests.

use cmt_ir::affine::Affine;
use cmt_ir::build::ProgramBuilder;
use cmt_ir::expr::Expr;
use cmt_ir::program::Program;

/// Jacobi 2-D relaxation, `order` selects `"IJ"` (row-major walk — bad for
/// Fortran) or `"JI"` (memory order):
/// `B(I,J) = 0.25·(A(I−1,J)+A(I+1,J)+A(I,J−1)+A(I,J+1))`.
pub fn jacobi2d(order: &str) -> Program {
    assert!(order == "IJ" || order == "JI", "order must be IJ or JI");
    let mut b = ProgramBuilder::new(format!("jacobi2d-{order}"));
    let n = b.param("N");
    let a = b.matrix("A", n);
    let out = b.matrix("B", n);
    let body = |b: &mut ProgramBuilder| {
        let (i, j) = (b.var("I"), b.var("J"));
        let lhs = b.at(out, [i, j]);
        let rhs = (Expr::load(b.at_vec(a, vec![Affine::var(i) - 1, Affine::var(j)]))
            + Expr::load(b.at_vec(a, vec![Affine::var(i) + 1, Affine::var(j)]))
            + Expr::load(b.at_vec(a, vec![Affine::var(i), Affine::var(j) - 1]))
            + Expr::load(b.at_vec(a, vec![Affine::var(i), Affine::var(j) + 1])))
            * Expr::Const(0.25);
        b.assign(lhs, rhs);
    };
    if order == "IJ" {
        b.loop_("I", 2, Affine::param(n) - 1, |b| {
            b.loop_("J", 2, Affine::param(n) - 1, body);
        });
    } else {
        b.loop_("J", 2, Affine::param(n) - 1, |b| {
            b.loop_("I", 2, Affine::param(n) - 1, body);
        });
    }
    b.finish()
}

/// Gauss–Seidel / SOR sweep with the classic wavefront dependence
/// (`A(I,J)` updated from `A(I−1,J)` and `A(I,J−1)`): every interchange
/// is legal here (vectors (1,0) and (0,1)) but tiling the band is too —
/// a workhorse for legality tests.
pub fn sor(order_ij: bool) -> Program {
    let mut b = ProgramBuilder::new(if order_ij { "sor-IJ" } else { "sor-JI" });
    let n = b.param("N");
    let a = b.matrix("A", n);
    let body = |b: &mut ProgramBuilder| {
        let (i, j) = (b.var("I"), b.var("J"));
        let lhs = b.at(a, [i, j]);
        let rhs = (Expr::load(b.at(a, [i, j]))
            + Expr::load(b.at_vec(a, vec![Affine::var(i) - 1, Affine::var(j)]))
            + Expr::load(b.at_vec(a, vec![Affine::var(i), Affine::var(j) - 1])))
            * Expr::Const(1.0 / 3.0);
        b.assign(lhs, rhs);
    };
    if order_ij {
        b.loop_("I", 2, n, |b| {
            b.loop_("J", 2, n, body);
        });
    } else {
        b.loop_("J", 2, n, |b| {
            b.loop_("I", 2, n, body);
        });
    }
    b.finish()
}

/// Out-of-place matrix transpose `B(J,I) = A(I,J)`: the canonical kernel
/// where *no* loop order achieves unit stride for both references —
/// LoopCost ties, and §6's observation about tiling outer loops with many
/// unit-stride references applies.
pub fn transpose() -> Program {
    let mut b = ProgramBuilder::new("transpose");
    let n = b.param("N");
    let a = b.matrix("A", n);
    let t = b.matrix("B", n);
    b.loop_("I", 1, n, |b| {
        b.loop_("J", 1, n, |b| {
            let (i, j) = (b.var("I"), b.var("J"));
            let lhs = b.at(t, [j, i]);
            let rhs = Expr::load(b.at(a, [i, j]));
            b.assign(lhs, rhs);
        });
    });
    b.finish()
}

/// Symmetric rank-2k update (`C += A·Bᵀ + B·Aᵀ` restricted to the lower
/// triangle) — a triangular-bounds kernel beyond Cholesky.
pub fn syr2k() -> Program {
    let mut b = ProgramBuilder::new("syr2k");
    let n = b.param("N");
    let a = b.matrix("A", n);
    let bb = b.matrix("B", n);
    let c = b.matrix("C", n);
    b.loop_("J", 1, n, |b| {
        let j = b.var("J");
        b.loop_("I", j, n, |b| {
            b.loop_("K", 1, n, |b| {
                let (i, k) = (b.var("I"), b.var("K"));
                let lhs = b.at(c, [i, j]);
                let rhs = Expr::load(b.at(c, [i, j]))
                    + Expr::load(b.at(a, [i, k])) * Expr::load(b.at(bb, [j, k]))
                    + Expr::load(b.at(bb, [i, k])) * Expr::load(b.at(a, [j, k]));
                b.assign(lhs, rhs);
            });
        });
    });
    b.finish()
}

/// Right-looking LU factorization without pivoting (KIJ form) — the same
/// distribution-then-interchange shape as Cholesky, minus the square
/// root.
pub fn lu_kij() -> Program {
    let mut b = ProgramBuilder::new("lu-KIJ");
    let n = b.param("N");
    let a = b.matrix("A", n);
    b.loop_("K", 1, Affine::param(n) - 1, |b| {
        let k = b.var("K");
        b.loop_("I", Affine::var(k) + 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i, k]);
            let rhs = Expr::load(b.at(a, [i, k])) / Expr::load(b.at(a, [k, k]));
            b.assign(lhs, rhs);
            b.loop_("J", Affine::var(k) + 1, n, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at(a, [i, j]))
                    - Expr::load(b.at(a, [i, k])) * Expr::load(b.at(a, [k, j]));
                b.assign(lhs, rhs);
            });
        });
    });
    b.finish()
}

/// `vpenta`-style pentadiagonal inversion sweep written with the vector
/// dimension outermost (the SPEC kernel's notorious bad-stride shape):
/// every array is walked across rows until the optimizer interchanges.
pub fn vpenta_rowwise() -> Program {
    let mut b = ProgramBuilder::new("vpenta-rowwise");
    let n = b.param("N");
    let f = b.matrix("F", n);
    let x = b.matrix("X", n);
    let y = b.matrix("Y", n);
    b.loop_("J", 3, Affine::param(n) - 2, |b| {
        b.loop_("I", 1, n, |b| {
            let (i, j) = (b.var("I"), b.var("J"));
            // Recurrence along J (outer): vectorizable form.
            let lhs = b.at(f, [j, i]);
            let rhs = Expr::load(b.at(f, [j, i]))
                - Expr::load(b.at_vec(f, vec![Affine::var(j) - 1, Affine::var(i)]))
                    * Expr::load(b.at(x, [j, i]))
                - Expr::load(b.at_vec(f, vec![Affine::var(j) - 2, Affine::var(i)]))
                    * Expr::load(b.at(y, [j, i]));
            b.assign(lhs, rhs);
        });
    });
    b.finish()
}

/// A 3-D 7-point stencil (`appbt`/`appsp` building block), already in
/// memory order.
pub fn stencil3d() -> Program {
    let mut b = ProgramBuilder::new("stencil3d");
    let n = b.param("N");
    let dims = vec![n.into(), n.into(), n.into()];
    let a = b.array("A", dims.clone());
    let out = b.array("B", dims);
    b.loop_("K", 2, Affine::param(n) - 1, |b| {
        b.loop_("J", 2, Affine::param(n) - 1, |b| {
            b.loop_("I", 2, Affine::param(n) - 1, |b| {
                let (i, j, k) = (b.var("I"), b.var("J"), b.var("K"));
                let lhs = b.at(out, [i, j, k]);
                let rhs = (Expr::load(
                    b.at_vec(a, vec![Affine::var(i) - 1, Affine::var(j), Affine::var(k)]),
                ) + Expr::load(
                    b.at_vec(a, vec![Affine::var(i) + 1, Affine::var(j), Affine::var(k)]),
                ) + Expr::load(
                    b.at_vec(a, vec![Affine::var(i), Affine::var(j) - 1, Affine::var(k)]),
                ) + Expr::load(
                    b.at_vec(a, vec![Affine::var(i), Affine::var(j) + 1, Affine::var(k)]),
                ) + Expr::load(
                    b.at_vec(a, vec![Affine::var(i), Affine::var(j), Affine::var(k) - 1]),
                ) + Expr::load(
                    b.at_vec(a, vec![Affine::var(i), Affine::var(j), Affine::var(k) + 1]),
                )) * Expr::Const(1.0 / 6.0);
                b.assign(lhs, rhs);
            });
        });
    });
    b.finish()
}

/// `daxpy`-style depth-1 loop (`linpackd`'s modular style): too shallow
/// for the optimizer, present to exercise the depth-≥2 filter.
pub fn daxpy() -> Program {
    let mut b = ProgramBuilder::new("daxpy");
    let n = b.param("N");
    let x = b.array("X", vec![n.into()]);
    let y = b.array("Y", vec![n.into()]);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        let lhs = b.at(y, [i]);
        let rhs = Expr::load(b.at(y, [i])) + Expr::Const(3.0) * Expr::load(b.at(x, [i]));
        b.assign(lhs, rhs);
    });
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::validate::validate;
    use cmt_locality::compound::compound;
    use cmt_locality::model::CostModel;

    #[test]
    fn all_stencil_kernels_validate() {
        for p in [
            jacobi2d("IJ"),
            jacobi2d("JI"),
            sor(true),
            sor(false),
            transpose(),
            syr2k(),
            lu_kij(),
            vpenta_rowwise(),
            stencil3d(),
            daxpy(),
        ] {
            validate(&p).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        }
    }

    #[test]
    fn jacobi_orders_equivalent_and_fixed() {
        cmt_interp::assert_equivalent(&jacobi2d("IJ"), &jacobi2d("JI"), &[12]);
        let model = CostModel::new(4);
        let mut bad = jacobi2d("IJ");
        let orig = bad.clone();
        let r = compound(&mut bad, &model);
        assert_eq!(r.nests_permuted, 1, "{r:#?}");
        cmt_interp::assert_equivalent(&orig, &bad, &[12]);
        let good = jacobi2d("JI");
        assert!(model.analyze(&good, good.nests()[0]).in_memory_order());
    }

    #[test]
    fn sor_interchange_is_legal_and_applied() {
        // Wavefront vectors (1,0) and (0,1): interchange legal; memory
        // order is JI.
        let model = CostModel::new(4);
        let mut p = sor(true);
        let orig = p.clone();
        let r = compound(&mut p, &model);
        assert_eq!(r.nests_permuted, 1, "{r:#?}");
        cmt_interp::assert_equivalent(&orig, &p, &[11]);
    }

    #[test]
    fn transpose_cost_ties() {
        // Neither order wins: LoopCost(I) == LoopCost(J).
        let model = CostModel::new(4);
        let p = transpose();
        let costs = model.analyze(&p, p.nests()[0]).entries;
        assert_eq!(
            costs[0].cost.dominating_cmp(&costs[1].cost),
            std::cmp::Ordering::Equal
        );
        // Ties keep the original order: nothing to do.
        let mut q = p.clone();
        let r = compound(&mut q, &model);
        assert_eq!(r.nests_permuted, 0);
        assert_eq!(p, q);
    }

    #[test]
    fn lu_distributes_like_cholesky() {
        let model = CostModel::new(4);
        let mut p = lu_kij();
        let orig = p.clone();
        let r = compound(&mut p, &model);
        assert_eq!(r.distributions, 1, "{r:#?}");
        cmt_interp::assert_equivalent(&orig, &p, &[12]);
    }

    #[test]
    fn vpenta_gets_interchanged() {
        let model = CostModel::new(4);
        let mut p = vpenta_rowwise();
        let orig = p.clone();
        let r = compound(&mut p, &model);
        assert!(r.inner_permuted >= 1, "{r:#?}");
        assert!(model.analyze(&p, p.nests()[0]).inner_loop_in_position());
        cmt_interp::assert_equivalent(&orig, &p, &[14]);
    }

    #[test]
    fn stencil3d_already_optimal() {
        let model = CostModel::new(4);
        let mut p = stencil3d();
        let before = p.clone();
        let r = compound(&mut p, &model);
        assert_eq!(r.nests_orig_memory_order, 1, "{r:#?}");
        assert_eq!(p, before);
    }

    #[test]
    fn syr2k_triangular_analysis_runs() {
        let model = CostModel::new(4);
        let p = syr2k();
        let analysis = model.analyze(&p, p.nests()[0]);
        let costs = &analysis.entries;
        assert_eq!(costs.len(), 3);
        // K must NOT be the cheapest innermost (it touches new lines of
        // every operand).
        let order = analysis.memory_order();
        let innermost = *order.last().unwrap();
        let k = p.find_var("K").unwrap();
        let inner_var = costs.iter().find(|e| e.loop_id == innermost).unwrap().var;
        assert_ne!(inner_var, k);
    }

    #[test]
    fn daxpy_skipped_by_compound() {
        let model = CostModel::new(4);
        let mut p = daxpy();
        let r = compound(&mut p, &model);
        assert_eq!(r.nests_total, 0);
        assert_eq!(r.loops_total, 1);
    }
}
