//! The paper's figure kernels, exactly as written there.

use cmt_ir::affine::Affine;
use cmt_ir::build::ProgramBuilder;
use cmt_ir::expr::Expr;
use cmt_ir::program::Program;

/// Matrix multiply `C += A·B` (Figure 2) with the loops nested in the
/// given order, e.g. `"IJK"` for the textbook form or `"JKI"` for memory
/// order. Characters must be a permutation of `I`, `J`, `K`.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `"IJK"`.
pub fn matmul(order: &str) -> Program {
    let mut sorted: Vec<char> = order.chars().collect();
    sorted.sort_unstable();
    assert_eq!(sorted, vec!['I', 'J', 'K'], "order must permute IJK");
    let names: Vec<String> = order.chars().map(|c| c.to_string()).collect();

    let mut b = ProgramBuilder::new(format!("matmul-{order}"));
    let n = b.param("N");
    let a = b.matrix("A", n);
    let bb = b.matrix("B", n);
    let c = b.matrix("C", n);
    b.loop_(&names[0], 1, n, |b| {
        b.loop_(&names[1], 1, n, |b| {
            b.loop_(&names[2], 1, n, |b| {
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

/// All six loop orders of [`matmul`], least-cost first per the paper's
/// ranking (JKI, KJI, JIK, IJK, KIJ, IKJ).
pub fn matmul_orders() -> Vec<(&'static str, Program)> {
    ["JKI", "KJI", "JIK", "IJK", "KIJ", "IKJ"]
        .into_iter()
        .map(|o| (o, matmul(o)))
        .collect()
}

/// Cholesky factorization in the paper's KIJ form (Figure 7a).
pub fn cholesky_kij() -> Program {
    let mut b = ProgramBuilder::new("cholesky-KIJ");
    let n = b.param("N");
    let a = b.matrix("A", n);
    b.loop_("K", 1, n, |b| {
        let k = b.var("K");
        let akk = b.at(a, [k, k]);
        let rhs = Expr::sqrt(Expr::load(b.at(a, [k, k])));
        b.assign(akk, rhs); // S1
        b.loop_("I", Affine::var(k) + 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i, k]);
            let rhs = Expr::load(b.at(a, [i, k])) / Expr::load(b.at(a, [k, k]));
            b.assign(lhs, rhs); // S2
            b.loop_("J", Affine::var(k) + 1, i, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at(a, [i, j]))
                    - Expr::load(b.at(a, [i, k])) * Expr::load(b.at(a, [j, k]));
                b.assign(lhs, rhs); // S3
            });
        });
    });
    b.finish()
}

/// Cholesky in KJI form — the memory order the paper's Figure 7(b)
/// reaches via distribution and triangular interchange:
/// `DO K { S1; DO I {S2}; DO J { DO I {S3} } }`.
pub fn cholesky_kji() -> Program {
    let mut b = ProgramBuilder::new("cholesky-KJI");
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
        });
        b.loop_("J", Affine::var(k) + 1, n, |b| {
            let j = b.var("J");
            b.loop_("I2", Affine::var(j), n, |b| {
                let i2 = b.var("I2");
                let lhs = b.at(a, [i2, j]);
                let rhs = Expr::load(b.at(a, [i2, j]))
                    - Expr::load(b.at(a, [i2, k])) * Expr::load(b.at(a, [j, k]));
                b.assign(lhs, rhs);
            });
        });
    });
    b.finish()
}

/// Cholesky with the update sweep in KIJ order but distributed (the
/// "distributed, no interchange" point used when ranking variants).
pub fn cholesky_kij_distributed() -> Program {
    let mut b = ProgramBuilder::new("cholesky-KIJ-dist");
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
        });
        b.loop_("I2", Affine::var(k) + 1, n, |b| {
            let i2 = b.var("I2");
            b.loop_("J", Affine::var(k) + 1, i2, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [i2, j]);
                let rhs = Expr::load(b.at(a, [i2, j]))
                    - Expr::load(b.at(a, [i2, k])) * Expr::load(b.at(a, [j, k]));
                b.assign(lhs, rhs);
            });
        });
    });
    b.finish()
}

/// The named Cholesky variants compared in Figure 7's ranking study.
pub fn cholesky_variants() -> Vec<(&'static str, Program)> {
    vec![
        ("KJI", cholesky_kji()),
        ("KIJ-dist", cholesky_kij_distributed()),
        ("KIJ", cholesky_kij()),
    ]
}

/// ADI integration, Fortran-90 scalarization (Figure 3b): an imperfect
/// `I` nest containing two `K` sweeps.
pub fn adi_scalarized() -> Program {
    let mut b = ProgramBuilder::new("adi-scalarized");
    let n = b.param("N");
    let x = b.matrix("X", n);
    let a = b.matrix("A", n);
    let bb = b.matrix("B", n);
    b.loop_("I", 2, n, |b| {
        let i = b.var("I");
        b.loop_("K", 1, n, |b| {
            let k = b.var("K");
            let lhs = b.at(x, [i, k]);
            let rhs = Expr::load(b.at(x, [i, k]))
                - Expr::load(b.at_vec(x, vec![Affine::var(i) - 1, Affine::var(k)]))
                    * Expr::load(b.at(a, [i, k]))
                    / Expr::load(b.at_vec(bb, vec![Affine::var(i) - 1, Affine::var(k)]));
            b.assign(lhs, rhs);
        });
        b.loop_("K2", 1, n, |b| {
            let k2 = b.var("K2");
            let lhs = b.at(bb, [i, k2]);
            let rhs = Expr::load(b.at(bb, [i, k2]))
                - Expr::load(b.at(a, [i, k2])) * Expr::load(b.at(a, [i, k2]))
                    / Expr::load(b.at_vec(bb, vec![Affine::var(i) - 1, Affine::var(k2)]));
            b.assign(lhs, rhs);
        });
    });
    b.finish()
}

/// ADI after fusion and interchange (Figure 3c): `DO K { DO I { S1; S2 } }`.
pub fn adi_fused_interchanged() -> Program {
    let mut b = ProgramBuilder::new("adi-fused");
    let n = b.param("N");
    let x = b.matrix("X", n);
    let a = b.matrix("A", n);
    let bb = b.matrix("B", n);
    b.loop_("K", 1, n, |b| {
        let k = b.var("K");
        b.loop_("I", 2, n, |b| {
            let i = b.var("I");
            let lhs = b.at(x, [i, k]);
            let rhs = Expr::load(b.at(x, [i, k]))
                - Expr::load(b.at_vec(x, vec![Affine::var(i) - 1, Affine::var(k)]))
                    * Expr::load(b.at(a, [i, k]))
                    / Expr::load(b.at_vec(bb, vec![Affine::var(i) - 1, Affine::var(k)]));
            b.assign(lhs, rhs);
            let lhs = b.at(bb, [i, k]);
            let rhs = Expr::load(b.at(bb, [i, k]))
                - Expr::load(b.at(a, [i, k])) * Expr::load(b.at(a, [i, k]))
                    / Expr::load(b.at_vec(bb, vec![Affine::var(i) - 1, Affine::var(k)]));
            b.assign(lhs, rhs);
        });
    });
    b.finish()
}

/// An Erlebacher-style ADI sweep pipeline over 3-D data: `stages`
/// single-statement triple nests in memory order (`K`,`J`,`I` outermost to
/// innermost), each stage consuming its predecessor's output — the
/// "Distributed" program version of Table 1.
pub fn erlebacher_distributed(stages: usize) -> Program {
    assert!(stages >= 2, "a pipeline needs at least two stages");
    let mut b = ProgramBuilder::new("erlebacher-distributed");
    let n = b.param("N");
    let dims = vec![n.into(), n.into(), n.into()];
    let arrays: Vec<_> = (0..=stages)
        .map(|s| b.array(&format!("V{s}"), dims.clone()))
        .collect();
    for s in 0..stages {
        let (kn, jn, inn) = (format!("K{s}"), format!("J{s}"), format!("I{s}"));
        b.loop_(&kn, 1, n, |b| {
            b.loop_(&jn, 1, n, |b| {
                b.loop_(&inn, 1, n, |b| {
                    let (k, j, i) = (b.var(&kn), b.var(&jn), b.var(&inn));
                    let lhs = b.at(arrays[s + 1], [i, j, k]);
                    let rhs = Expr::load(b.at(arrays[s], [i, j, k])) * Expr::Const(0.5)
                        + Expr::load(b.at(arrays[s + 1], [i, j, k]));
                    b.assign(lhs, rhs);
                });
            });
        });
    }
    b.finish()
}

/// The "Hand" version of Table 1: the same pipeline with stages fused in
/// pairs (as the original author hand-coded some, but not all, fusion).
pub fn erlebacher_hand(stages: usize) -> Program {
    assert!(
        stages >= 2 && stages.is_multiple_of(2),
        "pairs require even stages"
    );
    let mut b = ProgramBuilder::new("erlebacher-hand");
    let n = b.param("N");
    let dims = vec![n.into(), n.into(), n.into()];
    let arrays: Vec<_> = (0..=stages)
        .map(|s| b.array(&format!("V{s}"), dims.clone()))
        .collect();
    for pair in 0..stages / 2 {
        let s = pair * 2;
        let (kn, jn, inn) = (format!("K{pair}"), format!("J{pair}"), format!("I{pair}"));
        b.loop_(&kn, 1, n, |b| {
            b.loop_(&jn, 1, n, |b| {
                b.loop_(&inn, 1, n, |b| {
                    let (k, j, i) = (b.var(&kn), b.var(&jn), b.var(&inn));
                    for t in [s, s + 1] {
                        let lhs = b.at(arrays[t + 1], [i, j, k]);
                        let rhs = Expr::load(b.at(arrays[t], [i, j, k])) * Expr::Const(0.5)
                            + Expr::load(b.at(arrays[t + 1], [i, j, k]));
                        b.assign(lhs, rhs);
                    }
                });
            });
        });
    }
    b.finish()
}

/// `Gmtry`-style Gaussian elimination *across rows* (§5.7): the
/// elimination loop strides along the non-contiguous dimension, so the
/// original has no spatial locality.
pub fn gmtry_rowwise() -> Program {
    let mut b = ProgramBuilder::new("gmtry-rowwise");
    let n = b.param("N");
    let a = b.matrix("RMATRX", n);
    b.loop_("K", 1, n, |b| {
        let k = b.var("K");
        b.loop_("I", Affine::var(k) + 1, n, |b| {
            let i = b.var("I");
            b.loop_("J", Affine::var(k) + 1, n, |b| {
                let j = b.var("J");
                // A(K,J) and A(K,K) stride across rows: poor locality in
                // every inner order until permuted.
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at(a, [i, j]))
                    - Expr::load(b.at(a, [i, k])) * Expr::load(b.at(a, [k, j]));
                b.assign(lhs, rhs);
            });
        });
    });
    b.finish()
}

/// Every figure kernel, one entry per distinct program, keyed by the
/// program's own name. This is the profiling subsystem's ground-truth
/// workload: a sampled hotspot ranking over these kernels is compared
/// against full simulation in tests and CI (`cmt-profile --check`).
///
/// The list is deterministic (fixed order, fixed names) and every
/// program is valid for any `N >= 5`, like the generated verify corpus.
pub fn paper_kernels() -> Vec<Program> {
    let mut kernels: Vec<Program> = matmul_orders().into_iter().map(|(_, p)| p).collect();
    kernels.extend([
        cholesky_kij(),
        cholesky_kji(),
        cholesky_kij_distributed(),
        adi_scalarized(),
        adi_fused_interchanged(),
        erlebacher_distributed(4),
        erlebacher_hand(4),
        gmtry_rowwise(),
    ]);
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::validate::validate;
    use cmt_locality::model::CostModel;

    #[test]
    fn all_kernels_validate() {
        for (_, p) in matmul_orders() {
            validate(&p).unwrap();
        }
        for (_, p) in cholesky_variants() {
            validate(&p).unwrap();
        }
        validate(&adi_scalarized()).unwrap();
        validate(&adi_fused_interchanged()).unwrap();
        validate(&erlebacher_distributed(4)).unwrap();
        validate(&erlebacher_hand(4)).unwrap();
        validate(&gmtry_rowwise()).unwrap();
    }

    #[test]
    fn matmul_jki_is_memory_order() {
        let model = CostModel::new(4);
        let p = matmul("JKI");
        assert!(model.analyze(&p, p.nests()[0]).in_memory_order());
        let p = matmul("IJK");
        assert!(!model.analyze(&p, p.nests()[0]).in_memory_order());
    }

    #[test]
    fn matmul_variants_compute_identically() {
        let base = matmul("IJK");
        for (name, p) in matmul_orders() {
            cmt_interp::assert_equivalent(&base, &p, &[10]);
            let _ = name;
        }
    }

    #[test]
    fn cholesky_variants_compute_identically() {
        let base = cholesky_kij();
        // Seed a symmetric positive-definite-ish matrix: the default
        // machine init is positive and diagonally safe for these sizes.
        for (name, p) in cholesky_variants() {
            cmt_interp::assert_equivalent(&base, &p, &[12]);
            let _ = name;
        }
    }

    #[test]
    fn adi_versions_compute_identically() {
        cmt_interp::assert_equivalent(&adi_scalarized(), &adi_fused_interchanged(), &[12]);
    }

    #[test]
    fn erlebacher_versions_compute_identically() {
        cmt_interp::assert_equivalent(&erlebacher_distributed(4), &erlebacher_hand(4), &[8]);
    }

    #[test]
    fn paper_kernels_have_unique_names_and_validate() {
        let kernels = paper_kernels();
        assert!(kernels.len() >= 12);
        let names: std::collections::HashSet<&str> = kernels.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), kernels.len(), "kernel names must be unique");
        for p in &kernels {
            validate(p).unwrap_or_else(|e| panic!("{}: {e:?}", p.name()));
        }
    }

    #[test]
    fn matmul_bad_order_panics() {
        let result = std::panic::catch_unwind(|| matmul("IIK"));
        assert!(result.is_err());
    }
}
