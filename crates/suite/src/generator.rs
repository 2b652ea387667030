//! Seeded random program generation, for fuzzing and stress benches.
//!
//! Produces valid, in-bounds programs of rectangular nests (depth 2–3,
//! with optional imperfect statements and adjacent-nest structure) whose
//! subscripts mix unit-stride, transposed, offset, and loop-invariant
//! patterns — the population the optimizer faces in practice. All
//! generation is deterministic in the seed.

use cmt_ir::affine::Affine;
use cmt_ir::build::ProgramBuilder;
use cmt_ir::expr::{BinOp, Expr};
use cmt_ir::ids::{ArrayId, VarId};
use cmt_ir::program::Program;
use cmt_obs::SplitMix64;

/// Tunables for [`generate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenConfig {
    /// Number of top-level nests.
    pub nests: usize,
    /// Number of shared arrays.
    pub arrays: usize,
    /// Maximum statements per nest.
    pub max_stmts: usize,
    /// Allow depth-3 nests.
    pub allow_depth3: bool,
    /// Allow an imperfect statement between loop levels.
    pub allow_imperfect: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            nests: 3,
            arrays: 4,
            max_stmts: 2,
            allow_depth3: true,
            allow_imperfect: true,
        }
    }
}

/// Generates a random valid program. Subscript offsets stay within ±1
/// and loops run `2 .. N−1`, so execution is in bounds for any `N ≥ 4`.
pub fn generate(seed: u64, config: &GenConfig) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut b = ProgramBuilder::new(format!("gen-{seed}"));
    let n = b.param("N");
    let arrays: Vec<ArrayId> = (0..config.arrays.max(1))
        .map(|k| b.matrix(&format!("G{k}"), n))
        .collect();

    for nest in 0..config.nests.max(1) {
        let depth3 = config.allow_depth3 && rng.gen_bool(0.3);
        let order_swap = rng.gen_bool(0.5);
        let stmts = rng.gen_range_usize(1, config.max_stmts.max(1));
        let imperfect = config.allow_imperfect && !depth3 && rng.gen_bool(0.25);

        let (outer, inner) = if order_swap {
            (format!("J{nest}"), format!("I{nest}"))
        } else {
            (format!("I{nest}"), format!("J{nest}"))
        };
        let mid = format!("K{nest}");

        // Split RNG decisions out so the closure need not capture rng.
        #[derive(Clone, Copy)]
        struct RefPlan {
            array: usize,
            pattern: u8,
            off1: i64,
            off2: i64,
        }
        let plan_ref = |rng: &mut SplitMix64| RefPlan {
            array: rng.gen_range_usize(0, arrays.len() - 1),
            pattern: rng.gen_range_i64(0, 3) as u8,
            off1: rng.gen_range_i64(-1, 1),
            off2: rng.gen_range_i64(-1, 1),
        };
        let plans: Vec<(RefPlan, RefPlan, RefPlan, BinOp)> = (0..stmts)
            .map(|_| {
                let op = match rng.gen_range_i64(0, 2) {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    _ => BinOp::Mul,
                };
                (
                    plan_ref(&mut rng),
                    plan_ref(&mut rng),
                    plan_ref(&mut rng),
                    op,
                )
            })
            .collect();
        let imperfect_plan = imperfect.then(|| plan_ref(&mut rng));

        let mk_ref = |b: &ProgramBuilder, p: RefPlan, i: VarId, j: VarId| {
            let (s1, s2) = match p.pattern {
                0 => (Affine::var(i) + p.off1, Affine::var(j) + p.off2),
                1 => (Affine::var(j) + p.off1, Affine::var(i) + p.off2),
                2 => (Affine::var(i) + p.off1, Affine::constant(2)),
                _ => (Affine::constant(2), Affine::var(j) + p.off2),
            };
            b.at_vec(arrays[p.array], vec![s1, s2])
        };
        let emit_stmts = |b: &mut ProgramBuilder, i: VarId, j: VarId| {
            for (t, la, lb, op) in &plans {
                let lhs = mk_ref(b, *t, i, j);
                let ea = Expr::load(mk_ref(b, *la, i, j));
                let eb = Expr::load(mk_ref(b, *lb, i, j));
                b.assign(lhs, Expr::Binary(*op, Box::new(ea), Box::new(eb)));
            }
        };

        b.loop_(&outer, 2, Affine::param(n) - 1, |b| {
            let i = b.var(&format!("I{nest}"));
            let j = b.var(&format!("J{nest}"));
            if let Some(p) = imperfect_plan {
                let lhs = mk_ref(b, p, i, j);
                // The imperfect statement sits above the inner loop; it
                // may only use the *outer* variable.
                let outer_var = if order_swap { j } else { i };
                let lhs = lhs.map_subscripts(|sub| {
                    // Project away the not-yet-bound variable.
                    let dead = if order_swap { i } else { j };
                    sub.substitute_var(dead, &Affine::constant(2))
                });
                b.assign(lhs, Expr::Index(outer_var));
            }
            if depth3 {
                b.loop_(&mid, 2, Affine::param(n) - 1, |b| {
                    b.loop_(&inner, 2, Affine::param(n) - 1, |b| {
                        emit_stmts(b, i, j);
                    });
                });
            } else {
                b.loop_(&inner, 2, Affine::param(n) - 1, |b| {
                    emit_stmts(b, i, j);
                });
            }
        });
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::validate::validate;
    use cmt_locality::{compound::compound, model::CostModel};

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate(42, &cfg);
        let b = generate(42, &cfg);
        assert_eq!(a, b);
        let c = generate(43, &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_programs_validate_and_execute() {
        let cfg = GenConfig::default();
        for seed in 0..30 {
            let p = generate(seed, &cfg);
            validate(&p).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let layout = cmt_interp::Layout::new(&p, &[8]).expect("alloc");
            layout
                .trace(&p, &mut cmt_interp::NullSink)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn compound_is_safe_on_generated_programs() {
        let cfg = GenConfig::default();
        let model = CostModel::new(4);
        for seed in 0..30 {
            let orig = generate(seed, &cfg);
            let mut p = orig.clone();
            let _ = compound(&mut p, &model);
            validate(&p).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            cmt_interp::assert_equivalent(&orig, &p, &[9]);
        }
    }

    #[test]
    fn config_knobs_are_respected() {
        let cfg = GenConfig {
            nests: 5,
            arrays: 2,
            max_stmts: 1,
            allow_depth3: false,
            allow_imperfect: false,
        };
        let p = generate(7, &cfg);
        assert_eq!(p.nests().len(), 5);
        assert_eq!(p.arrays().len(), 2);
        for nest in p.nests() {
            assert!(cmt_ir::node::Node::Loop(nest.clone()).depth() <= 2);
            assert!(cmt_ir::visit::is_perfect(nest));
        }
    }
}
