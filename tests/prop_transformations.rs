//! Property-style correctness: the compound algorithm preserves program
//! semantics on randomized loop nests, and the cost machinery satisfies
//! its algebraic contracts. Inputs come from the seeded in-repo PRNG so
//! the suite is deterministic and fully offline.

use cmt_ir::ids::ParamId;
use cmt_locality_repro::interp::equivalent;
use cmt_locality_repro::ir::affine::Affine;
use cmt_locality_repro::ir::build::ProgramBuilder;
use cmt_locality_repro::ir::expr::{BinOp, Expr};
use cmt_locality_repro::ir::program::Program;
use cmt_locality_repro::locality::compound::{compound, compound_with, CompoundOptions};
use cmt_locality_repro::locality::model::CostModel;
use cmt_locality_repro::locality::{CostPoly, NullProvenance};
use cmt_locality_repro::obs::{NullObs, SplitMix64};

/// A randomized reference: which array, subscript order, and offsets.
#[derive(Clone, Debug)]
struct RefSpec {
    array: usize,
    swap_subs: bool,
    off1: i64,
    off2: i64,
}

/// A randomized statement: a store target and two loads combined with an
/// operator.
#[derive(Clone, Debug)]
struct StmtSpec {
    target: RefSpec,
    load_a: RefSpec,
    load_b: RefSpec,
    op: BinOp,
}

/// A randomized nest: loop order (IJ or JI), statements.
#[derive(Clone, Debug)]
struct NestSpec {
    ji_order: bool,
    stmts: Vec<StmtSpec>,
}

fn random_ref(rng: &mut SplitMix64, arrays: usize) -> RefSpec {
    RefSpec {
        array: rng.gen_range_usize(0, arrays - 1),
        swap_subs: rng.gen_bool(0.5),
        off1: rng.gen_range_i64(-1, 1),
        off2: rng.gen_range_i64(-1, 1),
    }
}

fn random_stmt(rng: &mut SplitMix64, arrays: usize) -> StmtSpec {
    let op = match rng.gen_range_i64(0, 2) {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        _ => BinOp::Mul,
    };
    StmtSpec {
        target: random_ref(rng, arrays),
        load_a: random_ref(rng, arrays),
        load_b: random_ref(rng, arrays),
        op,
    }
}

fn random_nest(rng: &mut SplitMix64, arrays: usize) -> NestSpec {
    let stmts = rng.gen_range_usize(1, 2);
    NestSpec {
        ji_order: rng.gen_bool(0.5),
        stmts: (0..stmts).map(|_| random_stmt(rng, arrays)).collect(),
    }
}

fn random_program(rng: &mut SplitMix64) -> Vec<NestSpec> {
    let nests = rng.gen_range_usize(1, 3);
    (0..nests).map(|_| random_nest(rng, 3)).collect()
}

/// Materializes the specs into an IR program. Offsets are within ±1 and
/// loops run 2..N−1, so every access is in bounds.
fn build_program(nests: &[NestSpec]) -> Program {
    let mut b = ProgramBuilder::new("random");
    let n = b.param("N");
    let arrays: Vec<_> = (0..3).map(|k| b.matrix(&format!("A{k}"), n)).collect();
    let mk_ref = |b: &ProgramBuilder, spec: &RefSpec, i, j| {
        let (s1, s2) = if spec.swap_subs {
            (Affine::var(j) + spec.off1, Affine::var(i) + spec.off2)
        } else {
            (Affine::var(i) + spec.off1, Affine::var(j) + spec.off2)
        };
        b.at_vec(arrays[spec.array], vec![s1, s2])
    };
    for (k, nest) in nests.iter().enumerate() {
        let (outer, inner) = if nest.ji_order {
            (format!("J{k}"), format!("I{k}"))
        } else {
            (format!("I{k}"), format!("J{k}"))
        };
        b.loop_(&outer, 2, Affine::param(n) - 1, |b| {
            b.loop_(&inner, 2, Affine::param(n) - 1, |b| {
                let i = b.var(&format!("I{k}"));
                let j = b.var(&format!("J{k}"));
                for s in &nest.stmts {
                    let lhs = mk_ref(b, &s.target, i, j);
                    let la = Expr::load(mk_ref(b, &s.load_a, i, j));
                    let lb = Expr::load(mk_ref(b, &s.load_b, i, j));
                    let rhs = Expr::Binary(s.op, Box::new(la), Box::new(lb));
                    b.assign(lhs, rhs);
                }
            });
        });
    }
    b.finish()
}

/// The headline safety property: whatever the compound algorithm does
/// to a random program, execution results are bit-identical.
#[test]
fn compound_preserves_semantics() {
    let mut rng = SplitMix64::seed_from_u64(0xC0DE);
    for _ in 0..48 {
        let nests = random_program(&mut rng);
        let original = build_program(&nests);
        let mut transformed = original.clone();
        let model = CostModel::new(4);
        let _ = compound(&mut transformed, &model);
        cmt_locality_repro::ir::validate::validate(&transformed).expect("valid after compound");
        let report = equivalent(&original, &transformed, &[9]).expect("executes");
        assert!(report.equivalent, "diff: {:?}", report.first_diff);
    }
}

/// Every pass combination is individually safe too.
#[test]
fn ablated_compound_preserves_semantics() {
    let mut rng = SplitMix64::seed_from_u64(0xAB1A);
    for _ in 0..48 {
        let nests = random_program(&mut rng);
        let original = build_program(&nests);
        let mut transformed = original.clone();
        let model = CostModel::new(4);
        let opts = CompoundOptions {
            fusion: rng.gen_bool(0.5),
            distribution: rng.gen_bool(0.5),
            reversal: rng.gen_bool(0.5),
        };
        let _ = compound_with(
            &mut transformed,
            &model,
            &opts,
            &mut NullObs,
            &mut NullProvenance,
            &model,
        );
        let report = equivalent(&original, &transformed, &[8]).expect("executes");
        assert!(
            report.equivalent,
            "opts {opts:?}, diff: {:?}",
            report.first_diff
        );
    }
}

/// CostPoly is a commutative semiring under the operations the model
/// uses.
#[test]
fn cost_poly_semiring() {
    let mut rng = SplitMix64::seed_from_u64(0x5E71);
    let p = |deg: u32, k: f64| {
        let mut poly = CostPoly::constant(k);
        for _ in 0..deg {
            poly = poly * CostPoly::param(ParamId(0));
        }
        poly
    };
    for _ in 0..256 {
        let (a, b, c) = (
            rng.gen_range_i64(0, 3) as u32,
            rng.gen_range_i64(0, 3) as u32,
            rng.gen_range_i64(0, 3) as u32,
        );
        // Dyadic coefficients keep f64 arithmetic exact, so the ring laws
        // hold bit-for-bit.
        let ka = rng.gen_range_i64(-16, 15) as f64 * 0.25;
        let kb = rng.gen_range_i64(-16, 15) as f64 * 0.25;
        let (x, y, z) = (p(a, ka), p(b, kb), p(c, 1.5));
        assert_eq!(x.clone() + y.clone(), y.clone() + x.clone());
        assert_eq!(x.clone() * y.clone(), y.clone() * x.clone());
        assert_eq!(
            (x.clone() + y.clone()) * z.clone(),
            x.clone() * z.clone() + y.clone() * z.clone()
        );
        assert_eq!(x.clone() * CostPoly::one(), x.clone());
        assert_eq!(x.clone() + CostPoly::zero(), x);
    }
}

/// The paper's central algorithmic claim: the single-evaluation greedy
/// permutation reaches an order whose innermost loop matches the
/// n!-enumeration baseline's choice whenever it succeeds.
#[test]
fn greedy_permute_matches_exhaustive_baseline() {
    use cmt_locality_repro::locality::exhaustive::best_permutation_exhaustive;
    use cmt_locality_repro::locality::permute::permute_nest;
    let mut rng = SplitMix64::seed_from_u64(0x93EE);
    for _ in 0..48 {
        let nests = random_program(&mut rng);
        let program = build_program(&nests);
        let model = CostModel::new(4);
        for idx in 0..program.body().len() {
            let Some(nest) = program.body()[idx].as_loop() else {
                continue;
            };
            let Some(ex) = best_permutation_exhaustive(&program, nest, &model) else {
                continue;
            };
            // Like-for-like: the baseline enumerates *permutations*, so
            // greedy runs without its reversal enabler.
            let mut work = program.clone();
            let out = permute_nest(&mut work, idx, &model, false);
            if out.memory_order || out.already_in_order {
                let greedy_inner = cmt_locality_repro::ir::visit::perfect_chain(
                    work.body()[idx].as_loop().expect("loop"),
                )
                .last()
                .map(|l| l.id());
                // Innermost choice must agree (outer ties may order
                // differently without cost consequence).
                assert_eq!(greedy_inner, ex.best.last().copied());
            }
        }
    }
}

/// Dominating comparison agrees with large-value evaluation.
#[test]
fn dominating_cmp_matches_evaluation() {
    let mut rng = SplitMix64::seed_from_u64(0xD0CA);
    let p = |deg: u32, k: f64| {
        let mut poly = CostPoly::constant(k);
        for _ in 0..deg {
            poly = poly * CostPoly::param(ParamId(0));
        }
        poly
    };
    for _ in 0..256 {
        let d1 = rng.gen_range_i64(0, 3) as u32;
        let d2 = rng.gen_range_i64(0, 3) as u32;
        let k1 = 0.25 + rng.next_f64() * 7.75;
        let k2 = 0.25 + rng.next_f64() * 7.75;
        let (x, y) = (p(d1, k1), p(d2, k2));
        let cmp = x.dominating_cmp(&y);
        let (ex, ey) = (x.eval_uniform(1e6), y.eval_uniform(1e6));
        match cmp {
            std::cmp::Ordering::Greater => assert!(ex > ey),
            std::cmp::Ordering::Less => assert!(ex < ey),
            std::cmp::Ordering::Equal => assert!((ex - ey).abs() <= 1e-6 * ex.abs().max(1.0)),
        }
    }
}
