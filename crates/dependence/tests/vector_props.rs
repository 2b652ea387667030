//! Property-style tests for dependence-vector algebra and the subscript
//! tester, driven by the seeded in-repo PRNG so the suite is
//! deterministic and fully offline.

use cmt_dependence::subscript::{test_dependence, LoopCtx};
use cmt_dependence::{DepElem, DepVector, Direction};
use cmt_ir::affine::Affine;
use cmt_ir::ids::{ArrayId, VarId};
use cmt_ir::stmt::ArrayRef;
use cmt_obs::SplitMix64;

const CASES: usize = 256;

fn random_elem(rng: &mut SplitMix64) -> DepElem {
    if rng.gen_bool(0.5) {
        DepElem::Dist(rng.gen_range_i64(-3, 3))
    } else {
        let dirs = [
            Direction::Lt,
            Direction::Eq,
            Direction::Gt,
            Direction::Le,
            Direction::Ge,
            Direction::Star,
        ];
        DepElem::Dir(*rng.choose(&dirs))
    }
}

fn random_vector(rng: &mut SplitMix64) -> DepVector {
    let len = rng.gen_range_usize(1, 4);
    DepVector::new((0..len).map(|_| random_elem(rng)).collect::<Vec<_>>())
}

/// Permuting by p then by q equals permuting by the composition.
#[test]
fn permutation_composes() {
    let mut rng = SplitMix64::seed_from_u64(0xBE40);
    for _ in 0..CASES {
        let v = random_vector(&mut rng);
        let n = v.len();
        let runner = |p: Vec<usize>, q: Vec<usize>| {
            let lhs = v.permuted(&p).permuted(&q);
            let composed: Vec<usize> = q.iter().map(|&k| p[k]).collect();
            let rhs = v.permuted(&composed);
            assert_eq!(lhs, rhs);
        };
        // A couple of deterministic permutations suffices per vector.
        let rev: Vec<usize> = (0..n).rev().collect();
        let rot: Vec<usize> = (0..n).map(|k| (k + 1) % n).collect();
        runner(rev.clone(), rot.clone());
        runner(rot, rev);
    }
}

/// Full reversal is an involution.
#[test]
fn reversal_involution() {
    let mut rng = SplitMix64::seed_from_u64(0x1440);
    for _ in 0..CASES {
        let v = random_vector(&mut rng);
        assert_eq!(v.reversed().reversed(), v.clone());
        for k in 0..v.len() {
            assert_eq!(v.with_level_reversed(k).with_level_reversed(k), v.clone());
        }
    }
}

/// A vector and its reversal cannot both be lexicographically
/// *positive*.
#[test]
fn vector_and_reverse_not_both_positive() {
    use cmt_dependence::LexSign;
    let mut rng = SplitMix64::seed_from_u64(0x90C0);
    for _ in 0..CASES {
        let v = random_vector(&mut rng);
        let a = v.lex_sign();
        let b = v.reversed().lex_sign();
        assert!(
            !(a == LexSign::Positive && b == LexSign::Positive),
            "{v} and its reverse both positive"
        );
    }
}

/// `carried_level` implies the prefix is all-equal and the entry
/// admits only `<`.
#[test]
fn carried_level_consistent() {
    let mut rng = SplitMix64::seed_from_u64(0xCA44);
    for _ in 0..CASES {
        let v = random_vector(&mut rng);
        if let Some(k) = v.carried_level() {
            for e in &v.elems()[..k] {
                assert!(e.is_eq());
            }
            assert_eq!(v.elems()[k].direction(), Direction::Lt);
            assert!(v.is_lex_nonnegative());
        }
        if v.is_loop_independent() {
            assert_eq!(v.carried_level(), None);
            assert!(v.is_lex_nonnegative());
        }
    }
}

/// Soundness of the subscript tester on 1-D strong-SIV pairs: when it
/// claims independence, brute force agrees; when it returns a distance,
/// brute force finds exactly those collisions. Exhaustive over the
/// small parameter grid the proptest version sampled from.
#[test]
fn siv_tester_sound_against_brute_force() {
    for a in 1i64..4 {
        for c1 in -6i64..6 {
            for c2 in -6i64..6 {
                let (lo, hi) = (1i64, 12i64);
                let src = ArrayRef::new(ArrayId(0), vec![Affine::var(VarId(0)) * a + c1]);
                let dst = ArrayRef::new(ArrayId(0), vec![Affine::var(VarId(0)) * a + c2]);
                let loops = [LoopCtx {
                    var: VarId(0),
                    bounds: Some((lo, hi)),
                    step: 1,
                    lower_aff: Some(Affine::constant(lo)),
                    upper_aff: Some(Affine::constant(hi)),
                }];
                let result = test_dependence(&src, &dst, &loops);
                // Brute force: all (i, i') with a·i + c1 = a·i' + c2.
                let mut distances = Vec::new();
                for i in lo..=hi {
                    for ip in lo..=hi {
                        if a * i + c1 == a * ip + c2 {
                            distances.push(ip - i);
                        }
                    }
                }
                distances.sort_unstable();
                distances.dedup();
                match result {
                    None => assert!(distances.is_empty(), "missed deps {distances:?}"),
                    Some(elems) => match elems[0] {
                        DepElem::Dist(d) => {
                            assert_eq!(distances, vec![d]);
                        }
                        DepElem::Dir(_) => {
                            // Conservative answers are allowed; nothing
                            // further to check.
                        }
                    },
                }
            }
        }
    }
}

/// Two-dimensional pairs: independence claims are never wrong.
/// Exhaustive over the offset grid.
#[test]
fn two_dim_tester_never_misses() {
    for o1 in -3i64..3 {
        for o2 in -3i64..3 {
            let (i, j) = (VarId(0), VarId(1));
            let src = ArrayRef::new(ArrayId(0), vec![Affine::var(i), Affine::var(j)]);
            let dst = ArrayRef::new(ArrayId(0), vec![Affine::var(i) + o1, Affine::var(j) + o2]);
            let mk = |v: VarId| LoopCtx {
                var: v,
                bounds: Some((1, 6)),
                step: 1,
                lower_aff: Some(Affine::constant(1)),
                upper_aff: Some(Affine::constant(6)),
            };
            let loops = [mk(i), mk(j)];
            let result = test_dependence(&src, &dst, &loops);
            let mut any = false;
            for iv in 1..=6i64 {
                for jv in 1..=6i64 {
                    for iv2 in 1..=6i64 {
                        for jv2 in 1..=6i64 {
                            if iv == iv2 + o1 && jv == jv2 + o2 {
                                any = true;
                            }
                        }
                    }
                }
            }
            match result {
                None => assert!(!any, "tester claimed independence but deps exist"),
                Some(elems) if any => {
                    assert_eq!(elems[0], DepElem::Dist(-o1));
                    assert_eq!(elems[1], DepElem::Dist(-o2));
                }
                Some(_) => {}
            }
        }
    }
}
