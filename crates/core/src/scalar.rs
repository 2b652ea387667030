//! Scalar replacement (extension — the paper's step 3).
//!
//! The paper's optimization strategy (§1.1) follows memory-order
//! transformations with register-level work: *unroll-and-jam* and
//! *scalar replacement* \[CCK90\]. This module implements the simplest and
//! most profitable scalar-replacement case, which memory order sets up
//! deliberately: an array reference that is **loop-invariant in the
//! innermost loop** and only read there is loaded once per entry of the
//! inner loop instead of once per iteration:
//!
//! ```text
//! DO J                      DO J
//!   DO I                      SR0(1) = B(1,J)       (hoisted load)
//!     C(I,J) = B(1,J)·…  →    DO I
//!                               C(I,J) = SR0(1)·…
//! ```
//!
//! Registers are not modeled by the interpreter; the temporary is a
//! one-element array whose single cache line always hits — a faithful
//! stand-in for a register at the trace level.

use cmt_ir::affine::Affine;
use cmt_ir::array::{ArrayInfo, Extent};
use cmt_ir::expr::Expr;
use cmt_ir::node::Node;
use cmt_ir::program::Program;
use cmt_ir::stmt::{ArrayRef, Stmt};
use cmt_obs::{NullObs, ObsSink, Remark, RemarkKind};
use std::collections::HashSet;

/// Statistics from one scalar-replacement pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScalarStats {
    /// Hoisted loads (temporaries introduced).
    pub replaced: usize,
}

/// Applies scalar replacement to every innermost loop of the program:
/// read-only references invariant in the innermost loop variable are
/// hoisted into one-element temporaries placed just before that loop.
///
/// Only references whose array is not written anywhere in the innermost
/// loop body are hoisted (a write to the same array could alias the
/// hoisted element and stale the temporary).
pub fn scalar_replace(program: &mut Program) -> ScalarStats {
    scalar_replace_observed(program, &mut NullObs)
}

/// [`scalar_replace`] plus optimization remarks: one `Applied` remark per
/// hoisted load, and a `Missed` remark for each invariant load that could
/// not be hoisted because its array is written inside the loop.
pub fn scalar_replace_observed(program: &mut Program, obs: &mut dyn ObsSink) -> ScalarStats {
    let mut stats = ScalarStats::default();
    let mut body = std::mem::take(program.body_mut());
    walk_body(program, &mut body, &mut stats, obs);
    *program.body_mut() = body;
    if obs.enabled() {
        obs.counter("scalar.replaced", stats.replaced as u64);
    }
    stats
}

fn walk_body(
    program: &mut Program,
    body: &mut Vec<Node>,
    stats: &mut ScalarStats,
    obs: &mut dyn ObsSink,
) {
    let mut k = 0;
    while k < body.len() {
        let is_innermost_loop = matches!(
            &body[k],
            Node::Loop(l) if !l.body().iter().any(|n| matches!(n, Node::Loop(_)))
        );
        if is_innermost_loop {
            let hoists = {
                let Node::Loop(l) = &mut body[k] else {
                    unreachable!("checked above")
                };
                hoist_invariants(program, l, stats, obs)
            };
            let count = hoists.len();
            for (off, h) in hoists.into_iter().enumerate() {
                body.insert(k + off, h);
            }
            k += count + 1;
        } else {
            if let Node::Loop(l) = &mut body[k] {
                walk_body(program, l.body_mut(), stats, obs);
            }
            k += 1;
        }
    }
}

/// Rewrites an innermost loop in place and returns the hoisted-load
/// statements to insert before it.
fn hoist_invariants(
    program: &mut Program,
    l: &mut cmt_ir::node::Loop,
    stats: &mut ScalarStats,
    obs: &mut dyn ObsSink,
) -> Vec<Node> {
    let var = l.var();
    let written: HashSet<_> = l
        .body()
        .iter()
        .filter_map(Node::as_stmt)
        .map(|s| s.lhs().array())
        .collect();

    let loop_label = if obs.enabled() {
        format!("{}/loop:{}", program.name(), program.var_name(var))
    } else {
        String::new()
    };
    let mut candidates: Vec<ArrayRef> = Vec::new();
    let mut blocked: Vec<ArrayRef> = Vec::new();
    for n in l.body() {
        let Some(s) = n.as_stmt() else { continue };
        for r in s.rhs().loads() {
            if !r.invariant_in(var) {
                continue;
            }
            if written.contains(&r.array()) {
                if obs.enabled() && !blocked.contains(r) {
                    blocked.push(r.clone());
                }
                continue;
            }
            if !candidates.contains(r) {
                candidates.push(r.clone());
            }
        }
    }
    if obs.enabled() {
        for r in &blocked {
            obs.remark(
                Remark::new("scalar-replace", loop_label.clone(), RemarkKind::Missed).reason(
                    format!(
                        "invariant load of {} not hoisted: array is written in the loop",
                        program.array(r.array()).name()
                    ),
                ),
            );
        }
    }
    if candidates.is_empty() {
        return Vec::new();
    }

    let mut hoists = Vec::with_capacity(candidates.len());
    let mut rewrites: Vec<(ArrayRef, ArrayRef)> = Vec::with_capacity(candidates.len());
    for r in candidates {
        let tmp_name = format!("SR{}", program.arrays().len());
        if obs.enabled() {
            obs.remark(
                Remark::new("scalar-replace", loop_label.clone(), RemarkKind::Applied).reason(
                    format!(
                        "hoisted invariant load of {} into temporary {tmp_name} \
                         (one load per entry instead of one per iteration)",
                        program.array(r.array()).name()
                    ),
                ),
            );
        }
        let tmp = program.declare_array(ArrayInfo::new(tmp_name, vec![Extent::constant(1)]));
        let tmp_ref = ArrayRef::new(tmp, vec![Affine::constant(1)]);
        let sid = program.fresh_stmt_id();
        hoists.push(Node::Stmt(Stmt::new(
            sid,
            tmp_ref.clone(),
            Expr::load(r.clone()),
        )));
        rewrites.push((r, tmp_ref));
        stats.replaced += 1;
    }
    for n in l.body_mut() {
        if let Node::Stmt(s) = n {
            *s = Stmt::new(
                s.id(),
                s.lhs().clone(),
                s.rhs().map_refs(&mut |r| {
                    rewrites
                        .iter()
                        .find(|(from, _)| from == r)
                        .map(|(_, to)| to.clone())
                        .unwrap_or_else(|| r.clone())
                }),
            );
        }
    }
    hoists
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::validate::validate;

    /// A nest with a loop-invariant read `B(1,J)` in the inner `I` loop.
    fn invariant_kernel() -> Program {
        let mut b = ProgramBuilder::new("inv");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let bb = b.matrix("B", n);
        let c = b.matrix("C", n);
        b.loop_("J", 1, n, |b| {
            b.loop_("I", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [i, j]);
                let rhs = Expr::load(b.at(a, [i, j]))
                    * Expr::load(b.at_vec(bb, vec![Affine::constant(1), Affine::var(j)]));
                b.assign(lhs, rhs);
            });
        });
        b.finish()
    }

    #[test]
    fn invariant_load_is_hoisted_and_equivalent() {
        let orig = invariant_kernel();
        let mut p = orig.clone();
        let stats = scalar_replace(&mut p);
        assert_eq!(stats.replaced, 1);
        validate(&p).unwrap();
        // Structure: DO J { SR = B(1,J); DO I { … SR … } }.
        let outer = p.nests()[0];
        assert_eq!(outer.body().len(), 2);
        assert!(outer.body()[0].as_stmt().is_some());
        assert!(outer.body()[1].as_loop().is_some());
        // Semantics preserved on the shared arrays.
        let mut m1 = cmt_interp::Machine::new(&orig, &[12]).unwrap();
        let mut m2 = cmt_interp::Machine::new(&p, &[12]).unwrap();
        m1.run(&orig, &mut cmt_interp::NullSink).unwrap();
        m2.run(&p, &mut cmt_interp::NullSink).unwrap();
        let c = orig.find_array("C").unwrap();
        assert_eq!(m1.array_data(c), m2.array_data(c));
    }

    #[test]
    fn hoist_count_is_once_per_outer_iteration() {
        use cmt_interp::{CountingSink, Layout};
        let orig = invariant_kernel();
        let mut p = orig.clone();
        scalar_replace(&mut p);
        let n = 16i64;
        let count = |prog: &Program| {
            let layout = Layout::new(prog, &[n]).unwrap();
            let mut sink = CountingSink::default();
            layout.trace(prog, &mut sink).unwrap();
            sink
        };
        let before = count(&orig);
        let after = count(&p);
        // One extra store (the temp) per J iteration; one extra load (the
        // hoist) per J iteration — but the per-I B loads became temp
        // loads, so total loads are unchanged + n hoists.
        assert_eq!(after.stores, before.stores + n as u64);
        assert_eq!(after.loads, before.loads + n as u64);
    }

    #[test]
    fn written_arrays_are_not_replaced() {
        let mut b = ProgramBuilder::new("wr");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("J", 2, n, |b| {
            b.loop_("I", 2, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at_vec(a, vec![Affine::constant(1), Affine::var(j)]));
                b.assign(lhs, rhs);
            });
        });
        let mut p = b.finish();
        assert_eq!(scalar_replace(&mut p).replaced, 0);
    }

    #[test]
    fn variant_loads_are_kept() {
        let mut b = ProgramBuilder::new("var");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("J", 1, n, |b| {
            b.loop_("I", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [i, j]);
                let rhs = Expr::load(b.at(a, [i, j]));
                b.assign(lhs, rhs);
            });
        });
        let mut p = b.finish();
        assert_eq!(scalar_replace(&mut p).replaced, 0);
    }

    #[test]
    fn matmul_jki_hoists_the_invariant_operand() {
        // In JKI matmul, B(K,J) is invariant in I — the classic scalar-
        // replacement target the paper's strategy sets up.
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
        let orig = b.finish();
        let mut p = orig.clone();
        let stats = scalar_replace(&mut p);
        assert_eq!(stats.replaced, 1);
        validate(&p).unwrap();
        let mut m1 = cmt_interp::Machine::new(&orig, &[10]).unwrap();
        let mut m2 = cmt_interp::Machine::new(&p, &[10]).unwrap();
        m1.run(&orig, &mut cmt_interp::NullSink).unwrap();
        m2.run(&p, &mut cmt_interp::NullSink).unwrap();
        let c = orig.find_array("C").unwrap();
        assert_eq!(m1.array_data(c), m2.array_data(c));
    }
}
