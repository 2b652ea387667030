//! Execution coverage for the less-travelled interpreter paths:
//! parameters and intrinsics in expressions, non-unit steps, deep
//! nesting, and error reporting.

use cmt_interp::{CountingSink, ExecError, Machine, NullSink};
use cmt_ir::affine::Affine;
use cmt_ir::build::ProgramBuilder;
use cmt_ir::expr::{BinOp, Expr};

#[test]
fn params_and_intrinsics_evaluate() {
    let mut b = ProgramBuilder::new("intr");
    let n = b.param("N");
    let a = b.array("A", vec![n.into()]);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        let lhs = b.at(a, [i]);
        // A(I) = MAX(MIN(I, N/2), |−3|) computed per element.
        let rhs = Expr::Binary(
            BinOp::Max,
            Box::new(Expr::Binary(
                BinOp::Min,
                Box::new(Expr::Index(i)),
                Box::new(Expr::Param(n) / Expr::Const(2.0)),
            )),
            Box::new(Expr::Unary(
                cmt_ir::expr::UnOp::Abs,
                Box::new(Expr::Const(-3.0)),
            )),
        );
        b.assign(lhs, rhs);
    });
    let p = b.finish();
    let mut m = Machine::new(&p, &[8]).unwrap();
    m.run(&p, &mut NullSink).unwrap();
    let a_id = p.find_array("A").unwrap();
    let data = m.array_data(a_id);
    // max(min(i, 4), 3) for i = 1..8.
    let expect = [3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0];
    assert_eq!(data, &expect);
}

#[test]
fn non_unit_steps_cover_expected_elements() {
    let mut b = ProgramBuilder::new("step");
    let n = b.param("N");
    let a = b.array("A", vec![n.into()]);
    b.loop_step("I", 1, n, 3, |b| {
        let i = b.var("I");
        let lhs = b.at(a, [i]);
        b.assign(lhs, Expr::Const(1.0));
    });
    let p = b.finish();
    let mut m = Machine::new(&p, &[10]).unwrap();
    m.init_with(|_, _| 0.0);
    let mut sink = CountingSink::default();
    m.run(&p, &mut sink).unwrap();
    assert_eq!(sink.stores, 4); // I = 1, 4, 7, 10
    let a_id = p.find_array("A").unwrap();
    let data = m.array_data(a_id);
    for (k, &v) in data.iter().enumerate() {
        let touched = k % 3 == 0; // 0-based: elements 0, 3, 6, 9
        assert_eq!(v == 1.0, touched, "element {k}");
    }
}

#[test]
fn four_deep_nest_executes() {
    let mut b = ProgramBuilder::new("deep");
    let n = b.param("N");
    let a = b.array("A", vec![n.into(), n.into(), n.into(), n.into()]);
    b.loop_("L", 1, n, |b| {
        b.loop_("K", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                b.loop_("I", 1, n, |b| {
                    let (i, j, k, l) = (b.var("I"), b.var("J"), b.var("K"), b.var("L"));
                    let lhs = b.at(a, [i, j, k, l]);
                    b.assign(lhs, Expr::Index(i) + Expr::Index(l));
                });
            });
        });
    });
    let p = b.finish();
    let mut m = Machine::new(&p, &[4]).unwrap();
    let s = m.run(&p, &mut NullSink).unwrap();
    assert_eq!(s.stores, 256);
    let a_id = p.find_array("A").unwrap();
    // A(2,1,1,3) = 2 + 3; linear index: 1 + 0·4 + 0·16 + 2·64 = 129.
    assert_eq!(m.array_data(a_id)[129], 5.0);
}

#[test]
fn division_by_zero_produces_inf_not_panic() {
    let mut b = ProgramBuilder::new("div0");
    let n = b.param("N");
    let a = b.array("A", vec![n.into()]);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        let lhs = b.at(a, [i]);
        let rhs = Expr::Const(1.0) / Expr::Const(0.0);
        b.assign(lhs, rhs);
        let _ = i;
    });
    let p = b.finish();
    let mut m = Machine::new(&p, &[4]).unwrap();
    m.run(&p, &mut NullSink).unwrap();
    let a_id = p.find_array("A").unwrap();
    assert!(m.array_data(a_id).iter().all(|x| x.is_infinite()));
}

#[test]
fn oob_error_reports_context() {
    let mut b = ProgramBuilder::new("oob");
    let n = b.param("N");
    let a = b.array("ARR", vec![n.into(), n.into()]);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        let lhs = b.at_vec(a, vec![Affine::var(i) * 2, Affine::constant(1)]);
        b.assign(lhs, Expr::Const(0.0));
    });
    let p = b.finish();
    let mut m = Machine::new(&p, &[5]).unwrap();
    let err = m.run(&p, &mut NullSink).unwrap_err();
    match err {
        ExecError::OutOfBounds {
            array,
            subscripts,
            dims,
        } => {
            assert_eq!(array, "ARR");
            assert_eq!(subscripts, vec![6, 1]);
            assert_eq!(dims, vec![5, 5]);
        }
        other => panic!("unexpected error {other:?}"),
    }
    let msg = format!(
        "{}",
        ExecError::OutOfBounds {
            array: "ARR".into(),
            subscripts: vec![6, 1],
            dims: vec![5, 5]
        }
    );
    assert!(msg.contains("ARR"), "{msg}");
}

#[test]
fn triangular_bounds_reevaluated_per_outer_iteration() {
    // DO I = 1, N { DO J = I, N { count } }: total = N + (N-1) + … + 1.
    let mut b = ProgramBuilder::new("tri");
    let n = b.param("N");
    let a = b.matrix("A", n);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        b.loop_("J", i, n, |b| {
            let j = b.var("J");
            let lhs = b.at(a, [i, j]);
            b.assign(lhs, Expr::Const(1.0));
        });
    });
    let p = b.finish();
    let mut m = Machine::new(&p, &[6]).unwrap();
    let mut sink = CountingSink::default();
    m.run(&p, &mut sink).unwrap();
    assert_eq!(sink.stores, 21);
}

// ---------------------------------------------------------------------
// Error paths and edge cases of the lowered executor. Each run is
// compared with the reference tree walker: the same result or error,
// the same flushed trace prefix and the same array contents.
// ---------------------------------------------------------------------

#[path = "../../../tests/support/tree_walker.rs"]
mod tree_walker;

use cmt_ir::array::{ArrayInfo, Extent};
use cmt_ir::ids::{ParamId, VarId};
use cmt_ir::node::{Loop, Node};
use cmt_ir::program::Program;
use cmt_ir::stmt::{ArrayRef, Stmt};

/// Runs `p` from a distinctive initial state under both executors and
/// returns the (asserted identical) outcome.
fn check(p: &Program, params: &[i64]) -> tree_walker::Outcome {
    let mut m = Machine::new(p, params).unwrap();
    m.init_with(|a, k| (a.index() * 1000 + k) as f64 + 0.5);
    tree_walker::assert_same(p.name(), p, &m)
}

fn oob(array: &str, subscripts: Vec<i64>, dims: Vec<i64>) -> ExecError {
    ExecError::OutOfBounds {
        array: array.into(),
        subscripts,
        dims,
    }
}

/// An unvalidated loop node, for programs the builder would reject.
fn raw_loop(p: &mut Program, var: VarId, lo: Affine, hi: Affine, body: Vec<Node>) -> Node {
    Node::Loop(Loop::new(p.fresh_loop_id(), var, lo, hi, 1, body))
}

/// An unvalidated statement node.
fn raw_stmt(p: &mut Program, lhs: ArrayRef, rhs: Expr) -> Node {
    Node::Stmt(Stmt::new(p.fresh_stmt_id(), lhs, rhs))
}

/// `DO I = 1, N: A(I + off) = B(I) + 1` over `A(N)`, `B(N)`.
fn shifted_store(off: i64) -> Program {
    let mut b = ProgramBuilder::new("shift");
    let n = b.param("N");
    let a = b.array("A", vec![n.into()]);
    let bb = b.array("B", vec![n.into()]);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        let lhs = b.at_vec(a, vec![Affine::var(i) + off]);
        b.assign(lhs, Expr::load(b.at(bb, [i])) + Expr::Const(1.0));
    });
    b.finish()
}

#[test]
fn oob_on_first_middle_and_last_iteration_of_an_innermost_loop() {
    // (offset, failing subscript, accesses flushed before the failure).
    for (off, at, prefix) in [(-1, 0, 1), (2, 9, 6 * 2 + 1), (1, 9, 7 * 2 + 1)] {
        let out = check(&shifted_store(off), &[8]);
        assert_eq!(out.result, Err(oob("A", vec![at], vec![8])), "offset {off}");
        assert_eq!(out.trace.len(), prefix, "offset {off}");
    }
    assert_eq!(check(&shifted_store(0), &[8]).result.unwrap().stores, 8);
}

#[test]
fn oob_in_a_statement_directly_under_a_non_innermost_loop() {
    // DO I = 1, N { A(I+1) = B(I); DO J = 1, N { C(J,I) = A(I) } }
    let mut b = ProgramBuilder::new("imperfect");
    let n = b.param("N");
    let a = b.array("A", vec![n.into()]);
    let bb = b.array("B", vec![n.into()]);
    let c = b.matrix("C", n);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        let lhs = b.at_vec(a, vec![Affine::var(i) + 1]);
        b.assign(lhs, Expr::load(b.at(bb, [i])));
        b.loop_("J", 1, n, |b| {
            let j = b.var("J");
            let lhs = b.at(c, [j, i]);
            b.assign(lhs, Expr::load(b.at(a, [i])));
        });
    });
    let out = check(&b.finish(), &[6]);
    assert_eq!(out.result, Err(oob("A", vec![7], vec![6])));
    assert_eq!(out.trace.len(), 5 * (2 + 6 * 2) + 1);
}

#[test]
fn triangular_nest_leaves_the_bounds_on_later_outer_iterations() {
    // DO I = 1, N { DO J = 1, 2*I { A(J,I) = B(J,I) * 2 } }: in bounds
    // for I <= N/2, then the load of B(N+1, I) fails mid-loop.
    let mut b = ProgramBuilder::new("tri");
    let n = b.param("N");
    let a = b.matrix("A", n);
    let bb = b.matrix("B", n);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        b.loop_("J", 1, Affine::var(i) * 2, |b| {
            let j = b.var("J");
            let lhs = b.at(a, [j, i]);
            b.assign(lhs, Expr::load(b.at(bb, [j, i])) * Expr::Const(2.0));
        });
    });
    let out = check(&b.finish(), &[6]);
    assert_eq!(out.result, Err(oob("B", vec![7, 4], vec![6, 6])));
    assert_eq!(out.trace.len(), (2 + 4 + 6 + 6) * 2);
}

/// `DO I = lo, hi, step: A(I + off) = A(I + off) + 1` over `A(N)`
/// (`N` is parameter 0).
fn stepped(lo: Affine, hi: Affine, step: i64, off: i64) -> Program {
    let mut b = ProgramBuilder::new("stepped");
    let n = b.param("N");
    let a = b.array("A", vec![n.into()]);
    b.loop_step("I", lo, hi, step, |b| {
        let i = b.var("I");
        let r = b.at_vec(a, vec![Affine::var(i) + off]);
        b.assign(r.clone(), Expr::load(r) + Expr::Const(1.0));
    });
    b.finish()
}

#[test]
fn non_unit_steps_whose_last_iteration_falls_short_of_the_bound() {
    let n = || Affine::param(ParamId(0));
    // DO I = 1, 9, 3 runs 1, 4, 7: A(I+2) reaches 9, never 11.
    let out = check(&stepped(1.into(), n(), 3, 2), &[9]);
    assert_eq!(out.result.unwrap().stores, 3);
    // DO I = 9, 1, -3 runs 9, 6, 3: A(I-2) reaches 1, never -1.
    let out = check(&stepped(n(), 1.into(), -3, -2), &[9]);
    assert_eq!(out.result.unwrap().stores, 3);
    // DO I = 1, 9, 4 runs 1, 5, 9: A(I+2) leaves the array at 11.
    let out = check(&stepped(1.into(), n(), 4, 2), &[9]);
    assert_eq!(out.result, Err(oob("A", vec![11], vec![9])));
    // DO I = 9, 2, -4 runs 9, 5: A(I-5) leaves the array at 0.
    let out = check(&stepped(n(), 2.into(), -4, -5), &[9]);
    assert_eq!(out.result, Err(oob("A", vec![0], vec![9])));
}

/// `A(N)`, `B(N)`, parameter `N` and variables `I`, `K`, with the body
/// `f` builds.
fn raw_program(f: impl FnOnce(&mut Program, [VarId; 2]) -> Vec<Node>) -> Program {
    let mut p = Program::new("raw");
    let n = p.declare_param("N");
    p.declare_array(ArrayInfo::new("A", vec![Extent::param(n)]));
    p.declare_array(ArrayInfo::new("B", vec![Extent::param(n)]));
    let vars = [p.declare_var("I"), p.declare_var("K")];
    let body = f(&mut p, vars);
    *p.body_mut() = body;
    p
}

fn at(array: u32, sub: impl Into<Affine>) -> ArrayRef {
    ArrayRef::new(cmt_ir::ids::ArrayId(array), vec![sub.into()])
}

#[test]
fn unbound_index_in_a_subscript_an_index_expression_and_a_loop_bound() {
    let n = || Affine::param(ParamId(0));
    // DO I = 1, N { A(I) = B(I); A(K) = 1 }
    let p = raw_program(|p, [i, k]| {
        let body = vec![
            raw_stmt(p, at(0, i), Expr::load(at(1, i))),
            raw_stmt(p, at(0, k), Expr::Const(1.0)),
        ];
        vec![raw_loop(p, i, 1.into(), n(), body)]
    });
    let out = check(&p, &[4]);
    assert_eq!(
        out.result,
        Err(ExecError::Eval("unbound index variable i1".into()))
    );
    assert_eq!(out.trace.len(), 2);
    // DO I = 1, N { A(I) = B(I) + K }
    let p = raw_program(|p, [i, k]| {
        let body = vec![raw_stmt(p, at(0, i), Expr::load(at(1, i)) + Expr::Index(k))];
        vec![raw_loop(p, i, 1.into(), n(), body)]
    });
    let out = check(&p, &[4]);
    assert_eq!(out.result, Err(ExecError::Eval("unbound index i1".into())));
    assert_eq!(out.trace.len(), 1);
    // DO I = 1, N { A(I) = 1; DO K = 1, K { B(K) = 2 } }
    let p = raw_program(|p, [i, k]| {
        let inner = vec![raw_stmt(p, at(1, k), Expr::Const(2.0))];
        let body = vec![
            raw_stmt(p, at(0, i), Expr::Const(1.0)),
            raw_loop(p, k, 1.into(), k.into(), inner),
        ];
        vec![raw_loop(p, i, 1.into(), n(), body)]
    });
    let out = check(&p, &[4]);
    assert_eq!(
        out.result,
        Err(ExecError::Eval("unbound index variable i1".into()))
    );
    assert_eq!(out.trace.len(), 1);
    // An unbound parameter: A(I) = P3.
    let p = raw_program(|p, [i, _]| {
        let body = vec![raw_stmt(p, at(0, i), Expr::Param(ParamId(3)))];
        vec![raw_loop(p, i, 1.into(), n(), body)]
    });
    let out = check(&p, &[4]);
    assert_eq!(
        out.result,
        Err(ExecError::Eval("unbound parameter p3".into()))
    );
    // An unbound parameter in a subscript: A(I) = B(I + P3); with an
    // unbound index as well, the index is reported: A(K + P3) = 1.
    let p3 = || Affine::param(ParamId(3));
    let p = raw_program(|p, [i, _]| {
        let rhs = Expr::load(at(1, Affine::var(i) + p3()));
        let body = vec![raw_stmt(p, at(0, i), rhs)];
        vec![raw_loop(p, i, 1.into(), n(), body)]
    });
    let out = check(&p, &[4]);
    assert_eq!(
        out.result,
        Err(ExecError::Eval("unbound parameter p3".into()))
    );
    let p = raw_program(|p, [i, k]| {
        let body = vec![raw_stmt(p, at(0, Affine::var(k) + p3()), Expr::Const(1.0))];
        vec![raw_loop(p, i, 1.into(), n(), body)]
    });
    let out = check(&p, &[4]);
    assert_eq!(
        out.result,
        Err(ExecError::Eval("unbound index variable i1".into()))
    );
}

#[test]
fn an_inner_loop_reusing_a_name_unbinds_it_on_exit() {
    // DO I = 1, N { DO I = 1, 2 { A(I) = 1 }; B(I) = 2 }
    let n = || Affine::param(ParamId(0));
    let p = raw_program(|p, [i, _]| {
        let inner = vec![raw_stmt(p, at(0, i), Expr::Const(1.0))];
        let body = vec![
            raw_loop(p, i, 1.into(), 2.into(), inner),
            raw_stmt(p, at(1, i), Expr::Const(2.0)),
        ];
        vec![raw_loop(p, i, 1.into(), n(), body)]
    });
    let out = check(&p, &[4]);
    assert_eq!(
        out.result,
        Err(ExecError::Eval("unbound index variable i0".into()))
    );
    assert_eq!(out.trace.len(), 2);
}

#[test]
fn unbound_index_in_a_zero_iteration_loop_does_not_raise() {
    // DO I = 5, 4 { A(K) = K + B(K) }
    let p = raw_program(|p, [i, k]| {
        let body = vec![raw_stmt(p, at(0, k), Expr::Index(k) + Expr::load(at(1, k)))];
        vec![raw_loop(p, i, 5.into(), 4.into(), body)]
    });
    let out = check(&p, &[4]);
    assert_eq!(out.result, Ok(Default::default()));
    assert!(out.trace.is_empty());
}

#[test]
fn reference_rank_differs_from_its_array() {
    // DO I = 1, N { B(I) = I; A(I, 1) = B(I) }: A is rank 1.
    let n = || Affine::param(ParamId(0));
    let p = raw_program(|p, [i, _]| {
        let two = ArrayRef::new(cmt_ir::ids::ArrayId(0), vec![i.into(), 1.into()]);
        let body = vec![
            raw_stmt(p, at(1, i), Expr::Index(i)),
            raw_stmt(p, two, Expr::load(at(1, i))),
        ];
        vec![raw_loop(p, i, 1.into(), n(), body)]
    });
    let out = check(&p, &[4]);
    assert_eq!(out.result, Err(oob("A", vec![1, 1], vec![4])));
    assert_eq!(out.trace.len(), 2);
}

#[test]
fn references_of_rank_greater_than_eight() {
    // A(2,2,…,2) (rank 9): DO I = 1, N { A(I,1,…,1) = A(1,…,1,I) + 1 }
    let mut b = ProgramBuilder::new("rank9");
    let n = b.param("N");
    let a = b.array("A", vec![Extent::constant(2); 9]);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        let mut first = vec![Affine::constant(1); 9];
        first[0] = Affine::var(i);
        let mut last = vec![Affine::constant(1); 9];
        last[8] = Affine::var(i);
        let lhs = b.at_vec(a, first);
        b.assign(lhs, Expr::load(b.at_vec(a, last)) + Expr::Const(1.0));
    });
    let p = b.finish();
    assert_eq!(check(&p, &[2]).result.unwrap().loads, 2);
    let out = check(&p, &[3]);
    let mut subs = vec![1; 9];
    subs[8] = 3;
    assert_eq!(out.result, Err(oob("A", subs, vec![2; 9])));
    assert_eq!(out.trace.len(), 4);
}

// ---------------------------------------------------------------------
// Fast-forward: `Layout::trace` skipping what a `SampledSink` drops.
// Each run is compared with a full `run` recorded and replayed into a
// fresh sampler: the same result, forwarded subsequence and counters.
// ---------------------------------------------------------------------

use cmt_interp::{ExecSummary, Layout, MeteredSink, RecordingSink, SampledSink, TraceSink};

/// A sampler behind a wrapper that forwards its dropped spans too, and
/// counts the accesses the producer skipped.
struct Probe {
    inner: SampledSink<RecordingSink>,
    skipped: u64,
}

impl Probe {
    fn new(window: u64, stride: u64, seed: u64) -> Probe {
        Probe {
            inner: SampledSink::every_kth(RecordingSink::default(), window, stride, seed),
            skipped: 0,
        }
    }
}

impl TraceSink for Probe {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.inner.access(addr, is_write);
    }

    fn access_batch(&mut self, batch: &[u64]) {
        self.inner.access_batch(batch);
    }

    fn dropped_span(&self, pending: u64) -> (u64, u64) {
        self.inner.dropped_span(pending)
    }

    fn skip(&mut self, loads: u64, stores: u64) {
        self.skipped += loads + stores;
        self.inner.skip(loads, stores);
    }
}

/// Everything a sampled run ends with.
#[derive(Debug, PartialEq)]
struct Sampled {
    result: Result<ExecSummary, ExecError>,
    forwarded: Vec<(u64, bool)>,
    loads_seen: u64,
    stores_seen: u64,
    sampled: u64,
    windows: (u64, u64),
}

impl Sampled {
    fn new(result: Result<ExecSummary, ExecError>, s: SampledSink<RecordingSink>) -> Sampled {
        Sampled {
            result,
            loads_seen: s.loads_seen,
            stores_seen: s.stores_seen,
            sampled: s.sampled,
            windows: (s.windows_total(), s.windows_sampled()),
            forwarded: s.into_inner().trace,
        }
    }
}

/// The full trace of `p` from `Machine::run`, and its result.
fn full_trace(p: &Program, params: &[i64]) -> (Result<ExecSummary, ExecError>, RecordingSink) {
    let mut rec = RecordingSink::default();
    let result = Machine::new(p, params).unwrap().run(p, &mut rec);
    (result, rec)
}

/// Samples `p` every `stride`-th window of `window` accesses both ways
/// — the full trace replayed into a fresh sampler, and `Layout::trace`
/// skipping what the sampler drops — asserts they agree, and returns
/// the outcome with the number of accesses skipped.
fn fast_forward(
    p: &Program,
    params: &[i64],
    window: u64,
    stride: u64,
    seed: u64,
) -> (Sampled, u64) {
    let (result, rec) = full_trace(p, params);
    let mut full = SampledSink::every_kth(RecordingSink::default(), window, stride, seed);
    rec.replay(&mut full);
    let want = Sampled::new(result, full);
    let mut probe = Probe::new(window, stride, seed);
    let result = Layout::new(p, params).unwrap().trace(p, &mut probe);
    let got = Sampled::new(result, probe.inner);
    assert_eq!(got, want, "{} seed {seed}", p.name());
    (got, probe.skipped)
}

/// `DO I = 1, N: A(I) = B(I) + C(I)`: three accesses per iteration, so
/// 256-access windows end mid-iteration. With `fail`, a second nest
/// `DO I = 1, N: A(I + 1) = 1` then leaves the array.
fn three_access(fail: bool) -> Program {
    let mut b = ProgramBuilder::new("three");
    let n = b.param("N");
    let a = b.array("A", vec![n.into()]);
    let bb = b.array("B", vec![n.into()]);
    let c = b.array("C", vec![n.into()]);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        let lhs = b.at(a, [i]);
        b.assign(lhs, Expr::load(b.at(bb, [i])) + Expr::load(b.at(c, [i])));
    });
    if fail {
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at_vec(a, vec![Affine::var(i) + 1]);
            b.assign(lhs, Expr::Const(1.0));
        });
    }
    b.finish()
}

#[test]
fn fast_forward_over_spans_that_end_mid_iteration() {
    for seed in 0..8 {
        let (out, skipped) = fast_forward(&three_access(false), &[4000], 256, 16, seed);
        assert_eq!(out.loads_seen + out.stores_seen, 12_000);
        assert!(skipped > 10_000, "seed {seed}: skipped {skipped}");
    }
}

#[test]
fn fast_forward_never_skips_at_stride_one() {
    let (out, skipped) = fast_forward(&three_access(false), &[4000], 256, 1, 7);
    assert_eq!(skipped, 0);
    assert_eq!(out.sampled, 12_000);
}

#[test]
fn fast_forward_steps_an_unproven_innermost_loop() {
    // DO I = 1, N: A(I + 1) = B(I) fails only at I = N, so the loop
    // cannot be proven and every iteration before it steps.
    let out = fast_forward(&shifted_store(1), &[4000], 256, 16, 3);
    assert_eq!(out.1, 0, "an unproven loop skipped");
    assert_eq!(out.0.result, Err(oob("A", vec![4001], vec![4000])));
    assert_eq!(out.0.loads_seen + out.0.stores_seen, 2 * 3999 + 1);
}

#[test]
fn fast_forward_then_out_of_bounds_keeps_the_error_and_the_prefix() {
    for seed in 0..4 {
        let (out, skipped) = fast_forward(&three_access(true), &[4000], 256, 16, seed);
        assert!(skipped > 0, "seed {seed}");
        assert_eq!(out.result, Err(oob("A", vec![4001], vec![4000])));
        assert_eq!(out.loads_seen + out.stores_seen, 12_000 + 3999);
    }
}

#[test]
fn fast_forward_always_forwards_window_zero() {
    let p = three_access(false);
    let (_, full) = full_trace(&p, &[4000]);
    for seed in 0..32 {
        let (out, _) = fast_forward(&p, &[4000], 256, 16, seed);
        assert_eq!(out.forwarded[..256], full.trace[..256], "seed {seed}");
    }
}

#[test]
fn fast_forward_does_not_skip_a_sink_wrapping_the_sampler() {
    let p = three_access(false);
    let (result, rec) = full_trace(&p, &[4000]);
    let mut full = SampledSink::every_kth(RecordingSink::default(), 256, 16, 5);
    rec.replay(&mut full);
    let want = Sampled::new(result, full);
    let mut wrapped = MeteredSink::new(Probe::new(256, 16, 5));
    let result = Layout::new(&p, &[4000]).unwrap().trace(&p, &mut wrapped);
    assert_eq!(wrapped.inner.skipped, 0);
    assert_eq!(wrapped.accesses(), 12_000);
    assert_eq!(Sampled::new(result, wrapped.inner.inner), want);
}

// ---------------------------------------------------------------------
// Loop runs: `Layout::trace` handing proven innermost loops whole to a
// sink that takes runs. `check` compares their expansion with the full
// trace and the paper caches' statistics with and without runs; these
// cases also make sure a run was handed over.
// ---------------------------------------------------------------------

/// Runs handed to the paper caches when `p` is traced at `params`.
fn runs_handed(p: &Program, params: &[i64]) -> usize {
    let m = Machine::new(p, params).unwrap();
    tree_walker::cached(p, &m, true).2
}

#[test]
fn a_loop_run_follows_the_accesses_buffered_before_it() {
    // DO I = 1, N { X(I) = Y(I); DO J = 1, N { A(J,I) = B(J,I) } }: the
    // outer statement is checked and buffered, then the inner loop runs.
    let mut b = ProgramBuilder::new("buffered");
    let n = b.param("N");
    let x = b.array("X", vec![n.into()]);
    let y = b.array("Y", vec![n.into()]);
    let a = b.matrix("A", n);
    let bb = b.matrix("B", n);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        let lhs = b.at(x, [i]);
        b.assign(lhs, Expr::load(b.at(y, [i])));
        b.loop_("J", 1, n, |b| {
            let j = b.var("J");
            let lhs = b.at(a, [j, i]);
            b.assign(lhs, Expr::load(b.at(bb, [j, i])));
        });
    });
    let p = b.finish();
    let out = check(&p, &[40]);
    assert_eq!(out.result.unwrap().stores, 40 + 40 * 40);
    assert_eq!(runs_handed(&p, &[40]), 40);
}

#[test]
fn a_checked_loop_fails_after_a_run() {
    let p = three_access(true);
    let out = check(&p, &[300]);
    assert_eq!(out.result, Err(oob("A", vec![301], vec![300])));
    assert_eq!(out.trace.len(), 900 + 299);
    assert_eq!(runs_handed(&p, &[300]), 1, "only the first nest is proven");
}
