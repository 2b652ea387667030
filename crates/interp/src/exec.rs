//! The executor: runs a program's lowered form (see the crate docs),
//! with values ([`Machine::run`]) or without ([`Layout::trace`]).

use crate::lower::{lower, Bound, Innermost, Lowered, LoweredLoop, LoweredNode, Op};
use crate::machine::{Layout, Machine, ELEMENT_BYTES};
use crate::sink::{pack_access, LoopRun, Stream, TraceSink, BATCH_LEN};
use cmt_ir::program::Program;
use std::fmt;

/// Runtime failure during execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Bound or subscript evaluation failed (unbound variable/parameter).
    Eval(String),
    /// An array extent evaluated to a non-positive value.
    BadExtent {
        /// Array name.
        array: String,
        /// Offending extent value.
        extent: i64,
    },
    /// A subscript fell outside the array.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Evaluated subscripts.
        subscripts: Vec<i64>,
        /// Declared extents.
        dims: Vec<i64>,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Eval(s) => write!(f, "evaluation failed: {s}"),
            ExecError::BadExtent { array, extent } => {
                write!(f, "array {array} has non-positive extent {extent}")
            }
            ExecError::OutOfBounds {
                array,
                subscripts,
                dims,
            } => write!(
                f,
                "subscript {subscripts:?} out of bounds for {array} with extents {dims:?}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Aggregate counts from one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecSummary {
    /// Loads performed.
    pub loads: u64,
    /// Stores performed.
    pub stores: u64,
    /// Statement executions.
    pub stmt_executions: u64,
}

/// The executor, with the value ops compiled in (`VALUES`, for
/// [`Machine::run`]) or out (for [`Layout::trace`]).
struct Exec<'r, const VALUES: bool> {
    /// Each array's elements; empty when `!VALUES`.
    data: &'r mut [Vec<f64>],
    program: &'r Program,
    code: &'r Lowered,
    sink: &'r mut dyn TraceSink,
    summary: ExecSummary,
    /// Packed-access buffer; flushed through [`TraceSink::access_batch`]
    /// when full, so the virtual dispatch to the sink is paid once per
    /// [`BATCH_LEN`] accesses instead of once per access.
    buf: Vec<u64>,
    /// Current value of each loop slot.
    slots: Vec<i64>,
    /// In a proven innermost loop, each reference's current linear
    /// element index and its per-iteration increment.
    cur: Vec<i64>,
    delta: Vec<i64>,
    /// A proven innermost loop's streams, when the sink takes runs.
    streams: Vec<Stream>,
    /// Value stack for the postfix ops; unused when `!VALUES`.
    stack: Vec<f64>,
}

impl Machine {
    /// Executes `program` against this machine's arrays, emitting every
    /// access to `sink` (batched — see [`TraceSink::access_batch`]).
    ///
    /// The program is lowered once against this machine's parameters
    /// and layout, then executed; see the crate docs. A caller that
    /// only needs the accesses should use [`Layout::trace`], which
    /// produces the same trace without computing values.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on unbound symbols or out-of-bounds
    /// subscripts; array contents up to the failure point are retained,
    /// and accesses performed before the failure are still flushed to
    /// the sink.
    pub fn run(
        &mut self,
        program: &Program,
        sink: &mut dyn TraceSink,
    ) -> Result<ExecSummary, ExecError> {
        let (layout, data) = self.layout_and_data();
        execute::<true>(program, layout, data, sink)
    }
}

impl Layout {
    /// Emits `program`'s accesses to `sink` exactly as [`Machine::run`]
    /// would from a machine with this layout — the same packed trace in
    /// the same batches, the same [`ExecSummary`], the same
    /// [`ExecError`] after the same flushed prefix — without allocating
    /// or computing any array element.
    ///
    /// A sink that drops part of the stream unseen (see
    /// [`TraceSink::dropped_span`]) is handed only what it looks at:
    /// whole iterations of a bounds-proven innermost loop that fall in a
    /// dropped span are metered through [`TraceSink::skip`] instead of
    /// being produced. Such a sink sees its kept accesses in different
    /// batches, never a different stream.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn trace(
        &self,
        program: &Program,
        sink: &mut dyn TraceSink,
    ) -> Result<ExecSummary, ExecError> {
        execute::<false>(program, self, &mut [], sink)
    }
}

/// Lowers `program` against `layout` and executes it.
fn execute<const VALUES: bool>(
    program: &Program,
    layout: &Layout,
    data: &mut [Vec<f64>],
    sink: &mut dyn TraceSink,
) -> Result<ExecSummary, ExecError> {
    let code = lower(program, layout, VALUES);
    let mut exec = Exec::<VALUES> {
        data,
        program,
        sink,
        summary: ExecSummary::default(),
        buf: Vec::with_capacity(BATCH_LEN),
        slots: vec![0; code.slots],
        cur: vec![0; code.refs.len()],
        delta: vec![0; code.refs.len()],
        streams: Vec::new(),
        stack: vec![0.0; code.stack],
        code: &code,
    };
    let result = exec.nodes(&code.body);
    exec.flush();
    result.map(|()| exec.summary)
}

/// Iterations of `lo..=hi` by `step` (`hi..=lo` when `step < 0`).
fn trip_count(lo: i64, hi: i64, step: i64) -> i64 {
    if step > 0 {
        if lo > hi {
            0
        } else {
            (hi - lo) / step + 1
        }
    } else if lo < hi {
        0
    } else {
        (lo - hi) / -step + 1
    }
}

impl<const VALUES: bool> Exec<'_, VALUES> {
    #[inline]
    fn emit(&mut self, addr: u64, is_write: bool) {
        self.buf.push(pack_access(addr, is_write));
        if self.buf.len() == BATCH_LEN {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.sink.access_batch(&self.buf);
            self.buf.clear();
        }
    }

    fn nodes(&mut self, nodes: &[LoweredNode]) -> Result<(), ExecError> {
        let code = self.code;
        for n in nodes {
            match n {
                LoweredNode::Stmt(ops) => self.ops::<true>(&code.ops[ops.clone()])?,
                LoweredNode::Loop(l) => self.loop_(l)?,
            }
        }
        Ok(())
    }

    fn bound(&self, b: &Bound) -> Result<i64, ExecError> {
        match b {
            Ok(a) => Ok(a.eval(&self.slots)),
            Err(e) => Err(ExecError::Eval(e.clone())),
        }
    }

    fn loop_(&mut self, l: &LoweredLoop) -> Result<(), ExecError> {
        let lo = self.bound(&l.lower)?;
        let hi = self.bound(&l.upper)?;
        let step = l.step;
        if let Some(inner) = &l.innermost {
            let trip = trip_count(lo, hi, step);
            if trip == 0 {
                return Ok(());
            }
            // Every subscript is affine in this loop's variable, so if
            // each is in bounds at the first and the last iteration it
            // is in bounds at every iteration between.
            if self.proven(inner, l.slot, lo) && self.proven(inner, l.slot, lo + (trip - 1) * step)
            {
                self.run_proven(inner, l.slot, lo, step, trip as u64);
                return Ok(());
            }
        }
        let mut v = lo;
        while if step > 0 { v <= hi } else { v >= hi } {
            self.slots[l.slot] = v;
            self.nodes(&l.body)?;
            v += step;
        }
        Ok(())
    }

    /// Whether every reference of `inner` is in bounds with `slot` at `v`.
    fn proven(&mut self, inner: &Innermost, slot: usize, v: i64) -> bool {
        self.slots[slot] = v;
        let slots = &self.slots;
        self.code.refs[inner.refs.clone()]
            .iter()
            .all(|r| r.in_bounds(slots))
    }

    /// Runs `trip` iterations of a proven innermost loop from `first`: no
    /// bounds checks, and each reference's linear index strength-reduced
    /// to one add per iteration.
    ///
    /// Without values, a sink that takes runs is handed the whole loop
    /// as one [`LoopRun`], after the buffered accesses that precede it.
    /// For any other sink, the iterations that fall wholly inside a span
    /// the sink drops unseen are skipped: the indices jump over them and
    /// the sink meters them. A partial iteration at either end of the
    /// span still steps, so the sink sees every access it keeps.
    fn run_proven(&mut self, inner: &Innermost, slot: usize, first: i64, step: i64, trip: u64) {
        let code = self.code;
        self.slots[slot] = first;
        for k in inner.refs.clone() {
            let linear = &code.refs[k].linear;
            self.cur[k] = linear.eval(&self.slots);
            self.delta[k] = linear.coeff(slot) * step;
        }
        let ops = &code.ops[inner.ops.clone()];
        if !VALUES && self.sink.takes_runs() {
            self.flush();
            self.streams.clear();
            for op in ops {
                if let Op::Load(r) | Op::Store(r) = *op {
                    self.streams.push(Stream {
                        start: code.refs[r].base + self.cur[r] as u64 * ELEMENT_BYTES,
                        stride: self.delta[r] * ELEMENT_BYTES as i64,
                        write: matches!(op, Op::Store(_)),
                    });
                }
            }
            self.sink.access_run(LoopRun {
                streams: &self.streams,
                iters: trip,
            });
            self.advance(inner, slot, step, trip);
        } else {
            self.step_proven(inner, slot, step, trip);
        }
        self.summary.loads += trip * inner.loads;
        self.summary.stores += trip * inner.stmts;
        self.summary.stmt_executions += trip * inner.stmts;
    }

    /// Steps `trip` iterations of a proven innermost loop whose indices
    /// [`Exec::run_proven`] has set up, skipping what the sink drops.
    fn step_proven(&mut self, inner: &Innermost, slot: usize, step: i64, trip: u64) {
        let ops = &self.code.ops[inner.ops.clone()];
        let per_iter = inner.loads + inner.stmts;
        let mut left = trip;
        while left > 0 {
            let mut steps = left;
            if !VALUES && per_iter > 0 {
                let (kept, dropped) = self.sink.dropped_span(self.buf.len() as u64);
                if kept > 0 {
                    steps = kept.div_ceil(per_iter).min(left);
                } else if dropped >= per_iter {
                    let whole = (dropped / per_iter).min(left);
                    // The buffered accesses precede the skipped ones.
                    self.flush();
                    self.sink.skip(whole * inner.loads, whole * inner.stmts);
                    self.advance(inner, slot, step, whole);
                    left -= whole;
                    continue;
                } else {
                    steps = 1;
                }
            }
            for _ in 0..steps {
                // Unchecked ops cannot fail.
                let _ = self.ops::<false>(ops);
                self.advance(inner, slot, step, 1);
            }
            left -= steps;
        }
    }

    /// Moves a proven innermost loop `iters` iterations on.
    #[inline]
    fn advance(&mut self, inner: &Innermost, slot: usize, step: i64, iters: u64) {
        let iters = iters as i64;
        for k in inner.refs.clone() {
            self.cur[k] += self.delta[k] * iters;
        }
        self.slots[slot] += step * iters;
    }

    /// The linear element index of reference `r`: checked against the
    /// extents in a `CHECKED` run, the strength-reduced index otherwise.
    #[inline]
    fn locate<const CHECKED: bool>(&self, r: usize) -> Result<usize, ExecError> {
        if !CHECKED {
            return Ok(self.cur[r] as usize);
        }
        let r = &self.code.refs[r];
        if r.in_bounds(&self.slots) {
            Ok(r.linear.eval(&self.slots) as usize)
        } else {
            Err(ExecError::OutOfBounds {
                array: self.program.array(r.array).name().to_string(),
                subscripts: r.subs.iter().map(|s| s.eval(&self.slots)).collect(),
                dims: r.dims.clone(),
            })
        }
    }

    /// Executes postfix ops. A `CHECKED` run bounds-checks every access
    /// and counts it; an unchecked one (a proven innermost loop) does
    /// neither and never fails. Without `VALUES` the ops hold no value
    /// ops and nothing is loaded or stored.
    fn ops<const CHECKED: bool>(&mut self, ops: &[Op]) -> Result<(), ExecError> {
        let code = self.code;
        let mut sp = 0;
        for op in ops {
            match *op {
                Op::Const(c) => {
                    self.stack[sp] = c;
                    sp += 1;
                }
                Op::Var(s) => {
                    self.stack[sp] = self.slots[s] as f64;
                    sp += 1;
                }
                Op::Load(r) => {
                    let idx = self.locate::<CHECKED>(r)?;
                    let r = &code.refs[r];
                    if VALUES {
                        self.stack[sp] = self.data[r.array.index()][idx];
                        sp += 1;
                    }
                    self.emit(r.base + idx as u64 * ELEMENT_BYTES, false);
                    if CHECKED {
                        self.summary.loads += 1;
                    }
                }
                Op::Unary(u) => self.stack[sp - 1] = u.apply(self.stack[sp - 1]),
                Op::Binary(b) => {
                    sp -= 1;
                    self.stack[sp - 1] = b.apply(self.stack[sp - 1], self.stack[sp]);
                }
                Op::Store(r) => {
                    let idx = self.locate::<CHECKED>(r)?;
                    let r = &code.refs[r];
                    if VALUES {
                        sp -= 1;
                        self.data[r.array.index()][idx] = self.stack[sp];
                    }
                    self.emit(r.base + idx as u64 * ELEMENT_BYTES, true);
                    if CHECKED {
                        self.summary.stores += 1;
                        self.summary.stmt_executions += 1;
                    }
                }
                Op::Fail(m) => return Err(ExecError::Eval(code.messages[m].clone())),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountingSink, NullSink};
    use cmt_ir::affine::Affine;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;
    use cmt_ir::ids::ArrayId;

    #[test]
    fn triangular_loop_iteration_count() {
        // DO I = 1, N { DO J = 1, I { A(I,J) = 1 } } → N(N+1)/2 stores.
        let mut b = ProgramBuilder::new("tri");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            b.loop_("J", 1, i, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::Const(1.0));
            });
        });
        let p = b.finish();
        let mut m = Machine::new(&p, &[10]).unwrap();
        let mut sink = CountingSink::default();
        let sum = m.run(&p, &mut sink).unwrap();
        assert_eq!(sum.stores, 55);
        assert_eq!(sink.stores, 55);
        assert_eq!(sum.loads, 0);
    }

    #[test]
    fn empty_range_executes_zero_iterations() {
        let mut b = ProgramBuilder::new("empty");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        b.loop_("I", 5, 4, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i]);
            b.assign(lhs, Expr::Const(1.0));
        });
        let p = b.finish();
        let mut m = Machine::new(&p, &[8]).unwrap();
        let sum = m.run(&p, &mut NullSink).unwrap();
        assert_eq!(sum.stores, 0);
    }

    #[test]
    fn negative_step() {
        let mut b = ProgramBuilder::new("down");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        b.loop_step("I", n, 1, -1, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i]);
            b.assign(lhs, Expr::Index(i) * Expr::Const(1.0));
        });
        let p = b.finish();
        let mut m = Machine::new(&p, &[5]).unwrap();
        m.run(&p, &mut NullSink).unwrap();
        assert_eq!(m.array_data(ArrayId(0)), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn recurrence_semantics() {
        // A(I) = A(I-1) + 1, A(0-based init 1.0-ish): use explicit init.
        let mut b = ProgramBuilder::new("scan");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        b.loop_("I", 2, n, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i]);
            let rhs = Expr::load(b.at_vec(a, vec![Affine::var(i) - 1])) + Expr::Const(1.0);
            b.assign(lhs, rhs);
        });
        let p = b.finish();
        let mut m = Machine::new(&p, &[6]).unwrap();
        m.init_with(|_, _| 0.0);
        m.run(&p, &mut NullSink).unwrap();
        assert_eq!(m.array_data(ArrayId(0)), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut b = ProgramBuilder::new("oob");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at_vec(a, vec![Affine::var(i) + 1]);
            b.assign(lhs, Expr::Const(0.0));
        });
        let p = b.finish();
        let mut m = Machine::new(&p, &[4]).unwrap();
        let err = m.run(&p, &mut NullSink).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { .. }), "{err}");
    }

    #[test]
    fn loads_emitted_in_source_order_before_store() {
        let mut b = ProgramBuilder::new("order");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        let c = b.array("C", vec![n.into()]);
        b.loop_("I", 1, 1, |b| {
            let i = b.var("I");
            let lhs = b.at(c, [i]);
            let rhs = Expr::load(b.at(a, [i])) + Expr::load(b.at(c, [i]));
            b.assign(lhs, rhs);
        });
        let p = b.finish();
        let mut m = Machine::new(&p, &[4]).unwrap();

        #[derive(Default)]
        struct Recorder(Vec<(u64, bool)>);
        impl TraceSink for Recorder {
            fn access(&mut self, addr: u64, w: bool) {
                self.0.push((addr, w));
            }
        }
        let mut rec = Recorder::default();
        let a_base = m.storage(ArrayId(0)).base;
        let c_base = m.storage(ArrayId(1)).base;
        m.run(&p, &mut rec).unwrap();
        assert_eq!(
            rec.0,
            vec![(a_base, false), (c_base, false), (c_base, true)]
        );
    }
}
