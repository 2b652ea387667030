//! Lowering: the form [`Machine::run`] and [`Layout::trace`] execute,
//! built once per run.
//!
//! Against one layout's parameter values and array placement:
//!
//! * every loop variable becomes a dense *slot* (its loop's depth), and
//!   every loop bound an affine over slots with the parameters folded
//!   into its constant;
//! * every [`ArrayRef`] becomes its array's base address, one affine
//!   per dimension plus the extent, and the whole column-major linear
//!   element index as one affine;
//! * every statement becomes a flat postfix op list that keeps the
//!   expression tree's left-to-right load order, followed by its store.
//!   Lowered for a trace, the list keeps only the loads, the store and
//!   any [`Op::Fail`]: the value ops are left out, so they cost nothing.
//!
//! A loop binds its variable exactly inside its body and unbinds it on
//! exit (an inner loop that reuses the name leaves it unbound for the
//! rest of the outer body), so scoping is static. A reference to an
//! unbound index or parameter therefore lowers to [`Op::Fail`], which
//! raises the interpreter's `ExecError::Eval` message if, and only if,
//! it executes.
//!
//! [`Machine::run`]: crate::Machine::run
//! [`Layout::trace`]: crate::Layout::trace

use crate::machine::Layout;
use cmt_ir::affine::{Affine, EvalError};
use cmt_ir::expr::{BinOp, Expr, UnOp};
use cmt_ir::ids::{ArrayId, VarId};
use cmt_ir::node::{Loop, Node};
use cmt_ir::program::Program;
use cmt_ir::stmt::ArrayRef;
use std::ops::Range;

/// `constant + Σ coeff·slots[slot]`.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotAffine {
    constant: i64,
    terms: Vec<(usize, i64)>,
}

impl SlotAffine {
    #[inline]
    pub(crate) fn eval(&self, slots: &[i64]) -> i64 {
        self.terms
            .iter()
            .fold(self.constant, |acc, &(s, c)| acc + c * slots[s])
    }

    /// The coefficient of `slot`.
    pub(crate) fn coeff(&self, slot: usize) -> i64 {
        self.terms.iter().filter(|t| t.0 == slot).map(|t| t.1).sum()
    }

    /// `self += k·(other − 1)`: one dimension's term of a column-major
    /// linear index.
    fn add_offset_term(&mut self, other: &SlotAffine, k: i64) {
        self.constant += k * (other.constant - 1);
        for &(s, c) in &other.terms {
            match self.terms.iter_mut().find(|t| t.0 == s) {
                Some(t) => t.1 += k * c,
                None => self.terms.push((s, k * c)),
            }
        }
    }
}

/// One array reference, lowered.
#[derive(Clone, Debug)]
pub(crate) struct Ref {
    pub(crate) array: ArrayId,
    /// Byte address of the array's first element.
    pub(crate) base: u64,
    /// One affine per subscript.
    pub(crate) subs: Vec<SlotAffine>,
    /// The array's extents.
    pub(crate) dims: Vec<i64>,
    /// The column-major linear element index; meaningful only when the
    /// subscripts are in bounds (which implies the ranks match).
    pub(crate) linear: SlotAffine,
}

impl Ref {
    /// Whether every subscript lies within its extent at `slots`.
    #[inline]
    pub(crate) fn in_bounds(&self, slots: &[i64]) -> bool {
        self.subs.len() == self.dims.len()
            && self
                .subs
                .iter()
                .zip(&self.dims)
                .all(|(s, &d)| (1..=d).contains(&s.eval(slots)))
    }
}

/// One postfix instruction. A statement is its right-hand side's ops
/// followed by one [`Op::Store`] (or the [`Op::Fail`] standing for it).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// Push a constant (literals and folded parameters).
    Const(f64),
    /// Push a slot's value.
    Var(usize),
    /// Push the element [`Lowered::refs`]`[r]` names, tracing a load.
    Load(usize),
    /// Apply to the top of the stack.
    Unary(UnOp),
    /// Pop the right operand and apply to it and the new top.
    Binary(BinOp),
    /// Pop into the element [`Lowered::refs`]`[r]` names, tracing a store.
    Store(usize),
    /// Raise `ExecError::Eval` with [`Lowered::messages`]`[m]`.
    Fail(usize),
}

/// A loop bound: an affine over slots, or the evaluation error it
/// raises.
pub(crate) type Bound = Result<SlotAffine, String>;

/// A lowered loop.
#[derive(Debug)]
pub(crate) struct LoweredLoop {
    /// The slot holding this loop's variable.
    pub(crate) slot: usize,
    pub(crate) lower: Bound,
    pub(crate) upper: Bound,
    pub(crate) step: i64,
    pub(crate) body: Vec<LoweredNode>,
    /// Set for an innermost loop (its body is all statements) whose body
    /// lowered without an [`Op::Fail`]: the endpoint bounds proof may
    /// apply to it.
    pub(crate) innermost: Option<Innermost>,
}

/// The contiguous ops and references of an innermost loop's body.
#[derive(Clone, Debug)]
pub(crate) struct Innermost {
    /// Every statement's ops, in order.
    pub(crate) ops: Range<usize>,
    /// Every reference those ops name.
    pub(crate) refs: Range<usize>,
    /// Loads per iteration.
    pub(crate) loads: u64,
    /// Statements (and so stores) per iteration.
    pub(crate) stmts: u64,
}

/// A lowered node.
#[derive(Debug)]
pub(crate) enum LoweredNode {
    Loop(LoweredLoop),
    /// A statement's range of [`Lowered::ops`].
    Stmt(Range<usize>),
}

/// A program lowered against one layout.
#[derive(Debug, Default)]
pub(crate) struct Lowered {
    pub(crate) body: Vec<LoweredNode>,
    pub(crate) ops: Vec<Op>,
    pub(crate) refs: Vec<Ref>,
    pub(crate) messages: Vec<String>,
    /// Slots needed: the deepest loop nesting.
    pub(crate) slots: usize,
    /// The deepest value stack any statement needs.
    pub(crate) stack: usize,
}

/// Lowers `program` against `layout`, with the value ops when `values`
/// is set and without them otherwise.
pub(crate) fn lower(program: &Program, layout: &Layout, values: bool) -> Lowered {
    let mut l = Lowerer {
        layout,
        values,
        binding: vec![None; program.vars().len()],
        out: Lowered::default(),
    };
    l.out.body = program.body().iter().map(|n| l.node(n, 0)).collect();
    l.out
}

struct Lowerer<'m> {
    layout: &'m Layout,
    /// Whether to emit the ops that compute values.
    values: bool,
    /// The slot each variable is bound to at the current program point.
    binding: Vec<Option<usize>>,
    out: Lowered,
}

impl Lowerer<'_> {
    /// Appends `op`, unless it only computes a value and values are
    /// left out.
    fn push(&mut self, op: Op) {
        if self.values || matches!(op, Op::Load(_) | Op::Store(_) | Op::Fail(_)) {
            self.out.ops.push(op);
        }
    }

    fn node(&mut self, n: &Node, depth: usize) -> LoweredNode {
        match n {
            Node::Loop(l) => LoweredNode::Loop(self.loop_(l, depth)),
            Node::Stmt(s) => {
                let start = self.out.ops.len();
                let depth = self.expr(s.rhs(), 0);
                self.out.stack = self.out.stack.max(depth);
                let store = match self.reference(s.lhs()) {
                    Ok(r) => Op::Store(r),
                    Err(e) => self.fail(e.to_string()),
                };
                self.out.ops.push(store);
                LoweredNode::Stmt(start..self.out.ops.len())
            }
        }
    }

    fn loop_(&mut self, l: &Loop, depth: usize) -> LoweredLoop {
        let lower = self.affine(l.lower()).map_err(|e| e.to_string());
        let upper = self.affine(l.upper()).map_err(|e| e.to_string());
        let var = l.var().index();
        if var >= self.binding.len() {
            self.binding.resize(var + 1, None);
        }
        self.binding[var] = Some(depth);
        self.out.slots = self.out.slots.max(depth + 1);
        let (ops, refs, messages) = (
            self.out.ops.len(),
            self.out.refs.len(),
            self.out.messages.len(),
        );
        let body: Vec<LoweredNode> = l.body().iter().map(|n| self.node(n, depth + 1)).collect();
        self.binding[var] = None;
        let all_stmts = body.iter().all(|n| matches!(n, LoweredNode::Stmt(_)));
        let innermost = (all_stmts && self.out.messages.len() == messages).then(|| {
            let ops = ops..self.out.ops.len();
            let loads = self.out.ops[ops.clone()]
                .iter()
                .filter(|o| matches!(o, Op::Load(_)))
                .count();
            Innermost {
                loads: loads as u64,
                stmts: body.len() as u64,
                refs: refs..self.out.refs.len(),
                ops,
            }
        });
        LoweredLoop {
            slot: depth,
            lower,
            upper,
            step: l.step(),
            body,
            innermost,
        }
    }

    /// Lowers `e` in postfix order onto the op list; returns the value
    /// stack depth it needs on top of `depth` entries already pushed.
    fn expr(&mut self, e: &Expr, depth: usize) -> usize {
        let op = match e {
            Expr::Const(c) => Op::Const(*c),
            Expr::Index(v) => match self.slot(*v) {
                Some(s) => Op::Var(s),
                None => self.fail(format!("unbound index {v}")),
            },
            Expr::Param(p) => match self.layout.param(*p) {
                Some(x) => Op::Const(x as f64),
                None => self.fail(format!("unbound parameter {p}")),
            },
            Expr::Load(r) => match self.reference(r) {
                Ok(r) => Op::Load(r),
                Err(e) => self.fail(e.to_string()),
            },
            Expr::Unary(op, a) => {
                let need = self.expr(a, depth);
                self.push(Op::Unary(*op));
                return need;
            }
            Expr::Binary(op, a, b) => {
                let left = self.expr(a, depth);
                let right = self.expr(b, depth + 1);
                self.push(Op::Binary(*op));
                return left.max(right);
            }
        };
        self.push(op);
        depth + 1
    }

    fn fail(&mut self, message: String) -> Op {
        self.out.messages.push(message);
        Op::Fail(self.out.messages.len() - 1)
    }

    fn slot(&self, v: VarId) -> Option<usize> {
        self.binding.get(v.index()).copied().flatten()
    }

    /// Lowers `a`, failing as `Affine::eval` would: on the first unbound
    /// variable, then on the first unbound parameter.
    fn affine(&self, a: &Affine) -> Result<SlotAffine, EvalError> {
        let mut out = SlotAffine {
            constant: a.constant_term(),
            terms: Vec::new(),
        };
        for (v, c) in a.var_terms() {
            out.terms
                .push((self.slot(v).ok_or(EvalError::UnboundVar(v))?, c));
        }
        for (p, c) in a.param_terms() {
            out.constant += c * self.layout.param(p).ok_or(EvalError::UnboundParam(p))?;
        }
        Ok(out)
    }

    /// Lowers `r` into [`Lowered::refs`] and returns its index.
    fn reference(&mut self, r: &ArrayRef) -> Result<usize, EvalError> {
        let subs = r
            .subscripts()
            .iter()
            .map(|s| self.affine(s))
            .collect::<Result<Vec<_>, _>>()?;
        let st = self.layout.array(r.array());
        let mut linear = SlotAffine::default();
        let mut stride = 1;
        for (s, &d) in subs.iter().zip(&st.dims) {
            linear.add_offset_term(s, stride);
            stride *= d;
        }
        self.out.refs.push(Ref {
            array: r.array(),
            base: st.base,
            subs,
            dims: st.dims.clone(),
            linear,
        });
        Ok(self.out.refs.len() - 1)
    }
}
