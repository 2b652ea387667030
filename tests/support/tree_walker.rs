//! The reference tree-walking interpreter: the test oracle for
//! `Machine::run` and `Layout::trace`.
//!
//! It walks the IR directly — each loop binds its variable in an `Env`,
//! each subscript is evaluated with `Affine::eval` and bounds-checked on
//! every access, each right-hand side is evaluated recursively — which
//! is exactly the semantics the lowered executor must reproduce: the
//! same packed trace in the same `BATCH_LEN` batches, the same
//! `ExecSummary`, the same final array bits and the same `ExecError`,
//! with the same trace prefix and array contents when one occurs.
//! `Layout::trace` must give the same trace, batches, summary and error
//! without computing any array. Traced into a sink that takes loop runs
//! and expands them through the default `TraceSink::access_run`, it
//! must give the same trace again; traced into the two paper caches, it
//! must leave the same statistics whether they take runs or not.
//!
//! It lays memory out with `Machine::new` (bases and extents) and keeps
//! its own copy of the data. Shared by the root differential tests and
//! `crates/interp/tests/exec_coverage.rs` (via `#[path]`).

#![allow(dead_code)]

use cmt_cache::{CacheConfig, CacheStats, ShardedCache};
use cmt_interp::{pack_access, ExecError, ExecSummary, LoopRun, Machine, TraceSink, BATCH_LEN};
use cmt_ir::affine::Env;
use cmt_ir::expr::Expr;
use cmt_ir::ids::{ArrayId, ParamId};
use cmt_ir::node::{Loop, Node};
use cmt_ir::program::Program;
use cmt_ir::stmt::{ArrayRef, Stmt};

/// Everything one run produces.
#[derive(Debug)]
pub struct Outcome {
    /// The run's result.
    pub result: Result<ExecSummary, ExecError>,
    /// Every packed access, in order.
    pub trace: Vec<u64>,
    /// The length of each batch the sink received.
    pub batches: Vec<usize>,
    /// Final contents of each array, as bits.
    pub arrays: Vec<Vec<u64>>,
}

/// Runs `program` with the tree walker from `machine`'s parameters,
/// layout and contents (`machine` itself is left untouched).
pub fn tree_walk(program: &Program, machine: &Machine) -> Outcome {
    let mut env = Env::new();
    for k in 0..program.params().len() {
        let p = ParamId(k as u32);
        if let Some(v) = machine.param(p) {
            env.bind_param(p, v);
        }
    }
    let mut w = Walker {
        program,
        machine,
        env,
        data: (0..program.arrays().len())
            .map(|k| machine.array_data(ArrayId(k as u32)).to_vec())
            .collect(),
        summary: ExecSummary::default(),
        buf: Vec::with_capacity(BATCH_LEN),
        trace: Vec::new(),
        batches: Vec::new(),
    };
    let mut result = Ok(());
    for n in program.body() {
        if let Err(e) = w.node(n) {
            result = Err(e);
            break;
        }
    }
    w.flush();
    Outcome {
        result: result.map(|()| w.summary),
        trace: w.trace,
        batches: w.batches,
        arrays: w
            .data
            .iter()
            .map(|d| d.iter().map(|x| x.to_bits()).collect())
            .collect(),
    }
}

/// Records every packed access and each batch's length.
#[derive(Default)]
struct Batches {
    trace: Vec<u64>,
    batches: Vec<usize>,
}

impl TraceSink for Batches {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.access_batch(&[pack_access(addr, is_write)]);
    }
    fn access_batch(&mut self, batch: &[u64]) {
        self.trace.extend_from_slice(batch);
        self.batches.push(batch.len());
    }
}

/// Runs `program` with `Layout::trace` on `machine`'s layout; `arrays`
/// is empty, since a trace computes none.
pub fn traced(program: &Program, machine: &Machine) -> Outcome {
    let mut sink = Batches::default();
    let result = machine.layout().trace(program, &mut sink);
    Outcome {
        result,
        trace: sink.trace,
        batches: sink.batches,
        arrays: Vec::new(),
    }
}

/// Records every packed access; takes loop runs and expands them
/// through the default `TraceSink::access_run`.
#[derive(Default)]
struct Expanding(Vec<u64>);

impl TraceSink for Expanding {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.0.push(pack_access(addr, is_write));
    }
    fn access_batch(&mut self, batch: &[u64]) {
        self.0.extend_from_slice(batch);
    }
    fn takes_runs(&self) -> bool {
        true
    }
}

/// Runs `program` with `Layout::trace` into a sink that takes loop
/// runs and expands them; `batches` and `arrays` are left empty.
pub fn expanded(program: &Program, machine: &Machine) -> Outcome {
    let mut sink = Expanding::default();
    let result = machine.layout().trace(program, &mut sink);
    Outcome {
        result,
        trace: sink.0,
        batches: Vec::new(),
        arrays: Vec::new(),
    }
}

/// Both paper caches, taking loop runs or not.
struct PaperCaches {
    caches: [ShardedCache; 2],
    take_runs: bool,
    runs: usize,
}

impl TraceSink for PaperCaches {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.access_batch(&[pack_access(addr, is_write)]);
    }
    fn access_batch(&mut self, batch: &[u64]) {
        for c in &mut self.caches {
            c.access_batch(batch);
        }
    }
    fn takes_runs(&self) -> bool {
        self.take_runs
    }
    fn access_run(&mut self, run: LoopRun<'_>) {
        self.runs += 1;
        for c in &mut self.caches {
            c.access_run(run);
        }
    }
}

/// Runs `program` with `Layout::trace` into both paper caches, taking
/// loop runs when `take_runs` is set: the result, each cache's
/// statistics and the number of runs handed over.
pub fn cached(
    program: &Program,
    machine: &Machine,
    take_runs: bool,
) -> (Result<ExecSummary, ExecError>, [CacheStats; 2], usize) {
    let mut sink = PaperCaches {
        caches: [CacheConfig::rs6000(), CacheConfig::i860()].map(ShardedCache::new),
        take_runs,
        runs: 0,
    };
    let result = machine.layout().trace(program, &mut sink);
    let [c1, c2] = sink.caches;
    (result, [c1.stats(), c2.stats()], sink.runs)
}

/// Runs `program` with `Machine::run` on a clone of `machine`.
pub fn lowered(program: &Program, machine: &Machine) -> Outcome {
    let mut m = machine.clone();
    let mut sink = Batches::default();
    let result = m.run(program, &mut sink);
    Outcome {
        result,
        trace: sink.trace,
        batches: sink.batches,
        arrays: (0..program.arrays().len())
            .map(|k| {
                m.array_data(ArrayId(k as u32))
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect(),
    }
}

/// Asserts that `Machine::run` and the tree walker agree on `program`
/// from `machine`'s state, that `Layout::trace` gives the same result,
/// trace and batches, that its loop runs expand to the same trace and
/// leave the paper caches as the plain trace does; returns the (shared)
/// outcome.
pub fn assert_same(label: &str, program: &Program, machine: &Machine) -> Outcome {
    let want = tree_walk(program, machine);
    let got = lowered(program, machine);
    let addresses = traced(program, machine);
    assert_eq!(addresses.result, got.result, "{label}: trace result");
    assert!(addresses.trace == got.trace, "{label}: trace-only accesses");
    assert_eq!(addresses.batches, got.batches, "{label}: trace batches");
    let runs = expanded(program, machine);
    assert_eq!(runs.result, got.result, "{label}: expanded-run result");
    assert!(runs.trace == got.trace, "{label}: expanded-run accesses");
    let (result, with_runs, _) = cached(program, machine, true);
    assert_eq!(result, got.result, "{label}: cached-run result");
    let (result, without_runs, _) = cached(program, machine, false);
    assert_eq!(result, got.result, "{label}: cached result");
    assert_eq!(with_runs, without_runs, "{label}: cache stats with runs");
    assert_eq!(got.result, want.result, "{label}: result");
    assert_eq!(got.trace.len(), want.trace.len(), "{label}: trace length");
    if let Some(k) = (0..got.trace.len()).find(|&k| got.trace[k] != want.trace[k]) {
        panic!(
            "{label}: trace differs at access {k}: {:#x} vs tree walker {:#x}",
            got.trace[k], want.trace[k]
        );
    }
    assert_eq!(got.batches, want.batches, "{label}: batch boundaries");
    for (a, (g, w)) in got.arrays.iter().zip(&want.arrays).enumerate() {
        if let Some(k) = (0..g.len()).find(|&k| g[k] != w[k]) {
            panic!(
                "{label}: array {a} differs at element {k}: {} vs tree walker {}",
                f64::from_bits(g[k]),
                f64::from_bits(w[k])
            );
        }
    }
    got
}

struct Walker<'p> {
    program: &'p Program,
    machine: &'p Machine,
    env: Env,
    data: Vec<Vec<f64>>,
    summary: ExecSummary,
    buf: Vec<u64>,
    trace: Vec<u64>,
    batches: Vec<usize>,
}

impl Walker<'_> {
    fn emit(&mut self, addr: u64, is_write: bool) {
        self.buf.push(pack_access(addr, is_write));
        if self.buf.len() == BATCH_LEN {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.trace.extend_from_slice(&self.buf);
            self.batches.push(self.buf.len());
            self.buf.clear();
        }
    }

    fn node(&mut self, n: &Node) -> Result<(), ExecError> {
        match n {
            Node::Stmt(s) => self.stmt(s),
            Node::Loop(l) => self.loop_(l),
        }
    }

    fn loop_(&mut self, l: &Loop) -> Result<(), ExecError> {
        let lo = l
            .lower()
            .eval(&self.env)
            .map_err(|e| ExecError::Eval(e.to_string()))?;
        let hi = l
            .upper()
            .eval(&self.env)
            .map_err(|e| ExecError::Eval(e.to_string()))?;
        let step = l.step();
        let var = l.var();
        let mut v = lo;
        loop {
            if step > 0 {
                if v > hi {
                    break;
                }
            } else if v < hi {
                break;
            }
            self.env.bind_var(var, v);
            for n in l.body() {
                self.node(n)?;
            }
            v += step;
        }
        self.env.unbind_var(var);
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), ExecError> {
        let value = self.eval(s.rhs())?;
        let (addr, idx) = self.locate(s.lhs())?;
        self.data[s.lhs().array().index()][idx] = value;
        self.emit(addr, true);
        self.summary.stores += 1;
        self.summary.stmt_executions += 1;
        Ok(())
    }

    fn locate(&self, r: &ArrayRef) -> Result<(u64, usize), ExecError> {
        let mut subs = Vec::with_capacity(r.rank());
        for s in r.subscripts() {
            subs.push(
                s.eval(&self.env)
                    .map_err(|e| ExecError::Eval(e.to_string()))?,
            );
        }
        let st = self.machine.storage(r.array());
        match st.linear_index(&subs) {
            Some(idx) => Ok((st.address_of(idx), idx)),
            None => Err(ExecError::OutOfBounds {
                array: self.program.array(r.array()).name().to_string(),
                subscripts: subs,
                dims: st.dims.clone(),
            }),
        }
    }

    fn eval(&mut self, e: &Expr) -> Result<f64, ExecError> {
        match e {
            Expr::Const(c) => Ok(*c),
            Expr::Index(v) => self
                .env
                .var(*v)
                .map(|x| x as f64)
                .ok_or_else(|| ExecError::Eval(format!("unbound index {v}"))),
            Expr::Param(p) => self
                .env
                .param(*p)
                .map(|x| x as f64)
                .ok_or_else(|| ExecError::Eval(format!("unbound parameter {p}"))),
            Expr::Load(r) => {
                let (addr, idx) = self.locate(r)?;
                let v = self.data[r.array().index()][idx];
                self.emit(addr, false);
                self.summary.loads += 1;
                Ok(v)
            }
            Expr::Unary(op, inner) => Ok(op.apply(self.eval(inner)?)),
            Expr::Binary(op, a, b) => {
                let x = self.eval(a)?;
                let y = self.eval(b)?;
                Ok(op.apply(x, y))
            }
        }
    }
}
