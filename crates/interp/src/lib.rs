//! Execution of IR programs over simulated memory.
//!
//! The interpreter runs a [`cmt_ir::Program`] on real `f64` arrays laid
//! out column-major (Fortran), emitting every load and store — with its
//! byte address — to a pluggable [`TraceSink`]. Two uses:
//!
//! * **Cache evaluation** — feed the trace to `cmt-cache` simulators to
//!   regenerate the paper's hit-rate and timing tables;
//! * **Correctness oracle** — run original and transformed programs and
//!   compare final array contents bit-exactly, validating every
//!   transformation end-to-end.
//!
//! # How a run executes
//!
//! [`Machine::run`] lowers the program once against the machine's
//! parameter values and array layout, then executes the lowered form.
//! Loop variables become dense slots; bounds and subscripts become
//! affines over slots with the parameters folded in; each array
//! reference carries its base address, per-dimension affines and one
//! column-major linear-index affine; each statement becomes a postfix op
//! list in the tree's left-to-right load order, followed by its store.
//!
//! On entry to an innermost loop (a body of statements only) every
//! reference's subscripts are evaluated at the first and the last
//! iteration. Subscripts are affine in the loop variable, so if both
//! endpoints are in bounds every iteration is: the loop then runs with
//! no per-access checks, each reference's linear index advancing by one
//! precomputed increment per iteration. Otherwise — and for statements
//! directly under a non-innermost loop — each access is checked, so an
//! out-of-bounds error surfaces at the same access, with the same trace
//! prefix flushed and the same array contents, as a direct tree walk of
//! the IR would give. Values are always computed: there is one
//! execution mode.
//!
//! # Example
//!
//! ```
//! use cmt_ir::build::ProgramBuilder;
//! use cmt_ir::expr::Expr;
//! use cmt_interp::{Machine, CountingSink};
//!
//! let mut b = ProgramBuilder::new("fill");
//! let n = b.param("N");
//! let a = b.array("A", vec![n.into()]);
//! b.loop_("I", 1, n, |b| {
//!     let i = b.var("I");
//!     let lhs = b.at(a, [i]);
//!     b.assign(lhs, Expr::Const(7.0));
//! });
//! let p = b.finish();
//!
//! let mut m = Machine::new(&p, &[10]).unwrap();
//! let mut sink = CountingSink::default();
//! m.run(&p, &mut sink).unwrap();
//! assert_eq!(sink.stores, 10);
//! assert!(m.array_data(a).iter().all(|&x| x == 7.0));
//! ```

pub mod exec;
mod lower;
pub mod machine;
pub mod sink;
pub mod verify;

pub use exec::{ExecError, ExecSummary};
pub use machine::Machine;
pub use sink::{
    pack_access, unpack_access, CacheSink, CountingSink, MeteredSink, NullSink, RecordingSink,
    SampledSink, TeeSink, TraceSink, TracedSink, BATCH_LEN, WRITE_BIT,
};
pub use verify::{assert_equivalent, equivalent, EquivalenceReport};
