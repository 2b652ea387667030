//! Execution of IR programs over simulated memory.
//!
//! A [`Layout`] places a [`cmt_ir::Program`]'s arrays column-major
//! (Fortran) in a simulated address space; a [`Machine`] adds the
//! arrays' `f64` contents. Every load and store — with its byte address
//! — goes to a pluggable [`TraceSink`]. Two uses:
//!
//! * **Cache evaluation** — [`Layout::trace`] feeds the address trace to
//!   `cmt-cache` simulators to regenerate the paper's hit-rate and
//!   timing tables, without allocating or computing any array;
//! * **Correctness oracle** — [`Machine::run`] runs original and
//!   transformed programs and compares final array contents bit-exactly,
//!   validating every transformation end-to-end.
//!
//! The IR has no value-dependent control flow (bounds and subscripts
//! are affine in loop indices and parameters), so both produce the same
//! trace: the same accesses, in the same batches, with the same
//! [`ExecSummary`] or [`ExecError`].
//!
//! # How a run executes
//!
//! [`Machine::run`] and [`Layout::trace`] lower the program once
//! against the layout's parameter values and array placement, then
//! execute the lowered form. Loop variables become dense slots; bounds
//! and subscripts become affines over slots with the parameters folded
//! in; each array reference carries its base address, per-dimension
//! affines and one column-major linear-index affine; each statement
//! becomes a postfix op list in the tree's left-to-right load order,
//! followed by its store. For a trace the value ops are left out, and
//! the one executor runs with its value code compiled out.
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
//! the IR would give.
//!
//! A trace also skips what its sink will not look at: a sink that drops
//! part of the stream unseen ([`SampledSink`]) says so through
//! [`TraceSink::dropped_span`], and the whole iterations of a proven
//! innermost loop that fall in such a span are metered through
//! [`TraceSink::skip`] instead of being produced. A sink that takes
//! loop runs ([`TraceSink::takes_runs`]) is handed each proven
//! innermost loop whole, as one [`LoopRun`] of affine address streams.
//!
//! # Example
//!
//! ```
//! use cmt_ir::build::ProgramBuilder;
//! use cmt_ir::expr::Expr;
//! use cmt_interp::{CountingSink, Layout, Machine};
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
//! // Addresses only: no array is allocated.
//! let layout = Layout::new(&p, &[10]).unwrap();
//! let mut sink = CountingSink::default();
//! layout.trace(&p, &mut sink).unwrap();
//! assert_eq!(sink.stores, 10);
//!
//! // Values: the same trace, and the arrays it leaves.
//! let mut m = Machine::new(&p, &[10]).unwrap();
//! let mut again = CountingSink::default();
//! m.run(&p, &mut again).unwrap();
//! assert_eq!(again, sink);
//! assert!(m.array_data(a).iter().all(|&x| x == 7.0));
//! ```

pub mod exec;
mod lower;
pub mod machine;
pub mod sink;
pub mod verify;

pub use exec::{ExecError, ExecSummary};
pub use machine::{Layout, Machine};
pub use sink::{
    pack_access, unpack_access, CacheSink, CountingSink, LoopRun, MeteredSink, NullSink,
    RecordingSink, SampledSink, Stream, TraceSink, TracedSink, BATCH_LEN, WRITE_BIT,
};
pub use verify::{assert_equivalent, equivalent, EquivalenceReport};
