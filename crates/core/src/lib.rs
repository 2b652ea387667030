//! The paper's primary contribution: a data-locality cost model and the
//! compound loop-transformation algorithm that minimizes it.
//!
//! *Compiler Optimizations for Improving Data Locality*
//! (Carr, McKinley, Tseng — ASPLOS 1994) drives loop **permutation**,
//! **fusion**, **distribution**, and **reversal** with a simple cost model
//! that counts the cache lines a nest touches for each choice of innermost
//! loop. This crate implements:
//!
//! * [`cost`] — symbolic cost polynomials with dominating-term comparison;
//! * [`model`] — `RefGroup`, `RefCost`, `LoopCost`, and *memory order*;
//! * [`permute`] — legality-checked permutation into memory order
//!   (rectangular and triangular nests), with loop reversal as an enabler;
//! * [`fuse`] — profitability-weighted greedy fusion of compatible nests;
//! * [`distribute`] — finest-partition distribution that enables
//!   permutation;
//! * [`mod@compound`] — the driver combining all of the above (Figure 6):
//!   [`compound()`] runs it with the paper's defaults, [`compound_with`]
//!   with ablation switches, a remark sink, a provenance sink and a rank
//!   oracle;
//! * [`exhaustive`] — the n!-evaluation baseline of prior work (§2),
//!   kept for validation and compile-time comparison;
//! * [`provenance`] — per-pass before/after snapshots of every applied
//!   step, the hook the `cmt-verify` differential checker attaches to;
//! * [`report`] — the statistics of the paper's Tables 2 and 5;
//! * [`scalar`] — scalar replacement (the paper's step 3, extension);
//! * [`skew`] — loop skewing (implemented-but-unused in the paper, §2);
//! * [`tiling`] — the §6 advisory pass identifying tiling candidates;
//! * [`tile`] — the §6 transformation itself (strip-mine + interchange);
//! * [`unroll`] — unroll-and-jam, step 3's register tiling (extension).
//!
//! # Example
//!
//! ```
//! use cmt_ir::build::ProgramBuilder;
//! use cmt_ir::expr::Expr;
//! use cmt_locality::{compound::compound, model::CostModel};
//!
//! // An IJ nest that strides across rows; Compound interchanges to JI.
//! let mut b = ProgramBuilder::new("copy");
//! let n = b.param("N");
//! let a = b.matrix("A", n);
//! let c = b.matrix("C", n);
//! b.loop_("I", 1, n, |b| {
//!     b.loop_("J", 1, n, |b| {
//!         let (i, j) = (b.var("I"), b.var("J"));
//!         let lhs = b.at(c, [i, j]);
//!         let rhs = Expr::load(b.at(a, [i, j]));
//!         b.assign(lhs, rhs);
//!     });
//! });
//! let mut p = b.finish();
//!
//! // LoopCost: cache lines touched per candidate innermost loop. With a
//! // 4-element line, J innermost streams both arrays (unit stride in
//! // the column-major first subscript), so memory order is [I, J] — J
//! // innermost, cheapest last.
//! let model = CostModel::new(4);
//! let costs = model.analyze(&p, p.nests()[0]);
//! let ranking = costs.memory_order(); // most expensive loop outermost
//! assert_eq!(ranking.len(), 2);
//!
//! let report = compound(&mut p, &CostModel::new(4));
//! assert_eq!(report.nests_permuted, 1);
//! let outer = p.nests()[0];
//! assert_eq!(p.var_name(outer.var()), "J");
//! ```

#![warn(missing_docs)]

pub mod compound;
pub mod cost;
pub mod distribute;
pub mod exhaustive;
pub mod figures;
pub mod fuse;
pub mod model;
pub mod permute;
pub mod provenance;
pub mod report;
pub mod scalar;
pub mod skew;
pub mod tile;
pub mod tiling;
pub mod unroll;

pub use compound::{compound, compound_with, CompoundOptions};
pub use cost::CostPoly;
pub use model::{CostModel, LoopCostEntry, NestAnalysis, NestMemo, RankOracle, SelfReuse};
pub use provenance::{CollectProvenance, NullProvenance, ProvenanceSink, TransformStep};
pub use report::TransformReport;
