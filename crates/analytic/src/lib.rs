//! Analytical locality engine: predict cache miss rates from the IR
//! alone — no trace, no simulation.
//!
//! The simulator answers "how many misses?" by replaying every access;
//! this crate answers the same question symbolically, in three stages:
//!
//! * [`reuse`] — per-[`RefGroup`](cmt_locality::model::RefGroup)
//!   reuse analysis over the loop-nest IR (the paper's §3 machinery made
//!   quantitative), producing a config-independent reuse-distance
//!   histogram per reference group;
//! * [`histogram`] — the [`ReuseHistogram`] itself: under LRU an access
//!   hits in a cache of `C` lines iff its reuse distance is `< C`, so
//!   one histogram answers every capacity;
//! * [`model`] — the [`MissModel`] geometry fold, emitting predicted
//!   per-array and per-nest [`CacheStats`](cmt_cache::CacheStats)
//!   compatible with the simulator's, plus [`cost`]'s [`AnalyticCost`]
//!   oracle that lets the compound driver rank permutations by predicted
//!   misses (`cmt-explain` compares it with the paper's ranking).
//!
//! Accuracy against the cache simulator is measured continuously: see
//! `docs/ANALYTIC_MODEL.md` and the committed `BENCH_analytic.json`.
//!
//! # Example
//!
//! ```
//! use cmt_analytic::{nest_reuse, MissModel};
//! use cmt_cache::CacheConfig;
//! use cmt_ir::build::ProgramBuilder;
//! use cmt_ir::expr::Expr;
//!
//! // Matmul, IJK order. One reuse analysis serves every geometry.
//! let mut b = ProgramBuilder::new("mm");
//! let n = b.param("N");
//! let a = b.matrix("A", n);
//! let bb = b.matrix("B", n);
//! let c = b.matrix("C", n);
//! b.loop_("I", 1, n, |b| {
//!     b.loop_("J", 1, n, |b| {
//!         b.loop_("K", 1, n, |b| {
//!             let (i, j, k) = (b.var("I"), b.var("J"), b.var("K"));
//!             let lhs = b.at(c, [i, j]);
//!             let rhs = Expr::load(b.at(c, [i, j]))
//!                 + Expr::load(b.at(a, [i, k])) * Expr::load(b.at(bb, [k, j]));
//!             b.assign(lhs, rhs);
//!         });
//!     });
//! });
//! let p = b.finish();
//!
//! let i860 = MissModel::new(CacheConfig::i860());
//! let reuse = nest_reuse(&p, 0, 64, i860.config().cls_elements());
//! let pred = i860.fold(&reuse);
//! assert_eq!(pred.stats.accesses, 4 * 64 * 64 * 64);
//! assert!(pred.stats.misses > 0);
//! // The same histograms fold under any other geometry for free.
//! let rs6000 = MissModel::new(CacheConfig::rs6000());
//! assert!(rs6000.capacity_lines() > i860.capacity_lines());
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod histogram;
pub mod model;
pub mod reuse;

pub use cost::AnalyticCost;
pub use histogram::{
    sets_spanned, CrossStream, ForeignStream, MissParts, ReuseHistogram, StreamBin, StreamLevel,
};
pub use model::{predict_program, ArrayPrediction, MissModel, NestAttribution, NestPrediction};
pub use reuse::{candidate_misses, nest_reuse, GroupReuse, LevelReuse, NestReuse};
