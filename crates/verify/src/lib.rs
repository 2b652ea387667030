//! Differential transformation-correctness verifier for the
//! cmt-locality optimizer.
//!
//! The optimizer's legality reasoning (dependence vectors, direction
//! matrices) and its mechanical rewrites (header swaps, fusion,
//! distribution) are separate pieces of code that can disagree. This
//! crate closes that gap by *executing* the program: the compound
//! driver's provenance hooks ([`cmt_locality::ProvenanceSink`]) hand a
//! before/after snapshot of every applied step to a [`DiffVerifier`],
//! which runs both through the interpreter from identical initial state
//! and demands
//!
//! 1. bit-identical final array state,
//! 2. equal store-address sets, and
//! 3. read-address containment (transformed ⊆ original),
//!
//! plus a static cross-check that replays each permutation over the
//! dependence vectors ([`legality`]). Verdicts stream through the
//! existing observability layer as `Verified`/`Diverged` remarks; a
//! divergence is shrunk to a minimal reproducer and dumped under
//! `results/` ([`repro`]).
//!
//! A deterministic generator ([`gen`]) fuzzes the whole pipeline over
//! the committed ≥200-seed corpus (`corpus/seeds.txt`), replayed by
//! `cargo test -p cmt-verify` and smoked in CI via the `verify_corpus`
//! binary.
//!
//! # Example
//!
//! Verify every step the compound algorithm applies to a
//! column-traversal copy nest:
//!
//! ```
//! use cmt_ir::build::ProgramBuilder;
//! use cmt_ir::expr::Expr;
//! use cmt_locality::{CompoundOptions, CostModel};
//! use cmt_obs::NullObs;
//! use cmt_verify::{verify_compound, VerifyOptions};
//!
//! let mut b = ProgramBuilder::new("copy");
//! let n = b.param("N");
//! let a = b.matrix("A", n);
//! let c = b.matrix("C", n);
//! b.loop_("I", 1, n, |b| {
//!     b.loop_("J", 1, n, |b| {
//!         let (i, j) = (b.var("I"), b.var("J"));
//!         let lhs = b.at(c, [i, j]);
//!         b.assign(lhs, Expr::load(b.at(a, [i, j])));
//!     });
//! });
//! let mut program = b.finish();
//!
//! let (report, verdict) = verify_compound(
//!     &mut program,
//!     &CostModel::new(4),
//!     &CompoundOptions::default(),
//!     &VerifyOptions::default(),
//!     &mut NullObs,
//! );
//! assert_eq!(report.nests_permuted, 1); // J.I -> I.J memory order
//! assert!(verdict.is_clean());
//! assert!(verdict.steps_checked >= 1);
//! ```

#![warn(missing_docs)]

pub mod differential;
pub mod driver;
pub mod gen;
pub mod legality;
pub mod repro;

pub use differential::{compare, fingerprint, Divergence, DivergenceKind, ExecFingerprint};
pub use driver::{
    corpus_seeds, run_corpus, verify_compound, CorpusReport, DiffVerifier, VerifyMode,
    VerifyOptions, VerifyReport,
};
pub use gen::generate;
pub use legality::check_permutation;
pub use repro::{minimize, minimize_with, reproduces, write_reproducer};
