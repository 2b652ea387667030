//! Sampled cache-simulation profiling with hotspot attribution and
//! profile-directed escalation.
//!
//! The offline pipeline simulates every access of every nest — exact,
//! but far too expensive to run over a whole corpus on every change.
//! This crate adds the selective tier (ROADMAP item 3, in the spirit of
//! DMon's selective profiling): simulate a deterministic *sample* of
//! each nest's access stream, scale the observed misses into full-trace
//! estimates ([`cmt_cache::CacheStats::scaled_to`]), rank the nests into
//! a `profile.json` hotspot artifact, and escalate only the worst
//! offenders — first to a confirming full simulation, then to the
//! supervised `cmt-resilience` optimization pipeline.
//!
//! Everything is deterministic: sampling phases come from the in-repo
//! [`cmt_obs::SplitMix64`] keyed by policy seed and nest index, so a
//! profile is byte-identical across runs and across `CMT_JOBS` worker
//! counts (see `cmt-bench`'s corpus driver).
//!
//! # Example
//!
//! ```
//! use cmt_ir::build::ProgramBuilder;
//! use cmt_ir::expr::Expr;
//! use cmt_obs::NullObs;
//! use cmt_profile::{profile_program, rank_hotspots, ProfileOptions};
//!
//! // A transposed copy: the A column sweep misses constantly.
//! let mut b = ProgramBuilder::new("copy");
//! let n = b.param("N");
//! let a = b.matrix("A", n);
//! let c = b.matrix("C", n);
//! b.loop_("I", 1, n, |b| {
//!     b.loop_("J", 1, n, |b| {
//!         let (i, j) = (b.var("I"), b.var("J"));
//!         let lhs = b.at(c, [i, j]);
//!         b.assign(lhs, Expr::load(b.at(a, [j, i])));
//!     });
//! });
//! let program = b.finish();
//!
//! let opts = ProfileOptions::default(); // every-16th-window sampling
//! let profile = profile_program(&program, 64, &opts, &mut NullObs).unwrap();
//! let nest = &profile.nests[0];
//! assert_eq!(nest.accesses, 2 * 64 * 64); // metered exactly
//! assert!(nest.sampled_accesses < nest.accesses / 4); // but sampled
//! assert!(nest.est.misses > 0);
//!
//! let ranked = rank_hotspots(&[profile], &opts.policy.describe(), "i860", 64);
//! assert_eq!(ranked.entries[0].nest, "copy/nest0:I.J");
//! ```

#![warn(missing_docs)]

pub mod escalate;
pub mod hotspot;
pub mod policy;
pub mod profiler;

pub use escalate::{escalate, EscalationConfig, EscalationOutcome};
pub use hotspot::{
    describe_cache, kendall_tau, rank_hotspots, top_k_agreement, HotspotEntry, HotspotProfile,
};
pub use policy::{SamplePolicy, DEFAULT_SEED, DEFAULT_STRIDE, DEFAULT_WINDOW};
pub use profiler::{
    profile_nest, profile_program, ArrayAttribution, NestProfile, ProfileError, ProfileOptions,
    ProgramProfile,
};
