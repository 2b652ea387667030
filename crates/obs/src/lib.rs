//! Observability for the locality optimizer: optimization remarks,
//! tracing spans, and a metrics registry.
//!
//! The paper's evaluation hinges on *explaining* compiler decisions —
//! which nests reached memory order, which permutations were blocked by
//! dependences, what fusion bought. This crate provides the
//! LLVM-`-Rpass`-style machinery to make those decisions visible:
//!
//! * [`remark`] — structured [`Remark`] events (`Applied` / `Missed` /
//!   `Analysis`) with a pass name, a stable nest label, a human-readable
//!   reason, and optional `LoopCost` before/after values;
//! * [`decision`] — [`DecisionRecord`] provenance events: every
//!   candidate a transformation weighed, its per-oracle cost, the
//!   legality verdict (with the constraining dependence vector on
//!   rejection), the winner, and the win margin;
//! * [`sink`] — the cheap [`ObsSink`] trait every producer writes to,
//!   with a no-op default ([`NullObs`]) so hot paths stay fast when
//!   observability is off, an in-memory collector ([`CollectSink`]), and
//!   a JSONL writer ([`JsonlSink`]);
//! * [`metrics`] — a counter/histogram [`MetricsRegistry`] with
//!   wall-clock span timing and a machine-readable JSON snapshot, so
//!   every reproduction run leaves an artifact comparable across PRs;
//! * [`trace`] — the LLVM-`-ftime-trace`-style self-profiler: a
//!   [`TraceSession`] of per-thread [`TraceTrack`]s recording span /
//!   instant / counter events, exported as Chrome Trace Event JSON for
//!   Perfetto or `chrome://tracing`;
//! * [`diff`] — cross-run regression diffing of metrics snapshots and
//!   remark streams (the engine behind the `obs_diff` binary);
//! * [`artifact`] — the [`Artifact`] contract every optional run
//!   artifact implements once (suffix, parse/serialize, diff, gate,
//!   report section), so `obs_diff`, `cmt-report` and the baseline
//!   gates loop over one list of kinds;
//! * [`json`] — the tiny hand-rolled JSON writer and parser behind the
//!   export formats (this crate has zero dependencies);
//! * [`rng`] — a small SplitMix64/xorshift PRNG used for deterministic
//!   workload generation and property tests (replacing the external
//!   `rand` dependency so the tier-1 build is fully offline).
//!
//! # Example
//!
//! ```
//! use cmt_obs::{CollectSink, ObsSink, Remark, RemarkKind};
//!
//! let mut sink = CollectSink::default();
//! if sink.enabled() {
//!     sink.remark(
//!         Remark::new("permute", "mm/nest0:I.J.K", RemarkKind::Applied)
//!             .reason("permuted into memory order J.K.I")
//!             .costs(2.0e6, 0.5e6),
//!     );
//! }
//! sink.counter("pass.permute.changed", 1);
//! assert_eq!(sink.remarks.len(), 1);
//! assert_eq!(sink.metrics.counter_value("pass.permute.changed"), 1);
//! let line = sink.remarks[0].to_json();
//! assert!(line.contains("\"kind\":\"Applied\""));
//! ```

pub mod artifact;
pub mod decision;
pub mod diff;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod remark;
pub mod rng;
pub mod sink;
pub mod trace;

pub use artifact::{Artifact, ArtifactKind, Findings, Kind};
pub use decision::{DecisionCandidate, DecisionRecord};
pub use diff::{diff_metrics, diff_remarks, DiffFinding};
pub use metrics::{HistogramSummary, MetricsRegistry, SpanTimer};
pub use pool::{cmt_jobs, par_map, par_map_traced, try_par_map, try_par_map_traced, WorkerPanic};
pub use remark::{Remark, RemarkKind};
pub use rng::SplitMix64;
pub use sink::{CollectSink, JsonlSink, NullObs, ObsSink, SharedSink, Tracing};
pub use trace::{validate_chrome_trace, TraceArg, TraceSession, TraceSummary, TraceTrack};
