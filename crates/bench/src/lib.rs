//! Regeneration harness for every table and figure of the paper's
//! evaluation (§5), plus ablation studies.
//!
//! Each `table*`/`fig*` binary in `src/bin` prints one artifact; the
//! heavy lifting lives here so integration tests can assert on the
//! structured results. See EXPERIMENTS.md for the paper-vs-measured
//! record.
//!
//! Run (release strongly recommended — the cache simulations stream
//! hundreds of millions of accesses):
//!
//! ```text
//! cargo run --release -p cmt-bench --bin table4_hit_rates
//! ```

pub mod analytic;
pub mod artifact;
pub mod explain;
pub mod fmt;
pub mod profiling;
pub mod report;
pub mod runner;
pub mod serving;
pub mod tables;
pub mod timing;

pub use analytic::{
    analytic_corpus, analytic_geometries, analytic_sweep, rank_predictions, top_k_agreement_tied,
    AnalyticReport, AnalyticSweepConfig, GeometryAgreement, TIE_TOLERANCE,
};
pub use artifact::{
    artifact_dir, emit, trace_enabled, write, write_metrics_json, write_remarks_jsonl,
    ArtifactError, ARTIFACT_KINDS, TRACE_SUFFIX,
};
pub use explain::{
    explain_corpus, explain_sweep, render_decision_tree, DecisionJoin, ExplainDocument,
    ExplainReport, ExplainSweepConfig, GeometryAttribution, NestDivergence,
};
pub use profiling::{profile_sweep, sweep_corpus, AgreementReport, SweepConfig, SweepResult};
pub use report::render_report;
pub use runner::{
    cmt_jobs, emit_observed_compound, emit_observed_pipeline, par_map, par_map_traced,
    simulate_observed, simulate_program, simulate_versions, try_par_map, try_par_map_traced,
    ObservedSim, ProgramSim, VersionPair, WorkerPanic,
};
pub use serving::{
    run_serve_bench, serve_corpus, ServeBenchConfig, ServeTransport, ServerBenchReport,
};
