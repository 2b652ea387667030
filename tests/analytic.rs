//! Integration tests for the analytic locality engine: corpus
//! equivalence against the cache simulator on every geometry,
//! byte-identical output across `CMT_JOBS`, degenerate nests, and the
//! `AnalyticCost` rank oracle's legality.

use cmt_locality_repro::analytic::{predict_program, AnalyticCost, MissModel};
use cmt_locality_repro::bench::{analytic_corpus, analytic_sweep, AnalyticSweepConfig};
use cmt_locality_repro::cache::CacheConfig;
use cmt_locality_repro::ir::build::ProgramBuilder;
use cmt_locality_repro::ir::expr::Expr;
use cmt_locality_repro::ir::program::Program;
use cmt_locality_repro::locality::model::CostModel;
use cmt_locality_repro::locality::{compound_with, CompoundOptions, NullProvenance};
use cmt_locality_repro::obs::{Artifact, CollectSink, NullObs};
use cmt_locality_repro::profile::{profile_program, ProfileOptions, SamplePolicy};
use cmt_locality_repro::suite::kernels::paper_kernels;
use cmt_locality_repro::verify::{compare, fingerprint};

/// The documented per-nest tolerance for the small-corpus equivalence
/// check (`docs/ANALYTIC_MODEL.md`): mean relative miss error per
/// geometry. The committed `BENCH_analytic.json` tracks the full-corpus
/// numbers; this bound leaves headroom for the small sample.
const MEAN_REL_ERROR_TOLERANCE: f64 = 0.35;

/// Aggregate (summed-misses) tolerance per geometry.
const AGGREGATE_TOLERANCE: f64 = 0.25;

fn small_cfg() -> AnalyticSweepConfig {
    AnalyticSweepConfig {
        seeds: 6,
        kernels: false,
        n: 32,
        top_k: 5,
    }
}

#[test]
fn corpus_predictions_within_tolerance_on_all_geometries() {
    let cfg = small_cfg();
    let programs = analytic_corpus(&cfg);
    let mut sink = CollectSink::new();
    let report = analytic_sweep(&programs, &cfg, &mut sink, None).unwrap();
    assert_eq!(report.geometries.len(), 3);
    for g in &report.geometries {
        assert!(
            g.mean_rel_error <= MEAN_REL_ERROR_TOLERANCE,
            "{}: mean rel error {:.4} exceeds tolerance {MEAN_REL_ERROR_TOLERANCE}",
            g.cache,
            g.mean_rel_error,
        );
        assert!(
            g.aggregate_error <= AGGREGATE_TOLERANCE,
            "{}: aggregate error {:.4} exceeds tolerance {AGGREGATE_TOLERANCE}",
            g.cache,
            g.aggregate_error,
        );
        assert!(
            g.top_k_agreement >= 0.8,
            "{}: top-{} agreement {:.3}",
            g.cache,
            report.top_k,
            g.top_k_agreement,
        );
        assert!(
            g.kendall_tau >= 0.6,
            "{}: kendall tau {:.3}",
            g.cache,
            g.kendall_tau,
        );
    }
}

#[test]
fn predictions_byte_identical_across_cmt_jobs() {
    let cfg = AnalyticSweepConfig {
        seeds: 4,
        kernels: false,
        n: 24,
        top_k: 3,
    };
    let programs = analytic_corpus(&cfg);
    let run = |jobs: &str| {
        std::env::set_var("CMT_JOBS", jobs);
        let mut sink = CollectSink::new();
        let report = analytic_sweep(&programs, &cfg, &mut sink, None).unwrap();
        std::env::remove_var("CMT_JOBS");
        (report.to_json(), sink.remarks_jsonl())
    };
    let (json1, remarks1) = run("1");
    let (json4, remarks4) = run("4");
    assert_eq!(json1, json4, "report must not depend on CMT_JOBS");
    assert_eq!(remarks1, remarks4, "remarks must not depend on CMT_JOBS");
}

/// A 1-D streaming store — the simplest possible nest.
fn stream_1d() -> Program {
    let mut b = ProgramBuilder::new("stream");
    let n = b.param("N");
    let a = b.array("A", vec![cmt_locality_repro::ir::array::Extent::param(n)]);
    b.loop_("I", 1, n, |b| {
        let i = b.var("I");
        let lhs = b.at(a, [i]);
        b.assign(lhs, Expr::Const(1.0));
    });
    b.finish()
}

/// Every nest's predicted misses vs a full simulation of the same
/// geometry, for degenerate parameter bindings (trip counts 1 and 2)
/// where the model's asymptotic approximations have no room to hide.
#[test]
fn degenerate_nests_match_simulation() {
    let programs: Vec<Program> = vec![stream_1d(), paper_kernels().swap_remove(0)];
    for config in [CacheConfig::i860(), CacheConfig::decstation()] {
        let model = MissModel::new(config);
        let opts = ProfileOptions {
            policy: SamplePolicy::Full,
            cache: config,
        };
        for p in &programs {
            for n in [1i64, 2, 4] {
                let preds = predict_program(p, n, &model, &mut NullObs);
                let profile = profile_program(p, n, &opts, &mut NullObs).unwrap();
                for (pred, nest) in preds.iter().zip(&profile.nests) {
                    assert_eq!(
                        pred.stats.accesses, nest.est.accesses,
                        "{}@n={n}: access counts must be exact",
                        pred.label,
                    );
                    assert!(pred.stats.misses <= pred.stats.accesses);
                    assert!(pred.stats.cold_misses <= pred.stats.misses);
                    // Tiny working sets fit every cache: predictions may
                    // differ from the simulator only by rounding, never
                    // by more than a couple of lines.
                    let diff = pred.stats.misses.abs_diff(nest.est.misses);
                    assert!(
                        diff <= 2,
                        "{}@n={n} on {config}: predicted {} vs simulated {}",
                        pred.label,
                        pred.stats.misses,
                        nest.est.misses,
                    );
                }
            }
        }
    }
}

/// An empty-body / zero-trip nest must predict zero without panicking.
#[test]
fn zero_trip_nest_predicts_zero() {
    let mut b = ProgramBuilder::new("empty");
    let n = b.param("N");
    let a = b.matrix("A", n);
    b.loop_("I", 2, n, |b| {
        b.loop_("J", 2, n, |b| {
            let (i, j) = (b.var("I"), b.var("J"));
            let lhs = b.at(a, [i, j]);
            b.assign(lhs, Expr::Const(0.0));
        });
    });
    let p = b.finish();
    let model = MissModel::new(CacheConfig::i860());
    // n = 1 makes both loops zero-trip (lo 2 > hi 1).
    let preds = predict_program(&p, 1, &model, &mut NullObs);
    assert_eq!(preds.len(), 1);
    assert_eq!(preds[0].stats.accesses, 0);
    assert_eq!(preds[0].stats.misses, 0);
}

/// A loop-free nest (top-level statement) predicts its cold footprint
/// and produces an empty reuse histogram rather than panicking.
#[test]
fn loop_free_statement_predicts_cold_footprint() {
    let mut b = ProgramBuilder::new("scalarish");
    let n = b.param("N");
    let a = b.matrix("A", n);
    let lhs = b.at(a, [1i64, 1]);
    b.assign(lhs, Expr::Const(1.0));
    let p = b.finish();
    let model = MissModel::new(CacheConfig::i860());
    let preds = predict_program(&p, 16, &model, &mut NullObs);
    assert_eq!(preds.len(), 1);
    assert_eq!(preds[0].stats.accesses, 1);
    assert_eq!(preds[0].stats.misses, 1);
    assert_eq!(preds[0].stats.cold_misses, 1);
}

/// Ranking by the analytic oracle must only change *which* legal order
/// the driver prefers — every transformed kernel still computes the same
/// values.
#[test]
fn analytic_cost_oracle_preserves_semantics() {
    let oracle = AnalyticCost::new(CacheConfig::i860(), 64);
    let model = CostModel::new(4);
    for kernel in paper_kernels() {
        let mut transformed = kernel.clone();
        let _ = compound_with(
            &mut transformed,
            &model,
            &CompoundOptions::default(),
            &mut NullObs,
            &mut NullProvenance,
            &oracle,
        );
        cmt_locality_repro::ir::validate::validate(&transformed)
            .unwrap_or_else(|e| panic!("{}: invalid after compound: {e}", kernel.name()));
        for v in [3i64, 5] {
            let params = vec![v; kernel.params().len()];
            let orig = fingerprint(&kernel, &params).unwrap();
            let new = fingerprint(&transformed, &params).unwrap();
            assert!(
                compare(&kernel, &orig, &new).is_none(),
                "{} diverged at params {params:?}",
                kernel.name(),
            );
        }
    }
}
