//! Observability contract tests: golden remark streams for the corpus
//! kernels, purity of the no-op sink (instrumentation must not change
//! any transformation decision), and coverage (every top-level nest of
//! every corpus program produces at least one remark).

use cmt_locality_repro::ir::parse::parse_program;
use cmt_locality_repro::ir::pretty::program_to_string;
use cmt_locality_repro::ir::program::Program;
use cmt_locality_repro::locality::model::CostModel;
use cmt_locality_repro::locality::report::TransformReport;
use cmt_locality_repro::locality::scalar::{scalar_replace_observed, ScalarStats};
use cmt_locality_repro::locality::{compound, compound_with, NullProvenance};
use cmt_locality_repro::obs::{CollectSink, NullObs, ObsSink, RemarkKind};
use std::path::PathBuf;

fn corpus(name: &str) -> Program {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    parse_program(&src).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn corpus_files() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".f"))
        .collect();
    names.sort();
    names
}

/// Compound with default options and `LoopCost` ranking, remarks into
/// `obs`.
fn observed_compound(p: &mut Program, model: &CostModel, obs: &mut dyn ObsSink) -> TransformReport {
    compound_with(
        p,
        model,
        &Default::default(),
        obs,
        &mut NullProvenance,
        model,
    )
}

/// The paper's compile path: compound, then scalar replacement.
fn paper_pipeline(p: &mut Program, obs: &mut dyn ObsSink) -> (TransformReport, ScalarStats) {
    let report = observed_compound(p, &CostModel::new(4), obs);
    (report, scalar_replace_observed(p, obs))
}

fn observed_stream(name: &str) -> CollectSink {
    let mut p = corpus(name);
    let mut sink = CollectSink::new();
    paper_pipeline(&mut p, &mut sink);
    sink
}

/// The remark stream is part of the tool's interface: these goldens pin
/// the exact decisions (and their JSONL encoding) for the three kernels
/// the paper walks through. Update them deliberately when the optimizer
/// or the remark wording changes.
#[test]
fn golden_remarks_matmul() {
    let got = observed_stream("matmul.f").remarks_jsonl();
    let want = "\
{\"pass\":\"permute\",\"nest\":\"matmul/nest0:I.J.K\",\"kind\":\"Applied\",\"reason\":\"permuted into memory order\"}
{\"pass\":\"loopcost\",\"nest\":\"matmul/nest0:I.J.K\",\"kind\":\"Analysis\",\"reason\":\"LoopCost at N=100: now in memory order, ideal 510000.0\",\"loopcost_before\":1260000,\"loopcost_after\":510000}
{\"pass\":\"scalar-replace\",\"nest\":\"matmul/loop:I\",\"kind\":\"Applied\",\"reason\":\"hoisted invariant load of B into temporary SR3 (one load per entry instead of one per iteration)\"}
";
    assert_eq!(got, want);
}

#[test]
fn golden_remarks_adi() {
    let got = observed_stream("adi.f").remarks_jsonl();
    let want = "\
{\"pass\":\"permute\",\"nest\":\"adi/nest0:I\",\"kind\":\"Missed\",\"reason\":\"nest is not perfect\"}
{\"pass\":\"fuse-all\",\"nest\":\"adi/nest0:I\",\"kind\":\"Applied\",\"reason\":\"fused inner loops to expose a perfect nest, enabling permutation into memory order\"}
{\"pass\":\"loopcost\",\"nest\":\"adi/nest0:I\",\"kind\":\"Analysis\",\"reason\":\"LoopCost at N=100: now in memory order, ideal 24750.0\",\"loopcost_before\":99000,\"loopcost_after\":7425}
";
    assert_eq!(got, want);
}

#[test]
fn golden_remarks_cholesky() {
    let got = observed_stream("cholesky.f").remarks_jsonl();
    let want = "\
{\"pass\":\"permute\",\"nest\":\"cholesky/nest0:K\",\"kind\":\"Missed\",\"reason\":\"nest is not perfect\"}
{\"pass\":\"fuse-all\",\"nest\":\"cholesky/nest0:K\",\"kind\":\"Missed\",\"reason\":\"inner loops cannot be fused legally\"}
{\"pass\":\"distribute\",\"nest\":\"cholesky/nest0:K\",\"kind\":\"Applied\",\"reason\":\"distributed into 2 nest(s); 1 permuted into memory order\"}
{\"pass\":\"loopcost\",\"nest\":\"cholesky/nest0:K\",\"kind\":\"Analysis\",\"reason\":\"LoopCost at N=100: now in memory order, ideal 510100.0\",\"loopcost_before\":1270000,\"loopcost_after\":1030200}
{\"pass\":\"scalar-replace\",\"nest\":\"cholesky/loop:I\",\"kind\":\"Missed\",\"reason\":\"invariant load of A not hoisted: array is written in the loop\"}
{\"pass\":\"scalar-replace\",\"nest\":\"cholesky/loop:I\",\"kind\":\"Missed\",\"reason\":\"invariant load of A not hoisted: array is written in the loop\"}
";
    assert_eq!(got, want);
}

/// Observability must be free when disabled AND inert when enabled: the
/// transformed program and the `TransformReport` are byte-identical
/// whether the optimizer runs unobserved, with the no-op sink, or with
/// a collecting sink.
#[test]
fn noop_sink_is_pure_for_compound() {
    let model = CostModel::new(4);
    for name in corpus_files() {
        let base = corpus(&name);

        let mut plain = base.clone();
        let report_plain = compound(&mut plain, &model);

        let mut nulled = base.clone();
        let report_null = observed_compound(&mut nulled, &model, &mut NullObs);

        let mut collected = base.clone();
        let mut sink = CollectSink::new();
        let report_coll = observed_compound(&mut collected, &model, &mut sink);

        assert_eq!(
            report_plain, report_null,
            "{name}: NullObs changed the report"
        );
        assert_eq!(
            report_plain, report_coll,
            "{name}: CollectSink changed the report"
        );
        let text = program_to_string(&plain);
        assert_eq!(
            text,
            program_to_string(&nulled),
            "{name}: NullObs changed the code"
        );
        assert_eq!(
            text,
            program_to_string(&collected),
            "{name}: CollectSink changed the code"
        );
        assert!(
            !sink.remarks.is_empty(),
            "{name}: observed run produced no remarks"
        );
    }
}

/// Same purity contract for the paper's compile path, compound followed
/// by scalar replacement: observing both stages changes neither the
/// program nor either stage's statistics.
#[test]
fn noop_sink_is_pure_for_pipeline() {
    for name in corpus_files() {
        let base = corpus(&name);

        let mut plain = base.clone();
        let (report_plain, scalar_plain) = paper_pipeline(&mut plain, &mut NullObs);

        let mut observed = base.clone();
        let mut sink = CollectSink::new();
        let (report_obs, scalar_obs) = paper_pipeline(&mut observed, &mut sink);

        assert_eq!(
            program_to_string(&plain),
            program_to_string(&observed),
            "{name}: observation changed the transformed program"
        );
        assert_eq!(report_plain, report_obs, "{name}: compound report");
        assert_eq!(scalar_plain, scalar_obs, "{name}: scalar-replace stats");
    }
}

/// Every top-level nest of every corpus program yields at least one
/// remark: depth-1 loops get the "not applicable" analysis note, deeper
/// nests get exactly one final `loopcost` analysis remark (emitted
/// before cross-nest fusion can merge them, so counts line up with the
/// original program).
#[test]
fn every_corpus_nest_is_covered() {
    let model = CostModel::new(4);
    for name in corpus_files() {
        let mut p = corpus(&name);
        let top_level_nests = p.body().iter().filter(|n| n.as_loop().is_some()).count();

        let mut sink = CollectSink::new();
        let _ = observed_compound(&mut p, &model, &mut sink);

        let loopcost = sink.remarks.iter().filter(|r| r.pass == "loopcost").count();
        let depth1 = sink
            .remarks
            .iter()
            .filter(|r| r.reason.contains("depth-1 loop"))
            .count();
        assert_eq!(
            loopcost + depth1,
            top_level_nests,
            "{name}: expected one terminal remark per nest, got {loopcost} loopcost + {depth1} depth-1 for {top_level_nests} nests"
        );
        for r in &sink.remarks {
            assert!(!r.reason.is_empty(), "{name}: remark without reason: {r}");
            let prog = r.nest.split('/').next().unwrap_or("");
            assert!(!prog.is_empty(), "{name}: nest label missing program: {r}");
            let json = r.to_json();
            assert!(
                json.starts_with('{') && json.ends_with('}'),
                "{name}: bad JSON: {json}"
            );
        }
        assert!(
            sink.remarks.iter().any(|r| r.kind == RemarkKind::Applied
                || r.kind == RemarkKind::Missed
                || r.kind == RemarkKind::Analysis),
            "{name}: empty remark stream"
        );
    }
}
