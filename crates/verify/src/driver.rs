//! The verifying compound driver: runs the optimizer with a
//! differential checker attached to its provenance hooks.
//!
//! [`verify_compound`] is a drop-in replacement for
//! [`cmt_locality::compound_with`] that additionally executes every
//! applied transformation step's before/after snapshots through the
//! interpreter and cross-checks permutations against the dependence
//! legality predicate. [`VerifyMode`] makes it opt-in for the
//! supervised pipeline (`cmt-resilience`): tests and CI run `On`,
//! benchmarks and the compile server run `Off`.

use crate::differential::{compare, fingerprint, Divergence, DivergenceKind};
use crate::gen::generate;
use crate::legality::check_permutation;
use cmt_ir::program::Program;
use cmt_locality::compound::{compound_with, CompoundOptions};
use cmt_locality::model::CostModel;
use cmt_locality::provenance::{ProvenanceSink, TransformStep};
use cmt_locality::report::TransformReport;
use cmt_obs::{NullObs, ObsSink, Remark, RemarkKind};

/// Tuning knobs for the differential verifier.
#[derive(Clone, Debug)]
pub struct VerifyOptions {
    /// Concrete values substituted for *every* symbolic parameter, one
    /// full differential execution per value. Small values keep the
    /// interpreter cheap while still covering boundary iterations.
    pub param_values: Vec<i64>,
    /// Also re-derive each permutation step and replay it over the
    /// dependence vectors (the static legality cross-check).
    pub check_legality: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            param_values: vec![6, 9],
            check_legality: true,
        }
    }
}

/// Whether a supervised compound run differentially verifies its own
/// transformation steps.
///
/// Benchmarks and the compile server use [`VerifyMode::Off`]; tests and
/// CI use [`VerifyMode::On`].
#[derive(Clone, Debug, Default)]
pub enum VerifyMode {
    /// No differential verification.
    #[default]
    Off,
    /// Differentially verify every applied step with these options.
    On(VerifyOptions),
}

/// Outcome of the verification side of a compound run.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Applied transformation steps that were checked.
    pub steps_checked: usize,
    /// Differential executions performed (steps × parameter values).
    pub executions: usize,
    /// Every divergence found (empty on a correct run).
    pub divergences: Vec<Divergence>,
}

impl VerifyReport {
    /// `true` when every checked step was equivalent.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The [`ProvenanceSink`] that differentially checks each applied step.
///
/// Verdicts are buffered as [`Remark`]s ([`RemarkKind::Verified`] /
/// [`RemarkKind::Diverged`]) because the compound driver holds the
/// `ObsSink` for the duration of the run; [`verify_compound`] flushes
/// the buffer into the sink afterwards.
#[derive(Clone, Debug)]
pub struct DiffVerifier {
    opts: VerifyOptions,
    /// Accumulated verification outcome.
    pub report: VerifyReport,
    /// Buffered verdict remarks, flushed by the caller.
    pub remarks: Vec<Remark>,
}

impl DiffVerifier {
    /// Creates a verifier with the given options.
    pub fn new(opts: VerifyOptions) -> DiffVerifier {
        DiffVerifier {
            opts,
            report: VerifyReport::default(),
            remarks: Vec::new(),
        }
    }

    /// Checks one step; public so tests can inject hand-built
    /// (including deliberately illegal) steps without a full compound
    /// run.
    pub fn check_step(
        &mut self,
        pass: &'static str,
        nest_index: usize,
        reversed: &[cmt_ir::ids::LoopId],
        before: &Program,
        after: &Program,
    ) {
        self.report.steps_checked += 1;
        let label = format!("{}/nest{}", before.name(), nest_index);

        if self.opts.check_legality && matches!(pass, "permute" | "fuse-all") {
            match check_permutation(before, after, nest_index, reversed) {
                Ok(None) => {}
                Ok(Some(detail)) => {
                    self.diverge(pass, nest_index, &label, Vec::new(), before, after, {
                        DivergenceKind::IllegalPermutation { detail }
                    });
                    return;
                }
                Err(e) => {
                    self.diverge(pass, nest_index, &label, Vec::new(), before, after, {
                        DivergenceKind::IllegalPermutation {
                            detail: format!("malformed provenance step: {e}"),
                        }
                    });
                    return;
                }
            }
        }

        for &v in &self.opts.param_values {
            let params = vec![v; before.params().len()];
            self.report.executions += 1;
            let orig = match fingerprint(before, &params) {
                Ok(f) => f,
                Err(message) => {
                    self.diverge(pass, nest_index, &label, params, before, after, {
                        DivergenceKind::ExecError {
                            which: "original",
                            message,
                        }
                    });
                    return;
                }
            };
            let transformed = match fingerprint(after, &params) {
                Ok(f) => f,
                Err(message) => {
                    self.diverge(pass, nest_index, &label, params, before, after, {
                        DivergenceKind::ExecError {
                            which: "transformed",
                            message,
                        }
                    });
                    return;
                }
            };
            if let Some(kind) = compare(before, &orig, &transformed) {
                self.diverge(pass, nest_index, &label, params, before, after, kind);
                return;
            }
        }
        self.remarks.push(
            Remark::new("verify", label, RemarkKind::Verified).reason(format!(
                "{pass} step equivalent at N in {:?}",
                self.opts.param_values
            )),
        );
    }

    fn diverge(
        &mut self,
        pass: &'static str,
        nest_index: usize,
        label: &str,
        param_values: Vec<i64>,
        before: &Program,
        after: &Program,
        kind: DivergenceKind,
    ) {
        self.remarks.push(
            Remark::new("verify", label.to_string(), RemarkKind::Diverged)
                .reason(format!("{pass} step diverged: {kind}")),
        );
        self.report.divergences.push(Divergence {
            pass,
            nest_index,
            param_values,
            kind,
            before: before.clone(),
            after: after.clone(),
        });
    }
}

impl ProvenanceSink for DiffVerifier {
    fn enabled(&self) -> bool {
        true
    }

    fn step(&mut self, step: &TransformStep<'_>, before: &Program, after: &Program) {
        self.check_step(step.pass, step.nest_index, step.reversed, before, after);
    }
}

/// Runs the compound transformation with differential verification of
/// every applied step, emitting `Verified`/`Diverged` remarks into
/// `obs`.
pub fn verify_compound(
    program: &mut Program,
    model: &CostModel,
    copts: &CompoundOptions,
    vopts: &VerifyOptions,
    obs: &mut dyn ObsSink,
) -> (TransformReport, VerifyReport) {
    let mut verifier = DiffVerifier::new(vopts.clone());
    let report = compound_with(program, model, copts, obs, &mut verifier, model);
    if obs.enabled() {
        obs.counter("verify.steps_checked", verifier.report.steps_checked as u64);
        obs.counter(
            "verify.divergences",
            verifier.report.divergences.len() as u64,
        );
        for r in verifier.remarks.drain(..) {
            obs.remark(r);
        }
    }
    (report, verifier.report)
}

/// Aggregate outcome of replaying a seed corpus through the verifier.
#[derive(Clone, Debug, Default)]
pub struct CorpusReport {
    /// Programs generated and optimized.
    pub programs: usize,
    /// Applied steps checked across all programs.
    pub steps_checked: usize,
    /// Differential executions performed.
    pub executions: usize,
    /// `(seed, divergence)` for every failure.
    pub divergences: Vec<(u64, Divergence)>,
}

/// Generates the program for every seed, runs the verifying compound
/// driver on it, and aggregates the outcomes. Keeps going after a
/// divergence so the report shows the full blast radius.
pub fn run_corpus(seeds: &[u64], vopts: &VerifyOptions) -> CorpusReport {
    let model = CostModel::new(4);
    let copts = CompoundOptions::default();
    let mut out = CorpusReport::default();
    for &seed in seeds {
        let mut p = generate(seed);
        let (_, v) = verify_compound(&mut p, &model, &copts, vopts, &mut NullObs);
        out.programs += 1;
        out.steps_checked += v.steps_checked;
        out.executions += v.executions;
        out.divergences
            .extend(v.divergences.into_iter().map(|d| (seed, d)));
    }
    out
}

/// The committed verification corpus: one seed per line, `#` comments
/// allowed.
pub const CORPUS_SEEDS: &str = include_str!("../corpus/seeds.txt");

/// Parses [`CORPUS_SEEDS`] into the seed list.
pub fn corpus_seeds() -> Vec<u64> {
    CORPUS_SEEDS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus/seeds.txt: malformed seed line"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::affine::Affine;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;
    use cmt_obs::CollectSink;

    /// Column-traversal copy: compound permutes it to memory order, so
    /// at least one step fires.
    fn col_copy() -> Program {
        let mut b = ProgramBuilder::new("copy");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [i, j]);
                b.assign(lhs, Expr::load(b.at(a, [i, j])));
            });
        });
        b.finish()
    }

    #[test]
    fn verified_steps_emit_remarks_and_counters() {
        let mut p = col_copy();
        let mut sink = CollectSink::new();
        let (report, vreport) = verify_compound(
            &mut p,
            &CostModel::new(4),
            &CompoundOptions::default(),
            &VerifyOptions::default(),
            &mut sink,
        );
        assert_eq!(report.nests_permuted, 1);
        assert!(vreport.is_clean(), "{:?}", vreport.divergences);
        assert!(vreport.steps_checked >= 1);
        assert_eq!(vreport.executions, 2 * vreport.steps_checked);
        let verified = sink
            .remarks
            .iter()
            .filter(|r| r.kind == RemarkKind::Verified)
            .count();
        assert_eq!(verified, vreport.steps_checked);
        assert!(!sink.remarks.iter().any(|r| r.kind == RemarkKind::Diverged));
    }

    #[test]
    fn verification_matches_plain_compound() {
        let model = CostModel::new(4);
        let mut plain = col_copy();
        let r_plain = cmt_locality::compound(&mut plain, &model);
        let mut verified = col_copy();
        let (r_verified, v) = verify_compound(
            &mut verified,
            &model,
            &CompoundOptions::default(),
            &VerifyOptions::default(),
            &mut NullObs,
        );
        assert_eq!(r_plain, r_verified);
        assert!(v.is_clean());
        assert_eq!(
            cmt_ir::pretty::program_to_source(&plain),
            cmt_ir::pretty::program_to_source(&verified),
            "verification must not change the transformation result"
        );
    }

    #[test]
    fn injected_broken_step_diverges() {
        // "Transformation" that rewrites the stored constant: the
        // differential check must reject it as an array-state change.
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        b.loop_("I", 1, Affine::param(n), |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i]);
            b.assign(lhs, Expr::Const(1.0));
        });
        let before = b.finish();

        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        b.loop_("I", 1, Affine::param(n), |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i]);
            b.assign(lhs, Expr::Const(2.0));
        });
        let after = b.finish();

        let mut v = DiffVerifier::new(VerifyOptions::default());
        v.check_step("distribute", 0, &[], &before, &after);
        assert_eq!(v.report.divergences.len(), 1);
        assert!(matches!(
            v.report.divergences[0].kind,
            DivergenceKind::ArrayState { .. }
        ));
        assert!(v.remarks.iter().any(|r| r.kind == RemarkKind::Diverged));
    }

    #[test]
    fn corpus_seed_list_parses() {
        let seeds = corpus_seeds();
        assert!(seeds.len() >= 200, "corpus must hold >= 200 seeds");
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "corpus seeds must be unique");
    }

    #[test]
    fn small_corpus_slice_is_clean() {
        let seeds = corpus_seeds();
        let report = run_corpus(&seeds[..8], &VerifyOptions::default());
        assert_eq!(report.programs, 8);
        assert!(
            report.divergences.is_empty(),
            "divergences: {:?}",
            report
                .divergences
                .iter()
                .map(|(s, d)| format!("seed {s}: {d}"))
                .collect::<Vec<_>>()
        );
    }
}
