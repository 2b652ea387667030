//! The compound transformation algorithm (paper Figure 6).
//!
//! For each nest: try to permute into memory order; if the nest is
//! imperfect, try fusing all inner loops to expose a permutable perfect
//! nest; otherwise try the smallest distribution that enables permutation
//! (then re-fuse the pieces for temporal locality). Finally, fuse
//! profitable adjacent nests.

use crate::distribute::distribute_nest_with;
use crate::fuse::{fuse_adjacent_observed, fuse_all_inner};
use crate::model::{CostModel, NestMemo, RankOracle};
use crate::permute::{permute_loop_in_place_observed, permute_nest_observed, PermuteFailure};
use crate::provenance::{NullProvenance, ProvenanceSink, TransformStep};
use crate::report::TransformReport;
use cmt_ir::node::Node;
use cmt_ir::program::Program;
use cmt_ir::visit::{all_loops, is_perfect, nest_label};
use cmt_obs::DecisionRecord;
use cmt_obs::{NullObs, ObsSink, Remark, RemarkKind, TraceArg};

/// Switches for ablation studies; the defaults match the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompoundOptions {
    /// Try loop reversal as a permutation enabler (§4.2).
    pub reversal: bool,
    /// Apply loop fusion (§4.3) — both `FuseAll` and cross-nest fusion.
    pub fusion: bool,
    /// Apply loop distribution (§4.4).
    pub distribution: bool,
}

impl Default for CompoundOptions {
    fn default() -> Self {
        CompoundOptions {
            reversal: true,
            fusion: true,
            distribution: true,
        }
    }
}

/// Runs the compound algorithm with default options, unobserved. See
/// [`compound_with`].
pub fn compound(program: &mut Program, model: &CostModel) -> TransformReport {
    compound_with(
        program,
        model,
        &CompoundOptions::default(),
        &mut NullObs,
        &mut NullProvenance,
        model,
    )
}

/// Runs the compound algorithm, returning per-program Table-2 statistics.
///
/// Only nests of depth ≥ 2 are considered for transformation (as in the
/// paper); depth-1 loops still participate in the final cross-nest fusion
/// pass.
///
/// * `opts` switches individual transformations off for ablations.
/// * `obs` receives the optimization-remark stream: every accept/reject
///   decision (permutation, fusion-enabled permutation, distribution,
///   cross-nest fusion) emits a [`Remark`], and the report's headline
///   numbers are mirrored as `compound.*` counters. With a disabled sink
///   (e.g. [`NullObs`]) remark construction is skipped and the
///   transformed program and report are byte-identical.
/// * `prov` receives a before/after snapshot pair for every step that
///   rewrites the program. This is the hook the `cmt-verify`
///   differential checker attaches to; with [`NullProvenance`] no
///   snapshot is ever cloned.
/// * `oracle` chooses the loop order every permutation step aims for;
///   pass `model` for the paper's `LoopCost` ranking. The `model` is
///   still used for the Table-2 statistics
///   ([`crate::model::NestAnalysis::in_memory_order`], cost ratios):
///   those measure attainment of the *paper's* memory order, while the
///   oracle only decides which permutation the driver tries to reach.
///   With `oracle = model` the two coincide.
///
/// The run analyzes each distinct nest state once: one [`NestMemo`] serves
/// the statistics, the dependence graphs of permutation and distribution,
/// fusion's costs, and — when the oracle ranks by this `model`'s
/// `LoopCost` — the ranking itself. The memo is dropped when the run ends.
pub fn compound_with(
    program: &mut Program,
    model: &CostModel,
    opts: &CompoundOptions,
    obs: &mut dyn ObsSink,
    prov: &mut dyn ProvenanceSink,
    oracle: &dyn RankOracle,
) -> TransformReport {
    run(program, &NestMemo::new(*model), opts, obs, prov, oracle)
}

/// [`compound_with`] over a caller-owned memo.
fn run(
    program: &mut Program,
    memo: &NestMemo,
    opts: &CompoundOptions,
    obs: &mut dyn ObsSink,
    prov: &mut dyn ProvenanceSink,
    oracle: &dyn RankOracle,
) -> TransformReport {
    const PASS: &str = "permute";
    let oracle: &dyn RankOracle = if oracle.loop_cost_model() == Some(memo.model()) {
        memo
    } else {
        oracle
    };
    let mut report = TransformReport::default();
    let mut ratio_final_sum = 0.0;
    let mut ratio_ideal_sum = 0.0;
    let mut ratio_count = 0usize;
    const EVAL_AT: f64 = 100.0;

    let mut idx = 0;
    while idx < program.body().len() {
        let Some(root) = program.body()[idx].as_loop() else {
            idx += 1;
            continue;
        };
        report.loops_total += all_loops(root).len();
        let depth = program.body()[idx].depth();
        if depth < 2 {
            if obs.enabled() {
                obs.remark(
                    Remark::new(PASS, nest_label(program, idx), RemarkKind::Analysis)
                        .reason("depth-1 loop: permutation not applicable"),
                );
            }
            idx += 1;
            continue;
        }
        report.nests_total += 1;

        let orig = memo.analysis(program, root);
        let label = if obs.enabled() {
            nest_label(program, idx)
        } else {
            String::new()
        };
        let orig_mem = orig.in_memory_order();
        let orig_inner = orig.inner_loop_in_position();
        let orig_cost = orig.realized_cost();
        let ideal = orig.ideal_cost();
        let orig_eval = orig_cost.eval_uniform(EVAL_AT);
        if obs.enabled() {
            obs.trace_begin(
                "compound.nest",
                &[
                    ("nest", TraceArg::Str(&label)),
                    ("depth", TraceArg::U64(depth as u64)),
                    ("cost_before", TraceArg::F64(orig_eval)),
                ],
            );
        }
        if orig_mem {
            report.nests_orig_memory_order += 1;
            if obs.enabled() {
                obs.remark(
                    Remark::new(PASS, label.clone(), RemarkKind::Analysis)
                        .reason("nest is already in memory order")
                        .cost_before(orig_eval),
                );
            }
        }
        if orig_inner {
            report.inner_orig += 1;
        }

        let mut last_failure: Option<PermuteFailure> = None;
        let mut span = 1usize;
        if !orig_mem {
            // Step 1: permutation.
            let snap = prov.enabled().then(|| program.clone());
            let out = permute_nest_observed(program, idx, opts.reversal, oracle, memo, obs, &label);
            report.reversals += out.reversed.len();
            last_failure = out.failure;
            let mut achieved = out.memory_order;
            if out.changed {
                if let Some(before) = &snap {
                    prov.step(
                        &TransformStep {
                            pass: PASS,
                            nest_index: idx,
                            reversed: &out.reversed,
                        },
                        before,
                        program,
                    );
                }
            }
            if obs.enabled() {
                if achieved && out.changed {
                    let reason = if out.reversed.is_empty() {
                        "permuted into memory order".to_string()
                    } else {
                        format!(
                            "permuted into memory order ({} loop(s) reversed to legalize)",
                            out.reversed.len()
                        )
                    };
                    obs.remark(
                        Remark::new(PASS, label.clone(), RemarkKind::Applied).reason(reason),
                    );
                } else if let Some(f) = out.failure {
                    let mut reason = f.to_string();
                    if let Some(level) = out.blocked_level {
                        reason.push_str(&format!(" (no loop is legal at nest level {level})"));
                    }
                    obs.remark(Remark::new(PASS, label.clone(), RemarkKind::Missed).reason(reason));
                }
            }

            // Step 2: FuseAll to expose a perfect nest.
            if !achieved && opts.fusion && !is_perfect(orig.nest()) {
                let current = program.body()[idx].as_loop().expect("still a loop").clone();
                match fuse_all_inner(program, &current) {
                    Some(fused) => {
                        let (out2, rewritten) = permute_loop_in_place_observed(
                            program,
                            &fused,
                            opts.reversal,
                            oracle,
                            memo,
                            obs,
                            &label,
                            "fuse.permute",
                        );
                        if obs.enabled() {
                            let mut rec = DecisionRecord::new("fuse", label.clone(), "fuse-all");
                            rec.oracle = oracle.name().to_string();
                            rec.outcome = if out2.memory_order {
                                "applied"
                            } else {
                                "rejected"
                            };
                            obs.decision(rec);
                        }
                        if out2.memory_order {
                            let snap = prov.enabled().then(|| program.clone());
                            let new_root = rewritten.unwrap_or(fused);
                            program.body_mut()[idx] = Node::Loop(new_root);
                            if let Some(before) = &snap {
                                prov.step(
                                    &TransformStep {
                                        pass: "fuse-all",
                                        nest_index: idx,
                                        reversed: &out2.reversed,
                                    },
                                    before,
                                    program,
                                );
                            }
                            report.reversals += out2.reversed.len();
                            report.fusion_enabled_permutation += 1;
                            achieved = true;
                            last_failure = None;
                            if obs.enabled() {
                                obs.remark(
                                    Remark::new("fuse-all", label.clone(), RemarkKind::Applied)
                                        .reason(
                                            "fused inner loops to expose a perfect nest, \
                                             enabling permutation into memory order",
                                        ),
                                );
                            }
                        } else if obs.enabled() {
                            let why = out2
                                .failure
                                .map(|f| f.to_string())
                                .unwrap_or_else(|| "permutation not improving".to_string());
                            obs.remark(
                                Remark::new("fuse-all", label.clone(), RemarkKind::Missed)
                                    .reason(format!("fused nest still not permutable: {why}")),
                            );
                        }
                    }
                    None => {
                        if obs.enabled() {
                            let mut rec = DecisionRecord::new("fuse", label.clone(), "fuse-all");
                            rec.oracle = oracle.name().to_string();
                            rec.legal = false;
                            rec.outcome = "illegal";
                            obs.decision(rec);
                            obs.remark(
                                Remark::new("fuse-all", label.clone(), RemarkKind::Missed)
                                    .reason("inner loops cannot be fused legally"),
                            );
                        }
                    }
                }
            }

            // Step 3: distribution.
            if !achieved && opts.distribution {
                let snap = prov.enabled().then(|| program.clone());
                match distribute_nest_with(program, idx, opts.reversal, oracle, memo) {
                    Some(dist) => {
                        if let Some(before) = &snap {
                            prov.step(
                                &TransformStep {
                                    pass: "distribute",
                                    nest_index: idx,
                                    reversed: &[],
                                },
                                before,
                                program,
                            );
                        }
                        report.distributions += 1;
                        report.nests_resulting += dist.resulting;
                        span = dist.top_level_span;
                        last_failure = None;
                        if obs.enabled() {
                            let mut rec =
                                DecisionRecord::new("distribute", label.clone(), "distribute");
                            rec.oracle = oracle.name().to_string();
                            rec.outcome = "applied";
                            obs.decision(rec);
                            obs.remark(
                                Remark::new("distribute", label.clone(), RemarkKind::Applied)
                                    .reason(format!(
                                        "distributed into {} nest(s); {} permuted into \
                                         memory order",
                                        dist.resulting, dist.permuted_copies
                                    )),
                            );
                        }
                    }
                    None => {
                        if obs.enabled() {
                            let mut rec =
                                DecisionRecord::new("distribute", label.clone(), "distribute");
                            rec.oracle = oracle.name().to_string();
                            rec.legal = false;
                            rec.outcome = "rejected";
                            obs.decision(rec);
                            obs.remark(
                                Remark::new("distribute", label.clone(), RemarkKind::Missed)
                                    .reason("no distribution enables memory order"),
                            );
                        }
                    }
                }
            }
        }

        // Final state of this nest (possibly several top-level nodes
        // after an outermost distribution).
        let finals: Vec<_> = (idx..idx + span)
            .filter_map(|k| program.body()[k].as_loop())
            .map(|l| memo.analysis(program, l))
            .collect();
        let final_mem = finals.iter().all(|a| a.in_memory_order());
        let final_inner = finals.iter().all(|a| a.inner_loop_in_position());
        if final_mem && !orig_mem {
            report.nests_permuted += 1;
        }
        if !final_mem {
            report.nests_failed += 1;
            match last_failure {
                Some(PermuteFailure::ComplexBounds) => report.fail_complex_bounds += 1,
                _ => report.fail_dependences += 1,
            }
        }
        if final_inner && !orig_inner {
            report.inner_permuted += 1;
        }
        if !final_inner {
            report.inner_failed += 1;
        }

        let mut final_cost = crate::cost::CostPoly::zero();
        for a in &finals {
            final_cost += a.realized_cost();
        }
        ratio_final_sum += orig_cost.ratio_at(&final_cost, EVAL_AT).max(1.0);
        ratio_ideal_sum += orig_cost.ratio_at(&ideal, EVAL_AT).max(1.0);
        ratio_count += 1;
        if obs.enabled() {
            let final_eval = final_cost.eval_uniform(EVAL_AT);
            let verdict = if final_mem {
                if orig_mem {
                    "already-memory-order"
                } else {
                    "memory-order"
                }
            } else {
                "failed"
            };
            obs.trace_end(
                "compound.nest",
                &[
                    ("cost_after", TraceArg::F64(final_eval)),
                    ("verdict", TraceArg::Str(verdict)),
                ],
            );
            obs.remark(
                Remark::new("loopcost", label, RemarkKind::Analysis)
                    .reason(format!(
                        "LoopCost at N={EVAL_AT}: {} in memory order, ideal {:.1}",
                        if final_mem { "now" } else { "NOT" },
                        ideal.eval_uniform(EVAL_AT)
                    ))
                    .costs(orig_eval, final_eval),
            );
        }
        idx += span;
    }

    // Final pass: fuse adjacent nests for temporal locality.
    if opts.fusion {
        let snap = prov.enabled().then(|| program.clone());
        if obs.enabled() {
            obs.trace_begin("compound.fuse-adjacent", &[]);
        }
        let stats = fuse_adjacent_observed(program, memo, obs);
        if obs.enabled() {
            obs.trace_end(
                "compound.fuse-adjacent",
                &[
                    ("candidates", TraceArg::U64(stats.candidates as u64)),
                    ("fused", TraceArg::U64(stats.fused as u64)),
                ],
            );
        }
        if stats.fused > 0 {
            if let Some(before) = &snap {
                prov.step(
                    &TransformStep {
                        pass: "fuse",
                        nest_index: 0,
                        reversed: &[],
                    },
                    before,
                    program,
                );
            }
        }
        report.fusion_candidates = stats.candidates;
        report.nests_fused = stats.fused;
    }

    if ratio_count > 0 {
        report.loopcost_ratio_final = ratio_final_sum / ratio_count as f64;
        report.loopcost_ratio_ideal = ratio_ideal_sum / ratio_count as f64;
    } else {
        report.loopcost_ratio_final = 1.0;
        report.loopcost_ratio_ideal = 1.0;
    }
    if obs.enabled() {
        obs.counter("compound.nests_total", report.nests_total as u64);
        obs.counter("compound.nests_permuted", report.nests_permuted as u64);
        obs.counter("compound.nests_failed", report.nests_failed as u64);
        obs.counter("compound.reversals", report.reversals as u64);
        obs.counter("compound.distributions", report.distributions as u64);
        obs.counter(
            "compound.fusion_enabled_permutation",
            report.fusion_enabled_permutation as u64,
        );
        obs.counter(
            "compound.fusion_candidates",
            report.fusion_candidates as u64,
        );
        obs.counter("compound.nests_fused", report.nests_fused as u64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::affine::Affine;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;
    use cmt_ir::validate::validate;
    use cmt_ir::visit::perfect_chain;

    #[test]
    fn matmul_end_to_end() {
        let mut p = matmul_ijk();
        let report = compound(&mut p, &CostModel::new(4));
        assert_eq!(report.nests_total, 1);
        assert_eq!(report.nests_permuted, 1);
        assert_eq!(report.nests_failed, 0);
        assert!(report.loopcost_ratio_final > 1.0);
        let names: Vec<&str> = perfect_chain(p.nests()[0])
            .iter()
            .map(|l| p.var_name(l.var()))
            .collect();
        assert_eq!(names, vec!["J", "K", "I"]);
        validate(&p).unwrap();
    }

    #[test]
    fn adi_fuse_all_then_permute() {
        // Figure 3(b): DO I { DO K {S1}; DO K2 {S2} } — fusion of the K
        // loops enables interchange to K-outer/I-inner.
        let mut p = adi();
        let report = compound(&mut p, &CostModel::new(4));
        assert_eq!(report.fusion_enabled_permutation, 1, "{report:#?}");
        validate(&p).unwrap();
        // Final shape: K outer, I inner, two statements inside.
        let root = p.nests()[0];
        assert_eq!(p.var_name(root.var()), "K");
        let inner = root.only_loop_child().unwrap();
        assert_eq!(p.var_name(inner.var()), "I");
        assert_eq!(inner.body().len(), 2);
    }

    #[test]
    fn cholesky_distribution_in_compound() {
        let mut p = cholesky();
        let report = compound(&mut p, &CostModel::new(4));
        assert_eq!(report.distributions, 1, "{report:#?}");
        assert_eq!(report.nests_resulting, 2);
        validate(&p).unwrap();
    }

    /// A JI nest already in memory order.
    fn already_optimal() -> Program {
        let mut b = ProgramBuilder::new("opt");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("J", 1, n, |b| {
            b.loop_("I", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                let rhs = Expr::load(b.at(a, [i, j])) + Expr::Const(1.0);
                b.assign(lhs, rhs);
            });
        });
        b.finish()
    }

    #[test]
    fn program_already_optimal_is_untouched() {
        let mut p = already_optimal();
        let before = p.clone();
        let report = compound(&mut p, &CostModel::new(4));
        assert_eq!(report.nests_orig_memory_order, 1);
        assert_eq!(report.nests_permuted, 0);
        assert!((report.loopcost_ratio_final - 1.0).abs() < 1e-9);
        assert_eq!(p, before);
    }

    #[test]
    fn ablation_options_disable_passes() {
        // The ADI nest again, with fusion disabled: no transformation.
        let mut b = ProgramBuilder::new("adi2");
        let n = b.param("N");
        let x = b.matrix("X", n);
        b.loop_("I", 2, n, |b| {
            let i = b.var("I");
            b.loop_("K", 1, n, |b| {
                let k = b.var("K");
                let lhs = b.at(x, [i, k]);
                let rhs = Expr::load(b.at_vec(x, vec![Affine::var(i) - 1, Affine::var(k)]));
                b.assign(lhs, rhs);
            });
            b.loop_("K2", 1, n, |b| {
                let k2 = b.var("K2");
                let lhs = b.at(x, [i, k2]);
                let rhs = Expr::load(b.at(x, [i, k2])) * Expr::Const(0.5);
                b.assign(lhs, rhs);
            });
        });
        let mut p = b.finish();
        let opts = CompoundOptions {
            fusion: false,
            ..Default::default()
        };
        let model = CostModel::new(4);
        let report = compound_with(
            &mut p,
            &model,
            &opts,
            &mut NullObs,
            &mut NullProvenance,
            &model,
        );
        assert_eq!(report.fusion_enabled_permutation, 0);
        assert_eq!(report.nests_fused, 0);
    }

    #[test]
    fn provenance_captures_each_applied_step() {
        use crate::provenance::CollectProvenance;
        // Cholesky: distribution is the applied step.
        let mut p = cholesky();
        let orig = p.clone();
        let mut prov = CollectProvenance::default();
        let model = CostModel::new(4);
        let _ = compound_with(
            &mut p,
            &model,
            &CompoundOptions::default(),
            &mut NullObs,
            &mut prov,
            &model,
        );
        assert!(!prov.steps.is_empty());
        assert_eq!(prov.steps[0].0, "distribute");
        // The first snapshot pair brackets the rewrite: before is the
        // original program, after differs.
        assert_eq!(prov.steps[0].3, orig);
        assert_ne!(prov.steps[0].4, prov.steps[0].3);
        // Each step's after-state is the next step's before-state, and
        // the last after-state is the final program.
        for w in prov.steps.windows(2) {
            assert_eq!(w[0].4, w[1].3);
        }
        assert_eq!(prov.steps.last().unwrap().4, p);
    }

    #[test]
    fn collecting_provenance_changes_nothing() {
        let mut b = ProgramBuilder::new("mm");
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
        let p0 = b.finish();
        let mut p1 = p0.clone();
        let mut p2 = p0.clone();
        let model = CostModel::new(4);
        let r1 = compound(&mut p1, &model);
        let mut prov = crate::provenance::CollectProvenance::default();
        let r2 = compound_with(
            &mut p2,
            &model,
            &CompoundOptions::default(),
            &mut NullObs,
            &mut prov,
            &model,
        );
        assert_eq!(p1, p2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn compound_emits_decision_records() {
        // Cholesky drives distribute + permute; every decision the
        // driver makes must leave a provenance record in the sink.
        let mut p = cholesky();
        let mut sink = cmt_obs::CollectSink::new();
        let model = CostModel::new(4);
        let _ = compound_with(
            &mut p,
            &model,
            &CompoundOptions::default(),
            &mut sink,
            &mut NullProvenance,
            &model,
        );
        assert!(!sink.decisions.is_empty());
        // The distribute step on Cholesky must be recorded as applied.
        assert!(sink
            .decisions
            .iter()
            .any(|d| d.pass == "distribute" && d.outcome == "applied"));
        // Every permutation record carries a nest label and the oracle.
        for d in &sink.decisions {
            assert!(!d.nest.is_empty(), "{d:?}");
            assert_eq!(d.oracle, "loopcost");
            assert!(cmt_obs::json::parse(&d.to_json()).is_ok());
        }
    }

    /// Runs the compound algorithm over a test-owned memo, with remarks
    /// and decision records on or off, and returns the number of
    /// analyses built after checking that no nest was built twice.
    fn builds_of(program: &Program, observed: bool) -> usize {
        let model = CostModel::new(4);
        let memo = NestMemo::new(model);
        let mut sink = cmt_obs::CollectSink::new();
        let mut null = NullObs;
        let obs: &mut dyn ObsSink = if observed { &mut sink } else { &mut null };
        let mut p = program.clone();
        let _ = run(
            &mut p,
            &memo,
            &CompoundOptions::default(),
            obs,
            &mut NullProvenance,
            &model,
        );
        let keys = memo.keys();
        for (i, a) in keys.iter().enumerate() {
            assert!(keys[i + 1..].iter().all(|b| a != b), "nest built twice");
        }
        assert_eq!(memo.builds(), keys.len());
        assert_eq!(
            p,
            {
                let mut q = program.clone();
                compound(&mut q, &model);
                q
            },
            "a test-owned memo must not change the result"
        );
        memo.builds()
    }

    fn matmul_ijk() -> Program {
        let mut b = ProgramBuilder::new("mm");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let bb = b.matrix("B", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                b.loop_("K", 1, n, |b| {
                    let (i, j, k) = (b.var("I"), b.var("J"), b.var("K"));
                    let lhs = b.at(c, [i, j]);
                    let rhs = Expr::load(b.at(c, [i, j]))
                        + Expr::load(b.at(a, [i, k])) * Expr::load(b.at(bb, [k, j]));
                    b.assign(lhs, rhs);
                });
            });
        });
        b.finish()
    }

    fn adi() -> Program {
        let mut b = ProgramBuilder::new("adi");
        let n = b.param("N");
        let x = b.matrix("X", n);
        let aa = b.matrix("A", n);
        let bb = b.matrix("B", n);
        b.loop_("I", 2, n, |b| {
            let i = b.var("I");
            b.loop_("K", 1, n, |b| {
                let k = b.var("K");
                let lhs = b.at(x, [i, k]);
                let rhs = Expr::load(b.at(x, [i, k]))
                    - Expr::load(b.at_vec(x, vec![Affine::var(i) - 1, Affine::var(k)]))
                        * Expr::load(b.at(aa, [i, k]))
                        / Expr::load(b.at_vec(bb, vec![Affine::var(i) - 1, Affine::var(k)]));
                b.assign(lhs, rhs);
            });
            b.loop_("K2", 1, n, |b| {
                let k2 = b.var("K2");
                let lhs = b.at(bb, [i, k2]);
                let rhs = Expr::load(b.at(bb, [i, k2]))
                    - Expr::load(b.at(aa, [i, k2])) * Expr::load(b.at(aa, [i, k2]))
                        / Expr::load(b.at_vec(bb, vec![Affine::var(i) - 1, Affine::var(k2)]));
                b.assign(lhs, rhs);
            });
        });
        b.finish()
    }

    fn cholesky() -> Program {
        let mut b = ProgramBuilder::new("chol");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("K", 1, n, |b| {
            let k = b.var("K");
            let akk = b.at(a, [k, k]);
            let rhs = Expr::sqrt(Expr::load(b.at(a, [k, k])));
            b.assign(akk, rhs);
            b.loop_("I", Affine::var(k) + 1, n, |b| {
                let i = b.var("I");
                let lhs = b.at(a, [i, k]);
                let rhs = Expr::load(b.at(a, [i, k])) / Expr::load(b.at(a, [k, k]));
                b.assign(lhs, rhs);
                b.loop_("J", Affine::var(k) + 1, i, |b| {
                    let j = b.var("J");
                    let lhs = b.at(a, [i, j]);
                    let rhs = Expr::load(b.at(a, [i, j]))
                        - Expr::load(b.at(a, [i, k])) * Expr::load(b.at(a, [j, k]));
                    b.assign(lhs, rhs);
                });
            });
        });
        b.finish()
    }

    /// Two nests in memory order over shared data, fused by the final
    /// pass.
    fn two_fusible_nests() -> Program {
        let mut b = ProgramBuilder::new("two");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        let d = b.matrix("D", n);
        b.loop_("J", 1, n, |b| {
            b.loop_("I", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::load(b.at(c, [i, j])));
            });
        });
        b.loop_("J2", 1, n, |b| {
            b.loop_("I2", 1, n, |b| {
                let (i, j) = (b.var("I2"), b.var("J2"));
                let lhs = b.at(d, [i, j]);
                b.assign(lhs, Expr::load(b.at(a, [i, j])));
            });
        });
        b.finish()
    }

    #[test]
    fn nest_in_memory_order_is_analyzed_once() {
        let p = already_optimal();
        assert_eq!(builds_of(&p, false), 1);
        assert_eq!(builds_of(&p, true), 1);
    }

    #[test]
    fn matmul_permutation_builds_two_states() {
        // IJK as written, JKI after the permutation.
        let p = matmul_ijk();
        assert_eq!(builds_of(&p, false), 2);
        assert_eq!(builds_of(&p, true), 2);
    }

    #[test]
    fn adi_fuse_all_path_builds_each_state_once() {
        // The original imperfect nest, the fused I{K} nest, and the
        // permuted K{I} nest.
        let p = adi();
        assert_eq!(builds_of(&p, false), 3);
        assert_eq!(builds_of(&p, true), 3);
    }

    #[test]
    fn cholesky_distribution_path_builds_each_state_once() {
        // The original nest, the two distributed copies of the I loop
        // (permutation ranks each), and the distributed, permuted nest.
        let p = cholesky();
        assert_eq!(builds_of(&p, false), 4);
        assert_eq!(builds_of(&p, true), 4);
    }

    #[test]
    fn two_nest_fusion_builds_each_state_once() {
        // Both nests as written (already in memory order) and their
        // fusion, which the benefit test analyzes before it is committed.
        let p = two_fusible_nests();
        assert_eq!(builds_of(&p, false), 3);
        assert_eq!(builds_of(&p, true), 3);
        let mut q = p.clone();
        let report = compound(&mut q, &CostModel::new(4));
        assert_eq!(report.nests_fused, 2, "{report:#?}");
    }

    #[test]
    fn depth_one_nests_are_skipped() {
        let mut b = ProgramBuilder::new("d1");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i]);
            b.assign(lhs, Expr::Const(0.0));
        });
        let mut p = b.finish();
        let report = compound(&mut p, &CostModel::new(4));
        assert_eq!(report.nests_total, 0);
        assert_eq!(report.loops_total, 1);
    }
}
