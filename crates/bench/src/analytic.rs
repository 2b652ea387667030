//! Differential accuracy harness for the analytical locality engine —
//! the driver behind the `cmt-analytic` binary and the CI
//! `smoke-analytic` gate.
//!
//! A sweep predicts every nest of the corpus (generated verify-corpus
//! programs plus the paper kernels) with [`cmt_analytic::MissModel`] and
//! compares against full `ShardedCache` simulation ground truth on
//! every supported geometry (RS/6000, i860, DECstation). The output is
//! one [`AnalyticReport`] per run: per-geometry miss-count error plus
//! hotspot *ranking* agreement (top-K set overlap and Kendall tau) —
//! the deterministic accuracy record committed as `BENCH_analytic.json`
//! and gated in CI.
//!
//! Determinism: programs are predicted via [`par_map`] and their
//! observability output absorbed in item order, simulation is the
//! already-deterministic full profiler, and the report document carries
//! no wall-clock — so it is byte-identical for any `CMT_JOBS`.

use crate::runner::{par_map, par_map_traced};
use cmt_analytic::{predict_program, MissModel, NestPrediction};
use cmt_cache::CacheConfig;
use cmt_ir::program::Program;
use cmt_obs::diff::rel_change;
use cmt_obs::json::{self, ObjectWriter};
use cmt_obs::{
    Artifact, CollectSink, Findings, NullObs, ObsSink, Remark, RemarkKind, TraceSession, Tracing,
};
use cmt_profile::{
    describe_cache, kendall_tau, profile_program, rank_hotspots, top_k_agreement, HotspotEntry,
    HotspotProfile, ProfileOptions, SamplePolicy,
};
use cmt_verify::{corpus_seeds, generate};
use std::fmt::Write as _;

/// What an analytic accuracy sweep covers.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticSweepConfig {
    /// How many verify-corpus seeds to cover (in committed order).
    pub seeds: usize,
    /// Whether the paper kernels ride along.
    pub kernels: bool,
    /// Parameter value every program is predicted and simulated at.
    pub n: i64,
    /// K for the top-K hotspot-ranking agreement metric.
    pub top_k: usize,
}

impl Default for AnalyticSweepConfig {
    fn default() -> Self {
        AnalyticSweepConfig {
            seeds: 32,
            kernels: true,
            n: 64,
            top_k: 5,
        }
    }
}

/// The geometries every sweep measures, in report order. The middle
/// entry (i860) is the *primary* geometry: its predictions run with the
/// caller's observability sink, the others silently.
pub fn analytic_geometries() -> [CacheConfig; 3] {
    [
        CacheConfig::rs6000(),
        CacheConfig::i860(),
        CacheConfig::decstation(),
    ]
}

/// Index of the primary geometry inside [`analytic_geometries`].
const PRIMARY_GEOMETRY: usize = 1;

/// Relative boundary-tie tolerance of the headline top-K metric (see
/// [`top_k_agreement_tied`]).
pub const TIE_TOLERANCE: f64 = 0.05;

/// Top-K set agreement with boundary-tie tolerance: a predicted top-K
/// nest counts as agreeing when it appears in the simulated top-K, or
/// when its *simulated* miss count is within `tie_tol` (relative) of
/// the simulated K-th hotspot. Near the boundary several nests often
/// sit within a fraction of a percent of each other — there the "true"
/// top-K set is ill-defined and any member of the tie class is an
/// equally correct answer. `tie_tol = 0` reduces to the strict
/// [`top_k_agreement`] set overlap.
pub fn top_k_agreement_tied(
    predicted: &HotspotProfile,
    truth: &HotspotProfile,
    k: usize,
    tie_tol: f64,
) -> f64 {
    let k = k.min(predicted.entries.len()).min(truth.entries.len());
    if k == 0 {
        return 1.0;
    }
    let floor = truth.entries[k - 1].est_misses as f64 * (1.0 - tie_tol);
    let top: Vec<(&str, &str)> = truth.entries[..k].iter().map(|e| e.key()).collect();
    let hits = predicted.entries[..k]
        .iter()
        .filter(|e| {
            top.contains(&e.key())
                || truth
                    .entries
                    .iter()
                    .find(|t| t.key() == e.key())
                    .is_some_and(|t| t.est_misses as f64 >= floor)
        })
        .count();
    hits as f64 / k as f64
}

/// Predicted-vs-simulated agreement for one cache geometry.
#[derive(Clone, Debug, PartialEq)]
pub struct GeometryAgreement {
    /// Geometry description (see [`describe_cache`]).
    pub cache: String,
    /// Nests compared.
    pub nests: usize,
    /// Total predicted misses across the corpus.
    pub predicted_misses: u64,
    /// Total simulated misses across the corpus.
    pub simulated_misses: u64,
    /// Mean over nests of `|predicted − simulated| / max(simulated, 1)`.
    pub mean_rel_error: f64,
    /// `|Σpredicted − Σsimulated| / max(Σsimulated, 1)` — how far the
    /// corpus-level miss total is off.
    pub aggregate_error: f64,
    /// Fraction of the simulated top-K hotspot set the predicted
    /// ranking reproduces, counting boundary ties within
    /// [`TIE_TOLERANCE`] as agreement (the headline gate; see
    /// [`top_k_agreement_tied`]).
    pub top_k_agreement: f64,
    /// The same overlap with zero tie tolerance — strict set equality.
    pub top_k_agreement_strict: f64,
    /// Kendall rank correlation over all nests.
    pub kendall_tau: f64,
    /// Label of the nest with the largest relative miss error.
    pub worst_nest: String,
    /// That nest's relative miss error.
    pub worst_rel_error: f64,
}

/// Everything one analytic sweep produced — the content of
/// `{name}.analytic.json` and the committed `BENCH_analytic.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyticReport {
    /// Verify-corpus seeds covered.
    pub seeds: usize,
    /// Programs covered (seeds + kernels).
    pub programs: usize,
    /// Nests compared per geometry.
    pub nests: usize,
    /// Parameter binding.
    pub n: i64,
    /// K of the ranking-agreement metric.
    pub top_k: usize,
    /// Per-geometry agreement, in [`analytic_geometries`] order.
    pub geometries: Vec<GeometryAgreement>,
}

impl AnalyticReport {
    /// Gate: tie-aware top-K agreement on every geometry is at least
    /// this.
    pub const MIN_TOP_K_AGREEMENT: f64 = 0.9;

    /// Gate: mean per-nest relative miss error on every geometry is at
    /// most this.
    pub const MAX_MEAN_REL_ERROR: f64 = 0.25;
}

impl Artifact for AnalyticReport {
    const SUFFIX: &'static str = "analytic.json";

    fn to_json(&self) -> String {
        let geoms = json::array(self.geometries.iter().map(|g| {
            let mut w = ObjectWriter::new();
            w.field_str("cache", &g.cache)
                .field_u64("nests", g.nests as u64)
                .field_u64("predicted_misses", g.predicted_misses)
                .field_u64("simulated_misses", g.simulated_misses)
                .field_raw("mean_rel_error", &format!("{:.6}", g.mean_rel_error))
                .field_raw("aggregate_error", &format!("{:.6}", g.aggregate_error))
                .field_raw("top_k_agreement", &format!("{:.6}", g.top_k_agreement))
                .field_raw(
                    "top_k_agreement_strict",
                    &format!("{:.6}", g.top_k_agreement_strict),
                )
                .field_raw("kendall_tau", &format!("{:.6}", g.kendall_tau))
                .field_str("worst_nest", &g.worst_nest)
                .field_raw("worst_rel_error", &format!("{:.6}", g.worst_rel_error));
            w.finish()
        }));
        let mut w = ObjectWriter::new();
        w.field_str("bench", "analytic")
            .field_u64("seeds", self.seeds as u64)
            .field_u64("programs", self.programs as u64)
            .field_u64("nests", self.nests as u64)
            .field_raw("n", &self.n.to_string())
            .field_u64("top_k", self.top_k as u64)
            .field_raw("geometries", &geoms);
        w.finish() + "\n"
    }

    fn parse(text: &str) -> Result<AnalyticReport, String> {
        let v = json::parse(text)?;
        if v.str_field("bench")? != "analytic" {
            return Err("not an analytic report (bench != \"analytic\")".to_string());
        }
        let mut out = AnalyticReport {
            seeds: v.u64_field("seeds")? as usize,
            programs: v.u64_field("programs")? as usize,
            nests: v.u64_field("nests")? as usize,
            n: v.f64_field("n")? as i64,
            top_k: v.u64_field("top_k")? as usize,
            geometries: Vec::new(),
        };
        for g in v.array_field("geometries")? {
            out.geometries.push(GeometryAgreement {
                cache: g.str_field("cache")?,
                nests: g.u64_field("nests")? as usize,
                predicted_misses: g.u64_field("predicted_misses")?,
                simulated_misses: g.u64_field("simulated_misses")?,
                mean_rel_error: g.f64_field("mean_rel_error")?,
                aggregate_error: g.f64_field("aggregate_error")?,
                top_k_agreement: g.f64_field("top_k_agreement")?,
                top_k_agreement_strict: g.f64_field("top_k_agreement_strict")?,
                kendall_tau: g.f64_field("kendall_tau")?,
                worst_nest: g.str_field("worst_nest")?,
                worst_rel_error: g.f64_field("worst_rel_error")?,
            });
        }
        Ok(out)
    }

    /// Per-geometry miss totals and the worst nest must match exactly;
    /// error, agreement and tau drift counts beyond `threshold`
    /// (relative). Geometries are matched by cache description.
    fn diff(&self, current: &Self, threshold: f64) -> Findings {
        let mut f = Findings::default();
        let header = [
            ("seeds", self.seeds, current.seeds),
            ("programs", self.programs, current.programs),
            ("nests", self.nests, current.nests),
            ("top_k", self.top_k, current.top_k),
        ];
        for (name, b, c) in header {
            if b != c {
                f.deterministic
                    .push(format!("config {name} changed {b} -> {c}"));
            }
        }
        if self.n != current.n {
            f.deterministic
                .push(format!("config n changed {} -> {}", self.n, current.n));
        }
        for b in &self.geometries {
            let Some(c) = current.geometries.iter().find(|c| c.cache == b.cache) else {
                f.deterministic
                    .push(format!("geometry removed: {}", b.cache));
                continue;
            };
            let exact = [
                ("predicted misses", b.predicted_misses, c.predicted_misses),
                ("simulated misses", b.simulated_misses, c.simulated_misses),
            ];
            for (name, bv, cv) in exact {
                if bv != cv {
                    f.deterministic
                        .push(format!("{}: {name} {bv} -> {cv}", b.cache));
                }
            }
            if b.worst_nest != c.worst_nest {
                f.deterministic.push(format!(
                    "{}: worst nest {} -> {}",
                    b.cache, b.worst_nest, c.worst_nest
                ));
            }
            let relative = [
                ("mean rel error", b.mean_rel_error, c.mean_rel_error),
                ("aggregate error", b.aggregate_error, c.aggregate_error),
                ("top-k agreement", b.top_k_agreement, c.top_k_agreement),
                (
                    "strict top-k agreement",
                    b.top_k_agreement_strict,
                    c.top_k_agreement_strict,
                ),
                ("kendall tau", b.kendall_tau, c.kendall_tau),
            ];
            for (name, bv, cv) in relative {
                if rel_change(bv, cv) > threshold {
                    f.deterministic
                        .push(format!("{}: {name} {bv:.4} -> {cv:.4}", b.cache));
                }
            }
        }
        for c in &current.geometries {
            if !self.geometries.iter().any(|b| b.cache == c.cache) {
                f.deterministic.push(format!("geometry added: {}", c.cache));
            }
        }
        f
    }

    fn gate(&self) -> Vec<String> {
        let mut v = Vec::new();
        for g in &self.geometries {
            if g.top_k_agreement < Self::MIN_TOP_K_AGREEMENT {
                v.push(format!(
                    "{} top-{} agreement {:.3} below {}",
                    g.cache,
                    self.top_k,
                    g.top_k_agreement,
                    Self::MIN_TOP_K_AGREEMENT
                ));
            }
            if g.mean_rel_error > Self::MAX_MEAN_REL_ERROR {
                v.push(format!(
                    "{} mean rel miss error {:.4} exceeds {}",
                    g.cache,
                    g.mean_rel_error,
                    Self::MAX_MEAN_REL_ERROR
                ));
            }
        }
        v
    }

    /// Per-geometry accuracy against the simulator.
    fn report(&self, out: &mut String) {
        let _ = writeln!(out, "\n## Analytic vs simulated\n");
        let _ = writeln!(
            out,
            "{} programs ({} seeds{}), {} nests at n={}, top-{} ranking:\n",
            self.programs,
            self.seeds,
            if self.programs > self.seeds {
                " + paper kernels"
            } else {
                ""
            },
            self.nests,
            self.n,
            self.top_k,
        );
        out.push_str(
            "| geometry | pred misses | sim misses | mean rel err | top-k (tied) | top-k (strict) | tau | worst nest |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for g in &self.geometries {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {:.4} | {:.3} | {:.3} | {:.3} | `{}` ({:.2}) |",
                g.cache,
                g.predicted_misses,
                g.simulated_misses,
                g.mean_rel_error,
                g.top_k_agreement,
                g.top_k_agreement_strict,
                g.kendall_tau,
                g.worst_nest,
                g.worst_rel_error,
            );
        }
    }
}

/// Builds the sweep corpus: the first `cfg.seeds` committed
/// verify-corpus seeds, then (when `cfg.kernels`) the paper kernels.
pub fn analytic_corpus(cfg: &AnalyticSweepConfig) -> Vec<Program> {
    let mut programs: Vec<Program> = corpus_seeds()
        .into_iter()
        .take(cfg.seeds)
        .map(generate)
        .collect();
    if cfg.kernels {
        programs.extend(cmt_suite::kernels::paper_kernels());
    }
    programs
}

/// Per-program predictions for every geometry; the primary geometry's
/// predictions run under `obs`, the others silently (one set of
/// `analytic.*` remarks/counters per run, not three).
fn predict_all(
    p: &Program,
    n: i64,
    geoms: &[CacheConfig],
    obs: &mut dyn ObsSink,
) -> Vec<Vec<NestPrediction>> {
    geoms
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let model = MissModel::new(*g);
            if gi == PRIMARY_GEOMETRY {
                predict_program(p, n, &model, obs)
            } else {
                predict_program(p, n, &model, &mut NullObs)
            }
        })
        .collect()
}

/// Flattens per-program predictions into one ranking, with the same
/// total order as [`rank_hotspots`] (misses desc, accesses desc, label
/// asc) so the two rankings are directly comparable.
pub fn rank_predictions(
    programs: &[Program],
    predictions: &[Vec<NestPrediction>],
    cache: &str,
    n: i64,
) -> HotspotProfile {
    let mut nests: Vec<(&str, &NestPrediction)> = programs
        .iter()
        .zip(predictions)
        .flat_map(|(p, preds)| preds.iter().map(move |pred| (p.name(), pred)))
        .collect();
    nests.sort_by(|a, b| {
        b.1.stats
            .misses
            .cmp(&a.1.stats.misses)
            .then(b.1.stats.accesses.cmp(&a.1.stats.accesses))
            .then(a.1.label.cmp(&b.1.label))
    });
    let entries = nests
        .into_iter()
        .enumerate()
        .map(|(i, (program, pred))| HotspotEntry {
            rank: i + 1,
            program: program.to_string(),
            nest: pred.label.clone(),
            accesses: pred.stats.accesses,
            // Nothing is simulated: the prediction is purely symbolic.
            sampled_accesses: 0,
            windows: 0,
            windows_sampled: 0,
            est_misses: pred.stats.misses,
            est_miss_rate: pred.miss_rate(),
            exact: pred.exact,
            escalated: false,
            full_misses: None,
            arrays: pred
                .arrays
                .iter()
                .map(|a| {
                    let share = if pred.stats.misses == 0 {
                        0.0
                    } else {
                        a.stats.misses as f64 / pred.stats.misses as f64
                    };
                    (a.array.clone(), a.stats.misses, share)
                })
                .collect(),
        })
        .collect();
    HotspotProfile {
        policy: "analytic".to_string(),
        cache: cache.to_string(),
        n,
        entries,
    }
}

fn geometry_agreement(
    predicted: &HotspotProfile,
    truth: &HotspotProfile,
    top_k: usize,
) -> Result<GeometryAgreement, String> {
    let mut sum_rel = 0.0f64;
    let mut worst = ("".to_string(), -1.0f64);
    let (mut pred_total, mut sim_total) = (0u64, 0u64);
    for t in &truth.entries {
        let p = predicted
            .entries
            .iter()
            .find(|e| e.key() == t.key())
            .ok_or_else(|| format!("no prediction for nest {:?}", t.nest))?;
        let rel = (p.est_misses as f64 - t.est_misses as f64).abs() / (t.est_misses.max(1)) as f64;
        sum_rel += rel;
        if rel > worst.1 {
            worst = (t.nest.clone(), rel);
        }
        pred_total += p.est_misses;
        sim_total += t.est_misses;
    }
    let nests = truth.entries.len();
    Ok(GeometryAgreement {
        cache: truth.cache.clone(),
        nests,
        predicted_misses: pred_total,
        simulated_misses: sim_total,
        mean_rel_error: if nests == 0 {
            0.0
        } else {
            sum_rel / nests as f64
        },
        aggregate_error: (pred_total as f64 - sim_total as f64).abs() / (sim_total.max(1)) as f64,
        top_k_agreement: top_k_agreement_tied(predicted, truth, top_k, TIE_TOLERANCE),
        top_k_agreement_strict: top_k_agreement(predicted, truth, top_k),
        kendall_tau: kendall_tau(predicted, truth),
        worst_nest: worst.0,
        worst_rel_error: worst.1.max(0.0),
    })
}

/// Runs one differential sweep over `programs`: analytic predictions on
/// every geometry (parallel, obs absorbed in item order), then full
/// simulation ground truth per geometry, then agreement metrics.
///
/// With a `session`, every prediction worker records its
/// `analytic.nest` spans onto its own track; remarks/metrics absorbed
/// into `obs` stay byte-identical either way. Ground truth is
/// observability-silent, like the profiling sweep's check mode.
///
/// # Errors
///
/// A program that fails to simulate, or a predicted nest missing from
/// the simulated ranking, aborts the sweep — the corpus is committed,
/// so a failure is a bug, not data.
pub fn analytic_sweep(
    programs: &[Program],
    cfg: &AnalyticSweepConfig,
    obs: &mut CollectSink,
    session: Option<&mut TraceSession>,
) -> Result<AnalyticReport, String> {
    let geoms = analytic_geometries();
    let predicted = match session {
        Some(session) => par_map_traced(programs, session, |p, track| {
            let mut traced = Tracing::new(CollectSink::new(), track);
            let preds = predict_all(p, cfg.n, &geoms, &mut traced);
            (preds, traced.inner)
        }),
        None => par_map(programs, |p| {
            let mut sink = CollectSink::new();
            let preds = predict_all(p, cfg.n, &geoms, &mut sink);
            (preds, sink)
        }),
    };
    let mut per_program: Vec<Vec<Vec<NestPrediction>>> = Vec::with_capacity(predicted.len());
    for (preds, sink) in predicted {
        obs.absorb(sink);
        per_program.push(preds);
    }

    let mut geometries = Vec::with_capacity(geoms.len());
    let mut nests = 0usize;
    for (gi, g) in geoms.iter().enumerate() {
        let cache = describe_cache(g);
        let by_geometry: Vec<Vec<NestPrediction>> =
            per_program.iter().map(|p| p[gi].clone()).collect();
        let pred_ranking = rank_predictions(programs, &by_geometry, &cache, cfg.n);

        let full_opts = ProfileOptions {
            policy: SamplePolicy::Full,
            cache: *g,
        };
        let full = par_map(programs, |p| {
            profile_program(p, cfg.n, &full_opts, &mut NullObs)
        });
        let mut full_profiles = Vec::with_capacity(full.len());
        for profile in full {
            full_profiles.push(profile.map_err(|e| e.to_string())?);
        }
        let truth = rank_hotspots(&full_profiles, "full", &cache, cfg.n);
        nests = truth.entries.len();

        let agreement = geometry_agreement(&pred_ranking, &truth, cfg.top_k)?;
        if obs.enabled() {
            obs.remark(
                Remark::new("analytic.check", cache.clone(), RemarkKind::Analysis).reason(format!(
                    "top-{} agreement {:.3}, kendall tau {:.3}, mean rel miss error {:.3} \
                         over {} nests",
                    cfg.top_k,
                    agreement.top_k_agreement,
                    agreement.kendall_tau,
                    agreement.mean_rel_error,
                    agreement.nests,
                )),
            );
        }
        geometries.push(agreement);
    }

    Ok(AnalyticReport {
        seeds: cfg.seeds,
        programs: programs.len(),
        nests,
        n: cfg.n,
        top_k: cfg.top_k,
        geometries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> AnalyticSweepConfig {
        AnalyticSweepConfig {
            seeds: 4,
            kernels: false,
            n: 24,
            top_k: 2,
        }
    }

    #[test]
    fn sweep_reports_every_geometry() {
        let cfg = small_cfg();
        let programs = analytic_corpus(&cfg);
        assert_eq!(programs.len(), 4);
        let mut sink = CollectSink::new();
        let report = analytic_sweep(&programs, &cfg, &mut sink, None).unwrap();
        assert_eq!(report.programs, 4);
        assert_eq!(report.geometries.len(), 3);
        for g in &report.geometries {
            assert_eq!(g.nests, report.nests);
            assert!(g.top_k_agreement >= 0.0 && g.top_k_agreement <= 1.0);
            assert!(g.kendall_tau >= -1.0 && g.kendall_tau <= 1.0);
            assert!(g.mean_rel_error >= 0.0);
            assert!(g.simulated_misses > 0);
        }
        // One set of analytic remarks (primary geometry) + one check
        // remark per geometry.
        assert_eq!(
            sink.metrics.counter_value("analytic.nests"),
            report.nests as u64
        );
        let checks = sink
            .remarks
            .iter()
            .filter(|r| r.pass == "analytic.check")
            .count();
        assert_eq!(checks, 3);
    }

    #[test]
    fn report_json_round_trips() {
        let cfg = small_cfg();
        let programs = analytic_corpus(&cfg);
        let mut sink = CollectSink::new();
        let report = analytic_sweep(&programs, &cfg, &mut sink, None).unwrap();
        let text = report.to_json();
        assert!(text.ends_with('\n'));
        // Floats are serialized at fixed precision, so compare via a
        // second serialization round rather than struct equality.
        let parsed = AnalyticReport::parse(&text).unwrap();
        assert_eq!(parsed.to_json(), text);
        assert_eq!(parsed.geometries.len(), report.geometries.len());
        assert!(AnalyticReport::parse("not json").is_err());
        assert!(AnalyticReport::parse("{}").is_err());
    }

    #[test]
    fn predicted_ranking_uses_profiler_total_order() {
        let cfg = small_cfg();
        let programs = analytic_corpus(&cfg);
        let geoms = analytic_geometries();
        let preds: Vec<Vec<NestPrediction>> = programs
            .iter()
            .map(|p| predict_all(p, cfg.n, &geoms, &mut NullObs)[PRIMARY_GEOMETRY].clone())
            .collect();
        let ranking = rank_predictions(programs.as_slice(), &preds, "i860", cfg.n);
        for w in ranking.entries.windows(2) {
            assert!(
                w[0].est_misses > w[1].est_misses
                    || (w[0].est_misses == w[1].est_misses
                        && (w[0].accesses > w[1].accesses
                            || (w[0].accesses == w[1].accesses && w[0].nest <= w[1].nest)))
            );
        }
    }
}
