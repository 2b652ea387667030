//! Decision-provenance sweep: oracle disagreement, near-ties, regret,
//! and per-correction divergence attribution — the driver behind the
//! `cmt-explain` binary and the CI `smoke-explain` gate.
//!
//! For every corpus program the sweep runs the compound driver twice on
//! clones — once ranked by the paper's `LoopCost` ([`CostModel`]), once
//! by the analytic engine ([`AnalyticCost`]) — capturing every
//! [`DecisionRecord`] the driver emits. The two provenance streams are
//! joined per nest×action, disagreements (the oracles want different
//! orders) and near-ties (the winner's margin is below the noise
//! threshold) are flagged, and both transformed programs are simulated
//! in full so each oracle's *regret* (misses above the better choice)
//! is measured, not guessed. Independently, every nest of the original
//! program is predicted with [`MissModel::fold_attributed`] and
//! simulated on all three geometries, so the analytic-vs-simulated
//! error decomposes into named correction terms.
//!
//! Two documents come out of one sweep:
//!
//! * [`ExplainDocument`] — the full joined record (`{name}.explain.json`):
//!   one row per decision, one row per nest×geometry attribution;
//! * [`ExplainReport`] — the summary (`BENCH_explain.json`):
//!   disagreement/near-tie/regret rates and per-geometry attribution
//!   totals, gated in CI.
//!
//! Determinism: programs run under [`par_map`] with observability
//! absorbed in item order, simulation is the deterministic full
//! profiler, and neither document carries wall-clock — both are
//! byte-identical for any `CMT_JOBS`.

use crate::runner::{par_map, par_map_traced};
use cmt_analytic::{nest_reuse, AnalyticCost, MissModel};
use cmt_cache::CacheConfig;
use cmt_ir::program::Program;
use cmt_locality::{compound_with, CompoundOptions, CostModel, NullProvenance, RankOracle};
use cmt_obs::json::{self, ObjectWriter, Value};
use cmt_obs::{
    Artifact, CollectSink, DecisionRecord, Findings, NullObs, ObsSink, TraceSession, Tracing,
};
use cmt_profile::{describe_cache, profile_program, ProfileOptions, SamplePolicy};
use cmt_verify::{corpus_seeds, generate};
use std::fmt::Write as _;

/// What a decision-provenance sweep covers.
#[derive(Clone, Copy, Debug)]
pub struct ExplainSweepConfig {
    /// How many verify-corpus seeds to cover (in committed order).
    pub seeds: usize,
    /// Whether the paper kernels ride along.
    pub kernels: bool,
    /// Parameter value every program is optimized and simulated at.
    pub n: i64,
    /// Relative margin below which a permutation win counts as a
    /// near-tie (margin / winner cost).
    pub margin_tie: f64,
}

impl Default for ExplainSweepConfig {
    fn default() -> Self {
        ExplainSweepConfig {
            seeds: 32,
            kernels: true,
            n: 64,
            margin_tie: 0.05,
        }
    }
}

/// Builds the sweep corpus: the first `cfg.seeds` committed
/// verify-corpus seeds, then (when `cfg.kernels`) the paper kernels.
pub fn explain_corpus(cfg: &ExplainSweepConfig) -> Vec<Program> {
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

/// One joined decision row of the explain document: the `LoopCost`
/// driver's record for a nest×action, matched (when possible) against
/// the analytic driver's record for the same key.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionJoin {
    /// Owning program.
    pub program: String,
    /// Nest label the decision was recorded under.
    pub nest: String,
    /// Driver step (`permute`, `fuse.permute`, `fuse-all`, …).
    pub action: String,
    /// The `LoopCost` arm's outcome (`applied`, `blocked`, …).
    pub outcome: String,
    /// Legality verdict of the `LoopCost` arm.
    pub legal: bool,
    /// Constraining dependence vector, when the decision was rejected.
    pub blocking: Option<String>,
    /// Order `LoopCost` wanted.
    pub loopcost_desired: String,
    /// Order `AnalyticCost` wanted for the same nest×action (absent
    /// when the analytic driver never reached an equivalent decision —
    /// an earlier step diverged).
    pub analytic_desired: Option<String>,
    /// Order the `LoopCost` arm achieved.
    pub achieved: String,
    /// Innermost win margin of the `LoopCost` ranking.
    pub margin: Option<f64>,
    /// `margin / max(winner cost, 1)` — the noise-relative margin.
    pub rel_margin: Option<f64>,
    /// Whether the two oracles wanted different orders.
    pub disagree: bool,
    /// Whether the win margin is below the sweep's tie threshold.
    pub near_tie: bool,
}

/// Per-correction divergence attribution for one nest under one
/// geometry: the signed terms of [`MissModel::fold_attributed`] plus
/// the simulated ground truth, so `predicted − simulated` can be blamed
/// on a specific correction.
#[derive(Clone, Debug, PartialEq)]
pub struct NestDivergence {
    /// Nest label (embeds the program name).
    pub nest: String,
    /// Geometry description (see [`describe_cache`]).
    pub cache: String,
    /// Analytic prediction (sum of the signed terms).
    pub predicted: u64,
    /// Full-simulation ground truth.
    pub simulated: u64,
    /// Fully-associative baseline misses.
    pub baseline: f64,
    /// Set-conflict self-interference surcharge (added).
    pub self_interference: f64,
    /// LRU-cliff rescue discount (stored positive, subtracted).
    pub cliff_rescue: f64,
    /// Cross-group direct-mapped collision surcharge (added).
    pub cross: f64,
    /// Clamp/rounding residual.
    pub rounding: f64,
}

/// The full joined provenance record — the content of
/// `{name}.explain.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainDocument {
    /// Verify-corpus seeds covered.
    pub seeds: usize,
    /// Programs covered (seeds + kernels).
    pub programs: usize,
    /// Parameter binding.
    pub n: i64,
    /// Near-tie threshold the `near_tie` flags were computed at.
    pub margin_tie: f64,
    /// Joined decision rows, in program order then record order.
    pub decisions: Vec<DecisionJoin>,
    /// Attribution rows, program order × geometry order × nest order.
    pub divergence: Vec<NestDivergence>,
}

/// Per-geometry attribution totals of one sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct GeometryAttribution {
    /// Geometry description.
    pub cache: String,
    /// Nests attributed.
    pub nests: usize,
    /// Total predicted misses.
    pub predicted: u64,
    /// Total simulated misses.
    pub simulated: u64,
    /// `Σ (baseline − simulated)` — the capacity-model residual.
    pub capacity_residual: f64,
    /// Total self-interference surcharge.
    pub self_interference: f64,
    /// Total cliff-rescue discount (positive).
    pub cliff_rescue: f64,
    /// Total cross-group surcharge.
    pub cross: f64,
    /// Total clamp/rounding residual.
    pub rounding: f64,
}

/// The summary document — the content of `BENCH_explain.json`, gated
/// in CI.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainReport {
    /// Verify-corpus seeds covered.
    pub seeds: usize,
    /// Programs covered.
    pub programs: usize,
    /// Parameter binding.
    pub n: i64,
    /// Joined decision rows.
    pub decisions: usize,
    /// Rows where both oracles produced a comparable record.
    pub joined: usize,
    /// Rows where the oracles wanted different orders.
    pub disagreements: usize,
    /// `disagreements / max(joined, 1)`.
    pub disagreement_rate: f64,
    /// Decisions whose win margin is below the tie threshold.
    pub near_ties: usize,
    /// `near_ties / max(decisions with a margin, 1)`.
    pub near_tie_rate: f64,
    /// Simulated misses of the `LoopCost`-transformed corpus (primary
    /// geometry).
    pub loopcost_misses: u64,
    /// Simulated misses of the `AnalyticCost`-transformed corpus.
    pub analytic_misses: u64,
    /// Per-program best-of-both total.
    pub best_misses: u64,
    /// `(loopcost_misses − best) / max(best, 1)`.
    pub loopcost_regret: f64,
    /// `(analytic_misses − best) / max(best, 1)`.
    pub analytic_regret: f64,
    /// Per-geometry attribution totals, in [`crate::analytic_geometries`]
    /// order.
    pub attribution: Vec<GeometryAttribution>,
}

fn f6(v: f64) -> String {
    format!("{v:.6}")
}

impl DecisionJoin {
    fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.field_str("program", &self.program)
            .field_str("nest", &self.nest)
            .field_str("action", &self.action)
            .field_str("outcome", &self.outcome)
            .field_bool("legal", self.legal);
        if let Some(b) = &self.blocking {
            w.field_str("blocking", b);
        }
        w.field_str("loopcost_desired", &self.loopcost_desired);
        if let Some(a) = &self.analytic_desired {
            w.field_str("analytic_desired", a);
        }
        w.field_str("achieved", &self.achieved);
        if let Some(m) = self.margin {
            w.field_raw("margin", &f6(m));
        }
        if let Some(m) = self.rel_margin {
            w.field_raw("rel_margin", &f6(m));
        }
        w.field_bool("disagree", self.disagree)
            .field_bool("near_tie", self.near_tie);
        w.finish()
    }
}

impl NestDivergence {
    fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.field_str("nest", &self.nest)
            .field_str("cache", &self.cache)
            .field_u64("predicted", self.predicted)
            .field_u64("simulated", self.simulated)
            .field_raw("baseline", &f6(self.baseline))
            .field_raw("self_interference", &f6(self.self_interference))
            .field_raw("cliff_rescue", &f6(self.cliff_rescue))
            .field_raw("cross", &f6(self.cross))
            .field_raw("rounding", &f6(self.rounding));
        w.finish()
    }

    /// `predicted − simulated` (signed), the error the terms explain.
    pub fn error(&self) -> f64 {
        self.predicted as f64 - self.simulated as f64
    }
}

impl Artifact for ExplainDocument {
    const SUFFIX: &'static str = "explain.json";

    fn to_json(&self) -> String {
        let decisions = json::array(self.decisions.iter().map(DecisionJoin::to_json));
        let divergence = json::array(self.divergence.iter().map(NestDivergence::to_json));
        let mut w = ObjectWriter::new();
        w.field_str("bench", "explain-full")
            .field_u64("seeds", self.seeds as u64)
            .field_u64("programs", self.programs as u64)
            .field_raw("n", &self.n.to_string())
            .field_raw("margin_tie", &f6(self.margin_tie))
            .field_raw("decisions", &decisions)
            .field_raw("divergence", &divergence);
        w.finish() + "\n"
    }

    fn parse(text: &str) -> Result<ExplainDocument, String> {
        let v = json::parse(text)?;
        if v.str_field("bench")? != "explain-full" {
            return Err("not an explain document (bench != \"explain-full\")".to_string());
        }
        let mut out = ExplainDocument {
            seeds: v.u64_field("seeds")? as usize,
            programs: v.u64_field("programs")? as usize,
            n: v.f64_field("n")? as i64,
            margin_tie: v.f64_field("margin_tie")?,
            decisions: Vec::new(),
            divergence: Vec::new(),
        };
        for d in v.array_field("decisions")? {
            out.decisions.push(DecisionJoin {
                program: d.str_field("program")?,
                nest: d.str_field("nest")?,
                action: d.str_field("action")?,
                outcome: d.str_field("outcome")?,
                legal: d.bool_field("legal")?,
                blocking: d.get("blocking").and_then(Value::as_str).map(String::from),
                loopcost_desired: d.str_field("loopcost_desired")?,
                analytic_desired: d
                    .get("analytic_desired")
                    .and_then(Value::as_str)
                    .map(String::from),
                achieved: d.str_field("achieved")?,
                margin: d.get("margin").and_then(Value::as_f64),
                rel_margin: d.get("rel_margin").and_then(Value::as_f64),
                disagree: d.bool_field("disagree")?,
                near_tie: d.bool_field("near_tie")?,
            });
        }
        for d in v.array_field("divergence")? {
            out.divergence.push(NestDivergence {
                nest: d.str_field("nest")?,
                cache: d.str_field("cache")?,
                predicted: d.u64_field("predicted")?,
                simulated: d.u64_field("simulated")?,
                baseline: d.f64_field("baseline")?,
                self_interference: d.f64_field("self_interference")?,
                cliff_rescue: d.f64_field("cliff_rescue")?,
                cross: d.f64_field("cross")?,
                rounding: d.f64_field("rounding")?,
            });
        }
        Ok(out)
    }

    /// Decision flips (same program×nest×action, different desired
    /// order or outcome), margin drift beyond `threshold` (relative),
    /// and rows present on only one side.
    fn diff(&self, current: &Self, threshold: f64) -> Findings {
        let key = |d: &DecisionJoin| (d.program.clone(), d.nest.clone(), d.action.clone());
        let mut findings = Vec::new();
        for c in &current.decisions {
            let Some(b) = self.decisions.iter().find(|b| key(b) == key(c)) else {
                findings.push(format!(
                    "decision added: {} {} ({})",
                    c.nest, c.action, c.outcome
                ));
                continue;
            };
            if b.loopcost_desired != c.loopcost_desired
                || b.analytic_desired != c.analytic_desired
                || b.outcome != c.outcome
            {
                findings.push(format!(
                    "decision flip: {} {}: {} [{}] -> {} [{}]",
                    c.nest, c.action, b.loopcost_desired, b.outcome, c.loopcost_desired, c.outcome
                ));
            }
            if let (Some(bm), Some(cm)) = (b.margin, c.margin) {
                let rel = (cm - bm).abs() / bm.abs().max(1.0);
                if rel > threshold {
                    findings.push(format!(
                        "margin drift: {} {}: {bm:.3} -> {cm:.3} ({:+.1}%)",
                        c.nest,
                        c.action,
                        100.0 * (cm - bm) / bm.abs().max(1.0),
                    ));
                }
            }
        }
        for b in &self.decisions {
            if !current.decisions.iter().any(|c| key(c) == key(b)) {
                findings.push(format!(
                    "decision vanished: {} {} ({})",
                    b.nest, b.action, b.outcome
                ));
            }
        }
        Findings {
            deterministic: findings,
            informational: Vec::new(),
        }
    }

    /// Provenance summary plus the first disagreements.
    fn report(&self, out: &mut String) {
        let joined = self
            .decisions
            .iter()
            .filter(|d| d.analytic_desired.is_some())
            .count();
        let disagreements: Vec<_> = self.decisions.iter().filter(|d| d.disagree).collect();
        let near_ties = self.decisions.iter().filter(|d| d.near_tie).count();
        let blocked = self.decisions.iter().filter(|d| !d.legal).count();
        let _ = writeln!(out, "\n## Decisions ({})\n", self.decisions.len());
        let _ = writeln!(
            out,
            "{} programs ({} seeds) at n={}: {} joined across both oracles, \
             {} disagreements, {} near-ties (margin < {:.0}%), {} blocked by dependences.\n",
            self.programs,
            self.seeds,
            self.n,
            joined,
            disagreements.len(),
            near_ties,
            100.0 * self.margin_tie,
            blocked,
        );
        if disagreements.is_empty() {
            return;
        }
        out.push_str("| nest | action | loopcost wants | analytic wants | outcome |\n");
        out.push_str("|---|---|---|---|---|\n");
        for d in disagreements.iter().take(10) {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} | {} |",
                d.nest,
                d.action,
                d.loopcost_desired,
                d.analytic_desired.as_deref().unwrap_or("—"),
                d.outcome,
            );
        }
        if disagreements.len() > 10 {
            let _ = writeln!(out, "\n({} more elided)", disagreements.len() - 10);
        }
    }
}

impl ExplainReport {
    /// Gate: the oracles disagree on at most this fraction of joined
    /// decisions.
    pub const MAX_DISAGREEMENT_RATE: f64 = 0.20;

    /// Gate: `LoopCost` regret against best-of-both is at most this.
    pub const MAX_LOOPCOST_REGRET: f64 = 0.05;
}

/// The summary is written only to an explicit `--bench-json` path (the
/// committed `BENCH_explain.json`), never under its suffix, so it is not
/// in [`crate::ARTIFACT_KINDS`]; the contract gives it parsing and its
/// gate.
impl Artifact for ExplainReport {
    const SUFFIX: &'static str = "explain-summary.json";

    fn to_json(&self) -> String {
        let attribution = json::array(self.attribution.iter().map(|a| {
            let mut w = ObjectWriter::new();
            w.field_str("cache", &a.cache)
                .field_u64("nests", a.nests as u64)
                .field_u64("predicted", a.predicted)
                .field_u64("simulated", a.simulated)
                .field_raw("capacity_residual", &f6(a.capacity_residual))
                .field_raw("self_interference", &f6(a.self_interference))
                .field_raw("cliff_rescue", &f6(a.cliff_rescue))
                .field_raw("cross", &f6(a.cross))
                .field_raw("rounding", &f6(a.rounding));
            w.finish()
        }));
        let mut w = ObjectWriter::new();
        w.field_str("bench", "explain")
            .field_u64("seeds", self.seeds as u64)
            .field_u64("programs", self.programs as u64)
            .field_raw("n", &self.n.to_string())
            .field_u64("decisions", self.decisions as u64)
            .field_u64("joined", self.joined as u64)
            .field_u64("disagreements", self.disagreements as u64)
            .field_raw("disagreement_rate", &f6(self.disagreement_rate))
            .field_u64("near_ties", self.near_ties as u64)
            .field_raw("near_tie_rate", &f6(self.near_tie_rate))
            .field_u64("loopcost_misses", self.loopcost_misses)
            .field_u64("analytic_misses", self.analytic_misses)
            .field_u64("best_misses", self.best_misses)
            .field_raw("loopcost_regret", &f6(self.loopcost_regret))
            .field_raw("analytic_regret", &f6(self.analytic_regret))
            .field_raw("attribution", &attribution);
        w.finish() + "\n"
    }

    fn parse(text: &str) -> Result<ExplainReport, String> {
        let v = json::parse(text)?;
        if v.str_field("bench")? != "explain" {
            return Err("not an explain report (bench != \"explain\")".to_string());
        }
        let mut out = ExplainReport {
            seeds: v.u64_field("seeds")? as usize,
            programs: v.u64_field("programs")? as usize,
            n: v.f64_field("n")? as i64,
            decisions: v.u64_field("decisions")? as usize,
            joined: v.u64_field("joined")? as usize,
            disagreements: v.u64_field("disagreements")? as usize,
            disagreement_rate: v.f64_field("disagreement_rate")?,
            near_ties: v.u64_field("near_ties")? as usize,
            near_tie_rate: v.f64_field("near_tie_rate")?,
            loopcost_misses: v.u64_field("loopcost_misses")?,
            analytic_misses: v.u64_field("analytic_misses")?,
            best_misses: v.u64_field("best_misses")?,
            loopcost_regret: v.f64_field("loopcost_regret")?,
            analytic_regret: v.f64_field("analytic_regret")?,
            attribution: Vec::new(),
        };
        for a in v.array_field("attribution")? {
            out.attribution.push(GeometryAttribution {
                cache: a.str_field("cache")?,
                nests: a.u64_field("nests")? as usize,
                predicted: a.u64_field("predicted")?,
                simulated: a.u64_field("simulated")?,
                capacity_residual: a.f64_field("capacity_residual")?,
                self_interference: a.f64_field("self_interference")?,
                cliff_rescue: a.f64_field("cliff_rescue")?,
                cross: a.f64_field("cross")?,
                rounding: a.f64_field("rounding")?,
            });
        }
        Ok(out)
    }

    fn gate(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.disagreement_rate > Self::MAX_DISAGREEMENT_RATE {
            v.push(format!(
                "disagreement rate {:.3} exceeds {}",
                self.disagreement_rate,
                Self::MAX_DISAGREEMENT_RATE
            ));
        }
        if self.loopcost_regret > Self::MAX_LOOPCOST_REGRET {
            v.push(format!(
                "loopcost regret {:.4} exceeds {}",
                self.loopcost_regret,
                Self::MAX_LOOPCOST_REGRET
            ));
        }
        v
    }
}

/// Renders a text decision tree for one program's joined rows —
/// the human-readable view the `cmt-explain` binary prints for the
/// paper kernels.
pub fn render_decision_tree(program: &str, rows: &[DecisionJoin]) -> String {
    let mut out = format!("{program}\n");
    let mine: Vec<&DecisionJoin> = rows.iter().filter(|r| r.program == program).collect();
    for (i, r) in mine.iter().enumerate() {
        let branch = if i + 1 == mine.len() {
            "└─"
        } else {
            "├─"
        };
        let mut line = format!(
            "{branch} {} {}: {} → {}",
            r.nest, r.action, r.loopcost_desired, r.outcome
        );
        if r.achieved != r.loopcost_desired && !r.achieved.is_empty() {
            line.push_str(&format!(" (achieved {})", r.achieved));
        }
        if let Some(b) = &r.blocking {
            line.push_str(&format!(" [blocked by {b}]"));
        }
        if let Some(m) = r.margin {
            line.push_str(&format!(" margin {m:.1}"));
        }
        if r.disagree {
            let analytic = r.analytic_desired.as_deref().unwrap_or("?");
            line.push_str(&format!(" !! analytic wants {analytic}"));
        }
        if r.near_tie {
            line.push_str(" ~tie");
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Everything one worker computes for one program.
struct ProgramExplain {
    name: String,
    loopcost: Vec<DecisionRecord>,
    analytic: Vec<DecisionRecord>,
    loopcost_misses: u64,
    analytic_misses: u64,
    divergence: Vec<NestDivergence>,
}

fn total_misses(program: &Program, n: i64, cache: CacheConfig) -> Result<u64, String> {
    let opts = ProfileOptions {
        policy: SamplePolicy::Full,
        cache,
    };
    let profile = profile_program(program, n, &opts, &mut NullObs).map_err(|e| e.to_string())?;
    Ok(profile.nests.iter().map(|p| p.est.misses).sum())
}

fn run_oracle(
    program: &Program,
    model: &CostModel,
    oracle: &dyn RankOracle,
    obs: &mut dyn ObsSink,
) -> Program {
    let mut p = program.clone();
    let _ = compound_with(
        &mut p,
        model,
        &CompoundOptions::default(),
        obs,
        &mut NullProvenance,
        oracle,
    );
    p
}

fn explain_program(
    program: &Program,
    cfg: &ExplainSweepConfig,
    obs: &mut dyn ObsSink,
) -> Result<ProgramExplain, String> {
    let geoms = crate::analytic_geometries();
    let primary = geoms[1];
    let model = CostModel::new(primary.cls_elements());
    let analytic_oracle = AnalyticCost::new(primary, cfg.n);

    // Both arms capture decisions locally, then forward into the shared
    // sink (loopcost first) so the artifact stream is deterministic.
    let mut lc_sink = CollectSink::new();
    let lc_program = run_oracle(program, &model, &model, &mut lc_sink);
    let mut an_sink = CollectSink::new();
    let an_program = run_oracle(program, &model, &analytic_oracle, &mut an_sink);
    if obs.enabled() {
        for r in &lc_sink.remarks {
            obs.remark(r.clone());
        }
        for d in &lc_sink.decisions {
            obs.decision(d.clone());
        }
        for d in &an_sink.decisions {
            obs.decision(d.clone());
        }
    }

    let loopcost_misses = total_misses(&lc_program, cfg.n, primary)?;
    let analytic_misses = total_misses(&an_program, cfg.n, primary)?;

    // Per-nest × geometry divergence attribution of the *original*
    // program: predicted terms vs simulated ground truth.
    let mut divergence = Vec::new();
    for g in geoms {
        let opts = ProfileOptions {
            policy: SamplePolicy::Full,
            cache: g,
        };
        let truth =
            profile_program(program, cfg.n, &opts, &mut NullObs).map_err(|e| e.to_string())?;
        let miss_model = MissModel::new(g);
        let cache = describe_cache(&g);
        for (idx, nest) in truth.nests.iter().enumerate() {
            let reuse = nest_reuse(program, idx, cfg.n, g.cls_elements());
            let (pred, attr) = miss_model.fold_attributed(&reuse);
            divergence.push(NestDivergence {
                nest: nest.label.clone(),
                cache: cache.clone(),
                predicted: pred.stats.misses,
                simulated: nest.est.misses,
                baseline: attr.baseline,
                self_interference: attr.self_interference,
                cliff_rescue: attr.cliff_rescue,
                cross: attr.cross,
                rounding: attr.rounding,
            });
        }
    }

    Ok(ProgramExplain {
        name: program.name().to_string(),
        loopcost: lc_sink.decisions,
        analytic: an_sink.decisions,
        loopcost_misses,
        analytic_misses,
        divergence,
    })
}

fn join_decisions(pe: &ProgramExplain, margin_tie: f64) -> Vec<DecisionJoin> {
    pe.loopcost
        .iter()
        .map(|d| {
            let analytic = pe
                .analytic
                .iter()
                .find(|a| a.nest == d.nest && a.action == d.action);
            let rel_margin = d.margin.map(|m| {
                let winner = d
                    .candidates
                    .iter()
                    .map(|c| c.cost)
                    .fold(f64::INFINITY, f64::min);
                m / winner.abs().max(1.0)
            });
            let disagree = analytic.is_some_and(|a| a.desired != d.desired);
            DecisionJoin {
                program: pe.name.clone(),
                nest: d.nest.clone(),
                action: d.action.to_string(),
                outcome: d.outcome.to_string(),
                legal: d.legal,
                blocking: d.blocking.clone(),
                loopcost_desired: d.desired.clone(),
                analytic_desired: analytic.map(|a| a.desired.clone()),
                achieved: d.achieved.clone(),
                margin: d.margin,
                rel_margin,
                disagree,
                near_tie: rel_margin.is_some_and(|r| r < margin_tie),
            }
        })
        .collect()
}

/// Runs one decision-provenance sweep over `programs`: both oracles'
/// compound runs with full provenance capture, regret simulation on the
/// primary geometry, and per-nest divergence attribution on all three
/// geometries.
///
/// With a `session`, every worker records its spans onto its own track;
/// the documents are byte-identical either way.
///
/// # Errors
///
/// A program that fails to simulate aborts the sweep — the corpus is
/// committed, so a failure is a bug, not data.
pub fn explain_sweep(
    programs: &[Program],
    cfg: &ExplainSweepConfig,
    obs: &mut CollectSink,
    session: Option<&mut TraceSession>,
) -> Result<(ExplainDocument, ExplainReport), String> {
    let results = match session {
        Some(session) => par_map_traced(programs, session, |p, track| {
            let mut traced = Tracing::new(CollectSink::new(), track);
            let out = explain_program(p, cfg, &mut traced);
            (out, traced.inner)
        }),
        None => par_map(programs, |p| {
            let mut sink = CollectSink::new();
            let out = explain_program(p, cfg, &mut sink);
            (out, sink)
        }),
    };

    let mut decisions = Vec::new();
    let mut divergence = Vec::new();
    let (mut lc_total, mut an_total, mut best_total) = (0u64, 0u64, 0u64);
    for (out, sink) in results {
        obs.absorb(sink);
        let pe = out?;
        decisions.extend(join_decisions(&pe, cfg.margin_tie));
        divergence.extend(pe.divergence);
        lc_total += pe.loopcost_misses;
        an_total += pe.analytic_misses;
        best_total += pe.loopcost_misses.min(pe.analytic_misses);
    }
    // Re-group attribution rows by geometry (workers emit program-major
    // order; the document wants deterministic program×geometry rows as
    // produced, the summary wants per-geometry totals).
    let geoms = crate::analytic_geometries();
    let mut attribution = Vec::with_capacity(geoms.len());
    for g in geoms {
        let cache = describe_cache(&g);
        let rows: Vec<&NestDivergence> = divergence.iter().filter(|d| d.cache == cache).collect();
        attribution.push(GeometryAttribution {
            cache: cache.clone(),
            nests: rows.len(),
            predicted: rows.iter().map(|d| d.predicted).sum(),
            simulated: rows.iter().map(|d| d.simulated).sum(),
            capacity_residual: rows.iter().map(|d| d.baseline - d.simulated as f64).sum(),
            self_interference: rows.iter().map(|d| d.self_interference).sum(),
            cliff_rescue: rows.iter().map(|d| d.cliff_rescue).sum(),
            cross: rows.iter().map(|d| d.cross).sum(),
            rounding: rows.iter().map(|d| d.rounding).sum(),
        });
    }

    let joined = decisions
        .iter()
        .filter(|d| d.analytic_desired.is_some())
        .count();
    let disagreements = decisions.iter().filter(|d| d.disagree).count();
    let with_margin = decisions.iter().filter(|d| d.margin.is_some()).count();
    let near_ties = decisions.iter().filter(|d| d.near_tie).count();

    if obs.enabled() {
        obs.counter("explain.decisions", decisions.len() as u64);
        obs.counter("explain.joined", joined as u64);
        obs.counter("explain.disagreements", disagreements as u64);
        obs.counter("explain.near_ties", near_ties as u64);
    }

    let report = ExplainReport {
        seeds: cfg.seeds,
        programs: programs.len(),
        n: cfg.n,
        decisions: decisions.len(),
        joined,
        disagreements,
        disagreement_rate: disagreements as f64 / joined.max(1) as f64,
        near_ties,
        near_tie_rate: near_ties as f64 / with_margin.max(1) as f64,
        loopcost_misses: lc_total,
        analytic_misses: an_total,
        best_misses: best_total,
        loopcost_regret: (lc_total - best_total) as f64 / best_total.max(1) as f64,
        analytic_regret: (an_total - best_total) as f64 / best_total.max(1) as f64,
        attribution,
    };
    let doc = ExplainDocument {
        seeds: cfg.seeds,
        programs: programs.len(),
        n: cfg.n,
        margin_tie: cfg.margin_tie,
        decisions,
        divergence,
    };
    Ok((doc, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExplainSweepConfig {
        ExplainSweepConfig {
            seeds: 3,
            kernels: false,
            n: 24,
            margin_tie: 0.05,
        }
    }

    #[test]
    fn sweep_produces_decisions_and_attribution() {
        let cfg = small_cfg();
        let programs = explain_corpus(&cfg);
        assert_eq!(programs.len(), 3);
        let mut sink = CollectSink::new();
        let (doc, report) = explain_sweep(&programs, &cfg, &mut sink, None).unwrap();
        assert!(!doc.decisions.is_empty());
        assert!(!doc.divergence.is_empty());
        // Three geometries per nest.
        assert_eq!(doc.divergence.len() % 3, 0);
        assert_eq!(report.decisions, doc.decisions.len());
        assert!(report.joined <= report.decisions);
        assert!(report.disagreement_rate >= 0.0 && report.disagreement_rate <= 1.0);
        assert!(report.best_misses <= report.loopcost_misses);
        assert!(report.best_misses <= report.analytic_misses);
        // The captured decision stream flowed into the caller's sink.
        assert!(!sink.decisions.is_empty());
        assert_eq!(
            sink.metrics.counter_value("explain.decisions"),
            report.decisions as u64
        );
    }

    #[test]
    fn attribution_terms_reconstruct_predicted() {
        let cfg = small_cfg();
        let programs = explain_corpus(&cfg);
        let mut sink = CollectSink::new();
        let (doc, _) = explain_sweep(&programs, &cfg, &mut sink, None).unwrap();
        for d in &doc.divergence {
            let total = d.baseline + d.self_interference - d.cliff_rescue + d.cross + d.rounding;
            let scale = (d.predicted as f64).max(1.0);
            assert!(
                (total - d.predicted as f64).abs() <= 1e-6 * scale,
                "{}@{}: {total} vs {}",
                d.nest,
                d.cache,
                d.predicted
            );
        }
    }

    #[test]
    fn documents_round_trip() {
        let cfg = small_cfg();
        let programs = explain_corpus(&cfg);
        let mut sink = CollectSink::new();
        let (doc, report) = explain_sweep(&programs, &cfg, &mut sink, None).unwrap();
        let text = doc.to_json();
        assert!(text.ends_with('\n'));
        let parsed = ExplainDocument::parse(&text).unwrap();
        assert_eq!(parsed.to_json(), text);
        let rtext = report.to_json();
        let rparsed = ExplainReport::parse(&rtext).unwrap();
        assert_eq!(rparsed.to_json(), rtext);
        assert!(ExplainDocument::parse("{}").is_err());
        assert!(ExplainReport::parse("not json").is_err());
    }

    #[test]
    fn diff_flags_flips_and_drift() {
        let mk = |desired: &str, margin: f64| DecisionJoin {
            program: "p".into(),
            nest: "p/nest0:I.J".into(),
            action: "permute".into(),
            outcome: "applied".into(),
            legal: true,
            blocking: None,
            loopcost_desired: desired.into(),
            analytic_desired: Some(desired.into()),
            achieved: desired.into(),
            margin: Some(margin),
            rel_margin: Some(0.1),
            disagree: false,
            near_tie: false,
        };
        let doc = |d: DecisionJoin| ExplainDocument {
            seeds: 1,
            programs: 1,
            n: 24,
            margin_tie: 0.05,
            decisions: vec![d],
            divergence: Vec::new(),
        };
        let base = doc(mk("J.I", 100.0));
        // Identical: no findings.
        assert!(base
            .diff(&doc(mk("J.I", 100.0)), 0.0)
            .deterministic
            .is_empty());
        // Desired flip.
        let f = base.diff(&doc(mk("I.J", 100.0)), 0.0).deterministic;
        assert!(f.iter().any(|s| s.contains("decision flip")), "{f:?}");
        // Margin drift beyond threshold.
        let f = base.diff(&doc(mk("J.I", 200.0)), 0.25).deterministic;
        assert!(f.iter().any(|s| s.contains("margin drift")), "{f:?}");
        // Drift below threshold is quiet.
        assert!(base
            .diff(&doc(mk("J.I", 101.0)), 0.25)
            .deterministic
            .is_empty());
        // One-sided rows.
        let empty = ExplainDocument {
            decisions: Vec::new(),
            ..base.clone()
        };
        let f = base.diff(&empty, 0.0).deterministic;
        assert!(f.iter().any(|s| s.contains("vanished")), "{f:?}");
        let f = empty.diff(&base, 0.0).deterministic;
        assert!(f.iter().any(|s| s.contains("added")), "{f:?}");
    }

    #[test]
    fn decision_tree_renders_disagreements() {
        let rows = vec![DecisionJoin {
            program: "mm".into(),
            nest: "mm/nest0:I.J.K".into(),
            action: "permute".into(),
            outcome: "applied".into(),
            legal: true,
            blocking: None,
            loopcost_desired: "J.K.I".into(),
            analytic_desired: Some("K.J.I".into()),
            achieved: "J.K.I".into(),
            margin: Some(42.0),
            rel_margin: Some(0.01),
            disagree: true,
            near_tie: true,
        }];
        let text = render_decision_tree("mm", &rows);
        assert!(text.contains("mm/nest0:I.J.K"), "{text}");
        assert!(text.contains("analytic wants K.J.I"), "{text}");
        assert!(text.contains("~tie"), "{text}");
    }
}
