//! The pipeline supervisor: transactional, budgeted, fault-contained
//! execution of the compound optimization pipeline.
//!
//! [`supervise`] runs the full optimization pipeline (compound →
//! scalar replacement → optional tiling) over a *clone* of the input
//! program, under `catch_unwind`, with deterministic step budgets and —
//! when [`VerifyMode::On`] — the differential verifier attached to every
//! step. The committed program state only ever advances through
//! verified-good snapshots:
//!
//! * every applied compound step is structurally validated and
//!   (optionally) differentially verified before its `after` snapshot
//!   becomes the new *last-good* state;
//! * a panic, budget exhaustion, validation failure, or verifier
//!   divergence aborts the stage and **rolls the program back** to the
//!   last-good snapshot (or the original, per [`Degradation`]);
//! * the run then continues with the next stage — one pathological nest
//!   degrades, the corpus run survives.
//!
//! Degradations surface as `resilience.*` counters and a
//! `resilience`-pass remark whose reason starts with `degraded:`; see
//! `docs/ROBUSTNESS.md` for the state machine.
//!
//! Supervision is not free: the provenance snapshots needed for
//! rollback are cloned even under [`VerifyMode::Off`], and the stage
//! runs against an internal buffer sink, so per-nest trace spans are
//! not forwarded (remarks and counters are, on commit).

use crate::fault::{FaultKind, FaultPlan};
use cmt_ir::affine::Affine;
use cmt_ir::expr::Expr;
use cmt_ir::ids::{ArrayId, StmtId};
use cmt_ir::node::Node;
use cmt_ir::program::Program;
use cmt_ir::stmt::{ArrayRef, Stmt};
use cmt_ir::validate::validate;
use cmt_locality::compound::{compound_with, CompoundOptions};
use cmt_locality::model::CostModel;
use cmt_locality::provenance::{ProvenanceSink, TransformStep};
use cmt_locality::report::TransformReport;
use cmt_locality::scalar::{scalar_replace_observed, ScalarStats};
use cmt_locality::tile::tile_loop;
use cmt_obs::{CollectSink, NullObs, ObsSink, Remark, RemarkKind};
use cmt_verify::{fingerprint, DiffVerifier, VerifyMode};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::Once;

/// Deterministic work budgets for one supervised run. Fuel is counted
/// in *applied transformation steps* (plus one unit per simple stage),
/// never wall-clock, so exhaustion is reproducible on any machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Fuel shared by the whole run.
    pub total_steps: u64,
    /// Fuel any single pass (`permute`, `fuse-all`, …) may consume.
    pub per_pass_steps: u64,
}

impl Default for Budget {
    fn default() -> Self {
        // Far above anything a real program needs (corpus programs
        // apply a handful of steps), so exhaustion means runaway work.
        Budget {
            total_steps: 256,
            per_pass_steps: 64,
        }
    }
}

/// A cooperative wall-clock deadline for one supervised run.
///
/// Unlike [`Budget`] fuel (deterministic, counted in steps), a deadline
/// is a *latency* bound: the optimization service hands every request a
/// deadline and the supervisor checks it cooperatively before each
/// committed step and each simple stage. An expired deadline aborts the
/// current stage with [`FailureReason::DeadlineExceeded`] and rolls
/// back exactly like any other failure — the pipeline never blocks past
/// its budget, and the caller still gets a (degraded) answer.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: std::time::Instant,
}

impl Deadline {
    /// A deadline `d` from now. `Duration::ZERO` is already expired —
    /// useful for deterministically exercising the degraded path.
    pub fn after(d: std::time::Duration) -> Self {
        Deadline {
            at: std::time::Instant::now() + d,
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        std::time::Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> std::time::Duration {
        self.at.saturating_duration_since(std::time::Instant::now())
    }
}

/// Where a failed stage rolls back to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Degradation {
    /// Keep the work of every step that verified clean before the
    /// failure (the default).
    #[default]
    LastGood,
    /// Discard the whole stage: roll back to the stage's input.
    Original,
}

/// Knobs for the supervisor.
#[derive(Clone, Debug)]
pub struct SupervisePolicy {
    /// Step/fuel budgets.
    pub budget: Budget,
    /// Rollback target on failure.
    pub degradation: Degradation,
    /// Run the IR structural validator after every step and stage.
    pub validate_ir: bool,
    /// Optional wall-clock deadline, checked cooperatively before each
    /// step and stage (see [`Deadline`]). `None` means unbounded.
    pub deadline: Option<Deadline>,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            budget: Budget::default(),
            degradation: Degradation::default(),
            validate_ir: true,
            deadline: None,
        }
    }
}

/// Which stages the supervised pipeline runs.
#[derive(Clone, Debug)]
pub struct PipelineSpec {
    /// Options for the compound transformation stage.
    pub compound: CompoundOptions,
    /// Run scalar replacement after the compound stage.
    pub scalar_replace: bool,
    /// Optionally tile `(nest, depth, tile, hoist_to)` after scalar
    /// replacement. A [`cmt_locality::tile::TileError`] is a graceful
    /// skip, not a failure.
    pub tile: Option<(usize, usize, i64, usize)>,
}

impl Default for PipelineSpec {
    fn default() -> Self {
        PipelineSpec {
            compound: CompoundOptions::default(),
            scalar_replace: true,
            tile: None,
        }
    }
}

/// Why a stage was aborted and rolled back.
#[derive(Clone, Debug)]
pub enum FailureReason {
    /// The stage panicked (genuinely, or via an injected fault).
    Panic {
        /// `true` when a [`FaultPlan`] scripted the panic.
        injected: bool,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The deterministic fuel budget ran out.
    BudgetExhausted {
        /// Site charging the step that exceeded the budget.
        site: String,
    },
    /// The structural validator rejected the stage's output.
    InvalidIr {
        /// Site that produced the invalid IR.
        site: String,
        /// The validator's error.
        error: String,
    },
    /// The request's wall-clock deadline expired mid-run.
    DeadlineExceeded {
        /// Site at which the cooperative check observed expiry.
        site: String,
    },
    /// The differential verifier rejected the rewrite.
    Divergence {
        /// Site that produced the diverging rewrite.
        site: String,
        /// Human-readable divergence detail.
        detail: String,
        /// `true` when a [`FaultPlan`] forced the verdict.
        injected: bool,
    },
}

impl FailureReason {
    /// Stable counter suffix for this failure class
    /// (`resilience.<label>`).
    pub fn counter_label(&self) -> &'static str {
        match self {
            FailureReason::Panic { .. } => "panics",
            FailureReason::BudgetExhausted { .. } => "budget_exhausted",
            FailureReason::DeadlineExceeded { .. } => "deadline_exceeded",
            FailureReason::InvalidIr { .. } => "invalid_ir",
            FailureReason::Divergence { .. } => "divergences",
        }
    }
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureReason::Panic { injected, message } => {
                let tag = if *injected { "injected panic" } else { "panic" };
                write!(f, "{tag}: {message}")
            }
            FailureReason::BudgetExhausted { site } => {
                write!(f, "fuel budget exhausted at {site}")
            }
            FailureReason::DeadlineExceeded { site } => {
                write!(f, "deadline exceeded at {site}")
            }
            FailureReason::InvalidIr { site, error } => {
                write!(f, "invalid IR after {site}: {error}")
            }
            FailureReason::Divergence {
                site,
                detail,
                injected,
            } => {
                let tag = if *injected {
                    "injected divergence"
                } else {
                    "divergence"
                };
                write!(f, "{tag} at {site}: {detail}")
            }
        }
    }
}

/// One degraded stage of a supervised run.
#[derive(Clone, Debug)]
pub struct StageFailure {
    /// The stage that failed: `"compound"`, `"scalar-replace"`, `"tile"`.
    pub stage: &'static str,
    /// Why it failed.
    pub reason: FailureReason,
    /// Where the program rolled back to: `"last-good"` or `"original"`.
    pub rollback: &'static str,
}

/// Outcome of one supervised pipeline run.
#[derive(Clone, Debug, Default)]
pub struct SupervisedRun {
    /// The compound stage's report, when that stage committed.
    pub report: Option<TransformReport>,
    /// Scalar-replacement stats, when that stage ran and committed.
    pub scalar: Option<ScalarStats>,
    /// Whether the tile stage applied a tiling.
    pub tiled: bool,
    /// Every degraded stage, in pipeline order (empty on a clean run).
    pub failures: Vec<StageFailure>,
    /// Transformation steps that committed (validated + verified).
    pub steps_committed: usize,
    /// Deterministic fuel consumed.
    pub fuel_spent: u64,
    /// Faults from the plan that actually fired.
    pub faults_fired: usize,
}

impl SupervisedRun {
    /// `true` when every stage committed without rollback.
    pub fn is_committed(&self) -> bool {
        self.failures.is_empty()
    }

    /// `true` when at least one stage degraded.
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// One-line human summary — what remark reasons and escalation
    /// drivers print about this run.
    pub fn summary(&self) -> String {
        let health = if self.is_committed() {
            "committed clean".to_string()
        } else {
            format!("degraded ({} stage(s) rolled back)", self.failures.len())
        };
        format!(
            "{health}: {} step(s) committed, tiled={}, fuel {} spent",
            self.steps_committed, self.tiled, self.fuel_spent
        )
    }
}

/// Panic payload the supervisor throws to unwind out of a doomed stage.
/// Never escapes [`supervise`]: the surrounding `catch_unwind` absorbs
/// it and converts the recorded [`FailureReason`] into a rollback.
struct SupervisorAbort;

/// Installs a process-wide panic hook that suppresses the default
/// "thread panicked" message for the supervisor's own control-flow
/// panics (genuine pass panics still print). Idempotent; chaos tests
/// and the chaos runner call this once to keep their output readable.
pub fn silence_supervised_panics() {
    static SILENCE: Once = Once::new();
    SILENCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SupervisorAbort>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

/// Makes `program` structurally invalid in a way [`validate`] is
/// guaranteed to catch on *any* program: appends a statement referencing
/// an undeclared array. Used by [`FaultKind::CorruptIr`] injection to
/// prove the validator wiring end to end.
pub fn corrupt_ir(program: &mut Program) {
    program.body_mut().push(Node::Stmt(Stmt::new(
        StmtId(u32::MAX),
        ArrayRef::new(ArrayId(u32::MAX), vec![Affine::constant(1)]),
        Expr::Const(0.0),
    )));
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The [`ProvenanceSink`] driving per-step supervision inside the
/// compound stage: fault injection, fuel accounting, structural
/// validation, differential verification, and last-good snapshotting.
struct StepSupervisor<'a> {
    faults: &'a mut FaultPlan,
    policy: &'a SupervisePolicy,
    verifier: Option<DiffVerifier>,
    fuel_total: u64,
    fuel_per_pass: HashMap<&'static str, u64>,
    fuel_spent: u64,
    last_good: Option<Program>,
    steps_committed: usize,
    failure: Option<FailureReason>,
}

impl StepSupervisor<'_> {
    fn abort(&mut self, reason: FailureReason) -> ! {
        self.failure = Some(reason);
        panic_any(SupervisorAbort)
    }
}

impl ProvenanceSink for StepSupervisor<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn step(&mut self, step: &TransformStep<'_>, before: &Program, after: &Program) {
        let site = step.pass;

        // 1. Fault injection: behave as if the pass itself misbehaved.
        match self.faults.fire(site) {
            Some(FaultKind::Panic) => self.abort(FailureReason::Panic {
                injected: true,
                message: format!("injected panic at {site}"),
            }),
            Some(FaultKind::CorruptIr) => {
                // Corrupt a clone of the step output and push it through
                // the real validator, proving detection end to end.
                let mut corrupted = after.clone();
                corrupt_ir(&mut corrupted);
                match validate(&corrupted) {
                    Err(e) => self.abort(FailureReason::InvalidIr {
                        site: site.to_string(),
                        error: format!("injected corruption detected: {e}"),
                    }),
                    Ok(()) => self.abort(FailureReason::InvalidIr {
                        site: site.to_string(),
                        error: "injected corruption escaped the validator".to_string(),
                    }),
                }
            }
            Some(FaultKind::ExhaustBudget) => self.fuel_total = 0,
            Some(FaultKind::ForceDivergence) => self.abort(FailureReason::Divergence {
                site: site.to_string(),
                detail: "injected divergence".to_string(),
                injected: true,
            }),
            None => {}
        }

        // 2. Cooperative deadline check: latency bound alongside fuel.
        if let Some(d) = self.policy.deadline {
            if d.expired() {
                self.abort(FailureReason::DeadlineExceeded {
                    site: site.to_string(),
                });
            }
        }

        // 3. Fuel: one unit per applied step, against both budgets.
        if self.fuel_total == 0 {
            self.abort(FailureReason::BudgetExhausted {
                site: site.to_string(),
            });
        }
        self.fuel_total -= 1;
        self.fuel_spent += 1;
        let left = *self
            .fuel_per_pass
            .get(site)
            .unwrap_or(&self.policy.budget.per_pass_steps);
        if left == 0 {
            self.abort(FailureReason::BudgetExhausted {
                site: site.to_string(),
            });
        }
        self.fuel_per_pass.insert(site, left - 1);

        // 4. Structural validation of the step output.
        if self.policy.validate_ir {
            if let Err(e) = validate(after) {
                self.abort(FailureReason::InvalidIr {
                    site: site.to_string(),
                    error: e.to_string(),
                });
            }
        }

        // 5. Differential verification (VerifyMode::On only).
        if let Some(v) = &mut self.verifier {
            let seen = v.report.divergences.len();
            v.check_step(step.pass, step.nest_index, step.reversed, before, after);
            if v.report.divergences.len() > seen {
                let detail = v
                    .report
                    .divergences
                    .last()
                    .map(|d| d.kind.to_string())
                    .unwrap_or_default();
                self.abort(FailureReason::Divergence {
                    site: site.to_string(),
                    detail,
                    injected: false,
                });
            }
        }

        // 6. Commit: this snapshot is the new rollback target.
        self.last_good = Some(after.clone());
        self.steps_committed += 1;
    }
}

/// Compares final array state of the declaration-prefix arrays the two
/// programs share, at each parameter value. This is the whole-stage
/// safety net for passes (like scalar replacement) that append
/// temporaries — their extra arrays, reads, and stores are expected,
/// but the original arrays' final contents must be bit-identical.
fn stage_divergence(before: &Program, after: &Program, param_values: &[i64]) -> Option<String> {
    for &v in param_values {
        let params = vec![v; before.params().len()];
        let orig = match fingerprint(before, &params) {
            Ok(f) => f,
            Err(e) => return Some(format!("execution of stage input failed at N={v}: {e}")),
        };
        let cand = match fingerprint(after, &params) {
            Ok(f) => f,
            Err(e) => return Some(format!("execution of stage output failed at N={v}: {e}")),
        };
        for (k, (a, b)) in orig.arrays.iter().zip(&cand.arrays).enumerate() {
            if a != b {
                return Some(format!(
                    "array {} final state differs at N={v}",
                    before.arrays()[k].name()
                ));
            }
        }
    }
    None
}

fn flush_buffer(obs: &mut dyn ObsSink, buf: CollectSink) {
    let CollectSink {
        remarks,
        decisions,
        metrics,
    } = buf;
    for r in remarks {
        obs.remark(r);
    }
    for d in decisions {
        obs.decision(d);
    }
    for (name, v) in metrics.counters() {
        obs.counter(name, v);
    }
}

/// Runs a whole-stage transaction for the simple (non-step-granular)
/// stages: fault injection at entry, one fuel unit, `catch_unwind`
/// around the pass, structural validation and array-state equivalence
/// on the output. On `Ok` the program advances; on `Err` it is
/// untouched (the stage ran on a clone).
#[allow(clippy::too_many_arguments)]
fn run_simple_stage<T>(
    stage: &'static str,
    program: &mut Program,
    faults: &mut FaultPlan,
    policy: &SupervisePolicy,
    fuel: &mut u64,
    spent: &mut u64,
    mode: &VerifyMode,
    obs: &mut dyn ObsSink,
    f: impl FnOnce(&mut Program, &mut dyn ObsSink) -> T,
) -> Result<T, FailureReason> {
    let injected = faults.fire(stage);
    match injected {
        Some(FaultKind::ForceDivergence) => {
            return Err(FailureReason::Divergence {
                site: stage.to_string(),
                detail: "injected divergence".to_string(),
                injected: true,
            });
        }
        Some(FaultKind::ExhaustBudget) => *fuel = 0,
        _ => {}
    }
    if *fuel == 0 {
        return Err(FailureReason::BudgetExhausted {
            site: stage.to_string(),
        });
    }
    if let Some(d) = policy.deadline {
        if d.expired() {
            return Err(FailureReason::DeadlineExceeded {
                site: stage.to_string(),
            });
        }
    }
    *fuel -= 1;
    *spent += 1;

    let before = program.clone();
    let mut work = program.clone();
    let mut buf = CollectSink::new();
    let panic_injected = matches!(injected, Some(FaultKind::Panic));
    let result = catch_unwind(AssertUnwindSafe(|| {
        if panic_injected {
            panic_any(SupervisorAbort);
        }
        f(&mut work, &mut buf)
    }));
    let out = match result {
        Ok(v) => v,
        Err(payload) => {
            let message = if panic_injected {
                format!("injected panic at {stage}")
            } else {
                payload_message(payload.as_ref())
            };
            return Err(FailureReason::Panic {
                injected: panic_injected,
                message,
            });
        }
    };
    if matches!(injected, Some(FaultKind::CorruptIr)) {
        corrupt_ir(&mut work);
    }
    if policy.validate_ir {
        if let Err(e) = validate(&work) {
            return Err(FailureReason::InvalidIr {
                site: stage.to_string(),
                error: if matches!(injected, Some(FaultKind::CorruptIr)) {
                    format!("injected corruption detected: {e}")
                } else {
                    e.to_string()
                },
            });
        }
    }
    if let VerifyMode::On(vopts) = mode {
        if let Some(detail) = stage_divergence(&before, &work, &vopts.param_values) {
            return Err(FailureReason::Divergence {
                site: stage.to_string(),
                detail,
                injected: false,
            });
        }
    }
    *program = work;
    if obs.enabled() {
        flush_buffer(obs, buf);
    }
    Ok(out)
}

fn record_degradation(
    run: &mut SupervisedRun,
    obs: &mut dyn ObsSink,
    name: &str,
    stage: &'static str,
    reason: FailureReason,
    rollback: &'static str,
) {
    if obs.enabled() {
        obs.remark(
            Remark::new("resilience", format!("{name}/{stage}"), RemarkKind::Missed)
                .reason(format!("degraded: {reason}; rolled back to {rollback}")),
        );
        obs.counter("resilience.degraded", 1);
        obs.counter(&format!("resilience.{}", reason.counter_label()), 1);
        obs.counter("resilience.rollbacks", 1);
    }
    run.failures.push(StageFailure {
        stage,
        reason,
        rollback,
    });
}

/// Runs the supervised pipeline over `program` in place.
///
/// Stages run in order: compound (step-granular transactions), scalar
/// replacement, optional tiling. A stage failure rolls the program back
/// per `policy` and the run continues; the returned [`SupervisedRun`]
/// lists every degradation. The program is **never** left in a torn
/// state: all mutation happens on clones that are only committed whole.
///
/// Under [`VerifyMode::On`], every committed compound step has passed
/// the differential verifier, and simple stages have passed the
/// array-state equivalence check — so even a degraded run's final
/// program is cmt-verify-clean with respect to the input.
pub fn supervise(
    program: &mut Program,
    model: &CostModel,
    spec: &PipelineSpec,
    mode: &VerifyMode,
    policy: &SupervisePolicy,
    faults: &mut FaultPlan,
    obs: &mut dyn ObsSink,
) -> SupervisedRun {
    let mut run = SupervisedRun::default();
    let name = program.name().to_string();
    let observed = obs.enabled();
    if observed {
        obs.counter("resilience.supervised", 1);
    }

    // ---- Stage 1: compound (per-step transactions) ----
    let original = program.clone();
    let mut work = program.clone();
    let verifier = match mode {
        VerifyMode::On(vopts) => Some(DiffVerifier::new(vopts.clone())),
        VerifyMode::Off => None,
    };
    let mut sup = StepSupervisor {
        faults,
        policy,
        verifier,
        fuel_total: policy.budget.total_steps,
        fuel_per_pass: HashMap::new(),
        fuel_spent: 0,
        last_good: None,
        steps_committed: 0,
        failure: None,
    };
    let mut buf = CollectSink::new();
    let mut null = NullObs;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let inner: &mut dyn ObsSink = if observed { &mut buf } else { &mut null };
        compound_with(&mut work, model, &spec.compound, inner, &mut sup, model)
    }));
    let mut fuel = sup.fuel_total;
    let mut spent = sup.fuel_spent;
    run.steps_committed = sup.steps_committed;
    let failure = sup.failure.take();
    let last_good = sup.last_good.take();
    if let Some(v) = sup.verifier.take() {
        if observed {
            obs.counter("resilience.verify_steps", v.report.steps_checked as u64);
            for r in v.remarks {
                obs.remark(r);
            }
        }
    }
    match result {
        Ok(report) => {
            *program = work;
            run.report = Some(report);
            if observed {
                flush_buffer(obs, buf);
            }
        }
        Err(payload) => {
            let reason = failure.unwrap_or_else(|| FailureReason::Panic {
                injected: false,
                message: payload_message(payload.as_ref()),
            });
            let (mut candidate, mut rollback) = match (policy.degradation, last_good) {
                (Degradation::LastGood, Some(good)) => (good, "last-good"),
                _ => (original.clone(), "original"),
            };
            // Safety net: a rollback target must itself be valid. The
            // last-good chain is validated step by step, so this only
            // fires if the invariant machinery itself is broken.
            if validate(&candidate).is_err() {
                candidate = original.clone();
                rollback = "original";
            }
            *program = candidate;
            record_degradation(&mut run, obs, &name, "compound", reason, rollback);
        }
    }

    // ---- Stage 2: scalar replacement ----
    if spec.scalar_replace {
        match run_simple_stage(
            "scalar-replace",
            program,
            faults,
            policy,
            &mut fuel,
            &mut spent,
            mode,
            obs,
            |p, o| scalar_replace_observed(p, o),
        ) {
            Ok(stats) => run.scalar = Some(stats),
            Err(reason) => {
                record_degradation(&mut run, obs, &name, "scalar-replace", reason, "last-good");
            }
        }
    }

    // ---- Stage 3: tiling (optional) ----
    if let Some((nest, depth, tile, hoist_to)) = spec.tile {
        match run_simple_stage(
            "tile",
            program,
            faults,
            policy,
            &mut fuel,
            &mut spent,
            mode,
            obs,
            |p, _| tile_loop(p, nest, depth, tile, hoist_to).is_ok(),
        ) {
            Ok(applied) => run.tiled = applied,
            Err(reason) => {
                record_degradation(&mut run, obs, &name, "tile", reason, "last-good");
            }
        }
    }

    run.fuel_spent = spent;
    run.faults_fired = faults.fired();
    if observed {
        obs.counter("resilience.steps_committed", run.steps_committed as u64);
        if run.faults_fired > 0 {
            obs.counter("resilience.faults_fired", run.faults_fired as u64);
        }
        if run.is_committed() {
            obs.counter("resilience.committed", 1);
        }
    }
    run
}

/// [`supervise`] with the default pipeline and policy.
pub fn supervise_default(
    program: &mut Program,
    model: &CostModel,
    mode: &VerifyMode,
    faults: &mut FaultPlan,
    obs: &mut dyn ObsSink,
) -> SupervisedRun {
    supervise(
        program,
        model,
        &PipelineSpec::default(),
        mode,
        &SupervisePolicy::default(),
        faults,
        obs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use cmt_ir::build::ProgramBuilder;
    use cmt_verify::VerifyOptions;

    fn matmul() -> Program {
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

    fn unsupervised(program: &mut Program) {
        let model = CostModel::new(4);
        cmt_locality::compound::compound(program, &model);
        cmt_locality::scalar::scalar_replace(program);
    }

    #[test]
    fn fault_free_run_matches_unsupervised_pipeline() {
        silence_supervised_panics();
        let mut expected = matmul();
        unsupervised(&mut expected);

        for mode in [VerifyMode::Off, VerifyMode::On(VerifyOptions::default())] {
            let mut p = matmul();
            let run = supervise_default(
                &mut p,
                &CostModel::new(4),
                &mode,
                &mut FaultPlan::none(),
                &mut NullObs,
            );
            assert!(run.is_committed(), "{:?}", run.failures);
            assert!(run.steps_committed >= 1);
            assert_eq!(p, expected, "supervision must be transparent");
        }
    }

    #[test]
    fn injected_panic_rolls_back_to_original() {
        silence_supervised_panics();
        let original = matmul();
        let mut p = original.clone();
        let mut faults = FaultPlan::of(vec![Fault::at("permute", FaultKind::Panic)]);
        let policy = SupervisePolicy {
            degradation: Degradation::Original,
            ..Default::default()
        };
        let spec = PipelineSpec {
            scalar_replace: false,
            ..Default::default()
        };
        let mut sink = CollectSink::new();
        let run = supervise(
            &mut p,
            &CostModel::new(4),
            &spec,
            &VerifyMode::Off,
            &policy,
            &mut faults,
            &mut sink,
        );
        assert!(run.degraded());
        assert_eq!(run.failures[0].stage, "compound");
        assert!(matches!(
            run.failures[0].reason,
            FailureReason::Panic { injected: true, .. }
        ));
        assert_eq!(p, original, "rollback must restore the original");
        assert_eq!(sink.metrics.counter_value("resilience.degraded"), 1);
        assert!(sink
            .remarks
            .iter()
            .any(|r| r.pass == "resilience" && r.reason.starts_with("degraded:")));
    }

    #[test]
    fn forced_divergence_degrades_to_verify_clean_state() {
        silence_supervised_panics();
        let original = matmul();
        let mut p = original.clone();
        let mut faults = FaultPlan::of(vec![Fault::at("permute", FaultKind::ForceDivergence)]);
        let run = supervise_default(
            &mut p,
            &CostModel::new(4),
            &VerifyMode::On(VerifyOptions::default()),
            &mut faults,
            &mut NullObs,
        );
        assert!(run.degraded());
        // The rolled-back program must be semantically the original.
        assert_eq!(stage_divergence(&original, &p, &[6]), None);
        validate(&p).unwrap();
    }

    #[test]
    fn budget_exhaustion_fires_deterministically() {
        silence_supervised_panics();
        let original = matmul();
        let mut p = original.clone();
        let policy = SupervisePolicy {
            budget: Budget {
                total_steps: 0,
                per_pass_steps: 64,
            },
            ..Default::default()
        };
        let run = supervise(
            &mut p,
            &CostModel::new(4),
            &PipelineSpec {
                scalar_replace: false,
                ..Default::default()
            },
            &VerifyMode::Off,
            &policy,
            &mut FaultPlan::none(),
            &mut NullObs,
        );
        assert!(run.degraded());
        assert!(matches!(
            run.failures[0].reason,
            FailureReason::BudgetExhausted { .. }
        ));
        assert_eq!(p, original);
    }

    #[test]
    fn corrupt_ir_is_caught_by_the_validator() {
        silence_supervised_panics();
        let mut p = matmul();
        let mut faults = FaultPlan::of(vec![Fault::at("permute", FaultKind::CorruptIr)]);
        let run = supervise_default(
            &mut p,
            &CostModel::new(4),
            &VerifyMode::Off,
            &mut faults,
            &mut NullObs,
        );
        assert!(run.degraded());
        assert!(matches!(
            run.failures[0].reason,
            FailureReason::InvalidIr { .. }
        ));
        validate(&p).unwrap();
    }

    #[test]
    fn scalar_stage_failure_keeps_compound_result() {
        silence_supervised_panics();
        let mut expected = matmul();
        cmt_locality::compound::compound(&mut expected, &CostModel::new(4));

        let mut p = matmul();
        let mut faults = FaultPlan::of(vec![Fault::at("scalar-replace", FaultKind::Panic)]);
        let run = supervise_default(
            &mut p,
            &CostModel::new(4),
            &VerifyMode::Off,
            &mut faults,
            &mut NullObs,
        );
        assert!(run.degraded());
        assert_eq!(run.failures[0].stage, "scalar-replace");
        assert!(run.scalar.is_none());
        assert_eq!(p, expected, "compound stage's commit must survive");
    }

    #[test]
    fn corrupt_ir_helper_always_invalidates() {
        let mut p = matmul();
        assert!(validate(&p).is_ok());
        corrupt_ir(&mut p);
        assert!(validate(&p).is_err());
    }

    #[test]
    fn tile_error_is_a_skip_not_a_failure() {
        silence_supervised_panics();
        let mut p = matmul();
        // hoist_to > depth is a BadPosition TileError: graceful skip.
        let spec = PipelineSpec {
            scalar_replace: false,
            tile: Some((0, 9, 4, 9)),
            ..Default::default()
        };
        let run = supervise(
            &mut p,
            &CostModel::new(4),
            &spec,
            &VerifyMode::Off,
            &SupervisePolicy::default(),
            &mut FaultPlan::none(),
            &mut NullObs,
        );
        assert!(run.is_committed(), "{:?}", run.failures);
        assert!(!run.tiled);
    }

    #[test]
    fn expired_deadline_degrades_and_rolls_back() {
        silence_supervised_panics();
        let mut p = matmul();
        let original = p.clone();
        let policy = SupervisePolicy {
            deadline: Some(Deadline::after(std::time::Duration::ZERO)),
            ..Default::default()
        };
        let run = supervise(
            &mut p,
            &CostModel::new(4),
            &PipelineSpec::default(),
            &VerifyMode::Off,
            &policy,
            &mut FaultPlan::none(),
            &mut NullObs,
        );
        assert!(run.degraded());
        assert!(
            run.failures
                .iter()
                .any(|f| matches!(f.reason, FailureReason::DeadlineExceeded { .. })),
            "{:?}",
            run.failures
        );
        // Deadline expiry is a rollback like any other failure.
        assert_eq!(p, original);
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        silence_supervised_panics();
        let mut expected = matmul();
        unsupervised(&mut expected);
        let mut p = matmul();
        let policy = SupervisePolicy {
            deadline: Some(Deadline::after(std::time::Duration::from_secs(3600))),
            ..Default::default()
        };
        let run = supervise(
            &mut p,
            &CostModel::new(4),
            &PipelineSpec::default(),
            &VerifyMode::Off,
            &policy,
            &mut FaultPlan::none(),
            &mut NullObs,
        );
        assert!(run.is_committed(), "{:?}", run.failures);
        assert_eq!(p, expected);
    }
}
