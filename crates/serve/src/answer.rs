//! The cold path: one supervised optimization run plus a cache-cost
//! evaluation at the requested fidelity.
//!
//! The ladder has two cold rungs. Off-pressure, the transformed program
//! is executed through the cache simulator (measured
//! misses). Under pressure — admission depth past the degrade mark, or
//! the request's deadline already spent — the server folds the analytic
//! miss model instead, a microsecond-scale evaluation that keeps
//! latency bounded while staying on the same cache geometry
//! (`rs6000`), so `miss_rate` is comparable across fidelities.

use crate::protocol::{Answer, CompileRequest, Fidelity};
use cmt_analytic::{predict_program, MissModel};
use cmt_cache::{CacheConfig, ShardedCache};
use cmt_interp::{Layout, TraceSink};
use cmt_ir::canon::NestKey;
use cmt_ir::program::Program;
use cmt_locality::model::CostModel;
use cmt_obs::{CollectSink, ObsSink};
use cmt_resilience::{
    supervise, Deadline, FaultPlan, PipelineSpec, SupervisePolicy, SupervisedRun,
};
use cmt_verify::VerifyMode;
use std::time::Duration;

/// Feeds a cache the executor's batches and never a loop run.
///
/// Handing the server's cache loop runs would speed up its cold path,
/// but the benchmark's `serve_hot` peak RSS grows with the number of
/// passes that fit in its run time, not with anything the server holds
/// (ROADMAP item 8(k)). The server takes runs once that is fixed.
struct Batches<'a>(&'a mut ShardedCache);

impl TraceSink for Batches<'_> {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.0.access(addr, is_write);
    }

    fn access_batch(&mut self, batch: &[u64]) {
        self.0.access_batch(batch);
    }
}

/// Simulates every access of `program` at size `n` through the paper's
/// primary geometry (`rs6000`), the one the analytic rung also folds.
/// Execution failures (e.g. out-of-bounds at this `n`) are structured
/// errors, never panics.
pub fn simulate(program: &Program, n: i64) -> Result<(u64, u64), String> {
    let params = vec![n; program.params().len()];
    let layout = Layout::new(program, &params).map_err(|e| format!("allocation: {e}"))?;
    let mut cache = ShardedCache::new(CacheConfig::rs6000());
    for (_, start, bytes) in layout.regions(program) {
        cache.reserve_region(start, bytes);
    }
    layout
        .trace(program, &mut Batches(&mut cache))
        .map_err(|e| format!("execution: {e}"))?;
    let stats = cache.stats();
    Ok((stats.accesses, stats.misses))
}

/// Folds the analytic miss model over `program` at size `n` on the same
/// geometry the simulator reports.
pub fn analytic_fold(program: &Program, n: i64, obs: &mut dyn ObsSink) -> (u64, u64) {
    let model = MissModel::new(CacheConfig::rs6000());
    let preds = predict_program(program, n, &model, obs);
    let (mut accesses, mut misses) = (0u64, 0u64);
    for p in &preds {
        accesses += p.stats.accesses;
        misses += p.stats.misses;
    }
    (accesses, misses)
}

/// Everything [`compute_cold`] decided and produced, for counter
/// accounting by the server.
pub struct ColdOutcome {
    /// The final answer.
    pub answer: Answer,
    /// The supervised run (degradation detail for remarks/counters).
    pub run: SupervisedRun,
}

/// Runs the full cold path for one parsed request: supervised
/// optimization under the request's deadline and fault plan, then the
/// fidelity-appropriate cost evaluation. `key` is the program's
/// [`cmt_ir::canon::nest_key`], which the caller has already rendered.
/// `pressure` selects the analytic rung up front; an expired deadline
/// after the supervised stage also degrades to analytic (never skipping
/// the answer).
pub fn compute_cold(
    req: &CompileRequest,
    program: &Program,
    key: NestKey,
    n: i64,
    default_deadline_ms: u64,
    pressure: bool,
    obs: &mut CollectSink,
) -> Result<ColdOutcome, String> {
    let deadline_ms = req.deadline_ms.or(if default_deadline_ms > 0 {
        Some(default_deadline_ms)
    } else {
        None
    });
    let deadline = deadline_ms.map(|ms| Deadline::after(Duration::from_millis(ms)));
    let policy = SupervisePolicy {
        deadline,
        ..Default::default()
    };
    let mut faults = match req.fault_seed {
        Some(seed) => FaultPlan::seeded(seed),
        None => FaultPlan::none(),
    };
    let mut optimized = program.clone();
    let model = CostModel::new(CacheConfig::rs6000().cls_elements());
    let run = supervise(
        &mut optimized,
        &model,
        &PipelineSpec::default(),
        &VerifyMode::Off,
        &policy,
        &mut faults,
        obs,
    );

    let deadline_spent = deadline.map(|d| d.expired()).unwrap_or(false);
    let (fidelity, accesses, misses) = if pressure || deadline_spent {
        let (a, m) = analytic_fold(&optimized, n, obs);
        (Fidelity::Analytic, a, m)
    } else {
        let (a, m) = simulate(&optimized, n)?;
        (Fidelity::Simulated, a, m)
    };

    let answer = Answer {
        key: key.to_hex(),
        n,
        computed: fidelity,
        degraded: run.degraded(),
        failures: run.failures.len() as u64,
        steps: run.steps_committed as u64,
        accesses,
        misses,
    };
    Ok(ColdOutcome { answer, run })
}
