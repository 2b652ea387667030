//! `compile_corpus`: the static optimizer path over the 256 verify-corpus
//! programs and the 14 paper kernels, pre-rendered to source. Each
//! program is parsed, keyed (`nest_key`), optimized by the supervised
//! pipeline, folded by the analytic miss model and printed back — what
//! the compile server does for a request, minus the simulation.
//!
//! The oracle compares each transformed program's canonical key, its
//! committed steps and rollbacks, and its predicted accesses and misses
//! against `expected/compile_corpus.txt`. After the timed passes every
//! program is optimized once more with the differential verifier on,
//! which must commit every step and reach the same program.

use crate::trace::Recorder;
use crate::{finish, Batch, Config, Outcome};
use cmt_analytic::{predict_program, MissModel};
use cmt_cache::CacheConfig;
use cmt_ir::canon::nest_key;
use cmt_ir::parse::parse_program;
use cmt_ir::pretty::program_to_source;
use cmt_ir::program::Program;
use cmt_locality::model::CostModel;
use cmt_obs::NullObs;
use cmt_resilience::{supervise, FaultPlan, PipelineSpec, SupervisePolicy};
use cmt_suite::kernels::paper_kernels;
use cmt_verify::{corpus_seeds, generate, VerifyMode, VerifyOptions};
use std::hint::black_box;

/// Size the analytic model predicts at.
const PREDICT_N: i64 = 64;
/// Size at which the layer probe runs this workload's programs.
const PROBE_N: i64 = 24;

struct Compiled {
    program: Program,
    steps: u64,
    rollbacks: u64,
    accesses: u64,
    misses: u64,
}

fn items(smoke: bool) -> Vec<(Program, String)> {
    let seeds = corpus_seeds();
    let take = if smoke { 3 } else { seeds.len() };
    let mut programs: Vec<Program> = seeds.into_iter().take(take).map(generate).collect();
    programs.extend(
        paper_kernels()
            .into_iter()
            .filter(|k| !smoke || k.name() == "adi-fused"),
    );
    programs
        .into_iter()
        .map(|p| {
            let source = program_to_source(&p);
            (p, source)
        })
        .collect()
}

/// The supervised pipeline as the compile server runs it, with the
/// differential verifier `mode`.
fn optimize(program: &mut Program, mode: &VerifyMode) -> cmt_resilience::SupervisedRun {
    let cost = CostModel::new(CacheConfig::rs6000().cls_elements());
    supervise(
        program,
        &cost,
        &PipelineSpec::default(),
        mode,
        &SupervisePolicy::default(),
        &mut FaultPlan::none(),
        &mut NullObs,
    )
}

fn compile(rec: &mut Recorder, source: &str, model: &MissModel) -> Result<Compiled, String> {
    let span = rec.open("ir.parse");
    let parsed = parse_program(source);
    rec.close(span, None, &[("bytes", source.len() as u64)]);
    let mut program = parsed.map_err(|e| format!("parse: {e}"))?;
    black_box(rec.span("ir.canon", || nest_key(&program)));
    let span = rec.open("resilience.supervise");
    let run = optimize(&mut program, &VerifyMode::Off);
    let (steps, rollbacks) = (run.steps_committed as u64, run.failures.len() as u64);
    rec.close(span, None, &[("steps", steps), ("rollbacks", rollbacks)]);
    let preds = rec.span("analytic.predict", || {
        predict_program(&program, PREDICT_N, model, &mut NullObs)
    });
    black_box(rec.span("ir.pretty", || program_to_source(&program)));
    Ok(Compiled {
        steps,
        rollbacks,
        accesses: preds.iter().map(|p| p.stats.accesses).sum(),
        misses: preds.iter().map(|p| p.stats.misses).sum(),
        program,
    })
}

fn line(name: &str, compiled: &Result<Compiled, String>) -> String {
    match compiled {
        Ok(c) => format!(
            "{name} {} {} {} {} {}",
            nest_key(&c.program).to_hex(),
            c.steps,
            c.rollbacks,
            c.accesses,
            c.misses
        ),
        Err(e) => format!("{name} error: {e}"),
    }
}

/// Whether `program`, optimized with every step differentially verified
/// at small sizes, commits cleanly and matches the unverified result
/// recorded in `output`.
fn verifies(program: &Program, output: &str) -> bool {
    let mut verified = program.clone();
    let run = optimize(&mut verified, &VerifyMode::On(VerifyOptions::default()));
    let key = output.split(' ').nth(1).unwrap_or_default();
    run.is_committed() && nest_key(&verified).to_hex() == key
}

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let setup = || items(cfg.smoke);
    let items = setup();
    let model = MissModel::new(CacheConfig::rs6000());
    let batch = Batch::new(
        "compile_corpus",
        items.iter().map(|(p, _)| p.name().to_string()).collect(),
    );
    let mut measured = batch.run(cfg, setup, |i, rec| compile(rec, &items[i].1, &model), line);
    for ((program, _), output) in items.iter().zip(&measured.outputs) {
        measured.attempted += 1;
        if !verifies(program, output) {
            measured.failed += 1;
        }
    }
    let programs: Vec<Program> = items.into_iter().map(|(p, _)| p).collect();
    finish("compile_corpus", cfg, measured, &programs, PROBE_N)
}
