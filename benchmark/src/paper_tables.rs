//! `paper_tables`: every suite model with loops through
//! `cmt_bench::simulate_versions` at its Table 4 size, and the six
//! matrix-multiply orders of Figure 2 through
//! `cmt_bench::simulate_program`.
//!
//! A traced pass replaces each call with its recomposition from public
//! layers (`compound`, then `Machine::new`/`run` into two
//! `ShardedCache`s through a timing sink), which must reproduce the
//! same statistics: both are checked against `expected/paper_tables.txt`.

use crate::layers::{paper_caches, run_timed};
use crate::trace::Recorder;
use crate::{finish, stats_text, Batch, Config, Outcome};
use cmt_bench::{simulate_program, simulate_versions, ProgramSim, VersionPair};
use cmt_cache::CacheStats;
use cmt_ir::program::Program;
use cmt_locality::compound::compound;
use cmt_locality::model::CostModel;
use cmt_suite::{kernels, suite, BenchmarkModel};

/// Figure 2's matrix order.
const FIG2_N: i64 = 128;
/// Size at which the layer probe runs this workload's programs.
const PROBE_N: i64 = 24;
/// Where the background program lives, as in `simulate_versions`.
const REST_OFFSET: u64 = 1 << 40;

enum Item {
    Table4(Box<BenchmarkModel>),
    Fig2(&'static str, Program),
}

impl Item {
    fn name(&self) -> String {
        match self {
            Item::Table4(m) => m.spec.name.to_string(),
            Item::Fig2(order, _) => format!("fig2-{order}"),
        }
    }

    fn program(&self) -> &Program {
        match self {
            Item::Table4(m) => &m.optimized,
            Item::Fig2(_, p) => p,
        }
    }
}

enum Sim {
    Pair(VersionPair),
    Single(ProgramSim),
}

fn items(smoke: bool) -> Vec<Item> {
    let mut items: Vec<Item> = suite()
        .into_iter()
        .filter(|m| m.spec.mix.total_nests() > 0)
        .map(|m| Item::Table4(Box::new(m)))
        .collect();
    items.extend(
        kernels::matmul_orders()
            .into_iter()
            .map(|(order, p)| Item::Fig2(order, p)),
    );
    if smoke {
        items.retain(|i| matches!(i.name().as_str(), "ora" | "tomcatv" | "fig2-JKI"));
    }
    items
}

fn program_sim([cache1, cache2]: [CacheStats; 2]) -> ProgramSim {
    ProgramSim { cache1, cache2 }
}

/// Optimized procedures, then the background at its offset, in one pair
/// of caches: stats after the first and after both.
fn whole_traced(
    rec: &mut Recorder,
    model: &BenchmarkModel,
    opt: &Program,
    n: i64,
) -> Result<(ProgramSim, ProgramSim), String> {
    let mut caches = paper_caches();
    let opt_stats = run_timed(rec, opt, n, &mut caches, 0)?;
    let whole = run_timed(rec, &model.rest, n, &mut caches, REST_OFFSET)?;
    Ok((program_sim(opt_stats), program_sim(whole)))
}

/// `simulate_versions` recomposed from public layers.
fn versions_traced(
    rec: &mut Recorder,
    model: &BenchmarkModel,
    cost: &CostModel,
    n: i64,
) -> Result<VersionPair, String> {
    let mut transformed = model.optimized.clone();
    rec.span("core.compound", || compound(&mut transformed, cost));
    let (opt_orig, whole_orig) = whole_traced(rec, model, &model.optimized, n)?;
    let (opt_final, whole_final) = whole_traced(rec, model, &transformed, n)?;
    Ok(VersionPair {
        opt_orig,
        opt_final,
        whole_orig,
        whole_final,
    })
}

fn line(name: &str, sim: &Result<Sim, String>) -> String {
    let sims = match sim {
        Ok(Sim::Pair(p)) => vec![p.opt_orig, p.opt_final, p.whole_orig, p.whole_final],
        Ok(Sim::Single(s)) => vec![*s],
        Err(e) => return format!("{name} error: {e}"),
    };
    let mut out = name.to_string();
    for s in sims {
        out.push(' ');
        out.push_str(&stats_text(&s.cache1));
        out.push(' ');
        out.push_str(&stats_text(&s.cache2));
    }
    out
}

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let setup = || items(cfg.smoke);
    let items = setup();
    let cost = CostModel::new(4);
    let batch = Batch::new("paper_tables", items.iter().map(Item::name).collect());
    let measured = batch.run(
        cfg,
        setup,
        |i, rec| match &items[i] {
            Item::Table4(m) if rec.enabled() => {
                versions_traced(rec, m, &cost, m.spec.sim_n).map(Sim::Pair)
            }
            Item::Table4(m) => Ok(Sim::Pair(simulate_versions(m, &cost, m.spec.sim_n))),
            Item::Fig2(_, p) if rec.enabled() => run_timed(rec, p, FIG2_N, &mut paper_caches(), 0)
                .map(|s| Sim::Single(program_sim(s))),
            Item::Fig2(_, p) => Ok(Sim::Single(simulate_program(p, FIG2_N))),
        },
        line,
    );
    let programs: Vec<Program> = items.iter().map(|i| i.program().clone()).collect();
    finish("paper_tables", cfg, measured, &programs, PROBE_N)
}
