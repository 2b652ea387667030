//! Generators for every table and figure of the paper's evaluation.
//!
//! Every per-model / per-variant simulation loop runs through
//! [`par_map`], the deterministic parallel corpus runner: independent
//! kernels simulate on `CMT_JOBS` worker threads while the rendered
//! tables stay byte-identical to a sequential run (results are collected
//! by index; all formatting happens afterwards, in order).

use crate::fmt::{bar, pct, render_table};
use crate::runner::{par_map, simulate_program, simulate_versions};
use cmt_cache::CycleModel;
use cmt_ir::program::Program;
use cmt_locality::compound::{compound, compound_with, CompoundOptions};
use cmt_locality::model::CostModel;
use cmt_locality::permute::force_memory_order;
use cmt_locality::report::{locality_stats, LocalityStats, TransformReport};
use cmt_locality::{NullProvenance, SelfReuse};
use cmt_obs::NullObs;
use cmt_suite::kernels;
use cmt_suite::{suite, BenchmarkModel};

/// One row of the Figure 2 / Figure 7 ranking studies.
#[derive(Clone, Debug)]
pub struct RankRow {
    /// Variant label (e.g. loop order).
    pub name: String,
    /// `LoopCost` of the variant's innermost loop, shown symbolically.
    pub loop_cost: String,
    /// Cost evaluated at the simulated size (for ranking assertions).
    pub cost_value: f64,
    /// cache1 hit rate (cold misses excluded).
    pub c1_hit: f64,
    /// cache2 hit rate (cold misses excluded).
    pub c2_hit: f64,
    /// Cycle-model time (cache1 misses weighted).
    pub cycles: u64,
}

fn rank_program(name: &str, p: &Program, n: i64, model: &CostModel) -> RankRow {
    // Realized cost: the innermost loop of the deepest chain.
    let cost = model.analyze(p, p.nests()[0]).realized_cost();
    let sim = simulate_program(p, n);
    let cyc = CycleModel::default();
    RankRow {
        name: name.to_string(),
        loop_cost: cost.to_string(),
        cost_value: cost.eval_uniform(n as f64),
        c1_hit: sim.cache1.hit_rate_excluding_cold(),
        c2_hit: sim.cache2.hit_rate_excluding_cold(),
        cycles: cyc.cycles(&sim.cache1),
    }
}

/// Figure 2: matrix multiply under all six loop orders — `LoopCost`
/// ranking vs simulated performance. Returns the rendered table and the
/// rows (paper order: JKI best … IKJ worst).
pub fn fig2_matmul(n: i64) -> (String, Vec<RankRow>) {
    let model = CostModel::new(4);
    let base = kernels::matmul("IJK");
    let cost_table = cmt_locality::figures::cost_table(&base, base.nests()[0], &model);
    let orders = kernels::matmul_orders();
    let rows: Vec<RankRow> = par_map(&orders, |(name, p)| rank_program(name, p, n, &model));
    let table = render_table(
        &[
            "order",
            "LoopCost(innermost)",
            "cost@N",
            "cache1 hit%",
            "cache2 hit%",
            "cycles",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.loop_cost.clone(),
                    format!("{:.3e}", r.cost_value),
                    pct(r.c1_hit),
                    pct(r.c2_hit),
                    r.cycles.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (
        format!(
            "Figure 2 — matrix multiply loop orders (N={n}, f64 elements)\n\
             LoopCost table (cls = 4):\n{cost_table}\n{table}"
        ),
        rows,
    )
}

/// Figure 3: the ADI fusion example — `LoopCost` of the scalarized
/// (distributed) vs fused versions, plus simulated rates for the
/// scalarized vs fused-and-interchanged programs.
pub fn fig3_adi(n: i64) -> (String, Vec<RankRow>) {
    let model = CostModel::new(4);
    let scalarized = kernels::adi_scalarized();
    let fused = kernels::adi_fused_interchanged();

    // Paper's cost table: candidate K and I of the two versions.
    let mut cost_rows = Vec::new();
    {
        let nest = scalarized.nests()[0];
        let costs = model.analyze(&scalarized, nest);
        for e in &costs.entries {
            cost_rows.push(vec![
                format!("scalarized {}", scalarized.var_name(e.var)),
                e.cost.to_string(),
            ]);
        }
        let nest = fused.nests()[0];
        let costs = model.analyze(&fused, nest);
        for e in &costs.entries {
            cost_rows.push(vec![
                format!("fused      {}", fused.var_name(e.var)),
                e.cost.to_string(),
            ]);
        }
    }
    let cost_table = render_table(&["version/loop", "LoopCost"], &cost_rows);

    let versions = [("scalarized", &scalarized), ("fused+interchanged", &fused)];
    let rows = par_map(&versions, |(name, p)| rank_program(name, p, n, &model));
    let table = render_table(
        &["version", "cache1 hit%", "cache2 hit%", "cycles"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    pct(r.c1_hit),
                    pct(r.c2_hit),
                    r.cycles.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (
        format!("Figure 3 — ADI integration (N={n})\n{cost_table}\n{table}"),
        rows,
    )
}

/// Figure 7: Cholesky variants — the paper's `LoopCost` table for the
/// KIJ nest and the simulated ranking of the named variants (KJI is
/// memory order and wins).
pub fn fig7_cholesky(n: i64) -> (String, Vec<RankRow>) {
    let model = CostModel::new(4);
    let kij = kernels::cholesky_kij();
    let cost_table = cmt_locality::figures::cost_table(&kij, kij.nests()[0], &model);

    let variants = kernels::cholesky_variants();
    let rows: Vec<RankRow> = par_map(&variants, |(name, p)| rank_program(name, p, n, &model));
    let table = render_table(
        &["variant", "cache1 hit%", "cache2 hit%", "cycles"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    pct(r.c1_hit),
                    pct(r.c2_hit),
                    r.cycles.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (
        format!("Figure 7 — Cholesky factorization (N={n})\n{cost_table}\n{table}"),
        rows,
    )
}

/// Table 1: Erlebacher — hand-coded vs distributed vs fused versions.
/// The fused version is produced by running the compound algorithm on the
/// distributed one.
pub fn table1_erlebacher(n: i64, stages: usize) -> (String, Vec<RankRow>) {
    let model = CostModel::new(4);
    let hand = kernels::erlebacher_hand(stages);
    let distributed = kernels::erlebacher_distributed(stages);
    let mut fused = distributed.clone();
    let report = compound(&mut fused, &model);

    let versions = [
        ("Hand", &hand),
        ("Distributed", &distributed),
        ("Fused", &fused),
    ];
    let rows = par_map(&versions, |(name, p)| rank_program(name, p, n, &model));
    let table = render_table(
        &["version", "cache1 hit%", "cache2 hit%", "cycles"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    pct(r.c1_hit),
                    pct(r.c2_hit),
                    r.cycles.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (
        format!(
            "Table 1 — Erlebacher (N={n}, {stages} stages; compound fused {} nests)\n{table}",
            report.nests_fused
        ),
        rows,
    )
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Program name.
    pub name: &'static str,
    /// Family label.
    pub group: &'static str,
    /// The compound algorithm's statistics.
    pub report: TransformReport,
    /// Paper context: source lines.
    pub lines: u32,
}

/// Table 2: memory-order statistics over the whole 35-model suite.
pub fn table2() -> (String, Vec<Table2Row>) {
    let model = CostModel::new(4);
    let models = suite();
    let rows: Vec<Table2Row> = par_map(&models, |m| {
        let mut p = m.optimized.clone();
        let report = compound(&mut p, &model);
        Table2Row {
            name: m.spec.name,
            group: m.spec.group.label(),
            report,
            lines: m.spec.lines,
        }
    });
    let mut out_rows = Vec::new();
    let mut last_group = "";
    for r in &rows {
        if r.group != last_group {
            out_rows.push(vec![format!("== {} ==", r.group)]);
            last_group = r.group;
        }
        let rep = &r.report;
        out_rows.push(vec![
            r.name.to_string(),
            r.lines.to_string(),
            rep.nests_total.to_string(),
            format!("{:.0}", rep.pct_orig()),
            format!("{:.0}", rep.pct_permuted()),
            format!("{:.0}", rep.pct_failed()),
            format!("{:.0}", rep.pct_inner_orig()),
            format!("{:.0}", rep.pct_inner_permuted()),
            format!("{:.0}", rep.pct_inner_failed()),
            rep.fusion_candidates.to_string(),
            rep.nests_fused.to_string(),
            rep.distributions.to_string(),
            rep.nests_resulting.to_string(),
            format!("{:.2}", rep.loopcost_ratio_final),
            format!("{:.2}", rep.loopcost_ratio_ideal),
        ]);
    }
    // Totals row.
    let tot = |f: &dyn Fn(&TransformReport) -> usize| -> usize {
        rows.iter().map(|r| f(&r.report)).sum()
    };
    let nests: usize = tot(&|r| r.nests_total);
    let orig = tot(&|r| r.nests_orig_memory_order);
    let perm = tot(&|r| r.nests_permuted);
    let fail = tot(&|r| r.nests_failed);
    let iorig = tot(&|r| r.inner_orig);
    let iperm = tot(&|r| r.inner_permuted);
    let ifail = tot(&|r| r.inner_failed);
    out_rows.push(vec![
        "totals".into(),
        String::new(),
        nests.to_string(),
        format!("{:.0}", 100.0 * orig as f64 / nests as f64),
        format!("{:.0}", 100.0 * perm as f64 / nests as f64),
        format!("{:.0}", 100.0 * fail as f64 / nests as f64),
        format!("{:.0}", 100.0 * iorig as f64 / nests as f64),
        format!("{:.0}", 100.0 * iperm as f64 / nests as f64),
        format!("{:.0}", 100.0 * ifail as f64 / nests as f64),
        tot(&|r| r.fusion_candidates).to_string(),
        tot(&|r| r.nests_fused).to_string(),
        tot(&|r| r.distributions).to_string(),
        tot(&|r| r.nests_resulting).to_string(),
        String::new(),
        String::new(),
    ]);
    let table = render_table(
        &[
            "program", "lines", "nests", "MO-orig%", "MO-perm%", "MO-fail%", "IL-orig%",
            "IL-perm%", "IL-fail%", "FuseC", "FuseA", "DistD", "DistR", "Ratio", "Ideal",
        ],
        &out_rows,
    );
    (format!("Table 2 — memory-order statistics\n{table}"), rows)
}

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Program name.
    pub name: String,
    /// Cycle-model time of the original whole program (cache1).
    pub original: u64,
    /// Cycle-model time of the transformed whole program.
    pub transformed: u64,
    /// `original / transformed`.
    pub speedup: f64,
}

/// Table 3: whole-program performance under the cycle model on cache1,
/// for the programs the paper lists. `n` controls working-set size; the
/// paper's effect needs column sets exceeding 64 KB (n ≥ 520).
pub fn table3(n: i64) -> (String, Vec<Table3Row>) {
    let names = [
        "arc2d", "dyfesm", "flo52", "dnasa7", "applu", "appsp", "simple", "linpackd", "wave",
    ];
    let model = CostModel::new(4);
    let cyc = CycleModel::default();
    let models: Vec<_> = suite()
        .into_iter()
        .filter(|m| names.contains(&m.spec.name))
        .collect();
    let mut rows = par_map(&models, |m| {
        let pair = simulate_versions(m, &model, n);
        let original = cyc.cycles(&pair.whole_orig.cache1);
        let transformed = cyc.cycles(&pair.whole_final.cache1);
        Table3Row {
            name: m.spec.name.to_string(),
            original,
            transformed,
            speedup: original as f64 / transformed.max(1) as f64,
        }
    });
    // The gmtry kernel row (dnasa7's headline 8.68× speedup in the paper).
    {
        let p = kernels::gmtry_rowwise();
        let mut t = p.clone();
        let _ = compound(&mut t, &model);
        let so = simulate_program(&p, n.min(320));
        let st = simulate_program(&t, n.min(320));
        let original = cyc.cycles(&so.cache1);
        let transformed = cyc.cycles(&st.cache1);
        rows.push(Table3Row {
            name: "dnasa7 (gmtry kernel)".into(),
            original,
            transformed,
            speedup: original as f64 / transformed.max(1) as f64,
        });
    }
    let table = render_table(
        &["program", "original", "transformed", "speedup"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.original.to_string(),
                    r.transformed.to_string(),
                    format!("{:.2}", r.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (
        format!("Table 3 — cycle-model performance, cache1 (N={n})\n{table}"),
        rows,
    )
}

/// One row of Table 4.
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// Program name.
    pub name: String,
    /// Optimized-procedure rates: (c1 orig, c1 final, c2 orig, c2 final).
    pub opt: [f64; 4],
    /// Whole-program rates, same order.
    pub whole: [f64; 4],
}

/// Table 4: simulated hit rates (cold misses excluded) for optimized
/// procedures and whole programs under both caches. `n` overrides each
/// model's configured size when given.
pub fn table4(n_override: Option<i64>) -> (String, Vec<Table4Row>) {
    let model = CostModel::new(4);
    let models: Vec<_> = suite()
        .into_iter()
        .filter(|m| m.spec.mix.total_nests() > 0) // `buk` has no loops to transform or simulate.
        .collect();
    let rows: Vec<Table4Row> = par_map(&models, |m| {
        let n = n_override.unwrap_or(m.spec.sim_n);
        let pair = simulate_versions(m, &model, n);
        Table4Row {
            name: m.spec.name.to_string(),
            opt: [
                pair.opt_orig.cache1.hit_rate_excluding_cold(),
                pair.opt_final.cache1.hit_rate_excluding_cold(),
                pair.opt_orig.cache2.hit_rate_excluding_cold(),
                pair.opt_final.cache2.hit_rate_excluding_cold(),
            ],
            whole: [
                pair.whole_orig.cache1.hit_rate_excluding_cold(),
                pair.whole_final.cache1.hit_rate_excluding_cold(),
                pair.whole_orig.cache2.hit_rate_excluding_cold(),
                pair.whole_final.cache2.hit_rate_excluding_cold(),
            ],
        }
    });
    let table = render_table(
        &[
            "program",
            "opt c1 orig",
            "opt c1 final",
            "opt c2 orig",
            "opt c2 final",
            "whole c1 orig",
            "whole c1 final",
            "whole c2 orig",
            "whole c2 final",
        ],
        &rows
            .iter()
            .map(|r| {
                let mut v = vec![r.name.clone()];
                v.extend(r.opt.iter().map(|x| pct(*x)));
                v.extend(r.whole.iter().map(|x| pct(*x)));
                v
            })
            .collect::<Vec<_>>(),
    );
    (
        format!(
            "Table 4 — simulated hit rates (cold misses excluded)\n\
             cache1 = 64KB/4-way/128B (RS/6000), cache2 = 8KB/2-way/32B (i860)\n{table}"
        ),
        rows,
    )
}

/// One version's row block of Table 5.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// Program name.
    pub name: String,
    /// Version label: original / final / ideal.
    pub version: &'static str,
    /// The locality statistics.
    pub stats: LocalityStats,
}

/// Table 5: data-access properties of original, final, and ideal program
/// versions for the paper's improved programs plus an all-programs
/// aggregate.
pub fn table5() -> (String, Vec<Table5Row>) {
    let model = CostModel::new(4);
    let highlight = ["arc2d", "dnasa7", "appsp", "simple", "wave"];
    let mut rows = Vec::new();
    let mut all = [
        LocalityStats::default(),
        LocalityStats::default(),
        LocalityStats::default(),
    ];
    let models = suite();
    let per_model: Vec<(&'static str, [LocalityStats; 3])> = par_map(&models, |m| {
        let original = m.optimized.clone();
        let mut fin = m.optimized.clone();
        let _ = compound(&mut fin, &model);
        let mut ideal = m.optimized.clone();
        let _ = force_memory_order(&mut ideal, &model);
        (
            m.spec.name,
            [
                locality_stats(&original, &model),
                locality_stats(&fin, &model),
                locality_stats(&ideal, &model),
            ],
        )
    });
    // Aggregate sequentially in suite order so float sums are stable.
    for (name, stats3) in &per_model {
        for (k, (label, stats)) in ["original", "final", "ideal"]
            .iter()
            .zip(stats3)
            .enumerate()
        {
            all[k].merge(stats);
            if highlight.contains(name) {
                rows.push(Table5Row {
                    name: name.to_string(),
                    version: label,
                    stats: stats.clone(),
                });
            }
        }
    }
    for (k, label) in ["original", "final", "ideal"].iter().enumerate() {
        rows.push(Table5Row {
            name: "all programs".into(),
            version: label,
            stats: all[k].clone(),
        });
    }
    let rg = |v: Option<f64>| match v {
        Some(x) => format!("{x:.2}"),
        None => "-".to_string(),
    };
    let table = render_table(
        &[
            "program", "version", "Inv%", "Unit%", "None%", "Group%", "R/G Inv", "R/G Unit",
            "R/G None", "R/G Avg",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.version.to_string(),
                    format!("{:.0}", r.stats.pct(SelfReuse::Invariant)),
                    format!("{:.0}", r.stats.pct(SelfReuse::Consecutive)),
                    format!("{:.0}", r.stats.pct(SelfReuse::None)),
                    format!("{:.0}", r.stats.pct_spatial()),
                    rg(r.stats.refs_per_group(SelfReuse::Invariant)),
                    rg(r.stats.refs_per_group(SelfReuse::Consecutive)),
                    rg(r.stats.refs_per_group(SelfReuse::None)),
                    format!("{:.2}", r.stats.avg_refs_per_group()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (format!("Table 5 — data access properties\n{table}"), rows)
}

/// Figures 8 and 9: histograms of programs by the percentage of nests
/// (Fig. 8) / inner loops (Fig. 9) in memory order, original vs
/// transformed.
pub fn fig8_9() -> (String, [[usize; 6]; 4]) {
    let (_, rows) = table2();
    // Buckets: <50, 50–59, 60–69, 70–79, 80–89, 90–100.
    let bucket = |p: f64| -> usize {
        if p < 50.0 {
            0
        } else {
            (((p - 50.0) / 10.0) as usize + 1).min(5)
        }
    };
    let mut hists = [[0usize; 6]; 4];
    for r in &rows {
        if r.report.nests_total == 0 {
            continue;
        }
        let rep = &r.report;
        hists[0][bucket(rep.pct_orig())] += 1;
        hists[1][bucket(rep.pct_orig() + rep.pct_permuted())] += 1;
        hists[2][bucket(rep.pct_inner_orig())] += 1;
        hists[3][bucket(rep.pct_inner_orig() + rep.pct_inner_permuted())] += 1;
    }
    let labels = ["<50", "50s", "60s", "70s", "80s", "90+"];
    let total: usize = hists[0].iter().sum();
    let mut out = String::new();
    for (title, h) in [
        ("Figure 8 — % nests in memory order (original)", &hists[0]),
        (
            "Figure 8 — % nests in memory order (transformed)",
            &hists[1],
        ),
        ("Figure 9 — % inner loops in position (original)", &hists[2]),
        (
            "Figure 9 — % inner loops in position (transformed)",
            &hists[3],
        ),
    ] {
        out.push_str(title);
        out.push('\n');
        for (k, &count) in h.iter().enumerate() {
            out.push_str(&format!(
                "  {:>4} | {:2} {}\n",
                labels[k],
                count,
                bar(count as f64 / total.max(1) as f64, 30)
            ));
        }
        out.push('\n');
    }
    (out, hists)
}

/// One ablation row: variant name, average LoopCost ratio, and the
/// permuted/fused/distributed counts.
pub type AblationRow = (String, f64, usize, usize, usize);

/// Ablation: the compound algorithm with individual transformations
/// disabled, reporting suite-wide LoopCost improvement and pass counts.
pub fn ablation() -> (String, Vec<AblationRow>) {
    let model = CostModel::new(4);
    let variants: Vec<(&str, CompoundOptions)> = vec![
        ("full", CompoundOptions::default()),
        (
            "no-fusion",
            CompoundOptions {
                fusion: false,
                ..Default::default()
            },
        ),
        (
            "no-distribution",
            CompoundOptions {
                distribution: false,
                ..Default::default()
            },
        ),
        (
            "no-reversal",
            CompoundOptions {
                reversal: false,
                ..Default::default()
            },
        ),
        (
            "permutation-only",
            CompoundOptions {
                fusion: false,
                distribution: false,
                reversal: false,
            },
        ),
    ];
    let models: Vec<BenchmarkModel> = suite();
    let mut rows = Vec::new();
    for (name, opts) in &variants {
        let reports = par_map(&models, |m| {
            let mut p = m.optimized.clone();
            compound_with(
                &mut p,
                &model,
                opts,
                &mut NullObs,
                &mut NullProvenance,
                &model,
            )
        });
        // Fold sequentially in suite order for stable float sums.
        let mut ratio_sum = 0.0;
        let mut count = 0usize;
        let mut permuted = 0usize;
        let mut fused = 0usize;
        let mut distributed = 0usize;
        for r in &reports {
            if r.nests_total > 0 {
                ratio_sum += r.loopcost_ratio_final;
                count += 1;
            }
            permuted += r.nests_permuted;
            fused += r.nests_fused;
            distributed += r.distributions;
        }
        rows.push((
            name.to_string(),
            ratio_sum / count.max(1) as f64,
            permuted,
            fused,
            distributed,
        ));
    }
    let table = render_table(
        &[
            "variant",
            "avg LoopCost ratio",
            "permuted",
            "fused",
            "distributed",
        ],
        &rows
            .iter()
            .map(|(n, r, p, f, d)| {
                vec![
                    n.clone(),
                    format!("{r:.3}"),
                    p.to_string(),
                    f.to_string(),
                    d.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    (
        format!("Ablation — compound algorithm variants\n{table}"),
        rows,
    )
}
