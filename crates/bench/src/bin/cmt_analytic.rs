//! `cmt-analytic` — differential accuracy check of the analytical
//! locality engine against full cache simulation.
//!
//! ```text
//! cmt-analytic [--seeds N] [--no-kernels] [--n N] [--top K]
//!              [--name NAME] [--bench-json PATH]
//! ```
//!
//! Predicts every nest of the first `--seeds` verify-corpus programs
//! plus the paper kernels with `cmt_analytic::MissModel`, simulates the
//! same corpus in full on every supported geometry (RS/6000, i860,
//! DECstation), and writes the per-geometry agreement report to
//! `{name}.analytic.json` (plus the usual remarks/metrics artifacts,
//! and a trace under `CMT_TRACE`).
//!
//! Gates (deterministic — never wall-clock), the constants of
//! `AnalyticReport`'s artifact gate:
//!
//! * top-`K` hotspot-ranking agreement ≥ 0.9 on **every** geometry;
//! * mean per-nest relative miss error ≤ 0.25 on every geometry.
//!
//! `--bench-json` writes the same deterministic report document to an
//! extra path — the committed `BENCH_analytic.json`, whose gate a
//! tier-1 test checks.
//!
//! Exit codes: `0` ok, `1` gate failure, `2` usage or artifact error.

use cmt_bench::{analytic_corpus, analytic_sweep, AnalyticSweepConfig};
use cmt_obs::{Artifact, CollectSink, TraceSession};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cmt-analytic [--seeds N] [--no-kernels] [--n N] [--top K] \
         [--name NAME] [--bench-json PATH]"
    );
    ExitCode::from(2)
}

struct Args {
    cfg: AnalyticSweepConfig,
    name: String,
    bench_json: Option<String>,
}

fn parse_args() -> Result<Args, ()> {
    let mut cfg = AnalyticSweepConfig::default();
    let mut name = "analytic_corpus".to_string();
    let mut bench_json = None;
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>| args.next().ok_or(());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => cfg.seeds = value(&mut args)?.parse().map_err(|_| ())?,
            "--no-kernels" => cfg.kernels = false,
            "--n" => cfg.n = value(&mut args)?.parse().map_err(|_| ())?,
            "--top" => cfg.top_k = value(&mut args)?.parse().map_err(|_| ())?,
            "--name" => name = value(&mut args)?,
            "--bench-json" => bench_json = Some(value(&mut args)?),
            _ => return Err(()),
        }
    }
    Ok(Args {
        cfg,
        name,
        bench_json,
    })
}

fn main() -> ExitCode {
    let Ok(args) = parse_args() else {
        return usage();
    };
    let cfg = args.cfg;

    let programs = analytic_corpus(&cfg);
    println!(
        "cmt-analytic: {} programs ({} seeds{}) at n={}, 3 geometries",
        programs.len(),
        cfg.seeds,
        if cfg.kernels { " + paper kernels" } else { "" },
        cfg.n,
    );

    let mut sink = CollectSink::new();
    let mut session = cmt_bench::trace_enabled().then(TraceSession::new);
    let t0 = Instant::now();
    let report = match analytic_sweep(&programs, &cfg, &mut sink, session.as_mut()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmt-analytic: {e}");
            return ExitCode::from(2);
        }
    };
    let secs = t0.elapsed().as_secs_f64();

    println!(
        "geometry               nests  pred-misses   sim-misses  mean-err  top-{}  tau",
        cfg.top_k
    );
    for g in &report.geometries {
        println!(
            "{:<22} {:>5}  {:>11}  {:>11}  {:>8.4}  {:>5.3}  {:>6.3}",
            g.cache,
            g.nests,
            g.predicted_misses,
            g.simulated_misses,
            g.mean_rel_error,
            g.top_k_agreement,
            g.kendall_tau
        );
        println!(
            "  worst nest: {} (rel error {:.4})",
            g.worst_nest, g.worst_rel_error
        );
    }
    // Wall-clock is informational only — the report document and every
    // gate are deterministic.
    println!(
        "predicted + simulated {} nests x 3 geometries in {:.1}s",
        report.nests, secs
    );

    match cmt_bench::write(&args.name, &report) {
        Ok(p) => println!("[obs] analytic: {}", p.display()),
        Err(e) => {
            eprintln!("cmt-analytic: {e}");
            return ExitCode::from(2);
        }
    }
    if let Err(e) = cmt_bench::emit(&args.name, &sink.remarks, &sink.metrics, session.as_ref()) {
        eprintln!("cmt-analytic: {e}");
        return ExitCode::from(2);
    }
    if let Some(path) = &args.bench_json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cmt-analytic: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("[obs] bench:    {path}");
    }

    // Deterministic gates, every geometry.
    let violations = report.gate();
    for v in &violations {
        eprintln!("cmt-analytic: GATE: {v}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
