//! `cmt-explain` — decision provenance and oracle-disagreement sweep.
//!
//! ```text
//! cmt-explain [--seeds N] [--no-kernels] [--n N] [--margin-tie X]
//!             [--name NAME] [--bench-json PATH]
//! ```
//!
//! Runs the compound driver twice over the first `--seeds`
//! verify-corpus programs plus the paper kernels — once ranked by the
//! paper's `LoopCost`, once by the analytic engine — capturing every
//! permutation/fusion/distribution `DecisionRecord`, joining the two
//! provenance streams, and simulating both transformed corpora so each
//! oracle's regret is measured against the per-program best-of-both.
//! Every nest of the *original* corpus is additionally predicted with
//! per-correction attribution and simulated on all three geometries,
//! decomposing the analytic-vs-simulated error into named terms.
//!
//! Artifacts: the full joined record goes to `{name}.explain.json`
//! (plus the usual remarks/metrics, and a trace under `CMT_TRACE`);
//! the summary goes to `--bench-json` — the committed
//! `BENCH_explain.json`. Decision trees for the paper kernels print to
//! stdout.
//!
//! Gates (deterministic — never wall-clock), the constants of
//! `ExplainReport`'s artifact gate:
//!
//! * oracle disagreement rate ≤ 0.20;
//! * `LoopCost` regret vs best-of-both ≤ 0.05.
//!
//! The committed `BENCH_explain.json` is held to the same gate by a
//! tier-1 test.
//!
//! Exit codes: `0` ok, `1` gate failure, `2` usage or artifact error.

use cmt_bench::ExplainSweepConfig;
use cmt_bench::{explain_corpus, explain_sweep, render_decision_tree, ExplainReport};
use cmt_obs::{Artifact, CollectSink, TraceSession};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cmt-explain [--seeds N] [--no-kernels] [--n N] [--margin-tie X] \
         [--name NAME] [--bench-json PATH]"
    );
    ExitCode::from(2)
}

struct Args {
    cfg: ExplainSweepConfig,
    name: String,
    bench_json: Option<String>,
}

fn parse_args() -> Result<Args, ()> {
    let mut cfg = ExplainSweepConfig::default();
    let mut name = "explain_corpus".to_string();
    let mut bench_json = None;
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>| args.next().ok_or(());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => cfg.seeds = value(&mut args)?.parse().map_err(|_| ())?,
            "--no-kernels" => cfg.kernels = false,
            "--n" => cfg.n = value(&mut args)?.parse().map_err(|_| ())?,
            "--margin-tie" => cfg.margin_tie = value(&mut args)?.parse().map_err(|_| ())?,
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

fn print_summary(report: &ExplainReport) {
    println!(
        "decisions {}  joined {}  disagreements {} ({:.1}%)  near-ties {} ({:.1}%)",
        report.decisions,
        report.joined,
        report.disagreements,
        100.0 * report.disagreement_rate,
        report.near_ties,
        100.0 * report.near_tie_rate,
    );
    println!(
        "misses: loopcost {}  analytic {}  best {}  regret: loopcost {:.4}  analytic {:.4}",
        report.loopcost_misses,
        report.analytic_misses,
        report.best_misses,
        report.loopcost_regret,
        report.analytic_regret,
    );
    println!("geometry               nests  predicted   simulated  self-int  rescue  cross");
    for a in &report.attribution {
        println!(
            "{:<22} {:>5}  {:>9}  {:>10}  {:>8.0}  {:>6.0}  {:>5.0}",
            a.cache,
            a.nests,
            a.predicted,
            a.simulated,
            a.self_interference,
            a.cliff_rescue,
            a.cross
        );
    }
}

fn main() -> ExitCode {
    let Ok(args) = parse_args() else {
        return usage();
    };
    let cfg = args.cfg;

    let programs = explain_corpus(&cfg);
    println!(
        "cmt-explain: {} programs ({} seeds{}) at n={}, 2 oracles, 3 geometries",
        programs.len(),
        cfg.seeds,
        if cfg.kernels { " + paper kernels" } else { "" },
        cfg.n,
    );

    let mut sink = CollectSink::new();
    let mut session = cmt_bench::trace_enabled().then(TraceSession::new);
    let t0 = Instant::now();
    let (doc, report) = match explain_sweep(&programs, &cfg, &mut sink, session.as_mut()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmt-explain: {e}");
            return ExitCode::from(2);
        }
    };
    let secs = t0.elapsed().as_secs_f64();

    // Decision trees for the paper kernels (the human-readable view).
    for p in programs.iter().skip(cfg.seeds) {
        print!("{}", render_decision_tree(p.name(), &doc.decisions));
    }
    print_summary(&report);
    // Wall-clock is informational only — the documents and every gate
    // are deterministic.
    println!(
        "explained {} decisions across {} programs in {:.1}s",
        report.decisions,
        programs.len(),
        secs
    );

    match cmt_bench::write(&args.name, &doc) {
        Ok(p) => println!("[obs] explain:  {}", p.display()),
        Err(e) => {
            eprintln!("cmt-explain: {e}");
            return ExitCode::from(2);
        }
    }
    if let Err(e) = cmt_bench::emit(&args.name, &sink.remarks, &sink.metrics, session.as_ref()) {
        eprintln!("cmt-explain: {e}");
        return ExitCode::from(2);
    }
    if let Some(path) = &args.bench_json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cmt-explain: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("[obs] bench:    {path}");
    }

    let violations = report.gate();
    for v in &violations {
        eprintln!("cmt-explain: GATE: {v}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
