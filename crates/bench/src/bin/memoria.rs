//! `memoria` — a command-line source-to-source locality optimizer, named
//! after the paper's implementation (the Memory Compiler in ParaScope).
//!
//! ```text
//! memoria INPUT.f [-o OUTPUT.f] [--cls ELEMS] [--stats] [--no-fusion]
//!         [--no-distribution] [--verify N] [--profile N]
//! ```
//!
//! Reads a Fortran-like program (see `cmt_ir::parse` for the grammar),
//! runs the compound transformation, and writes the optimized program.
//! `--profile N` first ranks the input's nests by sampled cache
//! simulation at parameter `N` (see `cmt_profile`), printing the
//! hotspot table on stderr — cheap guidance on where the misses are
//! before any transformation runs.

use cmt_interp::equivalent;
use cmt_ir::parse::parse_program;
use cmt_ir::pretty::program_to_source;
use cmt_locality::compound::{compound_with, CompoundOptions};
use cmt_locality::model::CostModel;
use cmt_locality::NullProvenance;
use cmt_obs::NullObs;
use cmt_verify::{verify_compound, VerifyOptions};
use std::process::ExitCode;

struct Args {
    input: String,
    output: Option<String>,
    cls: u32,
    stats: bool,
    opts: CompoundOptions,
    verify: Option<i64>,
    profile: Option<i64>,
    emit_deps: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: memoria INPUT.f [-o OUTPUT.f] [--cls ELEMS] [--stats] \
         [--no-fusion] [--no-distribution] [--no-reversal] [--verify N] \
         [--profile N] [--emit-deps FILE.dot]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        input: String::new(),
        output: None,
        cls: 4,
        stats: false,
        opts: CompoundOptions::default(),
        verify: None,
        profile: None,
        emit_deps: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => args.output = Some(it.next().unwrap_or_else(|| usage())),
            "--cls" => {
                args.cls = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--stats" => args.stats = true,
            "--no-fusion" => args.opts.fusion = false,
            "--no-distribution" => args.opts.distribution = false,
            "--no-reversal" => args.opts.reversal = false,
            "--emit-deps" => args.emit_deps = Some(it.next().unwrap_or_else(|| usage())),
            "--verify" => {
                args.verify = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--profile" => {
                args.profile = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "-h" | "--help" => usage(),
            _ if args.input.is_empty() && !a.starts_with('-') => args.input = a,
            _ => usage(),
        }
    }
    if args.input.is_empty() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let src = match std::fs::read_to_string(&args.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("memoria: cannot read {}: {e}", args.input);
            return ExitCode::FAILURE;
        }
    };
    let original = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("memoria: {}: {e}", args.input);
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.emit_deps {
        let graph = cmt_dependence::graph::analyze_nodes(original.body());
        let dot = cmt_dependence::dot::to_dot(&original, &graph);
        if let Err(e) = std::fs::write(path, dot) {
            eprintln!("memoria: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("memoria: dependence graph written to {path}");
    }

    if let Some(n) = args.profile {
        let opts = cmt_profile::ProfileOptions::default();
        match cmt_profile::profile_program(&original, n, &opts, &mut NullObs) {
            Ok(profile) => {
                let ranked =
                    cmt_profile::rank_hotspots(&[profile], &opts.policy.describe(), "i860", n);
                eprintln!("memoria: sampled hotspot ranking at N = {n}:");
                for e in &ranked.entries {
                    eprintln!(
                        "memoria:   #{} {} — est {} misses (rate {:.4})",
                        e.rank, e.nest, e.est_misses, e.est_miss_rate
                    );
                }
            }
            Err(e) => {
                eprintln!("memoria: profiling failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let model = CostModel::new(args.cls);
    let mut optimized = original.clone();
    // With --verify, every applied step is differentially checked as it
    // happens (array state, store/read sets, permutation legality), so
    // a divergence is pinned to the pass that introduced it; the
    // end-to-end equivalence run below stays as a second layer.
    let report = if let Some(n) = args.verify {
        let vopts = VerifyOptions {
            param_values: vec![n],
            check_legality: true,
        };
        let (report, verdict) =
            verify_compound(&mut optimized, &model, &args.opts, &vopts, &mut NullObs);
        if let Some(div) = verdict.divergences.first() {
            eprintln!("memoria: STEP VERIFICATION FAILED: {div}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "memoria: {} transformation step(s) differentially verified at N = {n}",
            verdict.steps_checked
        );
        report
    } else {
        compound_with(
            &mut optimized,
            &model,
            &args.opts,
            &mut NullObs,
            &mut NullProvenance,
            &model,
        )
    };

    if let Some(n) = args.verify {
        match equivalent(&original, &optimized, &[n]) {
            Ok(r) if r.equivalent => eprintln!("memoria: verified at N = {n}"),
            Ok(r) => {
                eprintln!("memoria: VERIFICATION FAILED: {:?}", r.first_diff);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("memoria: verification run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let out_src = program_to_source(&optimized);
    match &args.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &out_src) {
                eprintln!("memoria: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{out_src}"),
    }

    if args.stats {
        eprintln!(
            "memoria: {} nest(s): {} in memory order originally, {} permuted, {} failed",
            report.nests_total,
            report.nests_orig_memory_order,
            report.nests_permuted,
            report.nests_failed
        );
        eprintln!(
            "memoria: fused {} nest(s), distributed {} (→ {}), reversed {}",
            report.nests_fused, report.distributions, report.nests_resulting, report.reversals
        );
        eprintln!(
            "memoria: estimated LoopCost improvement {:.2}x (ideal {:.2}x)",
            report.loopcost_ratio_final, report.loopcost_ratio_ideal
        );
    }
    ExitCode::SUCCESS
}
