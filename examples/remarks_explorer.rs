//! Explore the optimizer's decisions as an LLVM-`-Rpass`-style remark
//! stream: parse each Fortran-like corpus file, run the paper's compile
//! path (compound, then scalar replacement) with an observing sink, and
//! print every Applied / Missed / Analysis remark with its reason and
//! LoopCost evidence.
//!
//! ```text
//! cargo run --release --example remarks_explorer [file.f ...]
//! ```
//!
//! Without arguments, every file in `tests/corpus/` is processed. Pass
//! `--jsonl` to print the machine-readable stream instead of the
//! human-readable one, and `--profile N` to first rank each program's
//! nests by sampled cache simulation at parameter `N` — the
//! `profile.hotspot` remarks then appear alongside the pass remarks.
//! `--analytic N` instead (or additionally) predicts each nest's miss
//! count symbolically with the analytic engine — no simulation — and
//! interleaves the `analytic` remarks into the same stream.
//! `--explain` additionally prints the decision-provenance records the
//! passes captured — per-candidate oracle costs, the legality verdict
//! with the constraining dependence vector on rejection, and the win
//! margin (as `decisions.jsonl` lines under `--jsonl`).

use cmt_locality_repro::analytic::{predict_program, MissModel};
use cmt_locality_repro::cache::CacheConfig;
use cmt_locality_repro::ir::parse::parse_program;
use cmt_locality_repro::locality::scalar::scalar_replace_observed;
use cmt_locality_repro::locality::{compound_with, CostModel, NullProvenance};
use cmt_locality_repro::obs::{CollectSink, SpanTimer};
use cmt_locality_repro::profile::{profile_program, rank_hotspots, ProfileOptions};
use std::path::PathBuf;

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "f"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn main() {
    let mut jsonl = false;
    let mut explain = false;
    let mut profile_n: Option<i64> = None;
    let mut analytic_n: Option<i64> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jsonl" {
            jsonl = true;
        } else if arg == "--explain" {
            explain = true;
        } else if arg == "--profile" {
            profile_n = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--profile needs a parameter value N");
                std::process::exit(2)
            }));
        } else if arg == "--analytic" {
            analytic_n = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--analytic needs a parameter value N");
                std::process::exit(2)
            }));
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    if files.is_empty() {
        files = corpus_files();
    }
    if files.is_empty() {
        eprintln!("no corpus files found and none given");
        std::process::exit(1);
    }

    for path in &files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping {}: {e}", path.display());
                continue;
            }
        };
        let mut program = match parse_program(&src) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("skipping {}: parse error: {e}", path.display());
                continue;
            }
        };

        let mut sink = CollectSink::new();
        // Sampled hotspot ranking first, so the `profile.hotspot`
        // remarks lead the stream: what the misses are, then what the
        // pipeline did about them.
        if let Some(n) = profile_n {
            let opts = ProfileOptions::default();
            match profile_program(&program, n, &Default::default(), &mut sink) {
                Ok(profile) => {
                    rank_hotspots(&[profile], &opts.policy.describe(), "i860", n)
                        .emit_remarks(&mut sink);
                }
                Err(e) => eprintln!("profiling {}: {e}", path.display()),
            }
        }
        // Analytic predictions: same `analytic` remarks as `cmt-analytic`,
        // but from the IR alone — compare them against the simulated
        // `profile.hotspot` stream above to see the model's accuracy.
        if let Some(n) = analytic_n {
            let model = MissModel::new(CacheConfig::i860());
            let _ = predict_program(&program, n, &model, &mut sink);
        }
        let model = CostModel::new(4);
        let timer = SpanTimer::start();
        let r = compound_with(
            &mut program,
            &model,
            &Default::default(),
            &mut sink,
            &mut NullProvenance,
            &model,
        );
        let compound_ns = timer.elapsed_ns();
        let timer = SpanTimer::start();
        let s = scalar_replace_observed(&mut program, &mut sink);
        let scalar_ns = timer.elapsed_ns();

        if jsonl {
            print!("{}", sink.remarks_jsonl());
            if explain {
                print!("{}", sink.decisions_jsonl());
            }
            continue;
        }

        println!("=== {} ({})", path.display(), program.name());
        println!(
            "  pass compound       {compound_ns:>9} ns  {} nests: {} orig / {} permuted / {} failed; \
             fused {}, distributed {}",
            r.nests_total,
            r.nests_orig_memory_order,
            r.nests_permuted,
            r.nests_failed,
            r.nests_fused,
            r.distributions
        );
        println!(
            "  pass scalar-replace {scalar_ns:>9} ns  hoisted {} invariant load(s)",
            s.replaced
        );
        for remark in &sink.remarks {
            println!("  {remark}");
        }
        if explain {
            for d in &sink.decisions {
                println!("  {d}");
            }
        }
        println!();
    }
}
