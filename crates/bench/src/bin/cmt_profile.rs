//! `cmt-profile` — profile-directed escalation over the corpus.
//!
//! ```text
//! cmt-profile [--seeds N] [--no-kernels] [--n N] [--top K]
//!             [--stride K | --first-n N | --full]
//!             [--no-optimize] [--check] [--name NAME] [--bench-json PATH]
//! ```
//!
//! Sweeps the first `--seeds` verify-corpus programs plus the paper
//! kernels under sampled cache simulation, writes the ranked hotspot
//! profile to `{name}.profile.json` (plus the usual remarks/metrics
//! artifacts, and a trace under `CMT_TRACE`), and escalates the top-K
//! nests: full-simulation confirm, then one supervised optimization
//! run per flagged program.
//!
//! Gates (deterministic — they fail on sampling accuracy or sampled
//! work volume, never on wall-clock), constants of `HotspotProfile`:
//!
//! * always: the profile's artifact gate — sampled fraction of corpus
//!   accesses ≤ 0.10 (`MAX_SAMPLED_FRACTION`; policy `--full` exempt);
//! * with `--check`: top-K agreement with a full-simulation ground
//!   truth ranking ≥ 1.0 (`MIN_TOP_K_AGREEMENT`).
//!
//! `--bench-json` additionally records wall-clock for the sampled and
//! (under `--check`) full passes — informational, like the committed
//! `BENCH_profile.json`.
//!
//! Exit codes: `0` ok, `1` gate failure, `2` usage or artifact error.

use cmt_bench::{profile_sweep, sweep_corpus, SweepConfig, SweepResult};
use cmt_obs::json::ObjectWriter;
use cmt_obs::{Artifact, CollectSink, TraceSession};
use cmt_profile::{HotspotProfile, SamplePolicy};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cmt-profile [--seeds N] [--no-kernels] [--n N] [--top K] \
         [--stride K | --first-n N | --full] [--no-optimize] [--check] \
         [--name NAME] [--bench-json PATH]"
    );
    ExitCode::from(2)
}

struct Args {
    cfg: SweepConfig,
    name: String,
    bench_json: Option<String>,
}

fn parse_args() -> Result<Args, ()> {
    let mut cfg = SweepConfig::default();
    let mut name = "profile_corpus".to_string();
    let mut bench_json = None;
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>| args.next().ok_or(());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => cfg.seeds = value(&mut args)?.parse().map_err(|_| ())?,
            "--no-kernels" => cfg.kernels = false,
            "--n" => cfg.n = value(&mut args)?.parse().map_err(|_| ())?,
            "--top" => cfg.top_k = value(&mut args)?.parse().map_err(|_| ())?,
            "--stride" => {
                let stride = value(&mut args)?.parse().map_err(|_| ())?;
                cfg.policy = match cfg.policy {
                    SamplePolicy::EveryKth { window, seed, .. } => SamplePolicy::EveryKth {
                        stride,
                        window,
                        seed,
                    },
                    _ => SamplePolicy::EveryKth {
                        stride,
                        window: cmt_profile::DEFAULT_WINDOW,
                        seed: cmt_profile::DEFAULT_SEED,
                    },
                };
            }
            "--first-n" => {
                cfg.policy = SamplePolicy::FirstN {
                    n: value(&mut args)?.parse().map_err(|_| ())?,
                }
            }
            "--full" => cfg.policy = SamplePolicy::Full,
            "--no-optimize" => cfg.optimize = false,
            "--check" => cfg.check = true,
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

fn bench_json_doc(
    cfg: &SweepConfig,
    result: &SweepResult,
    sampled_secs: f64,
    programs: usize,
) -> String {
    let mut w = ObjectWriter::new();
    w.field_str("bench", "profile");
    w.field_u64("seeds", cfg.seeds as u64);
    w.field_u64("programs", programs as u64);
    w.field_u64("nests", result.nests as u64);
    w.field_raw("n", &cfg.n.to_string());
    w.field_str("policy", &cfg.policy.describe());
    w.field_u64("accesses_total", result.accesses_total);
    w.field_u64("accesses_sampled", result.accesses_sampled);
    w.field_raw(
        "sampled_fraction",
        &format!("{:.6}", result.hotspots.sampled_fraction()),
    );
    // Wall-clock is informational only — gates never read it.
    w.field_raw("sampled_seconds", &format!("{sampled_secs:.3}"));
    if let Some(a) = &result.agreement {
        w.field_u64("top_k", a.top_k as u64);
        w.field_raw("top_k_agreement", &format!("{:.6}", a.top_k_agreement));
        w.field_raw("kendall_tau", &format!("{:.6}", a.kendall_tau));
    }
    w.field_u64("escalated", result.outcomes.len() as u64);
    w.field_u64(
        "optimized",
        result.outcomes.iter().filter(|o| o.optimized).count() as u64,
    );
    w.finish() + "\n"
}

fn main() -> ExitCode {
    let Ok(args) = parse_args() else {
        return usage();
    };
    let cfg = args.cfg;
    cmt_resilience::silence_supervised_panics();

    let programs = sweep_corpus(&cfg);
    println!(
        "cmt-profile: {} programs ({} seeds{}) at n={}, policy {}",
        programs.len(),
        cfg.seeds,
        if cfg.kernels { " + paper kernels" } else { "" },
        cfg.n,
        cfg.policy.describe()
    );

    let mut sink = CollectSink::new();
    let mut session = cmt_bench::trace_enabled().then(TraceSession::new);
    let t0 = Instant::now();
    let result = match profile_sweep(&programs, &cfg, &mut sink, session.as_mut()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmt-profile: {e}");
            return ExitCode::from(2);
        }
    };
    let sampled_secs = t0.elapsed().as_secs_f64();

    // Top of the ranking, escalation decisions inline.
    println!("rank  est-misses  miss-rate  escalated  nest");
    for e in result.hotspots.entries.iter().take(cfg.top_k.max(10)) {
        println!(
            "{:>4}  {:>10}  {:>9.4}  {:>9}  {}",
            e.rank,
            e.est_misses,
            e.est_miss_rate,
            if e.escalated { "yes" } else { "no" },
            e.nest
        );
    }
    for o in &result.outcomes {
        println!(
            "[escalate] #{} {}: est {} full {} optimized={} committed={} steps={}",
            o.rank,
            o.nest,
            o.est_misses,
            o.full_misses,
            o.optimized,
            o.committed,
            o.steps_committed
        );
    }
    println!(
        "sampled {} of {} accesses ({:.2}%) across {} nests",
        result.accesses_sampled,
        result.accesses_total,
        result.hotspots.sampled_fraction() * 100.0,
        result.nests
    );

    // Artifacts: profile.json + remarks/metrics (+ trace).
    match cmt_bench::write(&args.name, &result.hotspots) {
        Ok(p) => println!("[obs] profile:  {}", p.display()),
        Err(e) => {
            eprintln!("cmt-profile: {e}");
            return ExitCode::from(2);
        }
    }
    if let Err(e) = cmt_bench::emit(&args.name, &sink.remarks, &sink.metrics, session.as_ref()) {
        eprintln!("cmt-profile: {e}");
        return ExitCode::from(2);
    }
    if let Some(path) = &args.bench_json {
        let doc = bench_json_doc(&cfg, &result, sampled_secs, programs.len());
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cmt-profile: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("[obs] bench:    {path}");
    }

    // Deterministic gates.
    let mut violations = result.hotspots.gate();
    if let Some(a) = &result.agreement {
        println!(
            "check: top-{} agreement {:.3}, kendall tau {:.3} vs full simulation",
            a.top_k, a.top_k_agreement, a.kendall_tau
        );
        if a.top_k_agreement < HotspotProfile::MIN_TOP_K_AGREEMENT {
            violations.push(format!(
                "top-{} agreement {:.3} below {}",
                a.top_k,
                a.top_k_agreement,
                HotspotProfile::MIN_TOP_K_AGREEMENT
            ));
        }
    }
    for v in &violations {
        eprintln!("cmt-profile: GATE: {v}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
