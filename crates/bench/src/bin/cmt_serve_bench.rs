//! `cmt-serve-bench` — deterministic load harness for the optimization
//! service.
//!
//! ```text
//! cmt-serve-bench [--seeds N] [--no-kernels] [--clients C] [--passes P]
//!                 [--n N] [--fault-seed S] [--hot PCT] [--mix-seed S]
//!                 [--connect HOST:PORT] [--bench-json PATH]
//!                 [--artifact NAME] [--check PATH]
//! ```
//!
//! Replays the verify corpus (plus the paper kernels) against a server —
//! an in-process one by default, or a running `cmt-serve` via
//! `--connect` — and prints the report. `--bench-json PATH` writes it
//! as a `BENCH_server.json` document (nothing is written without it, so
//! a casual run never rewrites the committed baseline). `--artifact
//! NAME` writes `{artifact_dir}/NAME.server.json` for `cmt-report` /
//! `obs_diff`.
//!
//! Gates (any failure exits 1), constants of `ServerBenchReport`:
//! * always, the report's artifact gate: zero malformed replies and
//!   zero transport failures — every request must get a structured
//!   answer — and, when a replay pass ran, a second-pass memo hit rate
//!   ≥ 0.5 (`MIN_HIT_RATE`);
//! * `--check PATH`: deterministic fields must match the committed
//!   report within 0.05 (`CHECK_THRESHOLD`); wall-clock latency
//!   findings are informational only and printed without failing the
//!   gate.
//!
//! Exit codes: `0` all gates pass, `1` a gate failed, `2` usage error.

use cmt_bench::{run_serve_bench, ServeBenchConfig, ServeTransport, ServerBenchReport};
use cmt_obs::Artifact;
use cmt_serve::ServeConfig;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cmt-serve-bench [--seeds N] [--no-kernels] [--clients C] [--passes P] \
         [--n N] [--fault-seed S] [--hot PCT] [--mix-seed S] [--connect HOST:PORT] \
         [--bench-json PATH] [--artifact NAME] [--check PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cfg = ServeBenchConfig::default();
    let mut connect: Option<String> = None;
    let mut bench_json: Option<String> = None;
    let mut artifact: Option<String> = None;
    let mut check: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        let r = (|| -> Result<(), String> {
            let num = |s: String| -> Result<u64, String> {
                s.parse().map_err(|_| format!("bad number {s}"))
            };
            match a.as_str() {
                "--seeds" => cfg.seeds = num(val("--seeds")?)? as usize,
                "--no-kernels" => cfg.kernels = false,
                "--clients" => cfg.clients = (num(val("--clients")?)? as usize).max(1),
                "--passes" => cfg.passes = (num(val("--passes")?)? as usize).max(1),
                "--n" => cfg.n = (num(val("--n")?)? as i64).max(1),
                "--fault-seed" => cfg.fault_seed = Some(num(val("--fault-seed")?)?),
                "--hot" => cfg.hot_percent = num(val("--hot")?)?.min(100) as u32,
                "--mix-seed" => cfg.mix_seed = num(val("--mix-seed")?)?,
                "--connect" => connect = Some(val("--connect")?),
                "--bench-json" => bench_json = Some(val("--bench-json")?),
                "--artifact" => artifact = Some(val("--artifact")?),
                "--check" => check = Some(val("--check")?),
                "--help" | "-h" => return Err("help".to_string()),
                other => return Err(format!("unknown flag {other}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            if e != "help" {
                eprintln!("cmt-serve-bench: {e}");
            }
            return usage();
        }
    }

    let transport = match connect {
        Some(addr) => ServeTransport::Connect(addr),
        None => ServeTransport::InProcess(ServeConfig::default()),
    };
    let report = match run_serve_bench(&cfg, &transport) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmt-serve-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "[serve-bench] {} requests: {} ok ({} cached / {} simulated / {} analytic), \
         {} overloaded, {} errors, {} degraded",
        report.requests,
        report.ok,
        report.cached,
        report.simulated,
        report.analytic,
        report.overloaded,
        report.errors,
        report.degraded,
    );
    println!(
        "[serve-bench] second pass: {}/{} cached (hit rate {:.3}); latency p50 {:.0}us p99 {:.0}us (cold p99 {:.0}us)",
        report.second_pass_cached,
        report.second_pass_requests,
        report.hit_rate_second_pass(),
        report.p50_us,
        report.p99_us,
        report.p99_cold_us,
    );

    if let Some(path) = bench_json {
        if let Some(parent) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cmt-serve-bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("[serve-bench] report: {path}");
    }
    if let Some(name) = artifact {
        match cmt_bench::write(&name, &report) {
            Ok(p) => println!("[serve-bench] artifact: {}", p.display()),
            Err(e) => {
                eprintln!("cmt-serve-bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failed = false;
    for v in report.gate() {
        eprintln!("cmt-serve-bench: GATE FAILED: {v}");
        failed = true;
    }
    if let Some(path) = check {
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|t| ServerBenchReport::parse(&t));
        match baseline {
            Ok(baseline) => {
                let findings = baseline.diff(&report, ServerBenchReport::CHECK_THRESHOLD);
                for finding in findings.informational {
                    println!("[serve-bench] info {finding}");
                }
                for finding in findings.deterministic {
                    eprintln!("cmt-serve-bench: GATE FAILED: {finding}");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("cmt-serve-bench: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
