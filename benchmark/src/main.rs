//! `cmt-benchmark`: runs the benchmark workloads, each in a child
//! process of its own with `CMT_JOBS=1`, and prints every metric as
//! `workload metric value unit`, then the workload's one-line JSON
//! result.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1 --trace
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_hot --seed 2 --seconds 20 --trace 0
//! ```
//!
//! `--trace` reports per-layer metrics instead of end-to-end ones and
//! writes `benchmark/out/<workload>.trace.json`. `--bless` rewrites the
//! expected outputs under `benchmark/expected/` from the last pass of a
//! shortest run.

use cmt_benchmark::{expected_path, out_dir, run, Config, WORKLOADS};
use std::process::{Command, ExitCode};

/// Marks the child process that runs one workload.
const CHILD_ENV: &str = "CMT_BENCHMARK_CHILD";
/// A child that printed its result but found wrong outputs.
const EXIT_WRONG: u8 = 1;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; expected one of {WORKLOADS:?}"
                    ));
                }
                args.workloads.push(w);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err("--seconds must be >= 0".to_string());
                }
            }
            "--trace" => {
                let explicit = it.peek().and_then(|v| match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                });
                args.trace = explicit.unwrap_or(true);
                if explicit.is_some() {
                    it.next();
                }
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result.
fn child(args: &Args) -> ExitCode {
    let [workload] = args.workloads.as_slice() else {
        eprintln!("cmt-benchmark: a child runs exactly one workload");
        return ExitCode::from(2);
    };
    let cfg = Config {
        seed: args.seed,
        seconds: if args.bless { 0.0 } else { args.seconds },
        trace: args.trace,
        smoke: false,
    };
    let outcome = match run(workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cmt-benchmark: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        let path = expected_path(workload);
        let text = outcome.outputs.join("\n") + "\n";
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cmt-benchmark: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("blessed {}", path.display());
        return ExitCode::SUCCESS;
    }
    if let Some(json) = &outcome.trace_json {
        let dir = out_dir();
        let path = dir.join(format!("{workload}.trace.json"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("cmt-benchmark: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for line in outcome.lines() {
        println!("{line}");
    }
    println!("{}", outcome.result_json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_WRONG)
    }
}

/// Runs `workload` in a child process; a child that crashes counts as
/// one failed unit of that workload.
fn spawn(workload: &str, args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cmt-benchmark: locating own executable: {e}");
            return false;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .env(CHILD_ENV, "1")
        .env("CMT_JOBS", "1")
        // glibc otherwise adds per-thread heaps when threads contend for
        // the allocator, so the server workload's peak RSS would depend
        // on thread timing.
        .env("MALLOC_ARENA_MAX", "1")
        .env("CMT_OBS_DIR", out_dir())
        .env_remove("CMT_SHARDS")
        .env_remove("CMT_COST")
        .env_remove("CMT_TRACE");
    if args.bless {
        cmd.arg("--bless");
    }
    let status = cmd.status();
    match status.as_ref().map(|s| s.code()) {
        Ok(Some(0)) => true,
        Ok(Some(code)) if code == i32::from(EXIT_WRONG) => false,
        _ => {
            eprintln!("cmt-benchmark: {workload} did not finish: {status:?}");
            println!("{workload} failed 1 of 1");
            println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cmt-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os(CHILD_ENV).is_some() {
        return child(&args);
    }
    let mut ok = true;
    for w in &args.workloads {
        ok &= spawn(w, &args);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
