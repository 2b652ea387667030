//! `cmt-report` — render the markdown run report for one artifact set.
//!
//! ```text
//! cmt-report <name> [--dir DIR]
//! ```
//!
//! Joins `{dir}/{name}.remarks.jsonl`, `{dir}/{name}.metrics.json`, and
//! (when present) `{dir}/{name}.trace.json` and the file of every kind
//! in `cmt_bench::ARTIFACT_KINDS` into `{dir}/{name}.report.md`. `DIR`
//! defaults to the artifact directory (`$CMT_OBS_DIR`, or `results/`).
//! The report reads only deterministic fields, so it is byte-identical
//! across runs of the same workload.
//!
//! Exit codes: `0` report written, `1` report could not be written,
//! `2` usage error or missing/malformed input artifacts.

use cmt_bench::{render_report, ARTIFACT_KINDS, TRACE_SUFFIX};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: cmt-report <name> [--dir DIR]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut name: Option<String> = None;
    let mut dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dir" => match args.next() {
                Some(d) => dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ if name.is_none() => name = Some(a),
            _ => return usage(),
        }
    }
    let Some(name) = name else { return usage() };
    let dir = dir.unwrap_or_else(cmt_bench::artifact_dir);

    let read = |suffix: &str| -> Result<String, String> {
        let path = dir.join(format!("{name}.{suffix}"));
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let remarks = match read("remarks.jsonl") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cmt-report: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = match read("metrics.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cmt-report: {e}");
            return ExitCode::from(2);
        }
    };
    // The trace (only written under CMT_TRACE) and every artifact kind
    // (each written by one sweep or harness) are optional.
    let suffixes = ARTIFACT_KINDS.iter().map(|k| k.suffix());
    let optional: Vec<(&str, String)> = std::iter::once(TRACE_SUFFIX)
        .chain(suffixes)
        .filter_map(|suffix| read(suffix).ok().map(|text| (suffix, text)))
        .collect();
    let optional: Vec<(&str, &str)> = optional.iter().map(|(s, t)| (*s, t.as_str())).collect();

    match render_report(&name, &remarks, &metrics, &optional) {
        Ok(report) => {
            let path = dir.join(format!("{name}.report.md"));
            if let Err(e) = std::fs::write(&path, &report) {
                eprintln!("cmt-report: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("[obs] report:   {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            // render_report rejects malformed remarks/metrics/trace
            // JSON with a diagnostic instead of panicking mid-parse.
            eprintln!("cmt-report: {e}");
            ExitCode::from(2)
        }
    }
}
