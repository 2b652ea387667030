//! `obs_diff` — compare two runs' observability artifacts.
//!
//! ```text
//! obs_diff <baseline-dir> <current-dir> <name> [--threshold REL]
//! ```
//!
//! Diffs `{name}.metrics.json` (counter deltas and histogram-statistic
//! drift beyond `REL`, default 0.0) and `{name}.remarks.jsonl`
//! (new/vanished remark lines, order-insensitive) between the two
//! directories. Every optional artifact kind of
//! `cmt_bench::ARTIFACT_KINDS` (`profile.json`, `analytic.json`,
//! `explain.json`, `server.json`) participates through its own diff
//! when either side has one: absent on both sides is skipped, present
//! on one side is a finding. Wall-clock (`*.ns`) histograms are
//! excluded, and a kind's wall-clock fields (the server's p99 cold
//! latency) print as informational lines that never count. Prints one
//! line per finding.
//!
//! Exit codes: `0` no differences, `1` differences found, `2` usage
//! error or missing/malformed input artifacts — so CI gating on a
//! committed `results/baseline/` can tell "drift" apart from "broken
//! run".

use cmt_bench::ARTIFACT_KINDS;
use cmt_obs::{diff_metrics, diff_remarks, Findings};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: obs_diff <baseline-dir> <current-dir> <name> [--threshold REL]");
    ExitCode::from(2)
}

fn read(dir: &Path, name: &str, suffix: &str) -> Result<String, String> {
    let path = dir.join(format!("{name}.{suffix}"));
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let mut positional: Vec<String> = Vec::new();
    let mut threshold = 0.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threshold" => match args.next().and_then(|s| s.parse().ok()) {
                Some(t) => threshold = t,
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ => positional.push(a),
        }
    }
    let [baseline, current, name] = positional.as_slice() else {
        return usage();
    };
    let (baseline, current) = (Path::new(baseline), Path::new(current));

    let inputs = (|| -> Result<_, String> {
        Ok((
            read(baseline, name, "metrics.json")?,
            read(current, name, "metrics.json")?,
            read(baseline, name, "remarks.jsonl")?,
            read(current, name, "remarks.jsonl")?,
        ))
    })();
    let (bm, cm, br, cr) = match inputs {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_diff: {e}");
            return ExitCode::from(2);
        }
    };

    let findings = (|| -> Result<Findings, String> {
        let mut f = Findings::default();
        f.deterministic.extend(
            diff_metrics(&bm, &cm, threshold)?
                .into_iter()
                .map(|d| d.to_string()),
        );
        f.deterministic
            .extend(diff_remarks(&br, &cr)?.into_iter().map(|d| d.to_string()));
        for kind in ARTIFACT_KINDS {
            let b = read(baseline, name, kind.suffix()).ok();
            let c = read(current, name, kind.suffix()).ok();
            let found = kind.diff(b.as_deref(), c.as_deref(), threshold)?;
            f.deterministic.extend(found.deterministic);
            f.informational.extend(found.informational);
        }
        Ok(f)
    })();
    match findings {
        Ok(f) => {
            for line in &f.deterministic {
                println!("{line}");
            }
            for line in &f.informational {
                println!("{line} (informational, not counted)");
            }
            if f.deterministic.is_empty() {
                println!("obs_diff: {name}: no differences (threshold {threshold})");
                ExitCode::SUCCESS
            } else {
                println!("obs_diff: {name}: {} difference(s)", f.deterministic.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            // Malformed JSON/JSONL is a broken artifact, not a diff.
            eprintln!("obs_diff: {e}");
            ExitCode::from(2)
        }
    }
}
