//! Long-running randomized safety driver: generate programs, run the
//! compound algorithm (and ablations), verify bit-exact equivalence.
//!
//! ```text
//! fuzz_compound [SEEDS] [--start S]
//! ```

use cmt_interp::equivalent;
use cmt_locality::compound::{compound_with, CompoundOptions};
use cmt_locality::model::CostModel;
use cmt_locality::NullProvenance;
use cmt_obs::NullObs;
use cmt_suite::generator::{generate, GenConfig};

fn main() {
    let mut seeds: u64 = 500;
    let mut start: u64 = 0;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--start" => start = it.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            s => seeds = s.parse().unwrap_or(seeds),
        }
    }

    let cfg = GenConfig::default();
    let model = CostModel::new(4);
    let variants = [
        CompoundOptions::default(),
        CompoundOptions {
            fusion: false,
            ..Default::default()
        },
        CompoundOptions {
            distribution: false,
            ..Default::default()
        },
    ];
    let mut failures = 0u64;
    for seed in start..start + seeds {
        let original = generate(seed, &cfg);
        for (vi, opts) in variants.iter().enumerate() {
            let mut p = original.clone();
            let _ = compound_with(
                &mut p,
                &model,
                opts,
                &mut NullObs,
                &mut NullProvenance,
                &model,
            );
            if let Err(e) = cmt_ir::validate::validate(&p) {
                eprintln!("seed {seed} variant {vi}: INVALID PROGRAM: {e}");
                failures += 1;
                continue;
            }
            match equivalent(&original, &p, &[9]) {
                Ok(r) if r.equivalent => {}
                Ok(r) => {
                    eprintln!("seed {seed} variant {vi}: MISCOMPARE {:?}", r.first_diff);
                    failures += 1;
                }
                Err(e) => {
                    eprintln!("seed {seed} variant {vi}: EXECUTION ERROR {e}");
                    failures += 1;
                }
            }
        }
        if (seed - start + 1).is_multiple_of(100) {
            println!("{} seeds checked, {failures} failure(s)", seed - start + 1);
        }
    }
    println!(
        "done: {seeds} seeds × {} variants, {failures} failure(s)",
        variants.len()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
