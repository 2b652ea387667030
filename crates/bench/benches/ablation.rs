//! Timing of the compound algorithm with passes disabled — what each
//! transformation costs at compile time (the quality ablation lives in
//! the `ablation_table` binary).

use cmt_bench::timing::bench;
use cmt_locality::compound::{compound_with, CompoundOptions};
use cmt_locality::model::CostModel;
use cmt_locality::NullProvenance;
use cmt_obs::NullObs;
use cmt_suite::suite;
use std::hint::black_box;

fn main() {
    let model = CostModel::new(4);
    let models = suite();
    let variants: [(&str, CompoundOptions); 4] = [
        ("full", CompoundOptions::default()),
        (
            "no_fusion",
            CompoundOptions {
                fusion: false,
                ..Default::default()
            },
        ),
        (
            "no_distribution",
            CompoundOptions {
                distribution: false,
                ..Default::default()
            },
        ),
        (
            "permutation_only",
            CompoundOptions {
                fusion: false,
                distribution: false,
                reversal: false,
            },
        ),
    ];
    println!("compound_ablation (full suite per iteration)");
    for (name, opts) in variants {
        bench(&format!("compound_ablation/{name}"), 10, || {
            let mut total = 0usize;
            for m in &models {
                let mut p = m.optimized.clone();
                let r = compound_with(
                    &mut p,
                    &model,
                    &opts,
                    &mut NullObs,
                    &mut NullProvenance,
                    &model,
                );
                total += r.nests_permuted + r.nests_fused;
            }
            black_box(total);
        });
    }
}
