//! Compile-time cost of the optimizer itself — the paper argues its
//! single-evaluation approach beats enumerating n! permutations; these
//! benches measure the analysis and the full compound pass.

use cmt_bench::timing::bench;
use cmt_locality::{compound::compound, model::CostModel};
use cmt_suite::{kernels, suite};
use std::hint::black_box;

fn main() {
    let model = CostModel::new(4);

    {
        let p = kernels::matmul("IJK");
        bench("loopcost_matmul", 200, || {
            let costs = model.analyze(black_box(&p), p.nests()[0]);
            black_box(&costs);
        });
    }

    {
        let p = kernels::cholesky_kij();
        bench("compound_cholesky", 100, || {
            let mut work = p.clone();
            black_box(compound(&mut work, &model));
        });
    }

    {
        // The §2 comparison: prior work's n! evaluation vs our single
        // evaluation (`loopcost_matmul` above is the latter's cost).
        use cmt_locality::exhaustive::best_permutation_exhaustive;
        let p = kernels::matmul("IJK");
        bench("exhaustive_baseline_matmul", 100, || {
            let r = best_permutation_exhaustive(black_box(&p), p.nests()[0], &model);
            black_box(&r);
        });
    }

    {
        let models = suite();
        bench("compound_full_suite", 20, || {
            let mut total = 0usize;
            for m in &models {
                let mut p = m.optimized.clone();
                let r = compound(&mut p, &model);
                total += r.nests_total;
            }
            black_box(total);
        });
    }
}
