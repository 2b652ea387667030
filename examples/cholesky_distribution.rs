//! Figure 7 scenario: Cholesky factorization in KIJ form. Memory order is
//! KJI, unreachable by permutation alone; the compound algorithm
//! distributes the `I` loop (S2 and S3 are not in a recurrence at that
//! level) and then performs the *triangular* interchange on S3's copy.
//!
//! ```text
//! cargo run --release --example cholesky_distribution [N]
//! ```

use cmt_locality_repro::cache::{CacheConfig, CycleModel, ShardedCache};
use cmt_locality_repro::interp::{self, Layout};
use cmt_locality_repro::ir::pretty::program_to_string;
use cmt_locality_repro::locality::{compound::compound, model::CostModel};
use cmt_locality_repro::suite::kernels::cholesky_kij;

fn main() {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);

    let original = cholesky_kij();
    println!(
        "--- KIJ form (Figure 7a) ---\n{}",
        program_to_string(&original)
    );

    let model = CostModel::new(4);
    let nest = original.nests()[0];
    for e in model.analyze(&original, nest).entries {
        println!("LoopCost({}) = {}", original.var_name(e.var), e.cost);
    }

    let mut transformed = original.clone();
    let report = compound(&mut transformed, &model);
    println!(
        "\n--- after distribution + triangular interchange (Figure 7b) ---\n{}",
        program_to_string(&transformed)
    );
    println!(
        "distributions: {}, resulting nests: {}",
        report.distributions, report.nests_resulting
    );

    interp::assert_equivalent(&original, &transformed, &[40]);
    println!("semantics verified at N = 40\n");

    let cyc = CycleModel::default();
    for (label, p) in [("KIJ", &original), ("transformed", &transformed)] {
        let mut c = ShardedCache::new(CacheConfig::rs6000());
        let layout = Layout::new(p, &[n]).expect("allocation");
        layout.trace(p, &mut c).expect("execution");
        let s = c.stats();
        println!(
            "{label:<12} N={n}: hit rate {:.1}% (excl. cold), {} cycles",
            100.0 * s.hit_rate_excluding_cold(),
            cyc.cycles(&s)
        );
    }
}
