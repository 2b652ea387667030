//! Figure 3 scenario: a Fortran-90 ADI integration scalarized into
//! separate loops, rescued by loop fusion + interchange.
//!
//! The compound algorithm discovers the whole sequence itself: it fuses
//! the two inner `K` sweeps (making the nest perfect) and then
//! interchanges to put `I` innermost.
//!
//! ```text
//! cargo run --release --example adi_fusion [N]
//! ```

use cmt_locality_repro::cache::{CacheConfig, CycleModel, ShardedCache};
use cmt_locality_repro::interp::{self, Layout};
use cmt_locality_repro::ir::pretty::program_to_string;
use cmt_locality_repro::locality::{compound::compound, model::CostModel};
use cmt_locality_repro::suite::kernels::adi_scalarized;

fn main() {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);

    let original = adi_scalarized();
    println!(
        "--- scalarized (Figure 3b) ---\n{}",
        program_to_string(&original)
    );

    let model = CostModel::new(4);
    let mut transformed = original.clone();
    let report = compound(&mut transformed, &model);
    println!(
        "--- after compound (Figure 3c) ---\n{}",
        program_to_string(&transformed)
    );
    println!(
        "fusion enabled permutation on {} nest(s)",
        report.fusion_enabled_permutation
    );

    interp::assert_equivalent(&original, &transformed, &[32]);
    println!("semantics verified at N = 32\n");

    let cyc = CycleModel::default();
    for (label, p) in [("scalarized", &original), ("transformed", &transformed)] {
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
