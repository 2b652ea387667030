//! The paper's complete three-step optimization strategy (§1.1) applied
//! in sequence to textbook matrix multiply:
//!
//! 1. memory order (compound: permutation/fusion/distribution/reversal),
//! 2. cache tiling (§6),
//! 3. register reuse (unroll-and-jam + scalar replacement).
//!
//! Each step is verified against the previous one and its cache effect
//! is measured.
//!
//! ```text
//! cargo run --release --example full_pipeline [N]
//! ```

use cmt_locality_repro::cache::{CacheConfig, CycleModel, ShardedCache};
use cmt_locality_repro::interp::{assert_equivalent, Layout};
use cmt_locality_repro::ir::pretty::program_to_string;
use cmt_locality_repro::ir::Program;
use cmt_locality_repro::locality::scalar::scalar_replace;
use cmt_locality_repro::locality::tile::tile_loop;
use cmt_locality_repro::locality::unroll::unroll_and_jam;
use cmt_locality_repro::locality::{compound::compound, model::CostModel};
use cmt_locality_repro::suite::kernels::matmul;

fn measure(p: &Program, n: i64) -> (f64, u64) {
    let layout = Layout::new(p, &[n]).expect("allocation");
    let mut c = ShardedCache::new(CacheConfig::i860());
    layout.trace(p, &mut c).expect("execution");
    let s = c.stats();
    (
        s.hit_rate_excluding_cold(),
        CycleModel::default().cycles(&s),
    )
}

fn main() {
    // A size divisible by the tile (8) and unroll (2) factors.
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(192);
    assert!(n % 16 == 0, "N must be divisible by 16 for this pipeline");

    let original = matmul("IJK");
    let model = CostModel::new(4);

    // Step 1: memory order.
    let mut step1 = original.clone();
    let report = compound(&mut step1, &model);
    assert_equivalent(&original, &step1, &[32]);
    println!(
        "step 1 — compound: permuted {} nest(s) into memory order",
        report.nests_permuted
    );

    // Step 2: tile the K loop (depth 1 of the JKI chain), control loop
    // outermost.
    let mut step2 = step1.clone();
    tile_loop(&mut step2, 0, 1, 8, 0).expect("tiling is legal for matmul");
    assert_equivalent(&original, &step2, &[32]);
    println!("step 2 — tiled K by 8 (control loop hoisted outermost)");

    // Step 3: unroll-and-jam the (now second-level) J loop by 2, then
    // scalar-replace the inner-loop-invariant operands.
    let mut step3 = step2.clone();
    unroll_and_jam(&mut step3, 0, 1, 2).expect("jam is legal for matmul");
    let sr = scalar_replace(&mut step3);
    assert_equivalent(&original, &step3, &[32]);
    println!(
        "step 3 — unroll-and-jam J by 2, scalar-replaced {} operand(s)\n",
        sr.replaced
    );

    println!("final shape:\n{}", program_to_string(&step3));

    println!("cache2 (8 KB) at N = {n}:");
    println!("{:<22} {:>10} {:>14}", "version", "hit rate", "cycles");
    for (label, p) in [
        ("original (IJK)", &original),
        ("memory order (JKI)", &step1),
        ("+ tiling", &step2),
        ("+ unroll & scalar", &step3),
    ] {
        let (hit, cycles) = measure(p, n);
        println!("{label:<22} {:>9.1}% {cycles:>14}", 100.0 * hit);
    }
}
