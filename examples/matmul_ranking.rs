//! Figure 2 scenario: rank all six matrix-multiply loop orders with the
//! cost model, then confirm the ranking with trace-driven cache
//! simulation on both of the paper's cache configurations.
//!
//! ```text
//! cargo run --release --example matmul_ranking [N]
//! ```

use cmt_locality_repro::cache::{CacheConfig, CycleModel, ShardedCache};
use cmt_locality_repro::interp::Layout;
use cmt_locality_repro::locality::model::CostModel;
use cmt_locality_repro::suite::kernels::matmul_orders;

fn main() {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let model = CostModel::new(4);
    let cyc = CycleModel::default();

    println!("matrix multiply, N = {n}");
    println!(
        "{:<6} {:>24} {:>12} {:>12} {:>14}",
        "order", "LoopCost(innermost)", "cache1 hit%", "cache2 hit%", "cycles"
    );

    let mut results = Vec::new();
    for (name, p) in matmul_orders() {
        let cost = model.analyze(&p, p.nests()[0]).realized_cost();
        let layout = Layout::new(&p, &[n]).expect("allocation");
        let [s1, s2] = [CacheConfig::rs6000(), CacheConfig::i860()].map(|config| {
            let mut cache = ShardedCache::new(config);
            layout.trace(&p, &mut cache).expect("execution");
            cache.stats()
        });
        println!(
            "{:<6} {:>24} {:>11.1}% {:>11.1}% {:>14}",
            name,
            cost.to_string(),
            100.0 * s1.hit_rate_excluding_cold(),
            100.0 * s2.hit_rate_excluding_cold(),
            cyc.cycles(&s1)
        );
        results.push((name, cost.eval_uniform(n as f64), cyc.cycles(&s1)));
    }

    // The model's ranking should agree with the simulated ranking.
    let mut by_cost = results.clone();
    by_cost.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let mut by_cycles = results;
    by_cycles.sort_by_key(|r| r.2);
    println!(
        "\nmodel ranking:     {:?}",
        by_cost.iter().map(|r| r.0).collect::<Vec<_>>()
    );
    println!(
        "simulated ranking: {:?}",
        by_cycles.iter().map(|r| r.0).collect::<Vec<_>>()
    );
    println!("paper's ranking:   [\"JKI\", \"KJI\", \"JIK\", \"IJK\", \"KIJ\", \"IKJ\"]");
}
