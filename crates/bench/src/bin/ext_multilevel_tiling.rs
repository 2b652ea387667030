//! Extension experiment (paper §1.1/§6): tiling for a two-level cache
//! hierarchy. Matmul in memory order is tiled once for L2 and again for
//! L1; the inclusive-hierarchy simulator shows each tiling level paying
//! at its own capacity.
use cmt_cache::{Hierarchy, HierarchyLatency};
use cmt_interp::{Layout, TraceSink};
use cmt_ir::program::Program;
use cmt_locality::tile::tile_loop;
use cmt_suite::kernels::matmul;

struct Sink<'a>(&'a mut Hierarchy);
impl TraceSink for Sink<'_> {
    fn access(&mut self, addr: u64, w: bool) {
        self.0.access(addr, w);
    }
}

fn run(p: &Program, n: i64) -> (f64, f64, u64) {
    let mut h = Hierarchy::rs6000_with_l2();
    let layout = Layout::new(p, &[n]).expect("allocation");
    for (_, start, bytes) in layout.regions(p) {
        h.reserve_region(start, bytes);
    }
    layout.trace(p, &mut Sink(&mut h)).expect("execution");
    (
        h.l1_stats().hit_rate_excluding_cold(),
        h.l2_stats().hit_rate_excluding_cold(),
        h.cycles(&HierarchyLatency::default()),
    )
}

fn main() {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(320);
    assert!(n % 80 == 0, "N must be divisible by 80 (16·5 tile factors)");

    let base = matmul("JKI");
    let mut l2_tiled = base.clone();
    // Tile K for L2 reuse of A's K-band.
    tile_loop(&mut l2_tiled, 0, 1, 80, 0).expect("L2 tile");
    let mut both = l2_tiled.clone();
    // Tile the intra-band K again, finer, for L1.
    tile_loop(&mut both, 0, 2, 16, 1).expect("L1 tile");

    println!("multi-level tiling, matmul JKI, N = {n}");
    println!("L1 = 64KB/4w/128B, L2 = 1MB/direct/128B, latencies 1/10/50\n");
    println!(
        "{:<16} {:>8} {:>8} {:>14}",
        "version", "L1 hit%", "L2 hit%", "cycles"
    );
    for (label, p) in [
        ("memory order", &base),
        ("L2-tiled (80)", &l2_tiled),
        ("L2+L1 (80/16)", &both),
    ] {
        let (l1, l2, cycles) = run(p, n);
        println!(
            "{label:<16} {:>7.1}% {:>7.1}% {cycles:>14}",
            100.0 * l1,
            100.0 * l2
        );
    }
}
