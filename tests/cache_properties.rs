//! Property-style tests on the cache-simulator substrate, driven by the
//! seeded in-repo PRNG so the suite is deterministic and fully offline.

use cmt_locality_repro::cache::{CacheConfig, ShardedCache};
use cmt_locality_repro::obs::SplitMix64;

const CASES: usize = 64;

fn random_trace(rng: &mut SplitMix64) -> Vec<u64> {
    let len = rng.gen_range_usize(1, 1999);
    (0..len)
        .map(|_| rng.gen_range_i64(0, (1 << 20) - 1) as u64)
        .collect()
}

/// Accounting invariants: hits + misses = accesses, cold ≤ misses,
/// cold = distinct lines touched.
#[test]
fn accounting_invariants() {
    let mut rng = SplitMix64::seed_from_u64(0xACC0);
    for _ in 0..CASES {
        let trace = random_trace(&mut rng);
        let cfg = CacheConfig::i860();
        let mut c = ShardedCache::new(cfg);
        let mut lines = std::collections::HashSet::new();
        for &a in &trace {
            c.access(a, false);
            lines.insert(a / cfg.line());
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(s.cold_misses <= s.misses);
        assert_eq!(s.cold_misses as usize, lines.len());
        assert!(c.resident_lines() <= (cfg.sets() * u64::from(cfg.assoc())) as usize);
    }
}

/// LRU inclusion: with the same sets and line size, a higher
/// associativity never produces more misses on the same trace
/// (true-LRU stack property per set).
#[test]
fn associativity_monotonicity() {
    let mut rng = SplitMix64::seed_from_u64(0x10C1);
    for _ in 0..CASES {
        let trace = random_trace(&mut rng);
        // Same number of sets (32) and line (32B); capacity scales with
        // associativity.
        let small = CacheConfig::new(32 * 32 * 2, 2, 32);
        let large = CacheConfig::new(32 * 32 * 8, 8, 32);
        let mut cs = ShardedCache::new(small);
        let mut cl = ShardedCache::new(large);
        for &a in &trace {
            cs.access(a, false);
            cl.access(a, false);
        }
        assert!(
            cl.stats().misses <= cs.stats().misses,
            "LRU inclusion violated: {} vs {}",
            cl.stats().misses,
            cs.stats().misses
        );
    }
}

/// Determinism: replaying a trace gives identical statistics.
#[test]
fn deterministic_replay() {
    let mut rng = SplitMix64::seed_from_u64(0xDE7E);
    for _ in 0..CASES {
        let trace = random_trace(&mut rng);
        let run = || {
            let mut c = ShardedCache::new(CacheConfig::rs6000());
            for &a in &trace {
                c.access(a, a % 3 == 0);
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }
}

/// A trace folded to one line always hits after the first access.
#[test]
fn single_line_always_hits() {
    let mut rng = SplitMix64::seed_from_u64(0x0111);
    for _ in 0..CASES {
        let count = rng.gen_range_usize(1, 499);
        let mut c = ShardedCache::new(CacheConfig::i860());
        for k in 0..count {
            c.access((k % 4) as u64 * 8, false);
        }
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, count as u64 - 1);
    }
}
