//! The original per-set `Vec` simulator, kept as the equivalence oracle
//! for the production engine in [`crate::shard`].
//!
//! This is the seed implementation the repo's tables were first
//! generated with: per-set tag vectors and a global `HashSet` for
//! cold-miss classification. It stays around so the batched/parallel
//! engine can always be proven bit-identical against an independent,
//! obviously-correct implementation (see `crates/bench/tests/
//! engine_equivalence.rs` and the CI smoke-perf gate).
//!
//! One fix over the seed: the hit path no longer maintains recency by
//! `Vec::remove` + push (an O(assoc) element shift per hit). Each way
//! carries a last-touch timestamp instead; hits update the stamp in
//! place and eviction scans for the minimum. Hit/miss/cold counts are
//! unchanged — `lru_fix_preserves_counts` below locks that in.

use crate::config::CacheConfig;
use crate::stats::CacheStats;
use std::collections::HashSet;

/// One resident line: tag plus last-touch tick.
#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    stamp: u64,
}

/// The reference set-associative, write-allocate, true-LRU cache.
///
/// Same observable behavior as [`crate::ShardedCache`]; kept
/// deliberately simple and allocation-heavy so the two implementations
/// share no code.
#[derive(Clone, Debug)]
pub struct LegacyCache {
    config: CacheConfig,
    /// Per-set ways, insertion order (recency lives in the stamps).
    sets: Vec<Vec<Way>>,
    /// Lines ever touched, for cold-miss classification.
    seen: HashSet<u64>,
    tick: u64,
    stats: CacheStats,
}

impl LegacyCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        LegacyCache {
            config,
            sets: vec![Vec::with_capacity(config.assoc() as usize); config.sets() as usize],
            seen: HashSet::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Simulates one access; returns `true` on a hit.
    pub fn access(&mut self, addr: u64, _is_write: bool) -> bool {
        let line = addr / self.config.line();
        let set_idx = (line % self.config.sets()) as usize;
        self.stats.accesses += 1;
        self.tick += 1;

        let set = &mut self.sets[set_idx];
        if let Some(w) = set.iter_mut().find(|w| w.tag == line) {
            w.stamp = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.seen.insert(line) {
            self.stats.cold_misses += 1;
        }
        let way = Way {
            tag: line,
            stamp: self.tick,
        };
        if set.len() == self.config.assoc() as usize {
            // Evict the least recently touched way.
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map(|(k, _)| k)
                .expect("full set is non-empty");
            set[victim] = way;
        } else {
            set.push(way);
        }
        false
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics but keeps contents and cold-line history — same
    /// contract as [`crate::ShardedCache::reset_stats`].
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Empties the cache and clears statistics and history — same
    /// contract as [`crate::ShardedCache::clear`].
    pub fn clear(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.seen.clear();
        self.tick = 0;
        self.stats = CacheStats::default();
        debug_assert!(
            self.is_cold_start(),
            "LegacyCache::clear left residual state"
        );
    }

    /// `true` when no lines are resident and no touch history remains —
    /// same contract as [`crate::ShardedCache::is_cold_start`].
    pub(crate) fn is_cold_start(&self) -> bool {
        self.tick == 0
            && self.stats == CacheStats::default()
            && self.seen.is_empty()
            && self.sets.iter().all(Vec::is_empty)
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedCache;

    fn tiny() -> LegacyCache {
        LegacyCache::new(CacheConfig::new(64, 2, 16))
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        c.access(0, false); // line 0 → set 0
        c.access(32, false); // line 2 → set 0
        c.access(0, false); // touch line 0 (now MRU)
        c.access(64, false); // line 4 → evicts line 2 (LRU)
        assert!(c.access(0, false), "line 0 must survive");
        assert!(!c.access(32, false), "line 2 was evicted");
        assert_eq!(c.stats().cold_misses, 3);
        assert_eq!(c.stats().misses, 4);
    }

    /// Replacing the `Vec::remove` hit path with timestamps must leave
    /// every counter unchanged against the production engine, across
    /// all three paper geometries and an adversarial mixed stream.
    #[test]
    fn lru_fix_preserves_counts() {
        for cfg in [
            CacheConfig::rs6000(),
            CacheConfig::i860(),
            CacheConfig::decstation(),
        ] {
            let mut legacy = LegacyCache::new(cfg);
            let mut engine = ShardedCache::new(cfg);
            let mut x = 0x0123456789ABCDEFu64;
            for k in 0..100_000u64 {
                // Mix of sequential sweeps, strides, and random probes.
                let addr = match k % 4 {
                    0 => (k * 8) % (1 << 18),
                    1 => (k * 4096) % (1 << 22),
                    2 => {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        x % (1 << 20)
                    }
                    _ => (k * 8) % (1 << 13),
                };
                let w = k % 3 == 0;
                assert_eq!(
                    legacy.access(addr, w),
                    engine.access(addr, w),
                    "divergence at access {k} ({cfg})"
                );
            }
            assert_eq!(legacy.stats(), engine.stats(), "{cfg}");
            assert_eq!(legacy.resident_lines(), engine.resident_lines(), "{cfg}");
        }
    }

    #[test]
    fn reset_and_clear_match_engine() {
        let mut legacy = tiny();
        let mut engine = ShardedCache::new(CacheConfig::new(64, 2, 16));
        for c in 0..2 {
            for a in [0u64, 16, 32, 0, 48] {
                assert_eq!(legacy.access(a, false), engine.access(a, false));
            }
            if c == 0 {
                legacy.reset_stats();
                engine.reset_stats();
                // Cold history survives reset: re-touching line 0 is warm.
                assert_eq!(legacy.access(0, false), engine.access(0, false));
                assert_eq!(legacy.stats(), engine.stats());
                assert_eq!(legacy.stats().cold_misses, 0);
                legacy.clear();
                engine.clear();
            }
        }
        assert_eq!(legacy.stats(), engine.stats());
        assert_eq!(legacy.stats().cold_misses, engine.stats().cold_misses);
    }
}
