//! A two-level cache hierarchy (extension).
//!
//! The paper's step 2 notes that "higher degrees of tiling can be applied
//! to exploit multi-level caches, the TLB, etc." (§1.1). This module
//! provides the substrate for such experiments: an inclusive L1/L2
//! hierarchy where L1 misses probe L2, with a cycle model charging each
//! level's latency.

use crate::config::CacheConfig;
use crate::shard::ShardedCache;
use crate::stats::CacheStats;

/// An inclusive two-level hierarchy. Every access probes L1; L1 misses
/// probe L2; L2 misses go to memory. Fills propagate to both levels
/// (handled naturally by running both simulators). L2 sees only L1's
/// misses, one at a time.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: ShardedCache,
    l2: ShardedCache,
}

/// Per-level latencies for [`Hierarchy::cycles`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyLatency {
    /// Cycles for an L1 hit (charged on every access).
    pub l1_hit: u64,
    /// Additional cycles for an access that misses L1 but hits L2.
    pub l2_hit: u64,
    /// Additional cycles for an access that misses both levels.
    pub memory: u64,
}

impl Default for HierarchyLatency {
    fn default() -> Self {
        // 1 / 10 / 50: a mid-90s workstation with an off-chip L2.
        HierarchyLatency {
            l1_hit: 1,
            l2_hit: 10,
            memory: 50,
        }
    }
}

impl Hierarchy {
    /// Creates a hierarchy from two geometries.
    ///
    /// # Panics
    ///
    /// Panics if L2 is not strictly larger than L1 or its line size is
    /// smaller than L1's (inclusion would be meaningless).
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        assert!(l2.size() > l1.size(), "L2 must exceed L1");
        assert!(l2.line() >= l1.line(), "L2 lines must be at least L1's");
        Hierarchy {
            l1: ShardedCache::new(l1),
            l2: ShardedCache::new(l2),
        }
    }

    /// A typical configuration around the paper's RS/6000 L1: 64 KB L1
    /// backed by a 1 MB direct-mapped L2.
    pub fn rs6000_with_l2() -> Self {
        Hierarchy::new(CacheConfig::rs6000(), CacheConfig::new(1024 * 1024, 1, 128))
    }

    /// Reserves a contiguous byte range (an array arena) for dense
    /// cold-miss tracking at both levels (see
    /// [`ShardedCache::reserve_region`]); statistics never depend on it.
    pub fn reserve_region(&mut self, start: u64, len: u64) {
        self.l1.reserve_region(start, len);
        self.l2.reserve_region(start, len);
    }

    /// Simulates one access; returns the level that hit (1, 2) or 3 for
    /// memory.
    pub fn access(&mut self, addr: u64, is_write: bool) -> u8 {
        if self.l1.access(addr, is_write) {
            // L1 hit: L2 is not probed (but stays consistent because it
            // already holds the line from the original fill — inclusive).
            1
        } else if self.l2.access(addr, is_write) {
            2
        } else {
            3
        }
    }

    /// L1 statistics (all accesses).
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 statistics (L1 misses only).
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Cycle estimate under the given latencies.
    pub fn cycles(&self, lat: &HierarchyLatency) -> u64 {
        let l1 = self.l1.stats();
        let l2 = self.l2.stats();
        l1.accesses * lat.l1_hit + l2.accesses * lat.l2_hit + l2.misses * lat.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        // L1: 2 sets × 1 way × 16B = 32B; L2: 8 sets × 2 ways × 16B = 256B.
        Hierarchy::new(CacheConfig::new(32, 1, 16), CacheConfig::new(256, 2, 16))
    }

    #[test]
    fn levels_hit_in_order() {
        let mut h = tiny();
        assert_eq!(h.access(0, false), 3, "cold miss goes to memory");
        assert_eq!(h.access(8, false), 1, "same line hits L1");
        // Evict line 0 from L1 (conflict with line 2 in set 0)…
        assert_eq!(h.access(32, false), 3);
        // …but it survives in the larger L2.
        assert_eq!(h.access(0, false), 2, "L1 miss, L2 hit");
    }

    #[test]
    fn l2_sees_only_l1_misses() {
        let mut h = tiny();
        for _ in 0..10 {
            h.access(0, false);
        }
        assert_eq!(h.l1_stats().accesses, 10);
        assert_eq!(h.l2_stats().accesses, 1, "9 L1 hits never reach L2");
    }

    #[test]
    fn cycle_model_charges_levels() {
        let mut h = tiny();
        h.access(0, false); // memory: 1 + 10 + 50
        h.access(8, false); // L1 hit: 1
        let lat = HierarchyLatency::default();
        assert_eq!(h.cycles(&lat), 62);
    }

    #[test]
    fn reservation_never_changes_stats() {
        let mut plain = tiny();
        let mut reserved = tiny();
        reserved.reserve_region(0, 96);
        reserved.reserve_region(160, 64);
        for k in 0..200u64 {
            let a = k * 48 % 320;
            assert_eq!(plain.access(a, false), reserved.access(a, false));
        }
        assert_eq!(plain.l1_stats(), reserved.l1_stats());
        assert_eq!(plain.l2_stats(), reserved.l2_stats());
    }

    #[test]
    #[should_panic(expected = "L2 must exceed L1")]
    fn degenerate_hierarchy_rejected() {
        let _ = Hierarchy::new(CacheConfig::new(256, 2, 16), CacheConfig::new(256, 2, 16));
    }

    #[test]
    fn working_set_between_levels() {
        // Working set: 128 bytes = 8 lines. Fits L2 (16 lines), not L1
        // (2 lines). Second pass: all L1 misses, all L2 hits.
        let mut h = tiny();
        for pass in 0..2 {
            for a in (0..128u64).step_by(16) {
                let lvl = h.access(a, false);
                if pass == 1 {
                    assert_eq!(lvl, 2, "addr {a} should hit L2");
                }
            }
        }
    }
}
