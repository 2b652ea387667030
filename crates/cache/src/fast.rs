//! Throughput primitives for the simulation engine.
//!
//! Two pieces live here, shared by [`crate::shard::ShardedCache`] and the
//! batched trace path in `cmt-interp`:
//!
//! * a **packed access encoding** — one `u64` per access with the write
//!   flag in the top bit, so a 4 K-entry trace buffer is 32 KB and the
//!   simulator's inner loop streams plain integers;
//! * a **[`ColdMap`]** — cold-line (first-touch) classification backed by
//!   per-region bitmaps instead of a global `HashSet<u64>`. Programs
//!   allocate arrays as contiguous arenas (see `cmt_interp::Machine`), so
//!   a handful of dense bitmaps covers the whole trace; anything outside
//!   a registered region falls back to sparse 64-line bitmap pages.

use std::collections::HashMap;

/// Write flag of a packed access. Addresses must stay below this bit;
/// the interpreter's simulated address space tops out around 2^41
/// (`OffsetInto` shifts by 1 << 40), far under the limit.
pub const WRITE_BIT: u64 = 1 << 63;

/// Packs a byte address and write flag into one `u64`.
#[inline]
pub fn pack_access(addr: u64, is_write: bool) -> u64 {
    debug_assert!(addr < WRITE_BIT, "address overflows packed encoding");
    addr | if is_write { WRITE_BIT } else { 0 }
}

/// Inverse of [`pack_access`].
#[inline]
pub fn unpack_access(packed: u64) -> (u64, bool) {
    (packed & !WRITE_BIT, packed & WRITE_BIT != 0)
}

/// One registered contiguous line range with a dense touched-bitmap.
#[derive(Clone, Debug)]
struct ColdRegion {
    /// First line covered.
    start: u64,
    /// One past the last line covered.
    end: u64,
    /// Bit `line - start` set once the line has been touched.
    bits: Box<[u64]>,
}

impl ColdRegion {
    fn new(start: u64, end: u64) -> Self {
        let words = ((end - start) as usize).div_ceil(64);
        ColdRegion {
            start,
            end,
            bits: vec![0u64; words].into_boxed_slice(),
        }
    }

    /// Marks `line` touched; returns `true` if it was cold (first touch).
    #[inline]
    fn insert(&mut self, line: u64) -> bool {
        let off = (line - self.start) as usize;
        let (word, bit) = (off / 64, off % 64);
        let mask = 1u64 << bit;
        let was_cold = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        was_cold
    }

    /// Marks `line` touched without reporting whether it was new.
    #[inline]
    fn mark(&mut self, line: u64) {
        let off = (line - self.start) as usize;
        self.bits[off / 64] |= 1u64 << (off % 64);
    }

    #[inline]
    fn contains(&self, line: u64) -> bool {
        (self.start..self.end).contains(&line)
    }
}

/// Set-of-lines with first-touch queries: dense bitmaps over registered
/// regions, sparse 64-line pages everywhere else.
///
/// Semantically identical to the `HashSet<u64>` it replaces — `insert`
/// returns whether the line was new — but a streaming kernel touches its
/// arenas through a bitmap word instead of a hash probe.
#[derive(Clone, Debug, Default)]
pub struct ColdMap {
    /// Sorted by `start`; non-overlapping.
    regions: Vec<ColdRegion>,
    /// Sparse fallback: line >> 6 → 64-line bitmap word.
    overflow: HashMap<u64, u64>,
    /// Index of the region the previous insert landed in — traces sweep
    /// one arena at a time, so the memo skips the binary search on
    /// almost every miss.
    last: usize,
}

impl ColdMap {
    /// An empty map with no registered regions.
    pub fn new() -> Self {
        ColdMap::default()
    }

    /// Registers the line range `[start, end)` for dense tracking.
    /// Overlapping or empty ranges are ignored (the overlap keeps its
    /// original region; correctness never depends on registration).
    /// Touch history already recorded for the range is preserved.
    pub fn reserve_lines(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        if self.regions.iter().any(|r| r.start < end && start < r.end) {
            return;
        }
        let mut region = ColdRegion::new(start, end);
        // Migrate any sparse history that predates registration so
        // `insert` stays a pure set-membership test.
        for line in start..end {
            if let Some(word) = self.overflow.get_mut(&(line >> 6)) {
                if *word & (1 << (line % 64)) != 0 {
                    *word &= !(1 << (line % 64));
                    region.insert(line);
                }
            }
        }
        self.overflow.retain(|_, w| *w != 0);
        let pos = self.regions.partition_point(|r| r.start < start);
        self.regions.insert(pos, region);
    }

    /// Marks `line` touched; returns `true` when this is its first touch.
    ///
    /// The memoized-region path is the only code a simulation loop
    /// inlines; region search and the sparse fallback live in a cold
    /// out-of-line helper so they don't bloat the caller's hot loop.
    #[inline]
    pub fn insert(&mut self, line: u64) -> bool {
        if let Some(r) = self.regions.get_mut(self.last) {
            if r.contains(line) {
                return r.insert(line);
            }
        }
        self.insert_slow(line)
    }

    /// Marks `line` touched, discarding the first-touch answer — the
    /// hot-path variant of [`ColdMap::insert`] for callers that only
    /// need aggregate counts via [`ColdMap::len`] afterwards (first
    /// touches are always misses, so "distinct lines ever missed" ==
    /// "distinct lines ever touched" == the cold-miss count). Skipping
    /// the was-cold read-and-branch keeps a simulation loop's miss path
    /// branch-free.
    #[inline]
    pub fn mark(&mut self, line: u64) {
        if let Some(r) = self.regions.get_mut(self.last) {
            if r.contains(line) {
                r.mark(line);
                return;
            }
        }
        let _ = self.insert_slow(line);
    }

    /// ORs a whole 64-line bitmap word in one store: `bits` holds touch
    /// flags for lines `w * 64 ..= w * 64 + 63`. Streaming kernels that
    /// sweep lines in order would otherwise issue a read-modify-write
    /// per line against the *same* word, serializing on store-to-load
    /// forwarding; batching collapses a run of marks into one OR.
    ///
    /// The fast path needs the memoized region to cover the whole word
    /// with a 64-aligned start (region bit offsets are region-relative);
    /// otherwise each set bit goes through the scalar path.
    #[inline]
    pub fn mark_word(&mut self, w: u64, bits: u64) {
        if let Some(r) = self.regions.get_mut(self.last) {
            let base = w << 6;
            if r.start & 63 == 0 && base >= r.start && base + 64 <= r.end {
                r.bits[((base - r.start) >> 6) as usize] |= bits;
                return;
            }
        }
        self.mark_word_slow(w, bits);
    }

    #[cold]
    fn mark_word_slow(&mut self, w: u64, bits: u64) {
        let mut b = bits;
        while b != 0 {
            let i = b.trailing_zeros() as u64;
            self.mark((w << 6) | i);
            b &= b - 1;
        }
    }

    #[cold]
    fn insert_slow(&mut self, line: u64) -> bool {
        // Regions are few (one per array); binary-search by start.
        let pos = self.regions.partition_point(|r| r.start <= line);
        if pos > 0 {
            let r = &mut self.regions[pos - 1];
            if r.contains(line) {
                self.last = pos - 1;
                return r.insert(line);
            }
        }
        let word = self.overflow.entry(line >> 6).or_insert(0);
        let mask = 1u64 << (line % 64);
        let was_cold = *word & mask == 0;
        *word |= mask;
        was_cold
    }

    /// Forgets all touch history; registered regions stay registered.
    pub fn clear(&mut self) {
        for r in &mut self.regions {
            r.bits.fill(0);
        }
        self.overflow.clear();
    }

    /// Number of distinct lines ever touched.
    pub fn len(&self) -> usize {
        let dense: u32 = self
            .regions
            .iter()
            .flat_map(|r| r.bits.iter())
            .map(|w| w.count_ones())
            .sum();
        let sparse: u32 = self.overflow.values().map(|w| w.count_ones()).sum();
        (dense + sparse) as usize
    }

    /// True when no line has ever been touched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips() {
        for &(a, w) in &[(0u64, false), (8, true), ((1 << 40) + 16, true)] {
            assert_eq!(unpack_access(pack_access(a, w)), (a, w));
        }
        assert_eq!(pack_access(8, true) & WRITE_BIT, WRITE_BIT);
        assert_eq!(pack_access(8, false) & WRITE_BIT, 0);
    }

    #[test]
    fn insert_reports_first_touch_only() {
        let mut m = ColdMap::new();
        m.reserve_lines(100, 200);
        assert!(m.insert(100));
        assert!(!m.insert(100));
        assert!(m.insert(199));
        // Outside every region: sparse path, same semantics.
        assert!(m.insert(5000));
        assert!(!m.insert(5000));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn matches_hashset_on_mixed_stream() {
        use std::collections::HashSet;
        let mut m = ColdMap::new();
        m.reserve_lines(0, 64);
        m.reserve_lines(1000, 1100);
        let mut h = HashSet::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = x % 2000;
            assert_eq!(m.insert(line), h.insert(line), "line {line}");
        }
        assert_eq!(m.len(), h.len());
    }

    #[test]
    fn reserve_after_touch_preserves_history() {
        let mut m = ColdMap::new();
        assert!(m.insert(42));
        m.reserve_lines(0, 64);
        assert!(!m.insert(42), "history must survive registration");
        assert!(m.insert(43));
    }

    #[test]
    fn overlapping_reserve_is_ignored() {
        let mut m = ColdMap::new();
        m.reserve_lines(0, 100);
        m.reserve_lines(50, 150); // overlaps: dropped
        assert!(m.insert(120));
        assert!(!m.insert(120));
    }

    #[test]
    fn clear_forgets_history_keeps_regions() {
        let mut m = ColdMap::new();
        m.reserve_lines(0, 10);
        m.insert(3);
        m.insert(999);
        m.clear();
        assert!(m.is_empty());
        assert!(m.insert(3));
        assert!(m.insert(999));
    }
}
