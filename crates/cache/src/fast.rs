//! Throughput primitives for the simulation engine.
//!
//! Two pieces live here, shared by [`crate::shard::ShardedCache`] and the
//! batched trace path in `cmt-interp`:
//!
//! * a **packed access encoding** — one `u64` per access with the write
//!   flag in the top bit, so a 4 K-entry trace buffer is 32 KB and the
//!   simulator's inner loop streams plain integers;
//! * a **`ColdMap`** — cold-line (first-touch) classification backed by
//!   dense bitmaps instead of a global `HashSet<u64>`. Programs allocate
//!   arrays as contiguous arenas (see `cmt_interp::Layout`), and nearby
//!   reservations coalesce, so one bitmap covers a program's whole
//!   trace; anything outside a reserved region falls back to sparse
//!   64-line bitmap pages.

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

/// Lines per bitmap word. Region bounds are multiples of it, so every
/// bitmap word covers 64 lines of one region and no other.
const WORD_LINES: u64 = 64;

/// One coalesced line range with a dense touched-bitmap.
#[derive(Clone, Debug)]
struct ColdRegion {
    /// First line covered; a multiple of [`WORD_LINES`].
    start: u64,
    /// One past the last line covered; a multiple of [`WORD_LINES`].
    end: u64,
    /// Lines of `start..end` that reservations asked for (64-aligned).
    /// A lower bound when a later reservation lands in a gap the region
    /// already absorbed; merging keeps `end - start <= 2 * reserved`.
    reserved: u64,
    /// Bit `line - start` set once the line has been touched.
    bits: Box<[u64]>,
}

impl ColdRegion {
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

    /// The bitmap word holding lines `w * 64 ..= w * 64 + 63`, which
    /// must lie in this region.
    #[inline]
    fn word(&mut self, w: u64) -> &mut u64 {
        &mut self.bits[(w - self.start / WORD_LINES) as usize]
    }

    #[inline]
    fn contains(&self, line: u64) -> bool {
        (self.start..self.end).contains(&line)
    }

    /// Whether `self` and the range `[lo, hi)` with `reserved` lines fit
    /// one bitmap at most twice their combined reserved lines: the gap
    /// between them may spend what neither has spent on gaps already.
    fn merges_with(&self, lo: u64, hi: u64, reserved: u64) -> bool {
        hi.max(self.end) - lo.min(self.start) <= 2 * (reserved + self.reserved)
    }
}

/// Set-of-lines with first-touch queries: dense bitmaps over reserved
/// regions, sparse 64-line pages everywhere else.
///
/// Semantically identical to the `HashSet<u64>` it replaces — `insert`
/// returns whether the line was new — but a streaming kernel touches its
/// arenas through a bitmap word instead of a hash probe.
///
/// Reservations coalesce: a program's arrays, laid out one after another
/// with small guard gaps, share one bitmap, so the memoized region
/// covers every miss however the trace rotates among them. Only ranges
/// far apart (a background program at a distant offset) stay separate.
#[derive(Clone, Debug, Default)]
pub(crate) struct ColdMap {
    /// Sorted by `start`; disjoint.
    regions: Vec<ColdRegion>,
    /// Sparse fallback: line >> 6 → 64-line bitmap word.
    overflow: HashMap<u64, u64>,
    /// Index of the region the previous lookup landed in; with regions
    /// coalesced a whole program's misses land in one, so the binary
    /// search runs once per switch between distant regions.
    last: usize,
}

impl ColdMap {
    /// An empty map with no reserved regions.
    pub fn new() -> Self {
        ColdMap::default()
    }

    /// Reserves the line range `[start, end)` for dense tracking.
    ///
    /// The range is widened to whole bitmap words (64-line multiples)
    /// and merged with every region it overlaps, then with each
    /// neighbour close enough that the merged bitmap stays within twice
    /// the lines reserved in it, until no neighbour qualifies. Touch
    /// history — dense or sparse — carries over, so `insert` stays a
    /// pure set-membership test; correctness never depends on
    /// reservation. Empty ranges are ignored.
    pub fn reserve_lines(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let (mut lo, mut hi) = (start & !(WORD_LINES - 1), end.next_multiple_of(WORD_LINES));
        // Regions overlapping [lo, hi) are absorbed unconditionally.
        let mut first = self.regions.partition_point(|r| r.end <= lo);
        let mut last = first + self.regions[first..].partition_point(|r| r.start < hi);
        let mut reserved = hi - lo;
        for r in &self.regions[first..last] {
            reserved = reserved + r.reserved - (hi.min(r.end) - lo.max(r.start));
        }
        if first < last {
            lo = lo.min(self.regions[first].start);
            hi = hi.max(self.regions[last - 1].end);
        }
        loop {
            if first > 0 && self.regions[first - 1].merges_with(lo, hi, reserved) {
                first -= 1;
                lo = self.regions[first].start;
                reserved += self.regions[first].reserved;
            } else if last < self.regions.len() && self.regions[last].merges_with(lo, hi, reserved)
            {
                hi = self.regions[last].end;
                reserved += self.regions[last].reserved;
                last += 1;
            } else {
                break;
            }
        }
        let mut region = ColdRegion {
            start: lo,
            end: hi,
            reserved,
            bits: vec![0u64; ((hi - lo) / WORD_LINES) as usize].into_boxed_slice(),
        };
        for r in self.regions.drain(first..last) {
            let at = ((r.start - lo) / WORD_LINES) as usize;
            region.bits[at..at + r.bits.len()].copy_from_slice(&r.bits);
        }
        let words = lo / WORD_LINES..hi / WORD_LINES;
        self.overflow.retain(|&w, bits| {
            let dense = words.contains(&w);
            if dense {
                *region.word(w) |= *bits;
            }
            !dense
        });
        self.regions.insert(first, region);
        self.last = first;
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
    /// Regions are word-aligned, so any word the memoized region
    /// contains is one of its bitmap words.
    #[inline]
    pub fn mark_word(&mut self, w: u64, bits: u64) {
        if let Some(r) = self.regions.get_mut(self.last) {
            if r.contains(w * WORD_LINES) {
                *r.word(w) |= bits;
                return;
            }
        }
        self.mark_word_slow(w, bits);
    }

    #[cold]
    fn mark_word_slow(&mut self, w: u64, bits: u64) {
        match self.find(w * WORD_LINES) {
            Some(r) => *r.word(w) |= bits,
            None => *self.overflow.entry(w).or_insert(0) |= bits,
        }
    }

    #[cold]
    fn insert_slow(&mut self, line: u64) -> bool {
        if let Some(r) = self.find(line) {
            return r.insert(line);
        }
        let word = self.overflow.entry(line / WORD_LINES).or_insert(0);
        let mask = 1u64 << (line % WORD_LINES);
        let was_cold = *word & mask == 0;
        *word |= mask;
        was_cold
    }

    /// The region containing `line`, memoized for the next lookup.
    fn find(&mut self, line: u64) -> Option<&mut ColdRegion> {
        let pos = self.regions.partition_point(|r| r.start <= line);
        let i = pos
            .checked_sub(1)
            .filter(|&i| self.regions[i].contains(line))?;
        self.last = i;
        Some(&mut self.regions[i])
    }

    /// Forgets all touch history; reserved regions stay reserved.
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
    fn overlapping_reserve_merges() {
        let mut m = ColdMap::new();
        m.reserve_lines(0, 100);
        assert!(m.insert(70));
        m.reserve_lines(50, 150); // overlaps: one region, history kept
        assert_eq!(m.regions.len(), 1);
        assert!(!m.insert(70));
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

    /// `+2^40` bytes in 128-byte lines: where a background program lives.
    const FAR: u64 = (1 << 40) / 128;

    /// Bitmap words across every dense region.
    fn bitmap_words(m: &ColdMap) -> u64 {
        m.regions.iter().map(|r| r.bits.len() as u64).sum()
    }

    /// Lines the reserved ranges cover once widened to whole bitmap
    /// words, counting each line once.
    fn aligned_union(ranges: &[(u64, u64)]) -> u64 {
        let mut words: Vec<(u64, u64)> = ranges
            .iter()
            .map(|&(s, e)| (s / 64, e.div_ceil(64)))
            .collect();
        words.sort_unstable();
        let (mut total, mut reach) = (0, 0);
        for (s, e) in words {
            let s = s.max(reach);
            if e > s {
                total += e - s;
                reach = e;
            }
        }
        total * 64
    }

    fn assert_bitmap_bound(m: &ColdMap, reserved: &[(u64, u64)]) {
        let bound = 2 * aligned_union(reserved) / 64 + 2;
        assert!(
            bitmap_words(m) <= bound,
            "{} bitmap words for {reserved:?} (bound {bound})",
            bitmap_words(m)
        );
    }

    /// A `Layout`-like cluster in 128-byte lines: arrays of uneven size,
    /// unaligned starts, a guard gap of 8–16 lines after each.
    fn layout_cluster() -> Vec<(u64, u64)> {
        let mut next = 8;
        [513, 8, 4097, 64, 1200, 1]
            .iter()
            .map(|&len| {
                let range = (next, next + len);
                next += len + 8 + len % 9;
                range
            })
            .collect()
    }

    #[test]
    fn layout_cluster_coalesces_and_far_background_stays_apart() {
        let cluster = layout_cluster();
        let reversed: Vec<_> = cluster.iter().rev().copied().collect();
        for order in [cluster, reversed] {
            let mut m = ColdMap::new();
            for &(s, e) in &order {
                m.reserve_lines(s, e);
            }
            assert_eq!(m.regions.len(), 1, "one bitmap for {order:?}");
            assert_bitmap_bound(&m, &order);
            let mut all = order.clone();
            for &(s, e) in &order {
                all.push((FAR + s, FAR + e));
                m.reserve_lines(FAR + s, FAR + e);
            }
            assert_eq!(m.regions.len(), 2, "the background stays its own region");
            assert_bitmap_bound(&m, &all);
            // Misses rotating over the arrays never leave the memoized
            // region for a search.
            for k in 0..600 {
                let (s, e) = order[k % order.len()];
                let line = s + (k as u64 * 7) % (e - s);
                m.mark(line);
                assert_eq!(m.last, 0);
            }
        }
    }

    #[test]
    fn random_reservations_match_hashset() {
        use cmt_obs::SplitMix64;
        use std::collections::HashSet;
        for seed in 0..48 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut m = ColdMap::new();
            let mut h: HashSet<u64> = HashSet::new();
            let mut reserved: Vec<(u64, u64)> = Vec::new();
            let near_or_far = |rng: &mut SplitMix64| if rng.gen_bool(0.2) { FAR } else { 0 };
            for _ in 0..600 {
                match rng.next_u64() % 16 {
                    0..=2 => {
                        let len = 1 + rng.next_u64() % 700;
                        let (s, e) = match (reserved.last(), rng.next_u64() % 5) {
                            // Adjacent to, overlapping and nested in
                            // the previous reservation.
                            (Some(&(_, pe)), 0) => (pe, pe + len),
                            (Some(&(ps, pe)), 1) => ((ps + pe) / 2, pe + len),
                            (Some(&(ps, pe)), 2) => (ps + (pe - ps) / 3, pe - (pe - ps) / 3),
                            // Reserved before (below) the previous one.
                            (Some(&(ps, _)), 3) if ps > len + 20 => (ps - len - 20, ps - 20),
                            _ => {
                                let s = near_or_far(&mut rng) + rng.next_u64() % 6000;
                                (s, s + len)
                            }
                        };
                        m.reserve_lines(s, e);
                        if s < e {
                            reserved.push((s, e));
                        }
                        assert_bitmap_bound(&m, &reserved);
                    }
                    3..=8 => {
                        let line = near_or_far(&mut rng) + rng.next_u64() % 8000;
                        assert_eq!(m.insert(line), h.insert(line), "seed {seed} line {line}");
                    }
                    9..=12 => {
                        let line = near_or_far(&mut rng) + rng.next_u64() % 8000;
                        m.mark(line);
                        h.insert(line);
                    }
                    13 | 14 => {
                        let w = (near_or_far(&mut rng) + rng.next_u64() % 8000) / 64;
                        let bits = rng.next_u64() & rng.next_u64();
                        m.mark_word(w, bits);
                        h.extend((0..64).filter(|i| bits >> i & 1 != 0).map(|i| w * 64 + i));
                    }
                    _ => {
                        if rng.gen_bool(0.1) {
                            m.clear();
                            h.clear();
                        }
                    }
                }
                assert_eq!(m.len(), h.len(), "seed {seed}");
            }
            for r in m.regions.windows(2) {
                assert!(r[0].end <= r[1].start, "regions overlap: seed {seed}");
            }
        }
    }
}
