//! The serial, SIMD-friendly simulation core (trace core v2).
//!
//! Instead of a tag + LRU-stamp pair per way, [`ShardedCache`] keeps
//! each set's ways in one contiguous group ordered most-recently-used
//! first. Move-to-front *is* true LRU (empty ways initialize to the
//! tail, so "evict the last lane" is "first empty way, else least
//! recently used"), which eliminates the stamp array, the monotonic
//! tick, the victim scan, and the way-loop branches: a 4-way lookup is
//! three compares and four conditional moves. Adjacent same-line
//! accesses are collapsed at intake (a repeat touch of the MRU line is a
//! guaranteed hit with no state change), so unit-stride sweeps cost one
//! compare per access. On x86-64 with AVX2 the run-scan takes an
//! explicit SIMD path (4 lines per compare), verified bit-identical to
//! the scalar path by the equivalence tests.
//!
//! A cache with no regions or snapshots also takes a bounds-proven
//! innermost loop whole, as a [`LoopRun`]
//! ([`ShardedCache::access_run`]), and simulates only the iterations
//! that can change it: the first, and those in which some stream enters
//! a new line or one set gets more than `assoc` of the iteration's
//! lines. Every other access is an exact, state-free hit.
//!
//! The engine also carries its own observability: named byte regions
//! ([`ShardedCache::register_region`]) get per-array attribution, and
//! an `interval` ([`ShardedCache::with_interval`]) snapshots the miss
//! rate every `interval` accesses, so phase changes (the cold ramp
//! versus the steady state) show up in the exported metrics. Both are
//! counted per access.
//!
//! The seed [`crate::legacy::LegacyCache`] is the independent oracle
//! the equivalence tests hold this engine to.

use crate::config::CacheConfig;
use crate::fast::{pack_access, ColdMap, WRITE_BIT};
use crate::run::{iters_to_cross, LoopRun, Stream};
use crate::stats::CacheStats;
use cmt_obs::MetricsRegistry;

/// Tag value marking an empty way. Unreachable as a real tag: lines are
/// `addr >> line_shift` with `line_shift ≥ 3`, so they top out at 2^61.
const EMPTY: u64 = u64::MAX;

/// Accesses a loop run buffers before handing them to the core.
const RUN_CHUNK: usize = 1024;

/// One aggregated window of the access stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalSnapshot {
    /// Total accesses seen when the window closed.
    pub upto: u64,
    /// Accesses inside this window.
    pub accesses: u64,
    /// Misses inside this window.
    pub misses: u64,
    /// First-touch misses inside this window. Window 0's count is the
    /// empty-cache transient the selective profiler's cold-start bias
    /// correction subtracts out (see `cmt-profile`).
    pub cold_misses: u64,
}

impl IntervalSnapshot {
    /// Miss rate of the window in `[0, 1]`; `0.0` for an empty window.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A named byte range registered for per-array attribution, with the
/// statistics of the accesses that fall in it.
#[derive(Clone, Debug)]
struct Region {
    name: String,
    start: u64,
    len: u64,
    stats: CacheStats,
}

impl Region {
    #[inline]
    fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr - self.start < self.len
    }
}

/// The set-associative, write-allocate, true-LRU cache simulator.
/// Statistically bit-identical to the seed [`crate::legacy::LegacyCache`]
/// on any trace — the equivalence tests and the CI smoke-perf gate
/// enforce it.
///
/// Addresses are byte addresses; every access touches one line (the IR
/// interpreter issues element-sized accesses that never straddle lines,
/// since elements are 8-byte aligned and lines are ≥ 8 bytes).
///
/// Batches stream straight into the branchless core. A loop run
/// ([`ShardedCache::access_run`]) goes to the core in its
/// line-crossing iterations only, when the cache
/// [`ShardedCache::takes_runs`]: it has no regions or snapshots. Any
/// other cache is fed the run's expansion.
#[derive(Clone, Debug)]
pub struct ShardedCache {
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    assoc: usize,
    /// `sets × assoc` tags, MRU-first within each set's group.
    tags: Box<[u64]>,
    /// First-touch history over line numbers.
    cold: ColdMap,
    /// Distinct-line count at the last statistics reset: the cold-miss
    /// counter is `cold.len() - cold_base` (a line's first touch is
    /// always a miss, so "distinct lines touched" == "cold misses"),
    /// computed once at read time instead of per miss in the hot loop.
    cold_base: u64,
    /// Running `accesses`/`hits` only — `misses` and `cold_misses` are
    /// derived on read (see [`ShardedCache::stats`]), keeping the hot
    /// loops' miss paths free of extra counters.
    stats: CacheStats,
    /// Registered byte regions, sorted by start.
    regions: Vec<Region>,
    unattributed: CacheStats,
    last_slot: usize,
    /// Take the per-access [`ShardedCache::run_attributed`] path: set
    /// once a region is registered or interval snapshots are on.
    observed: bool,
    /// The open snapshot window, counted per access on the attributed
    /// path.
    window: CacheStats,
    /// Snapshot window length in accesses; `0` disables snapshots.
    interval: u64,
    /// Accesses simulated into the open window so far.
    window_fill: u64,
    /// Closed snapshot windows, oldest first.
    snapshots: Vec<IntervalSnapshot>,
    /// Line of the previous access — carried across batches so the
    /// run-collapse front end also folds duplicates that straddle a
    /// batch boundary. A repeat of the carried line is a guaranteed hit
    /// with no state change, so carrying it never changes statistics
    /// (the equivalence tests hold this to the legacy oracle). Reset
    /// only by [`ShardedCache::clear`].
    carry: u64,
    /// Reused scratch the front end compacts line numbers into.
    line_buf: Vec<u64>,
    /// Reused scratch for [`ShardedCache::run_loop`]: the accesses of
    /// the iterations it simulates, each stream's next line-crossing
    /// iteration, and the overflow check's lines.
    run_buf: Vec<u64>,
    next_cross: Vec<u64>,
    iter_lines: Vec<u64>,
}

impl ShardedCache {
    /// Consumes one slice of the trace in order.
    ///
    /// Each chunk picks one of two equivalent fast paths by sampling
    /// its duplicate-run density ([`likely_dup_heavy`]):
    ///
    /// * **dup-heavy** (unit-stride sweeps): a SIMD **run-collapse
    ///   front end** folds adjacent same-line repeats — each a
    ///   guaranteed hit with no state change — into a compacted line
    ///   buffer the core then consumes (a 128-byte-line cache sees 15
    ///   of every 16 sequential word accesses folded before the core
    ///   ever looks at them);
    /// * **dup-light** (strided/random): the core consumes the packed
    ///   trace directly — a repeat line is just an MRU hit there, so
    ///   skipping the collapse pass loses nothing and saves the
    ///   intermediate buffer traffic.
    ///
    /// Statistics are bit-identical on both paths; the choice is a
    /// pure function of the chunk contents, never of wall-clock.
    fn run(&mut self, trace: &[u64]) {
        if self.observed {
            self.run_attributed(trace);
            return;
        }
        self.stats.accesses += trace.len() as u64;
        if likely_dup_heavy(trace, self.line_shift, self.carry) {
            let mut buf = std::mem::take(&mut self.line_buf);
            self.stats.hits += collapse_runs(trace, self.line_shift, &mut self.carry, &mut buf);
            self.dispatch::<false>(&buf);
            self.line_buf = buf;
        } else {
            if let Some(&last) = trace.last() {
                self.carry = (last & !WRITE_BIT) >> self.line_shift;
            }
            self.dispatch::<true>(trace);
        }
    }

    /// Simulates a loop run on an unobserved cache, skipping the
    /// iterations that cannot change it (see
    /// [`ShardedCache::access_run`]). The simulated iterations go
    /// through [`ShardedCache::run`] in order, so `carry` ends on the run's
    /// last line: a skipped iteration touches the lines of the last
    /// simulated one.
    fn run_loop(&mut self, run: LoopRun<'_>) {
        let streams = run.streams;
        if streams.is_empty() || run.iters == 0 {
            return;
        }
        let shift = self.line_shift;
        let mut buf = std::mem::take(&mut self.run_buf);
        buf.clear();
        if streams
            .iter()
            .any(|s| s.stride.unsigned_abs() >> shift != 0)
        {
            // A stream that moves a line or more enters a new line every
            // iteration: simulate the run in full.
            for k in 0..run.iters {
                buf.extend(streams.iter().map(|s| s.packed(k)));
                if buf.len() >= RUN_CHUNK {
                    self.run(&buf);
                    buf.clear();
                }
            }
            if !buf.is_empty() {
                self.run(&buf);
            }
            self.run_buf = buf;
            return;
        }
        let mut next = std::mem::take(&mut self.next_cross);
        next.clear();
        next.resize(streams.len(), 0);
        // With no more streams than ways, no set can overflow.
        let may_overflow = streams.len() > self.assoc;
        let mut overflow = false;
        let mut skipped = 0u64;
        let mut k = 0u64;
        while k < run.iters {
            let mut entered = false;
            let mut upcoming = u64::MAX;
            for (s, n) in streams.iter().zip(next.iter_mut()) {
                let addr = s.addr(k);
                buf.push(s.packed(k));
                if *n == k {
                    // First iteration, or the stream just entered a line.
                    *n = k.saturating_add(iters_to_cross(addr, s.stride, shift));
                    entered = true;
                }
                upcoming = upcoming.min(*n);
            }
            if buf.len() >= RUN_CHUNK {
                self.run(&buf);
                buf.clear();
            }
            if upcoming > k + 1 && may_overflow {
                // An iteration simulated without entering a line was
                // forced by an overflow of the same lines.
                if entered {
                    overflow = self.overflows(streams, k);
                }
                if overflow {
                    upcoming = k + 1;
                }
            }
            let upcoming = upcoming.min(run.iters);
            skipped += (upcoming - k - 1) * streams.len() as u64;
            k = upcoming;
        }
        if !buf.is_empty() {
            self.run(&buf);
        }
        self.stats.accesses += skipped;
        self.stats.hits += skipped;
        self.run_buf = buf;
        self.next_cross = next;
    }

    /// Whether iteration `k` of `streams` touches more than `assoc`
    /// distinct lines of one set.
    fn overflows(&mut self, streams: &[Stream], k: u64) -> bool {
        let lines = &mut self.iter_lines;
        lines.clear();
        lines.extend(streams.iter().map(|s| s.addr(k) >> self.line_shift));
        lines.sort_unstable();
        lines.dedup();
        for line in lines.iter_mut() {
            *line &= self.set_mask;
        }
        lines.sort_unstable();
        lines
            .chunk_by(|a, b| a == b)
            .any(|same_set| same_set.len() > self.assoc)
    }

    /// Routes to the associativity-specialized core. `PACKED` selects
    /// the input decoding: raw packed accesses (mask + shift per item)
    /// or pre-extracted line numbers from the collapse front end.
    fn dispatch<const PACKED: bool>(&mut self, items: &[u64]) {
        match self.assoc {
            1 => self.run_dm::<PACKED>(items),
            2 => self.run_mtf::<2, PACKED>(items),
            4 => self.run_set4::<PACKED>(items),
            8 => self.run_mtf::<8, PACKED>(items),
            _ => {
                let shift = self.line_shift;
                for &it in items {
                    let _ = self.access_line(decode::<PACKED>(it, shift));
                }
            }
        }
    }

    /// 4-way core: AVX2 vector path when available, scalar otherwise.
    fn run_set4<const PACKED: bool>(&mut self, items: &[u64]) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just verified at runtime.
            return unsafe { self.run_mtf4_avx2::<PACKED>(items) };
        }
        self.run_mtf::<4, PACKED>(items)
    }

    /// AVX2 4-way lookup + move-to-front: the whole way group is one
    /// 256-bit lane set, so the search is a single compare-and-movemask
    /// and the MTF rotation is a table-selected blend of the group with
    /// its lane-shifted self — no scalar select chain, one vector load
    /// and one vector store per line. Bit-identical to
    /// [`ShardedCache::run_mtf`]`::<4>` (a line resides in at most one way, so
    /// the movemask is one-hot or zero).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_mtf4_avx2<const PACKED: bool>(&mut self, items: &[u64]) {
        use std::arch::x86_64::*;
        debug_assert_eq!(self.assoc, 4);
        let shift = self.line_shift;
        let mask = self.set_mask;
        let mut hits = 0u64;
        let tags = self.tags.as_mut_ptr();
        let mut wm = WordMarker::new();
        for &it in items {
            let line = decode::<PACKED>(it, shift);
            let set = line & mask;
            // SAFETY: `set < sets`, so the group `set * 4 .. set * 4 + 4`
            // lies inside `tags` (`sets * 4` long).
            let gp = tags.add(set as usize * 4) as *mut __m256i;
            let g = _mm256_loadu_si256(gp);
            let lv = _mm256_set1_epi64x(line as i64);
            let m = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(g, lv))) as usize;
            // rot = group shifted one way down; blend keeps ways past
            // the hit way in place (miss/tail-hit shifts everything).
            let rot = _mm256_permute4x64_epi64::<0b10_01_00_00>(g);
            if m == 0 {
                // Miss: evict the tail — the store needs only `rot`,
                // not the movemask→selector-table chain, so a
                // predicted miss keeps the per-set dependency short.
                _mm256_storeu_si256(gp, _mm256_blend_epi32::<0b0000_0011>(rot, lv));
                if PACKED {
                    self.cold.mark(line);
                } else {
                    wm.mark(&mut self.cold, line);
                }
            } else {
                let sel = _mm256_loadu_si256(MTF4_SEL[m].as_ptr() as *const __m256i);
                let mixed = _mm256_blendv_epi8(g, rot, sel);
                _mm256_storeu_si256(gp, _mm256_blend_epi32::<0b0000_0011>(mixed, lv));
                hits += 1;
            }
        }
        wm.flush(&mut self.cold);
        self.stats.hits += hits;
    }

    /// Direct-mapped loop: one compare and a conditional store per
    /// line. No same-line shortcut — the collapse path already folded
    /// adjacent repeats and on the packed path a repeat is an ordinary
    /// tag hit, so a shortcut would be a second, redundant compare that
    /// slows strided streams with no adjacent repeats.
    fn run_dm<const PACKED: bool>(&mut self, items: &[u64]) {
        debug_assert_eq!(self.assoc, 1);
        let shift = self.line_shift;
        let mask = self.set_mask;
        let mut hits = 0u64;
        let tags = self.tags.as_mut_ptr();
        let mut wm = WordMarker::new();
        for &it in items {
            let line = decode::<PACKED>(it, shift);
            let slot = (line & mask) as usize;
            // SAFETY: `slot = line & mask < sets == tags.len()` (assoc
            // is 1 here).
            let t = unsafe { tags.add(slot) };
            if unsafe { *t } == line {
                hits += 1;
                continue;
            }
            if PACKED {
                self.cold.mark(line);
            } else {
                wm.mark(&mut self.cold, line);
            }
            unsafe { *t = line };
        }
        wm.flush(&mut self.cold);
        self.stats.hits += hits;
    }

    /// The branchless move-to-front loop, monomorphized over the way
    /// count. Layout per set: `tags[base]` is MRU, `tags[base + A - 1]`
    /// is LRU (or empty — empties sink to the tail because insertions
    /// only ever push from the front).
    ///
    /// Per line: one MRU compare (which also absorbs same-line repeats
    /// on the packed path), then `A - 1` compares + conditional moves
    /// that rotate the hit way (or the evicted tail) out and the line
    /// to the front. No LRU stamps, no victim scan, no way-loop
    /// branches.
    fn run_mtf<const A: usize, const PACKED: bool>(&mut self, items: &[u64]) {
        debug_assert_eq!(self.assoc, A);
        let shift = self.line_shift;
        let mask = self.set_mask;
        let mut hits = 0u64;
        let tags = self.tags.as_mut_ptr();
        let mut wm = WordMarker::new();
        for &it in items {
            let line = decode::<PACKED>(it, shift);
            let base = (line & mask) as usize * A;
            // SAFETY: `line & mask < sets`, so
            // `base + A <= sets * A == tags.len()`.
            let g: &mut [u64; A] = unsafe { &mut *(tags.add(base) as *mut [u64; A]) };
            if g[0] == line {
                hits += 1;
                continue;
            }
            // Select-chain move-to-front: shift ways 0..w one lane down
            // (w = hit way, or A-1 on a miss, evicting the tail) and put
            // `line` in front. `hit_above` tracks "the line was found in
            // a lane before this one", turning each lane update into a
            // conditional move.
            let mut hit_above = false;
            let mut prev = g[0];
            g[0] = line;
            for way in g.iter_mut().skip(1) {
                let t = *way;
                let m = t == line;
                *way = if hit_above { t } else { prev };
                prev = t;
                hit_above |= m;
            }
            if hit_above {
                hits += 1;
            } else if PACKED {
                self.cold.mark(line);
            } else {
                wm.mark(&mut self.cold, line);
            }
        }
        wm.flush(&mut self.cold);
        self.stats.hits += hits;
    }

    /// Scalar single-line access with the generic (any associativity)
    /// move-to-front policy; shared by the attribution path and odd
    /// geometries. Returns `(hit, cold)`. The caller accounts for
    /// `stats.accesses`; this updates hits and cold history only.
    #[inline]
    fn access_line(&mut self, line: u64) -> (bool, bool) {
        let a = self.assoc;
        let base = (line & self.set_mask) as usize * a;
        let g = &mut self.tags[base..base + a];
        if let Some(w) = g.iter().position(|&t| t == line) {
            self.stats.hits += 1;
            g[..=w].rotate_right(1);
            g[0] = line;
            (true, false)
        } else {
            let cold = self.cold.insert(line);
            g.rotate_right(1);
            g[0] = line;
            (false, cold)
        }
    }

    /// Per-access loop with per-array attribution and snapshot-window
    /// counting (taken only when the cache is `observed`). Memoizes the
    /// previous region slot: traces are bursty per array, so this
    /// usually skips the binary search.
    fn run_attributed(&mut self, trace: &[u64]) {
        for &p in trace {
            let addr = p & !WRITE_BIT;
            let line = addr >> self.line_shift;
            self.stats.accesses += 1;
            let (hit, cold) = self.access_line(line);
            let one = CacheStats {
                accesses: 1,
                hits: u64::from(hit),
                misses: u64::from(!hit),
                cold_misses: u64::from(cold),
            };
            self.window += one;
            let slot = if self.last_slot < self.regions.len()
                && self.regions[self.last_slot].contains(addr)
            {
                Some(self.last_slot)
            } else {
                let pos = self.regions.partition_point(|r| r.start <= addr);
                (pos > 0 && self.regions[pos - 1].contains(addr)).then(|| pos - 1)
            };
            let s = match slot {
                Some(k) => {
                    self.last_slot = k;
                    &mut self.regions[k].stats
                }
                None => &mut self.unattributed,
            };
            *s += one;
        }
    }
}

/// Decodes one core-loop item: a raw packed access (mask the write
/// bit, shift to the line number) or an already-extracted line from
/// the collapse front end.
#[inline(always)]
fn decode<const PACKED: bool>(it: u64, shift: u32) -> u64 {
    if PACKED {
        (it & !WRITE_BIT) >> shift
    } else {
        it
    }
}

/// Accumulates cold-map marks one 64-coordinate bitmap word at a time.
///
/// Used on the collapsed-line path only: a dup-heavy chunk is a sweep
/// whose misses land on consecutive lines, and marking those one at a
/// time read-modify-writes the *same* bitmap word back to back,
/// serializing the loop on store-to-load forwarding. Batching turns a
/// run of up to 64 marks into one OR. The packed path sees scattered
/// coordinates where the batching is pure overhead, so it marks
/// directly instead.
struct WordMarker {
    /// Pending word index (`coordinate >> 6`); `u64::MAX` = none.
    w: u64,
    /// Pending touch bits for that word.
    bits: u64,
}

impl WordMarker {
    #[inline]
    fn new() -> Self {
        WordMarker {
            w: u64::MAX,
            bits: 0,
        }
    }

    #[inline]
    fn mark(&mut self, cold: &mut ColdMap, c: u64) {
        let w = c >> 6;
        if w != self.w {
            if self.w != u64::MAX {
                cold.mark_word(self.w, self.bits);
            }
            (self.w, self.bits) = (w, 0);
        }
        self.bits |= 1 << (c & 63);
    }

    #[inline]
    fn flush(self, cold: &mut ColdMap) {
        if self.w != u64::MAX {
            cold.mark_word(self.w, self.bits);
        }
    }
}

/// Cheap per-chunk probe of duplicate-run density: samples up to 64
/// adjacent access pairs spread across the chunk and reports whether at
/// least a quarter were same-line repeats. Unit-stride sweeps sample
/// near 100%, strided/random streams near 0%, so the threshold is not
/// delicate. Pure function of the chunk contents — the path choice it
/// feeds never affects statistics, only throughput.
fn likely_dup_heavy(trace: &[u64], shift: u32, carry: u64) -> bool {
    if trace.len() < 32 {
        return false;
    }
    // Odd stride: line runs have power-of-two periods (line size over
    // element size), and an even stride could sample only run
    // boundaries and never see a duplicate.
    let stride = (trace.len() / 64.min(trace.len() / 2)) | 1;
    let line = |k: usize| (trace[k] & !WRITE_BIT) >> shift;
    let mut dups = 0usize;
    let mut pairs = 0usize;
    let mut k = 0usize;
    while k < trace.len() {
        let prev = if k == 0 { carry } else { line(k - 1) };
        dups += (line(k) == prev) as usize;
        pairs += 1;
        k += stride;
    }
    dups * 4 >= pairs
}

/// The run-collapse front end: strips write bits, extracts line
/// numbers, and folds *adjacent* same-line repeats out of the stream.
/// A repeat access to the line just touched is a guaranteed hit with no
/// state change (the line is resident — write-allocate — and already
/// MRU in its set), so the fold is exact: returned is the folded hit
/// count, and `out` receives the surviving distinct-line sequence the
/// core replays. `carry` holds the previous line across calls.
///
/// On x86-64 with AVX2 this runs four accesses per compare via an
/// explicit SIMD path (the autovectorizer cannot introduce the
/// data-dependent compaction store); everything else takes the scalar
/// loop. Both paths are exact and produce identical output — the
/// equivalence tests cover the SIMD path on any AVX2 host.
fn collapse_runs(trace: &[u64], shift: u32, carry: &mut u64, out: &mut Vec<u64>) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if trace.len() >= 16 && is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F presence was just verified at runtime.
            return unsafe { collapse_runs_avx512(trace, shift, carry, out) };
        }
        if trace.len() >= 8 && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just verified at runtime.
            return unsafe { collapse_runs_avx2(trace, shift, carry, out) };
        }
    }
    collapse_runs_scalar(trace, shift, carry, out)
}

/// AVX-512 run-collapse: eight packed accesses per iteration. The
/// predecessor vector is a single cross-lane `valignq` against the
/// previous iteration's lines, duplicate detection lands directly in a
/// k-mask, and the surviving lanes go out through a native
/// compress-store — no permutation table.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn collapse_runs_avx512(
    trace: &[u64],
    shift: u32,
    carry: &mut u64,
    out: &mut Vec<u64>,
) -> u64 {
    use std::arch::x86_64::*;
    let n = trace.len();
    out.clear();
    // Slack: a compress-store may touch up to 8 lanes past the cursor,
    // and the cursor never exceeds the input index.
    out.reserve(n + 8);
    let dst = out.as_mut_ptr();
    let mut cursor = 0usize;
    let mut hits = 0u64;
    let notw = _mm512_set1_epi64(!WRITE_BIT as i64);
    let shv = _mm_cvtsi32_si128(shift as i32);
    let mut prev_lines = _mm512_set1_epi64(*carry as i64);
    let mut i = 0usize;
    while i + 8 <= n {
        let v = _mm512_loadu_si512(trace.as_ptr().add(i) as *const _);
        let lines = _mm512_srl_epi64(_mm512_and_si512(v, notw), shv);
        // prev = [p7, line0..line6]
        let prev = _mm512_alignr_epi64::<7>(lines, prev_lines);
        let dup = _mm512_cmpeq_epi64_mask(lines, prev);
        hits += dup.count_ones() as u64;
        _mm512_mask_compressstoreu_epi64(dst.add(cursor) as *mut _, !dup, lines);
        cursor += 8 - dup.count_ones() as usize;
        prev_lines = lines;
        i += 8;
    }
    // Last consumed line: high half of the top 128-bit pair.
    let mut last = {
        let hi = _mm512_extracti64x2_epi64::<3>(prev_lines);
        _mm_extract_epi64::<1>(hi) as u64
    };
    while i < n {
        let line = (trace[i] & !WRITE_BIT) >> shift;
        if line == last {
            hits += 1;
        } else {
            dst.add(cursor).write(line);
            cursor += 1;
            last = line;
        }
        i += 1;
    }
    out.set_len(cursor);
    *carry = last;
    hits
}

fn collapse_runs_scalar(trace: &[u64], shift: u32, carry: &mut u64, out: &mut Vec<u64>) -> u64 {
    out.clear();
    out.reserve(trace.len());
    let mut last = *carry;
    let mut hits = 0u64;
    for &p in trace {
        let line = (p & !WRITE_BIT) >> shift;
        if line == last {
            hits += 1;
        } else {
            out.push(line);
            last = line;
        }
    }
    *carry = last;
    hits
}

/// Compaction table for the AVX2 run-collapse: entry `m` holds the
/// `vpermd` dword indices that move the 64-bit lanes whose bit in `m`
/// is **clear** (non-duplicate lines) to the front, order preserved.
#[cfg(target_arch = "x86_64")]
static COMPACT_PERM: [[u32; 8]; 16] = {
    let mut table = [[0u32; 8]; 16];
    let mut m = 0usize;
    while m < 16 {
        let mut w = 0usize;
        let mut lane = 0usize;
        while lane < 4 {
            if m & (1 << lane) == 0 {
                table[m][w] = (2 * lane) as u32;
                table[m][w + 1] = (2 * lane + 1) as u32;
                w += 2;
            }
            lane += 1;
        }
        m += 1;
    }
    table
};

/// Blend selectors for the 4-way AVX2 move-to-front, indexed by the hit
/// movemask (one-hot, or zero on a miss). An all-ones lane takes the
/// way-shifted group (`rot`), a zero lane keeps the group: ways at or
/// below the hit way shift down, ways past it stay. A miss (0) and a
/// tail hit (8) both shift the whole group. Indices with more than one
/// bit set are unreachable — a line resides in at most one way.
#[cfg(target_arch = "x86_64")]
static MTF4_SEL: [[u64; 4]; 16] = {
    let mut t = [[!0u64; 4]; 16];
    t[1] = [!0, 0, 0, 0];
    t[2] = [!0, !0, 0, 0];
    t[4] = [!0, !0, !0, 0];
    t
};

/// AVX2 run-collapse: four packed accesses per iteration. Per vector:
/// mask the write bits, shift to lines, compare each lane with its
/// predecessor (the carried line for lane 0), count the duplicate
/// lanes, and compact the survivors to the output cursor through a
/// [`COMPACT_PERM`] shuffle.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn collapse_runs_avx2(
    trace: &[u64],
    shift: u32,
    carry: &mut u64,
    out: &mut Vec<u64>,
) -> u64 {
    use std::arch::x86_64::*;
    let n = trace.len();
    out.clear();
    // Slack: each full-vector store writes 4 lanes at the cursor even
    // when fewer survive; the cursor never exceeds the input index, so
    // `n + 4` capacity bounds every write.
    out.reserve(n + 4);
    let dst = out.as_mut_ptr();
    let mut cursor = 0usize;
    let mut hits = 0u64;
    let notw = _mm256_set1_epi64x(!WRITE_BIT as i64);
    let shv = _mm_cvtsi32_si128(shift as i32);
    let mut i = 0usize;
    // The only loop-carried value is the previous lines vector itself
    // (lane 3 is the predecessor of the next vector's lane 0) — no
    // scalar extract/rebroadcast on the critical path.
    let mut prev_lines = _mm256_set1_epi64x(*carry as i64);
    while i + 4 <= n {
        let v = _mm256_loadu_si256(trace.as_ptr().add(i) as *const __m256i);
        let lines = _mm256_srl_epi64(_mm256_and_si256(v, notw), shv);
        // prev = [p3, line0, line1, line2] where p3 is the previous
        // vector's last lane: two-step cross-lane funnel shift.
        let x = _mm256_permute2x128_si256::<0x21>(prev_lines, lines);
        let prev = _mm256_alignr_epi8::<8>(lines, x);
        let dup = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lines, prev))) as usize;
        hits += dup.count_ones() as u64;
        let idx = _mm256_loadu_si256(COMPACT_PERM[dup].as_ptr() as *const __m256i);
        let packed = _mm256_permutevar8x32_epi32(lines, idx);
        _mm256_storeu_si256(dst.add(cursor) as *mut __m256i, packed);
        cursor += 4 - dup.count_ones() as usize;
        prev_lines = lines;
        i += 4;
    }
    let mut last = _mm256_extract_epi64::<3>(prev_lines) as u64;
    while i < n {
        let line = (trace[i] & !WRITE_BIT) >> shift;
        if line == last {
            hits += 1;
        } else {
            dst.add(cursor).write(line);
            cursor += 1;
            last = line;
        }
        i += 1;
    }
    out.set_len(cursor);
    *carry = last;
    hits
}

impl ShardedCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let assoc = config.assoc() as usize;
        ShardedCache {
            line_shift: config.line().trailing_zeros(),
            set_mask: sets - 1,
            assoc,
            tags: vec![EMPTY; sets as usize * assoc].into_boxed_slice(),
            cold: ColdMap::new(),
            cold_base: 0,
            stats: CacheStats::default(),
            regions: Vec::new(),
            unattributed: CacheStats::default(),
            last_slot: usize::MAX,
            observed: false,
            window: CacheStats::default(),
            interval: 0,
            window_fill: 0,
            snapshots: Vec::new(),
            carry: EMPTY,
            line_buf: Vec::new(),
            run_buf: Vec::new(),
            next_cross: Vec::new(),
            iter_lines: Vec::new(),
        }
    }

    /// Turns on interval snapshots: the miss rate is snapshotted every
    /// `interval` accesses (`0` leaves them off). Windows are counted
    /// per access, so a snapshotting cache takes the attributed path
    /// even with no region registered.
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval;
        self.observed |= interval > 0;
        self
    }

    /// Registers a contiguous byte range (an array arena) so cold-miss
    /// classification for it uses a dense bitmap instead of the sparse
    /// fallback. Purely an accelerator; statistics never depend on it.
    pub fn reserve_region(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = start >> self.line_shift;
        let last = (start + len - 1) >> self.line_shift;
        self.cold.reserve_lines(first, last + 1);
    }

    /// Registers a named byte range for per-array attribution (and
    /// dense cold tracking). Regions must not overlap; they are kept
    /// sorted by start address.
    pub fn register_region(&mut self, name: impl Into<String>, start: u64, len: u64) {
        let pos = self.regions.partition_point(|r| r.start < start);
        self.regions.insert(
            pos,
            Region {
                name: name.into(),
                start,
                len,
                stats: CacheStats::default(),
            },
        );
        self.last_slot = usize::MAX;
        self.observed = true;
        self.reserve_region(start, len);
    }

    /// Simulates one access; returns `true` on a hit. Writes and reads
    /// behave identically under write-allocate.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let hits = self.stats.hits;
        self.access_batch(&[pack_access(addr, is_write)]);
        self.stats.hits > hits
    }

    /// Simulates a packed batch (see [`crate::fast::pack_access`]) in
    /// trace order. With snapshots on, the batch is cut at every
    /// multiple of `interval` and each window closed as it fills.
    pub fn access_batch(&mut self, batch: &[u64]) {
        if self.interval == 0 {
            self.run(batch);
            return;
        }
        let mut rest = batch;
        while !rest.is_empty() {
            let room = (self.interval - self.window_fill).min(rest.len() as u64);
            let (seg, tail) = rest.split_at(room as usize);
            self.run(seg);
            self.window_fill += room;
            if self.window_fill == self.interval {
                self.close_window();
            }
            rest = tail;
        }
    }

    /// Whether [`ShardedCache::access_run`] skips work on this cache:
    /// it has no regions or snapshots, which count every access.
    pub fn takes_runs(&self) -> bool {
        !self.observed
    }

    /// Simulates a loop run (see [`LoopRun`]): the same statistics,
    /// cache contents and cold history as its expansion through
    /// [`ShardedCache::access_batch`], which is what a cache that does
    /// not [`ShardedCache::takes_runs`] is fed.
    ///
    /// A cache that takes runs simulates three kinds of iteration in
    /// full: the first, every one in which some stream enters a new
    /// line, and every one whose lines number more than `assoc` in some
    /// set. It counts every other access as a hit and does nothing
    /// else for it. That is exact for true LRU. Take a stretch of
    /// iterations that all touch the same lines, at most `assoc` of
    /// them per set. After its first iteration each of those lines is
    /// resident (no set saw enough other lines to evict one), and they
    /// are the most recently used lines of their sets, ordered by their
    /// last touch in the iteration. The next iteration touches the same
    /// lines in the same order, so every access hits and the order it
    /// leaves is the same: the state and the cold history are
    /// unchanged. By induction, so is every later iteration of the
    /// stretch.
    pub fn access_run(&mut self, run: LoopRun<'_>) {
        if self.takes_runs() {
            self.run_loop(run);
        } else {
            run.expand(RUN_CHUNK, |batch| self.access_batch(batch));
        }
    }

    /// Closes the open snapshot window.
    fn close_window(&mut self) {
        let w = std::mem::take(&mut self.window);
        self.snapshots.push(IntervalSnapshot {
            upto: self.stats.accesses,
            accesses: w.accesses,
            misses: w.misses,
            cold_misses: w.cold_misses,
        });
        self.window_fill = 0;
    }

    /// Closes the current (partial) window, if non-empty. Call once at
    /// end of trace so the tail shows up in [`ShardedCache::snapshots`].
    pub fn flush_window(&mut self) {
        if self.window_fill > 0 {
            self.close_window();
        }
    }

    /// Closed interval snapshots, oldest first.
    pub fn snapshots(&self) -> &[IntervalSnapshot] {
        &self.snapshots
    }

    /// The closed snapshots as a miss-rate series: `(position, rate)`
    /// pairs where `position` is the window's end as a fraction of the
    /// whole trace in `[0, 1]`. This is the shape trace counter tracks
    /// want — callers map `position` onto the simulation span's
    /// timeline. Empty when snapshots are off or nothing closed.
    pub fn miss_rate_series(&self) -> Vec<(f64, f64)> {
        let total = self.stats.accesses;
        if total == 0 {
            return Vec::new();
        }
        self.snapshots
            .iter()
            .map(|s| (s.upto as f64 / total as f64, s.miss_rate()))
            .collect()
    }

    /// Whole-trace statistics: `misses = accesses - hits`,
    /// `cold_misses = distinct lines touched since the last reset`.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            accesses: self.stats.accesses,
            hits: self.stats.hits,
            misses: self.stats.accesses - self.stats.hits,
            cold_misses: self.cold.len() as u64 - self.cold_base,
        }
    }

    /// Per-array statistics in region start-address order.
    pub fn per_array(&self) -> Vec<(String, CacheStats)> {
        self.regions
            .iter()
            .map(|r| (r.name.clone(), r.stats))
            .collect()
    }

    /// Statistics of accesses outside every registered region.
    pub fn unattributed(&self) -> CacheStats {
        self.unattributed
    }

    /// Resets statistics (whole-trace and per-array) but keeps cache
    /// contents **and cold-line history** (useful for excluding warm-up
    /// phases): a line first touched before the reset never counts as a
    /// cold miss afterwards. Contrast with [`ShardedCache::clear`].
    /// Snapshot windows are a stream position and carry on.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.cold_base = self.cold.len() as u64;
        for r in &mut self.regions {
            r.stats = CacheStats::default();
        }
        self.unattributed = CacheStats::default();
    }

    /// Empties the cache, statistics, cold history and snapshot windows:
    /// afterwards the cache exports exactly what a freshly built one
    /// with the same regions and interval would, and every line's next
    /// touch is a cold miss again (unlike [`ShardedCache::reset_stats`]).
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.cold.clear();
        self.reset_stats();
        self.last_slot = usize::MAX;
        self.window = CacheStats::default();
        self.carry = EMPTY;
        self.window_fill = 0;
        self.snapshots.clear();
    }

    /// `true` when the cache holds no lines, statistics, cold-line
    /// history or snapshots — the state a fresh differential or
    /// verifier run must start from. A cache that has only seen
    /// [`ShardedCache::reset_stats`] still carries touch history and
    /// reports `false`.
    pub fn is_cold_start(&self) -> bool {
        self.window_fill == 0
            && self.snapshots.is_empty()
            && self.stats == CacheStats::default()
            && self.cold.is_empty()
            && self.tags.iter().all(|&t| t == EMPTY)
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Exports everything into `registry` under `prefix`:
    ///
    /// * counters `{prefix}.{accesses,hits,misses,cold_misses}`;
    /// * counters `{prefix}.array.{NAME}.{accesses,misses,cold_misses}`;
    /// * histogram `{prefix}.interval_miss_rate` — one sample per closed
    ///   window.
    ///
    /// Everything is a pure function of the trace and the interval
    /// (never of `CMT_JOBS` or wall-clock), so obs_diff can gate on
    /// these across runs.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry, prefix: &str) {
        let s = self.stats();
        registry.counter(&format!("{prefix}.accesses"), s.accesses);
        registry.counter(&format!("{prefix}.hits"), s.hits);
        registry.counter(&format!("{prefix}.misses"), s.misses);
        registry.counter(&format!("{prefix}.cold_misses"), s.cold_misses);
        for r in &self.regions {
            let (name, st) = (&r.name, r.stats);
            registry.counter(&format!("{prefix}.array.{name}.accesses"), st.accesses);
            registry.counter(&format!("{prefix}.array.{name}.misses"), st.misses);
            registry.counter(
                &format!("{prefix}.array.{name}.cold_misses"),
                st.cold_misses,
            );
        }
        for snap in &self.snapshots {
            registry.record(&format!("{prefix}.interval_miss_rate"), snap.miss_rate());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::{pack_access, unpack_access};
    use crate::legacy::LegacyCache;

    /// Scalar attribution reference on the legacy oracle: the hit comes
    /// from `access`, the cold flag from the `cold_misses` delta, and the
    /// array from a binary search over `(start, len)` regions sorted by
    /// start. Returns (whole-trace, per-array, unattributed) stats.
    fn legacy_attribution(
        cfg: CacheConfig,
        regions: &[(u64, u64)],
        trace: &[u64],
    ) -> (CacheStats, Vec<CacheStats>, CacheStats) {
        let mut legacy = LegacyCache::new(cfg);
        let mut per_array = vec![CacheStats::default(); regions.len()];
        let mut unattributed = CacheStats::default();
        for &p in trace {
            let (addr, w) = unpack_access(p);
            let cold_before = legacy.stats().cold_misses;
            let hit = legacy.access(addr, w);
            let cold = legacy.stats().cold_misses > cold_before;
            let pos = regions.partition_point(|&(start, _)| start <= addr);
            let s = match pos.checked_sub(1) {
                Some(k) if addr - regions[k].0 < regions[k].1 => &mut per_array[k],
                _ => &mut unattributed,
            };
            *s += CacheStats {
                accesses: 1,
                hits: u64::from(hit),
                misses: u64::from(!hit),
                cold_misses: u64::from(cold),
            };
        }
        (legacy.stats(), per_array, unattributed)
    }

    fn streams() -> Vec<(&'static str, Vec<u64>)> {
        let mut lcg = Vec::new();
        let mut x = 0x243F6A8885A308D3u64;
        for k in 0..40_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            lcg.push(pack_access((x % (1 << 22)) & !7, k % 4 == 0));
        }
        let seq: Vec<u64> = (0..40_000u64)
            .map(|k| pack_access(k * 8 % (1 << 18), k % 3 == 0))
            .collect();
        let strided: Vec<u64> = (0..40_000u64)
            .map(|k| pack_access(k * 4096 % (1 << 24), false))
            .collect();
        vec![("lcg", lcg), ("seq", seq), ("strided", strided)]
    }

    fn geometries() -> [CacheConfig; 4] {
        [
            CacheConfig::rs6000(),
            CacheConfig::i860(),
            CacheConfig::decstation(),
            CacheConfig::new(4096, 8, 64), // 8-way: exercises run_mtf::<8>
        ]
    }

    #[test]
    fn matches_legacy_oracle() {
        for (kind, trace) in streams() {
            for cfg in geometries() {
                let mut legacy = LegacyCache::new(cfg);
                for &p in &trace {
                    let (a, w) = unpack_access(p);
                    legacy.access(a, w);
                }
                let mut engine = ShardedCache::new(cfg);
                for chunk in trace.chunks(4096) {
                    engine.access_batch(chunk);
                }
                assert_eq!(engine.stats(), legacy.stats(), "{kind}/{cfg}");
                assert_eq!(
                    engine.resident_lines(),
                    legacy.resident_lines(),
                    "{kind}/{cfg} resident set"
                );
            }
        }
    }

    #[test]
    fn scalar_access_reports_hits_like_the_oracle() {
        let (_, trace) = &streams()[0];
        for cfg in [CacheConfig::rs6000(), CacheConfig::i860()] {
            let mut legacy = LegacyCache::new(cfg);
            let mut scalar = ShardedCache::new(cfg);
            let mut batched = ShardedCache::new(cfg);
            for (k, &p) in trace.iter().enumerate() {
                let (a, w) = unpack_access(p);
                assert_eq!(scalar.access(a, w), legacy.access(a, w), "access {k}");
                if k == trace.len() / 2 {
                    // A batch between scalar accesses is simulated
                    // before the next scalar access answers.
                    scalar.access_batch(&trace[..4096]);
                    for &q in &trace[..4096] {
                        let (a, w) = unpack_access(q);
                        legacy.access(a, w);
                    }
                }
            }
            let mid = trace.len() / 2 + 1;
            let replay = [&trace[..mid], &trace[..4096], &trace[mid..]].concat();
            for chunk in replay.chunks(1000) {
                batched.access_batch(chunk);
            }
            assert_eq!(scalar.stats(), legacy.stats());
            assert_eq!(batched.stats(), legacy.stats());
        }
    }

    #[test]
    fn lru_order_spatial_hits_and_sparse_cold_history() {
        // 2 sets × 2 ways × 16-byte lines. Set 0 holds even lines.
        let mut c = ShardedCache::new(CacheConfig::new(64, 2, 16));
        assert!(!c.access(0, false)); // line 0 → set 0
        assert!(c.access(8, false), "same line");
        assert!(!c.access(32, false)); // line 2 → set 0
        assert!(c.access(0, false)); // line 0 is MRU again
        assert!(!c.access(64, false)); // line 4 evicts line 2 (LRU)
        assert!(c.access(0, false), "line 0 must survive");
        assert!(!c.access(32, false), "line 2 was evicted");
        let s = c.stats();
        assert_eq!((s.misses, s.cold_misses), (4, 3), "the re-miss is warm");
        // Far outside every region: sparse cold history, forgotten by
        // clear like the dense kind.
        c.access(1 << 40, true);
        c.clear();
        assert!(c.is_cold_start());
        assert!(!c.access(1 << 40, false), "cold again after clear");
        assert_eq!(c.stats().cold_misses, 1);
    }

    #[test]
    fn reserved_regions_do_not_change_stats() {
        let (_, trace) = &streams()[0];
        let mut plain = ShardedCache::new(CacheConfig::i860());
        let mut reserved = ShardedCache::new(CacheConfig::i860());
        reserved.reserve_region(0, 1 << 22);
        plain.access_batch(trace);
        reserved.access_batch(trace);
        assert_eq!(plain.stats(), reserved.stats());
    }

    #[test]
    fn per_array_attribution_matches_legacy_reference() {
        let regions = [(0u64, 1u64 << 14), (1 << 14, 1 << 14)];
        let mut x = 7u64;
        let trace: Vec<u64> = (0..30_000u64)
            .map(|k| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Mostly inside A and B, occasionally outside both.
                let addr = (x % (1 << 15)) & !7;
                let addr = if k % 97 == 0 { addr + (1 << 20) } else { addr };
                pack_access(addr, k % 4 == 0)
            })
            .collect();
        let (whole, arrays, outside) = legacy_attribution(CacheConfig::i860(), &regions, &trace);
        let mut c = ShardedCache::new(CacheConfig::i860());
        for (name, (start, len)) in ["A", "B"].into_iter().zip(regions) {
            c.register_region(name, start, len);
        }
        for &p in &trace {
            let (a, w) = unpack_access(p);
            c.access(a, w);
        }
        assert_eq!(c.stats(), whole);
        let expected = vec![("A".to_string(), arrays[0]), ("B".to_string(), arrays[1])];
        assert_eq!(c.per_array(), expected);
        assert_eq!(c.unattributed(), outside);
    }

    #[test]
    fn interval_snapshots_cover_the_trace() {
        let mut c = ShardedCache::new(CacheConfig::new(64, 2, 16)).with_interval(4);
        for a in 0..10u64 {
            c.access(a * 16, false); // every access a new line: all misses
        }
        c.flush_window();
        let snaps = c.snapshots();
        assert_eq!(snaps.len(), 3); // 4 + 4 + 2
        assert_eq!(snaps[0].accesses, 4);
        assert_eq!(snaps[2].accesses, 2);
        assert_eq!(snaps[2].upto, 10);
        assert!(snaps.iter().all(|s| (s.miss_rate() - 1.0).abs() < 1e-12));
        // Every miss here is a first touch, so the cold split is total.
        assert!(snaps.iter().all(|s| s.cold_misses == s.misses));
    }

    #[test]
    fn snapshots_close_at_boundaries_inside_one_batch() {
        // One batch that crosses six 5 000-access boundaries closes the
        // same windows as the same accesses fed one at a time.
        let (_, lcg) = &streams()[0];
        let trace = &lcg[..1 << 15];
        let run = |batched: bool| {
            let mut c = ShardedCache::new(CacheConfig::i860()).with_interval(5_000);
            c.register_region("A", 0, 1 << 21);
            if batched {
                c.access_batch(trace);
            } else {
                for &p in trace {
                    let (a, w) = unpack_access(p);
                    c.access(a, w);
                }
            }
            c.flush_window();
            c.snapshots().to_vec()
        };
        let batched = run(true);
        assert_eq!(batched.len(), 7);
        assert_eq!(batched, run(false));
    }

    #[test]
    fn export_writes_stable_metric_names() {
        let mut c = ShardedCache::new(CacheConfig::new(64, 2, 16)).with_interval(2);
        c.register_region("X", 0, 64);
        for a in (0..64u64).step_by(8) {
            c.access(a, false);
        }
        c.flush_window();
        let mut reg = MetricsRegistry::new();
        c.export_metrics(&mut reg, "cache.test");
        assert_eq!(reg.counter_value("cache.test.accesses"), 8);
        assert_eq!(reg.counter_value("cache.test.array.X.accesses"), 8);
        assert!(reg.histogram("cache.test.interval_miss_rate").is_some());
    }

    #[test]
    fn clear_exports_like_a_fresh_cache() {
        let (_, trace) = &streams()[0];
        let fresh = || {
            let mut c = ShardedCache::new(CacheConfig::rs6000()).with_interval(1000);
            c.register_region("A", 0, 1 << 22);
            c
        };
        let export = |c: &ShardedCache| {
            let mut reg = MetricsRegistry::new();
            c.export_metrics(&mut reg, "sim");
            reg.to_json()
        };
        let mut used = fresh();
        used.access_batch(trace);
        used.clear();
        assert_eq!(export(&used), export(&fresh()));
    }

    #[test]
    fn reset_and_clear_semantics() {
        let mut c = ShardedCache::new(CacheConfig::new(64, 2, 16));
        c.access(0, false);
        c.reset_stats();
        c.access(0, false);
        let s = c.stats();
        assert_eq!((s.accesses, s.hits), (1, 1), "line survives reset_stats");
        c.clear();
        assert!(c.is_cold_start());
        c.access(0, false);
        let s = c.stats();
        assert_eq!(s.cold_misses, 1, "history cleared too");
        assert!(!c.is_cold_start());
    }

    #[test]
    fn fresh_paper_caches_take_runs() {
        for cfg in [
            CacheConfig::rs6000(),
            CacheConfig::i860(),
            CacheConfig::decstation(),
        ] {
            assert!(ShardedCache::new(cfg).takes_runs(), "{cfg}");
            assert!(!ShardedCache::new(cfg).with_interval(64).takes_runs());
        }
    }
}
