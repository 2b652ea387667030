//! Trace sinks: consumers of the interpreter's memory accesses.
//!
//! The interpreter no longer performs one virtual call per access: it
//! fills a fixed buffer of packed accesses (address plus write bit — see
//! [`pack_access`]) and flushes it through [`TraceSink::access_batch`],
//! amortizing the `dyn` dispatch ~[`BATCH_LEN`]× and letting cache sinks
//! run a tight monomorphic simulation loop per buffer. Sinks that only
//! implement [`TraceSink::access`] still observe every access in order
//! via the default batch implementation.
//!
//! A sink that discards part of the stream unseen ([`SampledSink`])
//! says where through [`TraceSink::dropped_span`], and the address-only
//! executor skips those accesses rather than producing them. Every
//! other sink keeps the default, which drops nothing and is never
//! skipped.
//!
//! A sink that can do better with a whole loop than with its accesses
//! opts in through [`TraceSink::takes_runs`]: the address-only executor
//! then hands it each bounds-proven innermost loop as one [`LoopRun`]
//! through [`TraceSink::access_run`], after flushing what it buffered
//! before the loop. A one-shard cache without regions or snapshots
//! opts in ([`ShardedCache::takes_runs`]) and simulates only the
//! iterations in which some stream enters a new line; [`MeteredSink`]
//! and [`CacheSink`] forward the choice and the runs. Every other sink
//! keeps the default, is never handed a run, and sees exactly the
//! batches it would without runs. The default [`TraceSink::access_run`]
//! expands the run into batches, and is the oracle overrides are
//! tested against.

use cmt_cache::ShardedCache;
use cmt_obs::{MetricsRegistry, TraceArg, TraceTrack};

pub use cmt_cache::fast::{pack_access, unpack_access, WRITE_BIT};
pub use cmt_cache::run::{LoopRun, Stream};

/// Number of packed accesses the interpreter buffers between flushes
/// (32 KB per buffer — comfortably L1-resident).
pub const BATCH_LEN: usize = 4096;

/// Receives every memory access the interpreter performs, in execution
/// order.
pub trait TraceSink {
    /// One element access at byte address `addr`; `is_write` is true for
    /// stores.
    fn access(&mut self, addr: u64, is_write: bool);

    /// A buffer of packed accesses (see [`pack_access`]), in execution
    /// order. The default unpacks and forwards to [`TraceSink::access`],
    /// so implementing `access` alone is always correct; sinks on the
    /// hot path override this with a batch-granular implementation.
    fn access_batch(&mut self, batch: &[u64]) {
        for &p in batch {
            let (addr, w) = unpack_access(p);
            self.access(addr, w);
        }
    }

    /// The next span of the stream this sink will drop without looking
    /// at it, counted from the access after the `pending` ones its
    /// producer has made but not yet handed over: `(kept, dropped)`
    /// means the sink looks at the next `kept` accesses, then drops
    /// `dropped`. A producer may meter accesses inside that span through
    /// [`TraceSink::skip`] instead of producing them. The default,
    /// `(u64::MAX, 0)`, drops nothing: every access is looked at.
    fn dropped_span(&self, _pending: u64) -> (u64, u64) {
        (u64::MAX, 0)
    }

    /// Meters `loads` loads and `stores` stores that the producer did not
    /// hand over: the next accesses of the stream, all inside the span
    /// [`TraceSink::dropped_span`] announced with nothing pending. Only a
    /// sink that announces dropped spans is ever skipped.
    fn skip(&mut self, loads: u64, stores: u64) {
        debug_assert_eq!(loads + stores, 0, "skipped a sink that drops nothing");
    }

    /// Whether this sink takes a bounds-proven innermost loop whole,
    /// through [`TraceSink::access_run`]. The default, `false`, means a
    /// producer never hands it a run: it sees every access through
    /// [`TraceSink::access_batch`].
    fn takes_runs(&self) -> bool {
        false
    }

    /// The whole of a loop's accesses, as its streams and an iteration
    /// count (see [`LoopRun`]): the next [`LoopRun::accesses`] accesses
    /// of the stream. Only a sink that [`TraceSink::takes_runs`] is
    /// handed one. The default expands the run into
    /// [`TraceSink::access_batch`] calls of at most [`BATCH_LEN`]
    /// accesses, so the expansion is what any override must match.
    fn access_run(&mut self, run: LoopRun<'_>) {
        run.expand(BATCH_LEN, |batch| self.access_batch(batch));
    }
}

/// Discards the trace (pure execution / verification runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn access(&mut self, _addr: u64, _is_write: bool) {}

    fn access_batch(&mut self, _batch: &[u64]) {}
}

/// Counts loads and stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of loads.
    pub loads: u64,
    /// Number of stores.
    pub stores: u64,
}

impl TraceSink for CountingSink {
    fn access(&mut self, _addr: u64, is_write: bool) {
        if is_write {
            self.stores += 1;
        } else {
            self.loads += 1;
        }
    }

    fn access_batch(&mut self, batch: &[u64]) {
        let stores = batch.iter().filter(|&&p| p & WRITE_BIT != 0).count() as u64;
        self.stores += stores;
        self.loads += batch.len() as u64 - stores;
    }
}

impl TraceSink for ShardedCache {
    fn access(&mut self, addr: u64, is_write: bool) {
        let _ = ShardedCache::access(self, addr, is_write);
    }

    fn access_batch(&mut self, batch: &[u64]) {
        ShardedCache::access_batch(self, batch);
    }

    fn takes_runs(&self) -> bool {
        ShardedCache::takes_runs(self)
    }

    fn access_run(&mut self, run: LoopRun<'_>) {
        ShardedCache::access_run(self, run);
    }
}

/// Wraps another sink and meters the stream: loads and stores executed,
/// exportable into a [`MetricsRegistry`]. This is how a bench run answers
/// "how many accesses did the interpreter actually issue" without a
/// second pass over the trace.
///
/// Generic over the inner sink — no boxing, no per-access virtual call —
/// so metering composes with the batched path for free: a batch is
/// counted with one pass over the write bits and handed to the inner
/// sink whole.
#[derive(Clone, Debug, Default)]
pub struct MeteredSink<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Loads forwarded so far.
    pub loads: u64,
    /// Stores forwarded so far.
    pub stores: u64,
}

impl<S: TraceSink> MeteredSink<S> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: S) -> Self {
        MeteredSink {
            inner,
            loads: 0,
            stores: 0,
        }
    }

    /// Total accesses forwarded.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Writes `{prefix}.{loads,stores,accesses}` counters into `registry`.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry, prefix: &str) {
        registry.counter(&format!("{prefix}.loads"), self.loads);
        registry.counter(&format!("{prefix}.stores"), self.stores);
        registry.counter(&format!("{prefix}.accesses"), self.accesses());
    }
}

impl<S: TraceSink> TraceSink for MeteredSink<S> {
    fn access(&mut self, addr: u64, is_write: bool) {
        if is_write {
            self.stores += 1;
        } else {
            self.loads += 1;
        }
        self.inner.access(addr, is_write);
    }

    fn access_batch(&mut self, batch: &[u64]) {
        let stores = batch.iter().filter(|&&p| p & WRITE_BIT != 0).count() as u64;
        self.stores += stores;
        self.loads += batch.len() as u64 - stores;
        self.inner.access_batch(batch);
    }

    fn takes_runs(&self) -> bool {
        self.inner.takes_runs()
    }

    fn access_run(&mut self, run: LoopRun<'_>) {
        self.loads += run.loads();
        self.stores += run.stores();
        self.inner.access_run(run);
    }
}

/// Wraps a sink and records one trace span per flushed batch onto a
/// [`TraceTrack`], so a Perfetto view of a simulation shows where the
/// access stream's time actually goes batch by batch. Scalar accesses
/// forward untimed — per-access spans would dwarf the work they measure.
#[derive(Debug)]
pub struct TracedSink<'a, S> {
    /// The wrapped sink.
    pub inner: S,
    /// The track receiving one `sim.batch` complete-span per batch.
    pub track: &'a mut TraceTrack,
}

impl<'a, S: TraceSink> TracedSink<'a, S> {
    /// Wraps `inner`, spanning onto `track`.
    pub fn new(inner: S, track: &'a mut TraceTrack) -> Self {
        TracedSink { inner, track }
    }
}

impl<S: TraceSink> TraceSink for TracedSink<'_, S> {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.inner.access(addr, is_write);
    }

    fn access_batch(&mut self, batch: &[u64]) {
        let start = self.track.now_us();
        self.inner.access_batch(batch);
        self.track.complete_since(
            start,
            "sim.batch",
            &[("len", TraceArg::U64(batch.len() as u64))],
        );
    }
}

/// Forwards only a deterministic subset of the access stream to the
/// inner sink: the stream is cut into fixed-length *windows* of
/// `window_len` consecutive accesses, and a window is simulated iff its
/// index falls on a seeded residue class modulo `stride` (or it is
/// window 0 — every stream contributes at least one measured window, so
/// short nests are never estimated from zero observations).
///
/// Windows are positions in the *logical* access stream, not interpreter
/// batches: a batch spanning a window boundary is split, so the sampled
/// subset depends only on `(window_len, stride, phase)` and the stream
/// itself — never on how the producer chunks its flushes. The phase is
/// derived from a caller-provided seed via [`cmt_obs::SplitMix64`],
/// which keeps sampled results byte-identical across `CMT_JOBS` values
/// and across runs.
///
/// The sink meters the whole stream (loads/stores seen) alongside the
/// forwarded subset, so callers can scale observed statistics back to
/// full-trace estimates (see `CacheStats::scaled_to` in `cmt-cache`).
///
/// It announces the windows it drops through
/// [`TraceSink::dropped_span`], so a producer that can jump over
/// accesses ([`crate::Layout::trace`]) meters them through
/// [`TraceSink::skip`] instead of producing them. Skipped or not, the
/// forwarded subsequence and every counter come out the same.
#[derive(Clone, Debug)]
pub struct SampledSink<S> {
    /// The wrapped sink; sees only the sampled windows.
    pub inner: S,
    window_len: u64,
    stride: u64,
    phase: u64,
    position: u64,
    /// Loads seen (forwarded or not).
    pub loads_seen: u64,
    /// Stores seen (forwarded or not).
    pub stores_seen: u64,
    /// Accesses forwarded to the inner sink.
    pub sampled: u64,
}

impl<S: TraceSink> SampledSink<S> {
    /// Samples every `stride`-th window of `window_len` accesses, with
    /// the residue class drawn from `seed`. `stride = 1` (or a zero
    /// `stride`/`window_len`, which are clamped to 1) forwards the whole
    /// stream.
    pub fn every_kth(inner: S, window_len: u64, stride: u64, seed: u64) -> Self {
        let stride = stride.max(1);
        let phase = cmt_obs::SplitMix64::seed_from_u64(seed).next_u64() % stride;
        SampledSink {
            inner,
            window_len: window_len.max(1),
            stride,
            phase,
            position: 0,
            loads_seen: 0,
            stores_seen: 0,
            sampled: 0,
        }
    }

    /// A pass-through sampler: every access is forwarded, but the stream
    /// is still metered — the degenerate `stride = 1` case.
    pub fn full(inner: S) -> Self {
        SampledSink::every_kth(inner, BATCH_LEN as u64, 1, 0)
    }

    fn is_sampled(&self, window: u64) -> bool {
        window == 0 || window % self.stride == self.phase
    }

    /// Total accesses seen (forwarded or not).
    pub fn accesses_seen(&self) -> u64 {
        self.loads_seen + self.stores_seen
    }

    /// Windows the stream has started so far.
    pub fn windows_total(&self) -> u64 {
        self.position.div_ceil(self.window_len)
    }

    /// How many of [`SampledSink::windows_total`] were forwarded.
    pub fn windows_sampled(&self) -> u64 {
        let total = self.windows_total();
        if total == 0 {
            return 0;
        }
        if self.stride == 1 {
            return total;
        }
        // Count of w in [0, total) with w % stride == phase, plus
        // window 0 when it is not already on the phase class.
        let on_class = if self.phase >= total {
            0
        } else {
            (total - 1 - self.phase) / self.stride + 1
        };
        on_class + u64::from(self.phase != 0)
    }

    /// Fraction of the stream forwarded, in `[0, 1]`; `1.0` for an empty
    /// stream (nothing was skipped).
    pub fn sampled_fraction(&self) -> f64 {
        let seen = self.accesses_seen();
        if seen == 0 {
            1.0
        } else {
            self.sampled as f64 / seen as f64
        }
    }

    /// Consumes the sampler, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for SampledSink<S> {
    fn access(&mut self, addr: u64, is_write: bool) {
        if is_write {
            self.stores_seen += 1;
        } else {
            self.loads_seen += 1;
        }
        if self.is_sampled(self.position / self.window_len) {
            self.inner.access(addr, is_write);
            self.sampled += 1;
        }
        self.position += 1;
    }

    fn access_batch(&mut self, batch: &[u64]) {
        let stores = batch.iter().filter(|&&p| p & WRITE_BIT != 0).count() as u64;
        self.stores_seen += stores;
        self.loads_seen += batch.len() as u64 - stores;
        let mut off = 0usize;
        while off < batch.len() {
            let in_window = (self.window_len - self.position % self.window_len) as usize;
            let take = in_window.min(batch.len() - off);
            if self.is_sampled(self.position / self.window_len) {
                self.inner.access_batch(&batch[off..off + take]);
                self.sampled += take as u64;
            }
            self.position += take as u64;
            off += take;
        }
    }

    fn dropped_span(&self, pending: u64) -> (u64, u64) {
        if self.stride == 1 {
            return (u64::MAX, 0);
        }
        let at = self.position + pending;
        // The sampled windows are window 0 and the phase class, so at
        // most two are adjacent (0 and 1, under phase 1): this stops
        // within two steps.
        let mut w = at / self.window_len;
        while self.is_sampled(w) {
            w += 1;
        }
        let start = at.max(w * self.window_len);
        let next = w + (self.phase + self.stride - w % self.stride) % self.stride;
        (start - at, next * self.window_len - start)
    }

    fn skip(&mut self, loads: u64, stores: u64) {
        debug_assert!(
            {
                let (kept, dropped) = self.dropped_span(0);
                kept == 0 && dropped >= loads + stores
            },
            "skipped accesses the sampler would have forwarded"
        );
        self.loads_seen += loads;
        self.stores_seen += stores;
        self.position += loads + stores;
    }
}

/// Borrows a cache (or any sink) mutably — convenient when the sink must
/// outlive the run.
#[derive(Debug)]
pub struct CacheSink<'a, S: TraceSink>(pub &'a mut S);

impl<S: TraceSink> TraceSink for CacheSink<'_, S> {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.0.access(addr, is_write);
    }

    fn access_batch(&mut self, batch: &[u64]) {
        self.0.access_batch(batch);
    }

    fn takes_runs(&self) -> bool {
        self.0.takes_runs()
    }

    fn access_run(&mut self, run: LoopRun<'_>) {
        self.0.access_run(run);
    }
}

/// Records the full trace in memory — for tests, debugging, and feeding
/// the same trace to several analyses.
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    /// The trace, in execution order.
    pub trace: Vec<(u64, bool)>,
}

impl TraceSink for RecordingSink {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.trace.push((addr, is_write));
    }

    fn access_batch(&mut self, batch: &[u64]) {
        self.trace.extend(batch.iter().map(|&p| unpack_access(p)));
    }
}

impl RecordingSink {
    /// Replays the recorded trace into another sink, one scalar
    /// [`TraceSink::access`] call per element — the reference path
    /// equivalence tests compare the batched engine against.
    pub fn replay(&self, sink: &mut impl TraceSink) {
        for &(addr, w) in &self.trace {
            sink.access(addr, w);
        }
    }

    /// Replays the recorded trace through [`TraceSink::access_batch`] in
    /// [`BATCH_LEN`]-sized buffers — the same shape the interpreter
    /// produces.
    pub fn replay_batched(&self, sink: &mut impl TraceSink) {
        let mut buf = Vec::with_capacity(BATCH_LEN.min(self.trace.len()));
        for chunk in self.trace.chunks(BATCH_LEN) {
            buf.clear();
            buf.extend(chunk.iter().map(|&(a, w)| pack_access(a, w)));
            sink.access_batch(&buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_cache::CacheConfig;

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        s.access(0, false);
        s.access(8, true);
        s.access(16, false);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
    }

    #[test]
    fn counting_sink_batch_matches_scalar() {
        let batch: Vec<u64> = (0..1000u64)
            .map(|k| pack_access(k * 8, k % 3 == 0))
            .collect();
        let mut scalar = CountingSink::default();
        for &p in &batch {
            let (a, w) = unpack_access(p);
            scalar.access(a, w);
        }
        let mut batched = CountingSink::default();
        batched.access_batch(&batch);
        assert_eq!(scalar, batched);
    }

    #[test]
    fn recording_and_replay() {
        let mut rec = RecordingSink::default();
        rec.access(0, false);
        rec.access(8, true);
        assert_eq!(rec.trace, vec![(0, false), (8, true)]);
        let mut count = CountingSink::default();
        rec.replay(&mut count);
        assert_eq!((count.loads, count.stores), (1, 1));
    }

    #[test]
    fn batched_replay_matches_scalar_replay() {
        let mut rec = RecordingSink::default();
        for k in 0..10_000u64 {
            rec.access((k * 56) % (1 << 16), k % 4 == 0);
        }
        let mut a = ShardedCache::with_shards(CacheConfig::i860(), 4);
        let mut b = ShardedCache::with_shards(CacheConfig::i860(), 4);
        rec.replay(&mut a);
        rec.replay_batched(&mut b);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn default_batch_preserves_order() {
        // A sink that only implements `access` sees batch elements in
        // execution order.
        struct Orders(Vec<(u64, bool)>);
        impl TraceSink for Orders {
            fn access(&mut self, addr: u64, w: bool) {
                self.0.push((addr, w));
            }
        }
        let mut s = Orders(Vec::new());
        s.access_batch(&[
            pack_access(8, false),
            pack_access(16, true),
            pack_access(0, false),
        ]);
        assert_eq!(s.0, vec![(8, false), (16, true), (0, false)]);
    }

    #[test]
    fn metered_sink_counts_and_forwards() {
        let mut m = MeteredSink::new(RecordingSink::default());
        m.access(0, false);
        m.access(8, true);
        m.access_batch(&[pack_access(16, false)]);
        assert_eq!(m.loads, 2);
        assert_eq!(m.stores, 1);
        assert_eq!(m.accesses(), 3);
        assert_eq!(m.inner.trace.len(), 3);
        let mut reg = MetricsRegistry::new();
        m.export_metrics(&mut reg, "interp");
        assert_eq!(reg.counter_value("interp.accesses"), 3);
        assert_eq!(reg.counter_value("interp.loads"), 2);
    }

    #[test]
    fn metered_batch_path_matches_per_access_path() {
        // The same packed trace through `access_batch` and through
        // per-access calls must leave *exactly* equal meters and equal
        // inner-cache metrics — the batched path is an optimization,
        // never a semantic change.
        let packed: Vec<u64> = (0..10_000u64)
            .map(|k| pack_access((k * 72) % (1 << 14), k % 5 == 0))
            .collect();
        let observed = || ShardedCache::with_shards(CacheConfig::i860(), 1).with_interval(64);
        let mut per_access = MeteredSink::new(observed());
        per_access.inner.register_region("A", 0, 1 << 14);
        for &p in &packed {
            let (a, w) = unpack_access(p);
            per_access.access(a, w);
        }
        let mut batched = MeteredSink::new(observed());
        batched.inner.register_region("A", 0, 1 << 14);
        for chunk in packed.chunks(BATCH_LEN) {
            batched.access_batch(chunk);
        }
        assert_eq!(per_access.loads, batched.loads);
        assert_eq!(per_access.stores, batched.stores);
        assert_eq!(per_access.accesses(), batched.accesses());
        let mut ra = MetricsRegistry::new();
        let mut rb = MetricsRegistry::new();
        per_access.export_metrics(&mut ra, "interp");
        batched.export_metrics(&mut rb, "interp");
        per_access.inner.flush_window();
        batched.inner.flush_window();
        per_access.inner.export_metrics(&mut ra, "cache");
        batched.inner.export_metrics(&mut rb, "cache");
        assert_eq!(ra.to_json(), rb.to_json(), "metrics must match exactly");
    }

    #[test]
    fn wrappers_forward_runs_and_meter_them_like_the_expansion() {
        let streams = [
            Stream {
                start: 4096,
                stride: 8,
                write: false,
            },
            Stream {
                start: 1 << 20,
                stride: -24,
                write: true,
            },
        ];
        let run = LoopRun {
            streams: &streams,
            iters: 300,
        };
        let cache = || ShardedCache::with_shards(CacheConfig::i860(), 1);
        let mut fed = MeteredSink::new(cache());
        let mut runs = MeteredSink::new(cache());
        let mut borrowed = cache();
        assert!(runs.takes_runs() && CacheSink(&mut borrowed).takes_runs());
        assert!(!MeteredSink::new(CountingSink::default()).takes_runs());
        run.expand(BATCH_LEN, |batch| fed.access_batch(batch));
        runs.access_run(run);
        CacheSink(&mut borrowed).access_run(run);
        assert_eq!((runs.loads, runs.stores), (300, 300));
        assert_eq!((runs.loads, runs.stores), (fed.loads, fed.stores));
        assert_eq!(runs.inner.stats(), fed.inner.stats());
        assert_eq!(borrowed.stats(), fed.inner.stats());
    }

    #[test]
    fn traced_sink_spans_each_batch() {
        use cmt_obs::TraceSession;
        let mut session = TraceSession::new();
        let mut track = session.track("sim");
        let mut sink = TracedSink::new(CountingSink::default(), &mut track);
        sink.access(0, false); // scalar path: no span
        sink.access_batch(&[pack_access(8, false), pack_access(16, true)]);
        sink.access_batch(&[pack_access(24, false)]);
        assert_eq!(sink.inner.loads + sink.inner.stores, 4);
        assert_eq!(track.len(), 2, "one complete-span per batch");
        session.absorb(track);
        session.validate().unwrap();
    }

    #[test]
    fn sampled_sink_is_chunking_invariant() {
        // The sampled subset must depend only on stream position, never
        // on how the producer batches — scalar calls, BATCH_LEN chunks,
        // and ragged chunks all forward the identical subsequence.
        let packed: Vec<u64> = (0..10_000u64)
            .map(|k| pack_access(k * 8, k % 7 == 0))
            .collect();
        let run = |chunks: &[usize]| -> Vec<(u64, bool)> {
            let mut s = SampledSink::every_kth(RecordingSink::default(), 256, 4, 42);
            let mut off = 0;
            for &c in chunks.iter().cycle() {
                if off >= packed.len() {
                    break;
                }
                let end = (off + c).min(packed.len());
                if c == 1 {
                    let (a, w) = unpack_access(packed[off]);
                    s.access(a, w);
                } else {
                    s.access_batch(&packed[off..end]);
                }
                off = end;
            }
            assert_eq!(s.accesses_seen(), packed.len() as u64);
            s.into_inner().trace
        };
        let scalar = run(&[1]);
        let batched = run(&[BATCH_LEN]);
        let ragged = run(&[3, 700, 13, 255, 1024]);
        assert!(!scalar.is_empty());
        assert!(scalar.len() < packed.len(), "something must be skipped");
        assert_eq!(scalar, batched);
        assert_eq!(scalar, ragged);
    }

    #[test]
    fn sampled_sink_full_forwards_everything() {
        let mut s = SampledSink::full(CountingSink::default());
        let packed: Vec<u64> = (0..5000u64).map(|k| pack_access(k * 8, false)).collect();
        s.access_batch(&packed);
        assert_eq!(s.sampled, 5000);
        assert_eq!(s.accesses_seen(), 5000);
        assert_eq!(s.inner.loads, 5000);
        assert_eq!(s.windows_sampled(), s.windows_total());
        assert_eq!(s.sampled_fraction(), 1.0);
    }

    #[test]
    fn sampled_sink_always_samples_window_zero() {
        // Whatever phase the seed draws, a short stream (inside window 0)
        // is observed in full — tiny nests are measured exactly.
        for seed in 0..32u64 {
            let mut s = SampledSink::every_kth(CountingSink::default(), 256, 16, seed);
            for k in 0..100u64 {
                s.access(k * 8, false);
            }
            assert_eq!(s.sampled, 100, "seed {seed}");
            assert_eq!(s.windows_sampled(), 1);
        }
    }

    #[test]
    fn sampled_window_count_matches_brute_force() {
        for seed in [0u64, 1, 7, 99] {
            for total_accesses in [0u64, 1, 255, 256, 257, 10_000] {
                let mut s = SampledSink::every_kth(CountingSink::default(), 256, 16, seed);
                let mut expect = 0u64;
                let mut last_window = u64::MAX;
                for k in 0..total_accesses {
                    let w = k / 256;
                    if w != last_window && s.is_sampled(w) {
                        expect += 1;
                        last_window = w;
                    }
                    s.access(k * 8, false);
                }
                assert_eq!(
                    s.windows_sampled(),
                    expect,
                    "seed {seed} len {total_accesses}"
                );
                assert_eq!(s.windows_total(), total_accesses.div_ceil(256));
            }
        }
    }

    #[test]
    fn dropped_span_matches_brute_force() {
        // From every stream position: `kept` accesses forwarded, then
        // `dropped` not, then a forwarded one.
        for (stride, seed) in [(2u64, 0u64), (2, 1), (3, 5), (16, 0), (16, 9), (16, 42)] {
            let mut s = SampledSink::every_kth(NullSink, 8, stride, seed);
            let window = |pos: u64| pos / 8;
            for position in 0..200u64 {
                for pending in [0u64, 1, 7, 8, 30] {
                    let (kept, dropped) = s.dropped_span(pending);
                    let at = position + pending;
                    assert!(dropped > 0, "stride {stride} at {at}");
                    let sampled = |k: u64| s.is_sampled(window(at + k));
                    assert!((0..kept).all(sampled), "stride {stride} at {at}");
                    assert!((kept..kept + dropped).all(|k| !sampled(k)));
                    assert!(sampled(kept + dropped), "stride {stride} at {at}");
                }
                s.access(0, false);
            }
        }
        let full = SampledSink::every_kth(NullSink, 8, 1, 3);
        assert_eq!(full.dropped_span(100), (u64::MAX, 0));
        assert_eq!(NullSink.dropped_span(0), (u64::MAX, 0));
    }

    #[test]
    fn skip_meters_like_the_dropped_accesses() {
        let mut fed = SampledSink::every_kth(RecordingSink::default(), 16, 4, 11);
        let mut skipped = SampledSink::every_kth(RecordingSink::default(), 16, 4, 11);
        for k in 0..1000u64 {
            let (kept, dropped) = skipped.dropped_span(0);
            if kept == 0 && dropped >= 2 && k % 3 == 0 {
                // Two accesses the sampler would drop: one load, one
                // store.
                fed.access(k * 8, false);
                fed.access(k * 8, true);
                skipped.skip(1, 1);
            } else {
                fed.access(k * 8, k % 5 == 0);
                skipped.access(k * 8, k % 5 == 0);
            }
        }
        assert_eq!(fed.loads_seen, skipped.loads_seen);
        assert_eq!(fed.stores_seen, skipped.stores_seen);
        assert_eq!(fed.sampled, skipped.sampled);
        assert_eq!(fed.windows_total(), skipped.windows_total());
        assert_eq!(fed.windows_sampled(), skipped.windows_sampled());
        assert_eq!(fed.inner.trace, skipped.inner.trace);
    }

    #[test]
    fn sampled_seed_is_deterministic_and_varies() {
        let phase_of = |seed: u64| {
            let s = SampledSink::every_kth(NullSink, 256, 16, seed);
            (0..16u64)
                .find(|&w| w != 0 && s.is_sampled(w))
                .unwrap_or(16)
        };
        assert_eq!(phase_of(42), phase_of(42));
        let distinct: std::collections::HashSet<u64> = (0..64).map(phase_of).collect();
        assert!(distinct.len() > 4, "seeds should spread over residues");
    }

    #[test]
    fn cache_as_sink() {
        let mut c = ShardedCache::new(CacheConfig::i860());
        c.register_region("A", 0, 64);
        {
            let mut sink = CacheSink(&mut c);
            sink.access(0, false);
            sink.access(8, false);
        }
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.per_array()[0].1.accesses, 2);
    }
}
