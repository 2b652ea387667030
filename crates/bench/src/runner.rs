//! Execution + cache-simulation plumbing shared by the table generators,
//! plus the deterministic parallel corpus runner ([`par_map`]).

use cmt_cache::{CacheConfig, CacheStats, ShardedCache};
use cmt_interp::{CacheSink, Layout, LoopRun, MeteredSink, Stream, TraceSink, TracedSink};
use cmt_ir::program::Program;
use cmt_ir::validate::validate;
use cmt_locality::compound::{compound, compound_with};
use cmt_locality::model::CostModel;
use cmt_locality::scalar::scalar_replace_observed;
use cmt_locality::NullProvenance;
use cmt_obs::{MetricsRegistry, ObsSink, SpanTimer, TraceArg, TraceTrack};
use cmt_suite::BenchmarkModel;

// The deterministic worker pool moved down to `cmt-obs` so the
// set-sharded cache engine can fan shards out on it; re-exported here
// so existing `cmt_bench::{par_map, cmt_jobs, …}` callers are
// unaffected.
pub use cmt_obs::pool::{
    cmt_jobs, par_map, par_map_traced, try_par_map, try_par_map_traced, WorkerPanic,
};

/// Cache statistics for one program run under both paper caches.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProgramSim {
    /// RS/6000-style cache (64 KB / 4-way / 128 B).
    pub cache1: CacheStats,
    /// i860-style cache (8 KB / 2-way / 32 B).
    pub cache2: CacheStats,
}

/// Simulation of a model's original and transformed versions.
#[derive(Clone, Copy, Debug, Default)]
pub struct VersionPair {
    /// Optimized procedures only, original version.
    pub opt_orig: ProgramSim,
    /// Optimized procedures only, transformed.
    pub opt_final: ProgramSim,
    /// Whole program (optimized + rest), original.
    pub whole_orig: ProgramSim,
    /// Whole program, transformed.
    pub whole_final: ProgramSim,
}

/// Sink adapter shifting all addresses by a constant, so two separately
/// allocated programs occupy disjoint address ranges in a shared cache.
///
/// Batch-granular: a packed access is `addr | write_bit`, addresses stay
/// below 2^41 and the offset is at most `1 << 40`, so adding the offset
/// to the packed word never carries into the write bit and a whole
/// buffer is offset with one add per element before hitting the
/// simulation cores. A loop run is shifted stream by stream, and taken
/// only when both caches take runs.
struct OffsetInto<'a> {
    offset: u64,
    caches: &'a mut [ShardedCache; 2],
    buf: Vec<u64>,
    streams: Vec<Stream>,
}

impl<'a> OffsetInto<'a> {
    fn new(offset: u64, caches: &'a mut [ShardedCache; 2]) -> Self {
        OffsetInto {
            offset,
            caches,
            buf: Vec::new(),
            streams: Vec::new(),
        }
    }
}

impl TraceSink for OffsetInto<'_> {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.caches[0].access(addr + self.offset, is_write);
        self.caches[1].access(addr + self.offset, is_write);
    }

    fn access_batch(&mut self, batch: &[u64]) {
        if self.offset == 0 {
            self.caches[0].access_batch(batch);
            self.caches[1].access_batch(batch);
        } else {
            self.buf.clear();
            self.buf.extend(batch.iter().map(|&p| p + self.offset));
            self.caches[0].access_batch(&self.buf);
            self.caches[1].access_batch(&self.buf);
        }
    }

    fn takes_runs(&self) -> bool {
        self.caches.iter().all(ShardedCache::takes_runs)
    }

    fn access_run(&mut self, run: LoopRun<'_>) {
        self.streams.clear();
        self.streams.extend(run.streams.iter().map(|s| Stream {
            start: s.start + self.offset,
            ..*s
        }));
        let run = LoopRun {
            streams: &self.streams,
            iters: run.iters,
        };
        self.caches[0].access_run(run);
        self.caches[1].access_run(run);
    }
}

/// The two paper caches as set-sharded engines (honoring `CMT_SHARDS` /
/// `CMT_JOBS` via [`cmt_cache::default_shard_count`]).
fn paper_caches() -> [ShardedCache; 2] {
    [
        ShardedCache::new(CacheConfig::rs6000()),
        ShardedCache::new(CacheConfig::i860()),
    ]
}

/// Lays `program` out at `n` and reserves every array, shifted by
/// `offset`, in both `caches` for dense cold tracking.
fn lay_out(program: &Program, n: i64, caches: &mut [ShardedCache; 2], offset: u64) -> Layout {
    let layout = Layout::new(program, &[n]).expect("allocation");
    for (_, start, bytes) in layout.regions(program) {
        for c in caches.iter_mut() {
            c.reserve_region(start + offset, bytes);
        }
    }
    layout
}

/// Simulates one program at parameter `n`, returning both caches' stats.
///
/// # Panics
///
/// Panics if execution fails (suite programs are in-bounds by
/// construction).
pub fn simulate_program(program: &Program, n: i64) -> ProgramSim {
    let mut caches = paper_caches();
    let layout = lay_out(program, n, &mut caches, 0);
    let mut sink = OffsetInto::new(0, &mut caches);
    layout.trace(program, &mut sink).expect("execution");
    let [mut c1, mut c2] = caches;
    ProgramSim {
        cache1: c1.stats(),
        cache2: c2.stats(),
    }
}

/// One observed run: whole-trace stats plus per-array attribution and
/// interval miss-rate snapshots for both paper caches, and the
/// interpreter's access counts.
#[derive(Clone, Debug)]
pub struct ObservedSim {
    /// Whole-trace stats, same shape as [`simulate_program`] returns.
    pub sim: ProgramSim,
    /// RS/6000-style cache with attribution.
    pub cache1: ShardedCache,
    /// i860-style cache with attribution.
    pub cache2: ShardedCache,
    /// Loads the interpreter issued.
    pub loads: u64,
    /// Stores the interpreter issued.
    pub stores: u64,
}

impl ObservedSim {
    /// Exports everything under `prefix`: `{prefix}.cache1.*`,
    /// `{prefix}.cache2.*` (see [`ShardedCache::export_metrics`]) and
    /// `{prefix}.interp.{loads,stores,accesses}`.
    pub fn export_metrics(&mut self, registry: &mut MetricsRegistry, prefix: &str) {
        self.cache1
            .export_metrics(registry, &format!("{prefix}.cache1"));
        self.cache2
            .export_metrics(registry, &format!("{prefix}.cache2"));
        registry.counter(&format!("{prefix}.interp.loads"), self.loads);
        registry.counter(&format!("{prefix}.interp.stores"), self.stores);
        registry.counter(
            &format!("{prefix}.interp.accesses"),
            self.loads + self.stores,
        );
    }
}

/// [`simulate_program`] with observability: every array's address range
/// is registered for per-array attribution, and miss rates are
/// snapshotted every `interval` accesses (`0` disables snapshots).
///
/// `shards` pins the shard count explicitly: artifact-producing callers
/// must not inherit it from `CMT_SHARDS`/`CMT_JOBS`, or the exported
/// `shard.*` counters would depend on the host. Statistics, attribution
/// and snapshots are identical for every shard count, equal what
/// [`simulate_program`] reports for the same inputs, and do not depend
/// on whether `track` is given.
///
/// With a `track`, the run is also self-profiled onto it: the whole run
/// becomes one `simulate` complete-span (args: program name, accesses,
/// both caches' miss counts), each interpreter flush a `sim.batch` span,
/// each per-shard slice of a partitioned flush a `sim.shard` span, and
/// the interval snapshots are replayed as `cache1.miss_rate` /
/// `cache2.miss_rate` counter tracks interpolated along the span — so
/// Perfetto shows the miss-rate phase structure against wall-clock time.
///
/// # Panics
///
/// Panics if execution fails (suite programs are in-bounds by
/// construction).
pub fn simulate_observed(
    program: &Program,
    n: i64,
    shards: usize,
    interval: u64,
    mut track: Option<&mut TraceTrack>,
) -> ObservedSim {
    let layout = Layout::new(program, &[n]).expect("allocation");
    let mut caches = [
        ShardedCache::with_shards(CacheConfig::rs6000(), shards).with_interval(interval),
        ShardedCache::with_shards(CacheConfig::i860(), shards).with_interval(interval),
    ];
    for (name, start, bytes) in layout.regions(program) {
        for c in &mut caches {
            c.register_region(name, start, bytes);
        }
    }
    let t0 = track.as_deref_mut().map(|t| {
        for c in &mut caches {
            c.enable_flush_log();
        }
        t.start()
    });
    let mut sink = MeteredSink::new(OffsetInto::new(0, &mut caches));
    match track.as_deref_mut() {
        Some(t) => layout.trace(program, &mut TracedSink::new(CacheSink(&mut sink), t)),
        None => layout.trace(program, &mut sink),
    }
    .expect("execution");
    let (loads, stores) = (sink.loads, sink.stores);
    let [mut c1, mut c2] = caches;
    c1.flush_window();
    c2.flush_window();
    let sim = ProgramSim {
        cache1: c1.stats(),
        cache2: c2.stats(),
    };
    if let (Some(track), Some(t0)) = (track, t0) {
        let t1 = track.now_us();
        let span = (t1 - t0) as f64;
        for (which, cache) in [("cache1", &mut c1), ("cache2", &mut c2)] {
            for (frac, rate) in cache.miss_rate_series() {
                let ts = t0 + (frac * span) as u64;
                track.counter_at(ts, &format!("{which}.miss_rate"), rate);
            }
            // Shards run concurrently inside a flush; the replay lays
            // their slices end to end from the run's start, which
            // preserves each slice's duration and per-cache ordering
            // without pretending to know the pool's real interleaving.
            let mut ts = t0;
            for s in cache.take_flush_log() {
                let dur = s.nanos / 1_000;
                track.complete_at(
                    ts,
                    dur,
                    "sim.shard",
                    &[
                        ("cache", TraceArg::Str(which)),
                        ("shard", TraceArg::U64(u64::from(s.shard))),
                        ("accesses", TraceArg::U64(s.accesses)),
                    ],
                );
                ts += dur.max(1);
            }
        }
        track.complete_at(
            t0,
            t1 - t0,
            "simulate",
            &[
                ("program", TraceArg::Str(program.name())),
                ("accesses", TraceArg::U64(loads + stores)),
                ("cache1_misses", TraceArg::U64(sim.cache1.misses)),
                ("cache2_misses", TraceArg::U64(sim.cache2.misses)),
            ],
        );
        track.normalize();
    }
    ObservedSim {
        sim,
        cache1: c1,
        cache2: c2,
        loads,
        stores,
    }
}

/// Simulates original and compound-transformed versions of a benchmark
/// model: optimized procedures alone, and the whole program (optimized +
/// background `rest`, sharing one cache with disjoint address ranges).
pub fn simulate_versions(model: &BenchmarkModel, cost_model: &CostModel, n: i64) -> VersionPair {
    let mut transformed = model.optimized.clone();
    let _ = compound(&mut transformed, cost_model);

    let run_whole = |opt: &Program| -> (ProgramSim, ProgramSim) {
        // Optimized procedures first…
        let mut caches = paper_caches();
        let layout = lay_out(opt, n, &mut caches, 0);
        {
            let mut sink = OffsetInto::new(0, &mut caches);
            layout.trace(opt, &mut sink).expect("execution");
        }
        let opt_stats = ProgramSim {
            cache1: caches[0].stats(),
            cache2: caches[1].stats(),
        };
        // …then the background, offset far away in the address space.
        let rest = lay_out(&model.rest, n, &mut caches, 1 << 40);
        {
            let mut sink = OffsetInto::new(1 << 40, &mut caches);
            rest.trace(&model.rest, &mut sink).expect("execution");
        }
        let whole = ProgramSim {
            cache1: caches[0].stats(),
            cache2: caches[1].stats(),
        };
        (opt_stats, whole)
    };

    let (opt_orig, whole_orig) = run_whole(&model.optimized);
    let (opt_final, whole_final) = run_whole(&transformed);
    VersionPair {
        opt_orig,
        opt_final,
        whole_orig,
        whole_final,
    }
}

/// Shared observability companion of the table/figure binaries: runs
/// the observed compound driver (default options) over `programs` (one
/// clone each) and writes the `{name}.remarks.jsonl` /
/// `{name}.metrics.json` artifacts, plus a validated Chrome Trace under
/// `CMT_TRACE`. Workers collect into per-item sinks absorbed in item
/// order, so every artifact is byte-identical for any `CMT_JOBS`.
///
/// # Errors
///
/// Fails when a trace violates its structural invariants or an
/// artifact cannot be written.
pub fn emit_observed_compound(
    name: &str,
    programs: &[Program],
) -> Result<(), crate::ArtifactError> {
    use cmt_obs::{CollectSink, TraceSession, Tracing};

    let model = CostModel::new(4);
    let run = |p: &Program, obs: &mut dyn ObsSink| {
        let mut q = p.clone();
        let _ = compound_with(
            &mut q,
            &model,
            &Default::default(),
            obs,
            &mut NullProvenance,
            &model,
        );
    };
    let mut session = crate::trace_enabled().then(TraceSession::new);
    let parts = match session.as_mut() {
        Some(session) => par_map_traced(programs, session, |p, track| {
            let mut traced = Tracing::new(CollectSink::new(), track);
            run(p, &mut traced);
            traced.inner
        }),
        None => par_map(programs, |p| {
            let mut local = CollectSink::new();
            run(p, &mut local);
            local
        }),
    };
    let mut sink = CollectSink::new();
    for part in parts {
        sink.absorb(part);
    }
    crate::emit(name, &sink.remarks, &sink.metrics, session.as_ref())
}

/// Shared observability companion of the figure binaries: runs the
/// paper's compile path over `program` — compound, then scalar
/// replacement, each a traced, timed and validated stage printing one
/// `[pass]` line — simulates the result at `n` on `shards` shards with
/// per-array attribution, exports that simulation's metrics under
/// `prefix`, and writes the `{name}` artifacts. Under `CMT_TRACE` the
/// stages record on the main track and the simulation on its own `sim`
/// track.
///
/// # Errors
///
/// Fails when a trace violates its structural invariants or an
/// artifact cannot be written.
pub fn emit_observed_pipeline(
    name: &str,
    mut program: Program,
    n: i64,
    shards: usize,
    prefix: &str,
) -> Result<(), crate::ArtifactError> {
    use cmt_obs::{CollectSink, TraceSession, Tracing};

    let model = CostModel::new(4);
    let stages = |program: &mut Program, obs: &mut dyn ObsSink| {
        observed_stage("compound", program, obs, |p, obs| {
            let r = compound_with(
                p,
                &model,
                &Default::default(),
                obs,
                &mut NullProvenance,
                &model,
            );
            format!(
                "{} nests: {} orig / {} permuted / {} failed; fused {}, distributed {}",
                r.nests_total,
                r.nests_orig_memory_order,
                r.nests_permuted,
                r.nests_failed,
                r.nests_fused,
                r.distributions
            )
        });
        observed_stage("scalar-replace", program, obs, |p, obs| {
            let s = scalar_replace_observed(p, obs);
            format!("hoisted {} invariant load(s)", s.replaced)
        });
    };
    let mut session = crate::trace_enabled().then(TraceSession::new);
    let mut sink = match session.as_mut() {
        Some(session) => {
            let mut traced = Tracing::new(CollectSink::new(), session.main());
            stages(&mut program, &mut traced);
            traced.inner
        }
        None => {
            let mut sink = CollectSink::new();
            stages(&mut program, &mut sink);
            sink
        }
    };
    let mut track = session.as_mut().map(|s| s.track("sim"));
    let mut sim = simulate_observed(&program, n, shards, 10_000, track.as_mut());
    if let (Some(session), Some(track)) = (session.as_mut(), track) {
        session.absorb(track);
    }
    sim.export_metrics(&mut sink.metrics, prefix);
    crate::emit(name, &sink.remarks, &sink.metrics, session.as_ref())
}

/// Runs one stage of [`emit_observed_pipeline`] inside a `pass.{name}`
/// trace span, records its wall time (`pass.{name}.ns` histogram) and
/// whether it changed the program (`pass.{name}.changed` counter), and
/// prints `[pass] {name}: {summary}` with the summary `stage` returns.
///
/// # Panics
///
/// Panics if the stage produces an invalid program — that is a bug in
/// the transformation, not a user error.
fn observed_stage(
    name: &str,
    program: &mut Program,
    obs: &mut dyn ObsSink,
    stage: impl FnOnce(&mut Program, &mut dyn ObsSink) -> String,
) {
    let span = format!("pass.{name}");
    let before = program.clone();
    obs.trace_begin(&span, &[("program", TraceArg::Str(program.name()))]);
    let timer = SpanTimer::start();
    let summary = stage(program, obs);
    let nanos = timer.elapsed_ns();
    assert!(
        validate(program).is_ok(),
        "pass {name} produced an invalid program"
    );
    let changed = *program != before;
    obs.trace_end(&span, &[("changed", TraceArg::U64(changed as u64))]);
    obs.span_ns(&format!("{span}.ns"), nanos);
    obs.counter(&format!("{span}.changed"), changed as u64);
    println!("[pass] {name}: {summary}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_suite::suite;

    #[test]
    fn arc2d_model_improves_on_small_cache() {
        let model = suite()
            .into_iter()
            .find(|m| m.spec.name == "arc2d")
            .expect("arc2d exists");
        let cm = CostModel::new(4);
        // Small n keeps the test fast; cache2 (8 KB) already shows the
        // effect because a strided row sweep exceeds it.
        let pair = simulate_versions(&model, &cm, 96);
        let before = pair.opt_orig.cache2.hit_rate_excluding_cold();
        let after = pair.opt_final.cache2.hit_rate_excluding_cold();
        assert!(
            after > before + 0.02,
            "expected improvement: before={before:.4} after={after:.4}"
        );
        // Whole-program improvement is diluted but monotone.
        let wb = pair.whole_orig.cache2.hit_rate_excluding_cold();
        let wa = pair.whole_final.cache2.hit_rate_excluding_cold();
        assert!(
            wa >= wb,
            "whole-program rate must not regress: {wb} vs {wa}"
        );
    }

    #[test]
    fn observed_sim_matches_plain_sim() {
        let p = cmt_suite::kernels::matmul("IJK");
        let plain = simulate_program(&p, 24);
        let mut obs = simulate_observed(&p, 24, 1, 1000, None);
        assert_eq!(plain.cache1, obs.sim.cache1);
        assert_eq!(plain.cache2, obs.sim.cache2);
        // All accesses land in registered arrays, and attribution
        // partitions the trace.
        assert_eq!(obs.cache1.unattributed().accesses, 0);
        let sum: u64 = obs.cache1.per_array().iter().map(|(_, s)| s.accesses).sum();
        assert_eq!(sum, obs.sim.cache1.accesses);
        assert_eq!(obs.loads + obs.stores, obs.sim.cache1.accesses);
        assert!(!obs.cache1.snapshots().is_empty());
        let mut reg = MetricsRegistry::new();
        obs.export_metrics(&mut reg, "sim.mm");
        assert_eq!(
            reg.counter_value("sim.mm.interp.accesses"),
            obs.sim.cache1.accesses
        );
    }

    #[test]
    fn traced_sharded_sim_matches_untraced_and_exports_shard_metrics() {
        let p = cmt_suite::kernels::matmul("IJK");
        let plain = simulate_program(&p, 24);
        let export = |obs: &mut ObservedSim| {
            let mut reg = MetricsRegistry::new();
            obs.export_metrics(&mut reg, "sim.mm");
            reg
        };

        // Untraced: stats agree with the plain path, counters land.
        let mut quiet = simulate_observed(&p, 24, 4, 1000, None);
        assert_eq!(plain.cache1, quiet.sim.cache1);
        assert_eq!(plain.cache2, quiet.sim.cache2);
        let reg = export(&mut quiet);
        assert_eq!(reg.counter_value("sim.mm.cache1.shard.count"), 4);
        assert_eq!(reg.counter_value("sim.mm.cache2.shard.count"), 4);
        let per_shard: u64 = (0..4)
            .map(|k| reg.counter_value(&format!("sim.mm.cache2.shard.{k}.accesses")))
            .sum();
        assert_eq!(per_shard, plain.cache2.accesses);
        // Snapshots and attribution do not depend on the shard count.
        let mut one = simulate_observed(&p, 24, 1, 1000, None);
        assert_eq!(one.cache2.snapshots(), quiet.cache2.snapshots());
        assert_eq!(one.cache2.per_array(), quiet.cache2.per_array());

        // Traced: identical stats and counters, plus trace spans.
        let mut session = cmt_obs::TraceSession::new();
        let mut track = session.track("sim");
        let mut traced = simulate_observed(&p, 24, 4, 1000, Some(&mut track));
        session.absorb(track);
        assert_eq!(
            quiet.sim.cache2, traced.sim.cache2,
            "tracing must not change stats"
        );
        assert_eq!(
            reg.to_json(),
            export(&mut traced).to_json(),
            "counters must not depend on tracing"
        );
        session.validate().expect("trace invariants");
        let json = session.to_chrome_json();
        for name in ["simulate", "sim.batch", "sim.shard", "cache1.miss_rate"] {
            assert!(json.contains(name), "expected {name} in the trace");
        }
    }

    #[test]
    fn already_optimal_model_is_unchanged() {
        let model = suite()
            .into_iter()
            .find(|m| m.spec.name == "tomcatv")
            .expect("tomcatv exists");
        let cm = CostModel::new(4);
        let pair = simulate_versions(&model, &cm, 64);
        // Fusion may still change access interleaving slightly, but the
        // hit rate must not get worse.
        let before = pair.opt_orig.cache2.hit_rate_excluding_cold();
        let after = pair.opt_final.cache2.hit_rate_excluding_cold();
        assert!(after + 1e-9 >= before, "{before} vs {after}");
    }
}
