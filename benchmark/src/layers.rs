//! Per-layer measurement: the timing sink, the public-layer
//! recomposition of a simulation run, the layer probe, and the
//! per-layer metrics computed from a traced run's spans.
//!
//! Layer names are the crate directories: `ir`, `dependence`, `core`,
//! `resilience`, `analytic`, `interp`, `cache`, `profile`, `serve`.

use crate::trace::{Agg, Ledger, Recorder};
use crate::Metric;
use cmt_analytic::{predict_program, MissModel};
use cmt_cache::{CacheConfig, CacheStats, ShardedCache};
use cmt_dependence::analyze_nest;
use cmt_interp::{pack_access, Machine, TraceSink};
use cmt_ir::canon::nest_key;
use cmt_ir::ids::ArrayId;
use cmt_ir::parse::parse_program;
use cmt_ir::pretty::program_to_source;
use cmt_ir::program::Program;
use cmt_locality::compound::compound;
use cmt_locality::model::CostModel;
use cmt_obs::NullObs;
use cmt_profile::{profile_nest, ProfileOptions};
use cmt_resilience::{supervise, FaultPlan, PipelineSpec, SupervisePolicy};
use cmt_serve::{MemoStats, ServeConfig, Server};
use cmt_verify::VerifyMode;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Programs the layer probe samples from each workload.
pub const PROBE_PROGRAMS: usize = 8;

/// The paper's two caches, RS/6000 then i860, as the production
/// set-sharded engine.
pub fn paper_caches() -> [ShardedCache; 2] {
    [
        ShardedCache::new(CacheConfig::rs6000()),
        ShardedCache::new(CacheConfig::i860()),
    ]
}

/// Forwards the interpreter's batches to both caches, shifted by
/// `offset`, and accumulates the time each cache spends on them.
struct TimedCaches<'a> {
    caches: &'a mut [ShardedCache; 2],
    offset: u64,
    buf: Vec<u64>,
    ns: [u64; 2],
    accesses: u64,
}

impl TraceSink for TimedCaches<'_> {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.access_batch(&[pack_access(addr, is_write)]);
    }

    fn access_batch(&mut self, batch: &[u64]) {
        self.accesses += batch.len() as u64;
        let batch = if self.offset == 0 {
            batch
        } else {
            self.buf.clear();
            self.buf.extend(batch.iter().map(|&p| p + self.offset));
            &self.buf
        };
        for (cache, ns) in self.caches.iter_mut().zip(&mut self.ns) {
            let t = Instant::now();
            cache.access_batch(batch);
            *ns += t.elapsed().as_nanos() as u64;
        }
    }
}

/// Runs `program` at parameter `n` into `caches` with every address
/// shifted by `offset`, as `cmt_bench`'s runner does, recording
/// `interp.alloc` (`Machine::new`), `interp.run` and, as its children,
/// one aggregated `cache.rs6000` and `cache.i860` span. Returns both
/// caches' cumulative stats after the run.
pub fn run_timed(
    rec: &mut Recorder,
    program: &Program,
    n: i64,
    caches: &mut [ShardedCache; 2],
    offset: u64,
) -> Result<[CacheStats; 2], String> {
    let params = vec![n; program.params().len()];
    let mut m = rec
        .span("interp.alloc", || Machine::new(program, &params))
        .map_err(|e| format!("allocation: {e}"))?;
    for k in 0..program.arrays().len() {
        let id = ArrayId(k as u32);
        let start = m.storage(id).address_of(0);
        let bytes = m.array_data(id).len() as u64 * 8;
        for c in caches.iter_mut() {
            c.reserve_region(start + offset, bytes);
        }
    }
    let before = [caches[0].stats(), caches[1].stats()];
    let run = rec.open("interp.run");
    let run_start = rec.now_ns();
    let mut sink = TimedCaches {
        caches,
        offset,
        buf: Vec::new(),
        ns: [0; 2],
        accesses: 0,
    };
    let result = m.run(program, &mut sink);
    let mut after = [CacheStats::default(); 2];
    for (k, stats) in after.iter_mut().enumerate() {
        let t = Instant::now();
        *stats = sink.caches[k].stats();
        sink.ns[k] += t.elapsed().as_nanos() as u64;
    }
    let (ns, accesses) = (sink.ns, sink.accesses);
    rec.close(run, None, &[("accesses", accesses)]);
    let mut at = run_start;
    for (k, name) in ["cache.rs6000", "cache.i860"].into_iter().enumerate() {
        let delta = after[k].saturating_sub(before[k]);
        rec.child(
            run,
            name,
            at,
            ns[k],
            &[("accesses", delta.accesses), ("misses", delta.misses)],
        );
        at += ns[k];
    }
    result.map_err(|e| format!("execution: {e}"))?;
    Ok(after)
}

/// Reply classes and memo counters of one compile server.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounts {
    /// Compile requests tallied.
    pub requests: u64,
    /// Replies answered from the memo.
    pub cached: u64,
    /// Replies computed by simulation.
    pub simulated: u64,
    /// Replies computed by the analytic fold.
    pub analytic: u64,
    /// `status: error` replies.
    pub error: u64,
    /// `status: overloaded` replies.
    pub overloaded: u64,
    /// The server's memo counters.
    pub memo: MemoStats,
}

impl ServeCounts {
    /// Tallies one reply line by status and fidelity.
    pub fn tally(&mut self, reply: &str) {
        self.requests += 1;
        if reply.contains("\"status\":\"overloaded\"") {
            self.overloaded += 1;
        } else if !reply.contains("\"status\":\"ok\"") {
            self.error += 1;
        } else if reply.contains("\"fidelity\":\"cached\"") {
            self.cached += 1;
        } else if reply.contains("\"fidelity\":\"analytic\"") {
            self.analytic += 1;
        } else {
            self.simulated += 1;
        }
    }
}

/// One compile request line for `source` at size `n`.
pub fn request_line(id: u64, source: &str, n: i64) -> String {
    let mut w = cmt_obs::json::ObjectWriter::new();
    w.field_u64("id", id)
        .field_str("program", source)
        .field_u64("n", n as u64);
    w.finish()
}

/// What the layer probe measured besides its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// The probe server's counters.
    pub serve: ServeCounts,
    /// Median over programs of a hot round trip minus that program's
    /// parse and canonical-key time: admission, queue hand-off, JSON.
    pub hot_overhead_ns: f64,
    /// Median over programs of a cold round trip minus that program's
    /// parse, key, supervised-pipeline and simulation time.
    pub cold_overhead_ns: f64,
}

/// Hot round trips per probe program; their median is paired with the
/// program's layer times.
const HOT_REPEATS: usize = 5;

/// The layer probe: calls every layer's public entry point standalone
/// on `programs` at size `n`, as `probe: true` spans off the timed path,
/// then sends each program through a one-worker compile server. A
/// workload takes a layer's per-call cost from its timed path when the
/// layer is on it, and from the probe otherwise.
///
/// The probe covers every layer, not only those no workload's timed
/// path reaches (`analyze_nest`, and the server's own overhead), because
/// the benchmark format requires every per-layer metric in every traced
/// result and refuses a time that reads the same in every run: a layer
/// off the timed path cannot report a constant 0. Its `*.share` metrics,
/// which come from the timed path alone, show whether it is on it.
pub fn probe(
    rec: &mut Recorder,
    programs: &[Program],
    n: i64,
    out_dir: &Path,
) -> Result<Probe, String> {
    rec.set_probe(true);
    let cost4 = CostModel::new(4);
    let cost_rs = CostModel::new(CacheConfig::rs6000().cls_elements());
    let miss_model = MissModel::new(CacheConfig::rs6000());
    let opts = ProfileOptions::default();
    let mut sources = Vec::with_capacity(programs.len());
    // Per program: (parse + key, supervised pipeline + simulation), ns.
    let mut layer_ns = Vec::with_capacity(programs.len());
    for (k, p) in programs.iter().enumerate() {
        rec.set_item(k as u64);
        let src = rec.span("ir.pretty", || program_to_source(p));
        let idx = rec.open("ir.parse");
        let q = parse_program(&src).map_err(|e| format!("probe parse {}: {e}", p.name()))?;
        rec.close(idx, None, &[("bytes", src.len() as u64)]);
        black_box(rec.span("ir.canon", || nest_key(&q)));
        // What the server does before its memo lookup, timed as often as
        // the hot round trips it is paired with.
        let front: Vec<f64> = (0..HOT_REPEATS)
            .map(|_| {
                let t = Instant::now();
                black_box(nest_key(&parse_program(&src).expect("parsed above")));
                t.elapsed().as_nanos() as f64
            })
            .collect();
        let front_ns = crate::median(&front);
        for nest in q.nests() {
            black_box(rec.span("dependence.nest", || analyze_nest(&q, nest)));
        }
        let mut c = q.clone();
        black_box(rec.span("core.compound", || compound(&mut c, &cost4)));
        let mut s = q.clone();
        let idx = rec.open("resilience.supervise");
        let run = supervise(
            &mut s,
            &cost_rs,
            &PipelineSpec::default(),
            &VerifyMode::Off,
            &SupervisePolicy::default(),
            &mut FaultPlan::none(),
            &mut NullObs,
        );
        rec.close(
            idx,
            None,
            &[
                ("steps", run.steps_committed as u64),
                ("rollbacks", run.failures.len() as u64),
            ],
        );
        let supervise_ns = rec.spans()[idx].dur_ns;
        black_box(rec.span("analytic.predict", || {
            predict_program(&q, n, &miss_model, &mut NullObs)
        }));
        run_timed(rec, &q, n, &mut paper_caches(), 0)?;
        // What the server's cold path simulates: the optimized program.
        let t = Instant::now();
        black_box(cmt_serve::simulate(&s, n)?);
        let simulate_ns = t.elapsed().as_nanos() as u64;
        layer_ns.push((front_ns, (supervise_ns + simulate_ns) as f64));
        for idx in 0..q.body().len() {
            let span = rec.open("profile.nest");
            let nest = profile_nest(&q, idx, n, &opts, &mut NullObs)
                .map_err(|e| format!("probe profile: {e}"))?;
            rec.close(
                span,
                None,
                &[
                    ("accesses", nest.accesses),
                    ("sampled", nest.sampled_accesses),
                ],
            );
        }
        sources.push(src);
    }

    // One cold round trip, then hot ones, per program through a
    // one-worker server.
    let server = Server::start(ServeConfig {
        workers: 1,
        obs_dir: Some(out_dir.to_path_buf()),
        ..ServeConfig::default()
    });
    let mut counts = ServeCounts::default();
    let (mut hot_overheads, mut cold_overheads) = (Vec::new(), Vec::new());
    for (k, (src, &(front_ns, compute_ns))) in sources.iter().zip(&layer_ns).enumerate() {
        rec.set_item(k as u64);
        let line = request_line(k as u64, src, n);
        let mut round_trip = |name| {
            let idx = rec.open(name);
            counts.tally(&server.handle_line(&line));
            rec.close(idx, None, &[]);
            rec.spans()[idx].dur_ns as f64
        };
        let cold = round_trip("serve.cold");
        let hot: Vec<f64> = (0..HOT_REPEATS).map(|_| round_trip("serve.hot")).collect();
        cold_overheads.push(cold - front_ns - compute_ns);
        hot_overheads.push(crate::median(&hot) - front_ns);
    }
    counts.memo = server.memo_stats();
    server.shutdown();
    rec.set_probe(false);
    if counts.error + counts.overloaded > 0 {
        return Err(format!("probe server replies: {counts:?}"));
    }
    Ok(Probe {
        serve: counts,
        hot_overhead_ns: crate::median(&hot_overheads),
        cold_overhead_ns: crate::median(&cold_overheads),
    })
}

/// What a traced run measured, beyond its spans.
pub struct TracedRun<'a> {
    /// Every recorder of the traced passes and the probe.
    pub ledger: &'a Ledger,
    /// Traced passes.
    pub passes: f64,
    /// Summed wall time of the traced passes, ns.
    pub wall_ns: u64,
    /// Traced pass time over untraced pass time, minus one.
    pub overhead: f64,
    /// Server counters of the timed path, when it has a server.
    pub serve: Option<ServeCounts>,
    /// The layer probe's own measurements.
    pub probe: Probe,
}

const NS_PER_US: f64 = 1e3;
const NS_PER_MS: f64 = 1e6;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

static NO_SPANS: Agg = Agg {
    count: 0,
    total_ns: 0,
    child_ns: 0,
    durs: Vec::new(),
    args: std::collections::BTreeMap::new(),
};

impl TracedRun<'_> {
    /// The spans named `name`: from the timed path when the layer is on
    /// it, else from the probe. Returns the totals and the number of
    /// passes they cover.
    fn pick(&self, name: &str) -> (&Agg, f64) {
        match self.ledger.path.get(name) {
            Some(a) => (a, self.passes),
            None => (self.probe_spans(name), 1.0),
        }
    }

    fn probe_spans(&self, name: &str) -> &Agg {
        self.ledger.probe.get(name).unwrap_or(&NO_SPANS)
    }

    fn mean_ns(&self, name: &str) -> f64 {
        let (a, _) = self.pick(name);
        ratio(a.total_ns as f64, a.count as f64)
    }

    fn per_access(&self, name: &str, self_time: bool) -> f64 {
        let (a, _) = self.pick(name);
        let ns = if self_time { a.self_ns() } else { a.total_ns };
        ratio(ns as f64, a.arg("accesses") as f64)
    }

    /// Self time on the timed path of the spans in `names`, as a share
    /// of the traced wall time.
    fn share(&self, names: &[&str]) -> f64 {
        let ns: u64 = names
            .iter()
            .filter_map(|n| self.ledger.path.get(n))
            .map(Agg::self_ns)
            .sum();
        ratio(ns as f64, self.wall_ns as f64)
    }

    /// Every per-layer metric of `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        let mut put = |name: &'static str, value: f64, unit: &'static str| {
            m.push(Metric { name, value, unit });
        };

        put(
            "interp.run.ns_per_access",
            self.per_access("interp.run", true),
            "ns",
        );
        put(
            "interp.alloc.ms",
            self.mean_ns("interp.alloc") / NS_PER_MS,
            "ms",
        );
        put(
            "interp.share",
            self.share(&["interp.alloc", "interp.run"]),
            "ratio",
        );
        for (cache, name, ratio_name) in [
            (
                "cache.rs6000",
                "cache.rs6000.ns_per_access",
                "cache.rs6000.miss_ratio",
            ),
            (
                "cache.i860",
                "cache.i860.ns_per_access",
                "cache.i860.miss_ratio",
            ),
        ] {
            let (a, _) = self.pick(cache);
            put(name, self.per_access(cache, false), "ns");
            put(
                ratio_name,
                ratio(a.arg("misses") as f64, a.arg("accesses") as f64),
                "ratio",
            );
        }
        put(
            "cache.share",
            self.share(&["cache.rs6000", "cache.i860"]),
            "ratio",
        );

        let (profile, _) = self.pick("profile.nest");
        let profile_ns = self.per_access("profile.nest", false);
        put("profile.ns_per_access", profile_ns, "ns");
        put(
            "profile.sampled_frac",
            ratio(
                profile.arg("sampled") as f64,
                profile.arg("accesses") as f64,
            ),
            "ratio",
        );
        // Interpretation cost per access from the probe, which runs the
        // same kernels at the same size on the timed path of
        // `profile_sampled`.
        let (alloc, run) = (
            self.probe_spans("interp.alloc"),
            self.probe_spans("interp.run"),
        );
        let interp_ns = ratio(
            (alloc.total_ns + run.self_ns()) as f64,
            run.arg("accesses") as f64,
        );
        put(
            "profile.overhead_share",
            1.0 - ratio(interp_ns, profile_ns),
            "ratio",
        );
        put("profile.share", self.share(&["profile.nest"]), "ratio");

        put(
            "core.compound.ms",
            self.mean_ns("core.compound") / NS_PER_MS,
            "ms",
        );
        put("core.share", self.share(&["core.compound"]), "ratio");
        put(
            "dependence.us_per_nest",
            self.mean_ns("dependence.nest") / NS_PER_US,
            "us",
        );

        let (sup, passes) = self.pick("resilience.supervise");
        put(
            "resilience.supervise.us_per_call",
            self.mean_ns("resilience.supervise") / NS_PER_US,
            "us",
        );
        put(
            "resilience.steps_committed",
            sup.arg("steps") as f64 / passes,
            "count",
        );
        put(
            "resilience.rollbacks",
            sup.arg("rollbacks") as f64 / passes,
            "count",
        );
        put(
            "resilience.share",
            self.share(&["resilience.supervise"]),
            "ratio",
        );

        put(
            "analytic.predict.us_per_call",
            self.mean_ns("analytic.predict") / NS_PER_US,
            "us",
        );
        put("analytic.share", self.share(&["analytic.predict"]), "ratio");

        let (parse, _) = self.pick("ir.parse");
        put(
            "ir.parse.us_per_call",
            self.mean_ns("ir.parse") / NS_PER_US,
            "us",
        );
        put(
            "ir.parse.mb_per_s",
            ratio(parse.arg("bytes") as f64 * 1e3, parse.total_ns as f64),
            "MB/s",
        );
        put(
            "ir.canon.us_per_call",
            self.mean_ns("ir.canon") / NS_PER_US,
            "us",
        );
        put(
            "ir.pretty.us_per_call",
            self.mean_ns("ir.pretty") / NS_PER_US,
            "us",
        );
        put(
            "ir.share",
            self.share(&["ir.parse", "ir.canon", "ir.pretty"]),
            "ratio",
        );

        let (hot, _) = self.pick("serve.hot");
        let (cold, _) = self.pick("serve.cold");
        put(
            "serve.hot.p50_us",
            percentile(&hot.durs, 0.5) / NS_PER_US,
            "us",
        );
        put(
            "serve.hot.p90_us",
            percentile(&hot.durs, 0.9) / NS_PER_US,
            "us",
        );
        put(
            "serve.cold.p50_ms",
            percentile(&cold.durs, 0.5) / NS_PER_MS,
            "ms",
        );
        put(
            "serve.cold.p90_ms",
            percentile(&cold.durs, 0.9) / NS_PER_MS,
            "ms",
        );
        put(
            "serve.hot.overhead_us",
            self.probe.hot_overhead_ns / NS_PER_US,
            "us",
        );
        put(
            "serve.cold.overhead_ms",
            self.probe.cold_overhead_ns / NS_PER_MS,
            "ms",
        );
        let s = self.serve.as_ref().unwrap_or(&self.probe.serve);
        put(
            "serve.hit_frac",
            ratio(s.cached as f64, s.requests as f64),
            "ratio",
        );
        put("serve.memo.hits", s.memo.hits as f64, "count");
        put("serve.memo.misses", s.memo.misses as f64, "count");
        put("serve.memo.inserted", s.memo.inserted as f64, "count");
        put("serve.memo.evictions", s.memo.evictions as f64, "count");
        put(
            "serve.memo.hit_ratio",
            ratio(s.memo.hits as f64, (s.memo.hits + s.memo.misses) as f64),
            "ratio",
        );
        put("serve.replies.cached", s.cached as f64, "count");
        put("serve.replies.simulated", s.simulated as f64, "count");
        put("serve.replies.analytic", s.analytic as f64, "count");
        put("serve.replies.error", s.error as f64, "count");
        put("serve.replies.overloaded", s.overloaded as f64, "count");

        put(
            "trace.coverage",
            ratio(self.ledger.roots_ns as f64, self.wall_ns as f64),
            "ratio",
        );
        put("trace.overhead", self.overhead, "ratio");
        m
    }
}
