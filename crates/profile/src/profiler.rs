//! Per-nest sampled profiling: run each top-level nest in isolation
//! under a sampling sink and scale the observed cache behaviour into
//! full-trace estimates.
//!
//! Profiling a nest independently is legal because the interpreter's
//! address streams are *data-independent*: subscripts are affine in loop
//! variables and parameters, so the trace a nest produces does not
//! depend on the values earlier nests stored. The [`cmt_interp::Layout`]
//! places every array of the program regardless of which nests run,
//! so addresses (and per-array attribution) line up with a whole-program
//! run, and [`cmt_interp::Layout::trace`] produces the nest's addresses
//! without computing values — skipping whole iterations that fall in
//! the windows the sampler drops. What isolation *does* change is cross-nest cache reuse — the
//! profiler ranks nests by their own footprint, which is exactly the
//! per-nest attribution a hotspot ranking wants.

use crate::policy::SamplePolicy;
use cmt_cache::{CacheConfig, CacheStats, ShardedCache};
use cmt_interp::{Layout, SampledSink, TraceSink, BATCH_LEN};
use cmt_ir::affine::Affine;
use cmt_ir::program::Program;
use cmt_ir::visit::nest_label;
use cmt_obs::{ObsSink, TraceArg};

/// Nests spanning fewer sampling windows than this get the cold-start
/// bias correction (window 0 split off and counted once, only the
/// steady-state remainder extrapolated — see [`profile_nest`]): with so
/// few windows the empty-cache transient in window 0 is a material
/// fraction of the sample, and naive scaling multiplies it into an
/// over-estimate on reuse-heavy nests.
pub const SHORT_NEST_WINDOWS: u64 = 64;

/// Profiling knobs: the sampling policy and the cache geometry the
/// estimates are for.
#[derive(Clone, Copy, Debug)]
pub struct ProfileOptions {
    /// How much of each nest's stream is simulated.
    pub policy: SamplePolicy,
    /// Cache geometry (default: the paper's i860 — the small cache where
    /// locality differences show at profiling sizes).
    pub cache: CacheConfig,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            policy: SamplePolicy::default(),
            cache: CacheConfig::i860(),
        }
    }
}

/// A profiling failure, carrying enough context to name the culprit.
#[derive(Clone, Debug)]
pub struct ProfileError {
    /// Program being profiled.
    pub program: String,
    /// Nest index inside the program, when the failure was nest-local.
    pub nest: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.nest {
            Some(i) => write!(f, "profiling {} nest {}: {}", self.program, i, self.message),
            None => write!(f, "profiling {}: {}", self.program, self.message),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Sampled per-array attribution within one nest.
#[derive(Clone, Debug)]
pub struct ArrayAttribution {
    /// Array name.
    pub name: String,
    /// Stats over the *sampled* accesses that landed in this array.
    pub sampled: CacheStats,
    /// Misses scaled to the full-trace estimate.
    pub est_misses: u64,
    /// This array's share of the nest's estimated misses, in `[0, 1]`.
    pub share: f64,
}

/// One top-level nest's sampled profile.
#[derive(Clone, Debug)]
pub struct NestProfile {
    /// Owning program name.
    pub program: String,
    /// Body index of the nest.
    pub nest_index: usize,
    /// Stable label (see [`cmt_ir::visit::nest_label`]).
    pub label: String,
    /// Accesses the full nest issues (exact for `Full`/`EveryKth`;
    /// trip-ratio estimate for `FirstN`).
    pub accesses: u64,
    /// Accesses actually simulated through the cache model.
    pub sampled_accesses: u64,
    /// Sampling windows the (possibly truncated) stream spans.
    pub windows: u64,
    /// Windows that were simulated.
    pub windows_sampled: u64,
    /// Raw stats over the sampled accesses.
    pub observed: CacheStats,
    /// Stats scaled to the full-trace estimate.
    pub est: CacheStats,
    /// Per-array attribution, ordered by estimated misses (desc), then
    /// name. Arrays the sample never touched are omitted.
    pub arrays: Vec<ArrayAttribution>,
    /// True when nothing was extrapolated (the sample was the whole
    /// stream), so `est` is exact.
    pub exact: bool,
}

impl NestProfile {
    /// Estimated miss rate over the full trace; `0.0` for an empty nest.
    pub fn est_miss_rate(&self) -> f64 {
        if self.est.accesses == 0 {
            0.0
        } else {
            self.est.misses as f64 / self.est.accesses as f64
        }
    }
}

/// A whole program's per-nest profiles, in body order.
#[derive(Clone, Debug)]
pub struct ProgramProfile {
    /// Program name.
    pub program: String,
    /// Parameter value the program was profiled at.
    pub n: i64,
    /// One profile per top-level body node.
    pub nests: Vec<NestProfile>,
}

impl ProgramProfile {
    /// Sum of estimated full-trace accesses over all nests.
    pub fn total_accesses(&self) -> u64 {
        self.nests.iter().map(|p| p.accesses).sum()
    }

    /// Sum of simulated (sampled) accesses over all nests.
    pub fn sampled_accesses(&self) -> u64 {
        self.nests.iter().map(|p| p.sampled_accesses).sum()
    }
}

/// `round(v * num / den)` in 128-bit, `v` unchanged when `den == 0`.
fn scale_u64(v: u64, num: u64, den: u64) -> u64 {
    if den == 0 {
        return v;
    }
    ((v as u128 * num as u128 + den as u128 / 2) / den as u128) as u64
}

/// Fortran DO trip count for `lo..hi` by `step`.
fn trip_count(lo: i64, hi: i64, step: i64) -> u64 {
    if step > 0 {
        if hi < lo {
            0
        } else {
            ((hi - lo) / step + 1) as u64
        }
    } else if step < 0 {
        if lo < hi {
            0
        } else {
            ((lo - hi) / (-step) + 1) as u64
        }
    } else {
        0
    }
}

/// Builds the single-nest clone of `program` keeping only body node
/// `idx`. Under `FirstN` the outer loop is clamped to its first `n`
/// iterations; returns the clone plus `(full_trip, kept_trip)` when a
/// clamp was applied.
fn isolate_nest(
    program: &Program,
    idx: usize,
    n: i64,
    policy: &SamplePolicy,
) -> Result<(Program, Option<(u64, u64)>), ProfileError> {
    let mut single = program.clone();
    let node = single.body_mut().swap_remove(idx);
    single.body_mut().clear();
    single.body_mut().push(node);

    let mut clamp = None;
    if let SamplePolicy::FirstN { n: keep } = policy {
        if let Some(l) = single.body_mut()[0].as_loop_mut() {
            let env = program.param_env(&[n]);
            let err = |message: String| ProfileError {
                program: program.name().to_string(),
                nest: Some(idx),
                message,
            };
            let lo = l.lower().eval(&env).map_err(|e| err(e.to_string()))?;
            let hi = l.upper().eval(&env).map_err(|e| err(e.to_string()))?;
            let step = l.step();
            let trip = trip_count(lo, hi, step);
            let keep = (*keep).max(1);
            if trip > keep {
                let new_hi = lo + (keep as i64 - 1) * step;
                l.set_header(
                    l.id(),
                    l.var(),
                    Affine::constant(lo),
                    Affine::constant(new_hi),
                    step,
                );
                clamp = Some((trip, keep));
            }
        }
    }
    Ok((single, clamp))
}

/// Profiles every top-level nest of `program` at parameter `n` under
/// `opts`, emitting `profile.*` counters and one `profile.sample` trace
/// span per nest through `obs`.
///
/// # Errors
///
/// Returns [`ProfileError`] if the program cannot be allocated or a nest
/// fails to execute (out-of-bounds subscripts, unbound symbols).
pub fn profile_program(
    program: &Program,
    n: i64,
    opts: &ProfileOptions,
    obs: &mut dyn ObsSink,
) -> Result<ProgramProfile, ProfileError> {
    let mut nests = Vec::with_capacity(program.body().len());
    for idx in 0..program.body().len() {
        nests.push(profile_nest(program, idx, n, opts, obs)?);
    }
    if obs.enabled() {
        obs.counter("profile.programs", 1);
        obs.counter("profile.nests", nests.len() as u64);
        obs.counter(
            "profile.accesses_total",
            nests.iter().map(|p| p.accesses).sum(),
        );
        obs.counter(
            "profile.accesses_sampled",
            nests.iter().map(|p| p.sampled_accesses).sum(),
        );
        obs.counter(
            "profile.windows_total",
            nests.iter().map(|p| p.windows).sum(),
        );
        obs.counter(
            "profile.windows_sampled",
            nests.iter().map(|p| p.windows_sampled).sum(),
        );
    }
    Ok(ProgramProfile {
        program: program.name().to_string(),
        n,
        nests,
    })
}

/// Profiles the single top-level body node `idx` of `program`.
///
/// # Errors
///
/// Returns [`ProfileError`] on allocation or execution failure.
pub fn profile_nest(
    program: &Program,
    idx: usize,
    n: i64,
    opts: &ProfileOptions,
    obs: &mut dyn ObsSink,
) -> Result<NestProfile, ProfileError> {
    let label = nest_label(program, idx);
    let err = |message: String| ProfileError {
        program: program.name().to_string(),
        nest: Some(idx),
        message,
    };
    let (single, clamp) = isolate_nest(program, idx, n, &opts.policy)?;

    let (window, stride, seed) = match opts.policy {
        SamplePolicy::EveryKth {
            stride,
            window,
            seed: _,
        } => (window, stride, opts.policy.nest_seed(idx)),
        _ => (BATCH_LEN as u64, 1, 0),
    };

    let layout = Layout::new(&single, &[n]).map_err(|e| err(e.to_string()))?;
    // Snapshot interval == sampling window, so the first closed snapshot
    // is exactly window 0 of the sampled stream (the sampler always
    // forwards window 0) — the cold-start correction below splits on it.
    let mut cache = ShardedCache::new(opts.cache).with_interval(window);
    for (name, start, bytes) in layout.regions(&single) {
        cache.register_region(name, start, bytes);
    }
    let mut sink = SampledSink::every_kth(cache, window, stride, seed);

    if obs.enabled() {
        obs.trace_begin("profile.sample", &[("nest", TraceArg::Str(&label))]);
    }
    let run = layout.trace(&single, &mut sink as &mut dyn TraceSink);
    if obs.enabled() {
        obs.trace_end(
            "profile.sample",
            &[
                ("sampled", TraceArg::U64(sink.sampled)),
                ("seen", TraceArg::U64(sink.accesses_seen())),
            ],
        );
    }
    run.map_err(|e| err(e.to_string()))?;

    let seen = sink.accesses_seen();
    let sampled = sink.sampled;
    let windows = sink.windows_total();
    let windows_sampled = sink.windows_sampled();
    let mut cache = sink.into_inner();
    cache.flush_window();
    let observed = cache.stats();

    // Full-trace access count: exact unless the outer loop was clamped,
    // in which case the truncated stream scales by the trip ratio.
    let total = match clamp {
        Some((full_trip, kept_trip)) => scale_u64(seen, full_trip, kept_trip),
        None => seen,
    };
    let exact = sampled == total;
    // Cold-start bias correction for short nests: the sampled stream
    // starts on an empty cache, so window 0 is polluted by the
    // empty-cache transient. Under SHORT_NEST_WINDOWS windows that
    // transient is a material fraction of the sample, and scaling it
    // with the access ratio over-estimates misses on reuse-heavy nests.
    // The correction splits window 0 off and extrapolates only from the
    // steady-state remainder: `est = w0 + rest.scaled_to(total - w0)`.
    // On single-sweep nests (cold misses spread uniformly) window 0
    // looks like every other window, so the split converges to plain
    // scaling — the correction only bites when window 0 really is a
    // transient. When the sample *is* just window 0 there is no
    // steady state to extrapolate from; compulsory misses are held
    // constant instead (they happen once however long the trace runs).
    // Truncated (`FirstN`) streams are a contiguous prefix, not a
    // window sample — unseen iterations first-touch new lines, so cold
    // misses scale with the trip ratio and plain scaling stands.
    // Long nests also keep the plain estimator (the transient is noise
    // there, and estimates stay comparable with prior runs).
    let short_nest = !exact && clamp.is_none() && windows < SHORT_NEST_WINDOWS;
    let est = if short_nest {
        let w0 = cache
            .snapshots()
            .first()
            .map(|s| CacheStats {
                accesses: s.accesses,
                hits: s.accesses - s.misses,
                misses: s.misses,
                cold_misses: s.cold_misses,
            })
            .unwrap_or(observed);
        let rest = observed.saturating_sub(w0);
        if rest.accesses > 0 {
            let mut e = rest.scaled_to(total - w0.accesses);
            e += w0;
            e
        } else {
            observed.scaled_to_cold_adjusted(total)
        }
    } else {
        observed.scaled_to(total)
    };

    let mut arrays: Vec<ArrayAttribution> = cache
        .per_array()
        .into_iter()
        .filter(|(_, s)| s.accesses > 0)
        .map(|(name, s)| {
            // Per-array estimate: distribute the nest-level estimate in
            // proportion to each array's observed misses, so per-array
            // numbers inherit the cold-start correction and sum to the
            // nest total. Without the correction this reduces to
            // scaling by the sampled→total access ratio.
            let est_misses = scale_u64(s.misses, est.misses, observed.misses);
            ArrayAttribution {
                name,
                sampled: s,
                est_misses,
                share: 0.0,
            }
        })
        .collect();
    let est_total_misses: u64 = arrays.iter().map(|a| a.est_misses).sum();
    for a in &mut arrays {
        a.share = if est_total_misses == 0 {
            0.0
        } else {
            a.est_misses as f64 / est_total_misses as f64
        };
    }
    arrays.sort_by(|a, b| b.est_misses.cmp(&a.est_misses).then(a.name.cmp(&b.name)));

    Ok(NestProfile {
        program: program.name().to_string(),
        nest_index: idx,
        label,
        accesses: total,
        sampled_accesses: sampled,
        windows,
        windows_sampled,
        observed,
        est,
        arrays,
        exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;
    use cmt_obs::{CollectSink, NullObs};

    fn copy2d(name: &str) -> Program {
        let mut b = ProgramBuilder::new(name);
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [i, j]);
                b.assign(lhs, Expr::load(b.at(a, [j, i])));
            });
        });
        b.finish()
    }

    #[test]
    fn full_policy_matches_direct_simulation() {
        let p = copy2d("copy");
        let opts = ProfileOptions {
            policy: SamplePolicy::Full,
            ..Default::default()
        };
        let prof = profile_program(&p, 32, &opts, &mut NullObs).unwrap();
        assert_eq!(prof.nests.len(), 1);
        let nest = &prof.nests[0];
        assert!(nest.exact);
        assert_eq!(nest.accesses, 2 * 32 * 32);
        assert_eq!(nest.observed, nest.est);
        // Direct simulation of the same program agrees exactly.
        let layout = Layout::new(&p, &[32]).unwrap();
        let mut c = ShardedCache::new(CacheConfig::i860());
        layout.trace(&p, &mut c).unwrap();
        assert_eq!(nest.est, c.stats());
        // Both arrays show up in attribution and shares sum to ~1.
        assert_eq!(nest.arrays.len(), 2);
        let share: f64 = nest.arrays.iter().map(|a| a.share).sum();
        assert!((share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_estimate_tracks_full_within_bounds() {
        let p = copy2d("copy");
        let full = profile_program(
            &p,
            64,
            &ProfileOptions {
                policy: SamplePolicy::Full,
                ..Default::default()
            },
            &mut NullObs,
        )
        .unwrap();
        let sampled = profile_program(&p, 64, &ProfileOptions::default(), &mut NullObs).unwrap();
        let (f, s) = (&full.nests[0], &sampled.nests[0]);
        assert_eq!(f.accesses, s.accesses, "totals are metered, not estimated");
        assert!(s.sampled_accesses < s.accesses / 8, "must actually sample");
        let rel = (s.est.misses as f64 - f.est.misses as f64).abs() / f.est.misses as f64;
        assert!(rel < 0.25, "miss estimate off by {rel:.3}");
    }

    #[test]
    fn first_n_truncates_and_scales() {
        let p = copy2d("copy");
        let full = profile_program(
            &p,
            64,
            &ProfileOptions {
                policy: SamplePolicy::Full,
                ..Default::default()
            },
            &mut NullObs,
        )
        .unwrap();
        let firstn = profile_program(
            &p,
            64,
            &ProfileOptions {
                policy: SamplePolicy::FirstN { n: 4 },
                ..Default::default()
            },
            &mut NullObs,
        )
        .unwrap();
        let (f, s) = (&full.nests[0], &firstn.nests[0]);
        assert_eq!(
            s.sampled_accesses,
            f.accesses / 16,
            "4 of 64 outer iterations"
        );
        assert_eq!(
            s.accesses, f.accesses,
            "trip-ratio estimate recovers the total"
        );
        let rel = (s.est.misses as f64 - f.est.misses as f64).abs() / f.est.misses as f64;
        assert!(rel < 0.25, "miss estimate off by {rel:.3}");
    }

    #[test]
    fn degenerate_programs_profile_empty_but_valid() {
        // Zero-trip loop.
        let mut b = ProgramBuilder::new("zero");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 3, 2, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i, i]);
            b.assign(lhs, Expr::Const(1.0));
        });
        let p = b.finish();
        let prof = profile_program(&p, 8, &ProfileOptions::default(), &mut NullObs).unwrap();
        assert_eq!(prof.nests.len(), 1);
        assert_eq!(prof.nests[0].accesses, 0);
        assert_eq!(prof.nests[0].est.misses, 0);
        assert!(prof.nests[0].arrays.is_empty());
        assert!(prof.nests[0].exact);

        // Loop-free program: top-level statements profile as tiny exact
        // nests with `stmt` labels.
        let mut b = ProgramBuilder::new("flat");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let lhs = b.at_vec(a, vec![Affine::constant(1), Affine::constant(1)]);
        b.assign(lhs, Expr::Const(2.0));
        let p = b.finish();
        let prof = profile_program(&p, 8, &ProfileOptions::default(), &mut NullObs).unwrap();
        assert_eq!(prof.nests.len(), 1);
        assert!(prof.nests[0].label.ends_with(":stmt"));
        assert_eq!(prof.nests[0].accesses, 1);
        assert!(prof.nests[0].exact);
    }

    #[test]
    fn first_n_on_degenerate_bounds_is_safe() {
        for (lo, hi) in [(3i64, 2i64), (2, 2)] {
            let mut b = ProgramBuilder::new("deg");
            let n = b.param("N");
            let a = b.matrix("A", n);
            b.loop_("I", lo, hi, |b| {
                let i = b.var("I");
                let lhs = b.at(a, [i, i]);
                b.assign(lhs, Expr::Const(1.0));
            });
            let p = b.finish();
            let prof = profile_program(
                &p,
                8,
                &ProfileOptions {
                    policy: SamplePolicy::FirstN { n: 4 },
                    ..Default::default()
                },
                &mut NullObs,
            )
            .unwrap();
            let expect = trip_count(lo, hi, 1);
            assert_eq!(prof.nests[0].accesses, expect);
        }
    }

    #[test]
    fn profiling_emits_counters_and_spans() {
        let p = copy2d("copy");
        let mut sink = CollectSink::new();
        profile_program(&p, 16, &ProfileOptions::default(), &mut sink).unwrap();
        assert_eq!(sink.metrics.counter_value("profile.programs"), 1);
        assert_eq!(sink.metrics.counter_value("profile.nests"), 1);
        assert_eq!(sink.metrics.counter_value("profile.accesses_total"), 512);
        assert!(sink.metrics.counter_value("profile.accesses_sampled") > 0);
    }

    #[test]
    fn multi_nest_program_gets_independent_profiles() {
        let mut b = ProgramBuilder::new("two");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i, i]);
            b.assign(lhs, Expr::Const(1.0));
        });
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::load(b.at(a, [j, i])));
            });
        });
        let p = b.finish();
        let prof = profile_program(&p, 24, &ProfileOptions::default(), &mut NullObs).unwrap();
        assert_eq!(prof.nests.len(), 2);
        assert!(prof.nests[1].accesses > prof.nests[0].accesses);
        assert!(prof.nests[0].label.contains("nest0"));
        assert!(prof.nests[1].label.contains("nest1"));
    }
}
