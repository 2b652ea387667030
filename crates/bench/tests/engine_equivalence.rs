//! End-to-end equivalence of the cache engine against the seed-shaped
//! scalar path, over the full cmt-suite corpus.
//!
//! Four properties are pinned here, beyond the per-crate unit tests:
//!
//! * whole-trace `CacheStats` from [`LegacyCache`] (the seed's
//!   `Vec<Vec<_>>` + `HashSet` simulator, one scalar call per access)
//!   and from the engine fed 4 K packed batches are **exactly equal**
//!   for every suite model and paper cache geometry, and so are those
//!   of an engine handed each proven loop whole as a loop run;
//! * the observability layer (per-array attribution, interval
//!   snapshots) of the batched engine matches a scalar reference built
//!   on the legacy oracle;
//! * how arrays are reserved for cold-line tracking (one by one, as one
//!   span, in reverse, or not at all) changes neither of the above;
//! * rendered table output is byte-identical for any `CMT_JOBS`.

use cmt_bench::par_map;
use cmt_cache::{CacheConfig, CacheStats, IntervalSnapshot, LegacyCache, ShardedCache};
use cmt_interp::{Layout, RecordingSink};
use cmt_ir::program::Program;
use std::sync::Mutex;

/// Serializes tests that read or write `CMT_JOBS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `program` once, recording the full trace.
fn record(program: &Program, n: i64) -> RecordingSink {
    let layout = Layout::new(program, &[n]).expect("allocation");
    let mut rec = RecordingSink::default();
    layout.trace(program, &mut rec).expect("execution");
    rec
}

/// Traces `program` into a fresh cache, which takes loop runs.
fn traced_in_runs(program: &Program, n: i64, cfg: CacheConfig) -> CacheStats {
    let layout = Layout::new(program, &[n]).expect("allocation");
    let mut cache = ShardedCache::new(cfg);
    assert!(cache.takes_runs());
    layout.trace(program, &mut cache).expect("execution");
    cache.stats()
}

const GEOMETRIES: [fn() -> CacheConfig; 3] = [
    CacheConfig::rs6000,
    CacheConfig::i860,
    CacheConfig::decstation,
];

#[test]
fn corpus_stats_identical_legacy_vs_batched() {
    let _env = ENV_LOCK.lock().unwrap();
    let models = cmt_suite::suite();
    let failures: Vec<String> = par_map(&models, |m| {
        let rec = record(&m.optimized, 24);
        let mut out = Vec::new();
        for cfg in GEOMETRIES.map(|c| c()) {
            let mut legacy = LegacyCache::new(cfg);
            for &(a, w) in &rec.trace {
                legacy.access(a, w);
            }
            let mut batched = ShardedCache::new(cfg);
            rec.replay_batched(&mut batched);
            let runs = traced_in_runs(&m.optimized, 24, cfg);
            if legacy.stats() != batched.stats() || legacy.stats() != runs {
                out.push(format!(
                    "{}/{cfg}: legacy={:?} batched={:?} runs={runs:?}",
                    m.spec.name,
                    legacy.stats(),
                    batched.stats()
                ));
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "stats diverged:\n{failures:#?}");
}

#[test]
fn verify_corpus_stats_identical_sharded_vs_legacy() {
    let _env = ENV_LOCK.lock().unwrap();
    // The full committed verify corpus in release (the scale CI runs
    // at); a prefix in debug so plain `cargo test -q` stays quick.
    let take = if cfg!(debug_assertions) {
        24
    } else {
        usize::MAX
    };
    let seeds: Vec<u64> = cmt_verify::corpus_seeds().into_iter().take(take).collect();
    let failures: Vec<String> = par_map(&seeds, |&seed| {
        let program = cmt_verify::generate(seed);
        let rec = record(&program, 16);
        let mut out = Vec::new();
        for cfg in GEOMETRIES.map(|c| c()) {
            let mut legacy = LegacyCache::new(cfg);
            for &(a, w) in &rec.trace {
                legacy.access(a, w);
            }
            let mut batched = ShardedCache::new(cfg);
            rec.replay_batched(&mut batched);
            let (l, s) = (legacy.stats(), batched.stats());
            let runs = traced_in_runs(&program, 16, cfg);
            if l != s || l != runs {
                out.push(format!(
                    "seed {seed}/{cfg}: legacy={l:?} batched={s:?} runs={runs:?}"
                ));
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "stats diverged:\n{failures:#?}");
}

/// What the observed engine reports, from a scalar reference on the
/// legacy oracle: the hit comes from `access`, the cold flag from the
/// `cold_misses` delta, the array from a binary search over `regions`
/// (`(name, start, len)` sorted by start), and a snapshot closes every
/// `interval` accesses plus once for the tail.
struct Reference {
    stats: CacheStats,
    per_array: Vec<(String, CacheStats)>,
    unattributed: CacheStats,
    snapshots: Vec<IntervalSnapshot>,
}

fn legacy_reference(
    cfg: CacheConfig,
    regions: &[(String, u64, u64)],
    trace: &[(u64, bool)],
    interval: u64,
) -> Reference {
    let mut legacy = LegacyCache::new(cfg);
    let mut per_array: Vec<(String, CacheStats)> = regions
        .iter()
        .map(|(name, _, _)| (name.clone(), CacheStats::default()))
        .collect();
    let mut unattributed = CacheStats::default();
    let mut snapshots = Vec::new();
    let mut window = CacheStats::default();
    for (k, &(addr, w)) in trace.iter().enumerate() {
        let cold_before = legacy.stats().cold_misses;
        let hit = legacy.access(addr, w);
        let one = CacheStats {
            accesses: 1,
            hits: u64::from(hit),
            misses: u64::from(!hit),
            cold_misses: legacy.stats().cold_misses - cold_before,
        };
        let pos = regions.partition_point(|&(_, start, _)| start <= addr);
        match pos.checked_sub(1) {
            Some(r) if addr - regions[r].1 < regions[r].2 => per_array[r].1 += one,
            _ => unattributed += one,
        }
        window += one;
        if window.accesses == interval || (k + 1 == trace.len() && window.accesses > 0) {
            snapshots.push(IntervalSnapshot {
                upto: k as u64 + 1,
                accesses: window.accesses,
                misses: window.misses,
                cold_misses: window.cold_misses,
            });
            window = CacheStats::default();
        }
    }
    Reference {
        stats: legacy.stats(),
        per_array,
        unattributed,
        snapshots,
    }
}

#[test]
fn observed_attribution_identical_scalar_vs_batched() {
    let interval = 5_000u64;
    let n = 24;
    for m in cmt_suite::suite()
        .iter()
        .filter(|m| m.spec.mix.total_nests() > 0)
        .take(4)
    {
        let p = &m.optimized;
        let layout = Layout::new(p, &[n]).expect("allocation");
        let mut regions: Vec<(String, u64, u64)> = layout
            .regions(p)
            .map(|(name, start, bytes)| (name.to_string(), start, bytes))
            .collect();
        regions.sort_by_key(|r| r.1);
        let rec = record(p, n);
        // Batched path: the real pipeline (interpreter buffers 4 K
        // packed accesses per sink call).
        let obs = cmt_bench::simulate_observed(p, n, interval, None);
        for (which, cfg, batched) in [
            ("cache1", CacheConfig::rs6000(), &obs.cache1),
            ("cache2", CacheConfig::i860(), &obs.cache2),
        ] {
            let reference = legacy_reference(cfg, &regions, &rec.trace, interval);
            let name = format!("{}/{which}", m.spec.name);
            assert_eq!(
                reference.stats,
                batched.stats(),
                "{name}: whole-trace stats"
            );
            assert_eq!(
                reference.per_array,
                batched.per_array(),
                "{name}: per-array attribution"
            );
            assert_eq!(
                reference.unattributed,
                batched.unattributed(),
                "{name}: unattributed stats"
            );
            assert_eq!(
                reference.snapshots,
                batched.snapshots(),
                "{name}: interval snapshots"
            );
        }
    }
}

/// A column-order stencil: `J` innermost walks every array across its
/// columns, so each access touches a new line and consecutive misses
/// rotate over `A`, `B`, `C` and `D`.
const ROTATING_STENCIL: &str = "PROGRAM rotate
PARAM N
REAL A(N,N), B(N,N), C(N,N), D(N)
DO I = 2, N-1
  DO J = 2, N-1
    A(I,J) = B(I,J-1) + B(I,J+1) + C(I,J) + D(J)
";

#[test]
fn reservation_never_changes_stats_or_attribution() {
    let p = cmt_ir::parse::parse_program(ROTATING_STENCIL).expect("parse");
    let n = 40;
    let layout = Layout::new(&p, &[n]).expect("allocation");
    let regions: Vec<(String, u64, u64)> = layout
        .regions(&p)
        .map(|(name, start, bytes)| (name.to_string(), start, bytes))
        .collect();
    let (first, last) = (&regions[0], &regions[regions.len() - 1]);
    let span = (first.1, last.1 + last.2 - first.1);
    let rec = record(&p, n);
    for cfg in GEOMETRIES.map(|c| c()) {
        let reference = legacy_reference(cfg, &regions, &rec.trace, u64::MAX);
        // The trace is the one this test is for: misses in every array,
        // and most consecutive misses in different arrays.
        assert!(reference.per_array.iter().all(|(_, s)| s.misses > 0));
        let mut legacy = LegacyCache::new(cfg);
        let (mut switches, mut misses, mut prev) = (0, 0, usize::MAX);
        for &(a, w) in &rec.trace {
            if !legacy.access(a, w) {
                let array = regions.partition_point(|r| r.1 <= a) - 1;
                switches += usize::from(array != prev);
                misses += 1;
                prev = array;
            }
        }
        assert!(
            2 * switches > misses,
            "{cfg}: {switches} of {misses} misses switch arrays"
        );
        // Reservation only: whole-trace stats, through loop runs.
        let reserve = |reservations: &[(u64, u64)]| {
            let mut c = ShardedCache::new(cfg);
            for &(start, bytes) in reservations {
                c.reserve_region(start, bytes);
            }
            layout.trace(&p, &mut c).expect("execution");
            c.stats()
        };
        let per_array: Vec<(u64, u64)> = regions.iter().map(|r| (r.1, r.2)).collect();
        let reversed: Vec<(u64, u64)> = per_array.iter().rev().copied().collect();
        for (setup, reservations) in [
            ("per-array", &per_array[..]),
            ("spanning", &[span][..]),
            ("reversed", &reversed[..]),
            ("none", &[][..]),
        ] {
            assert_eq!(
                reserve(reservations),
                reference.stats,
                "{cfg}: {setup} stats"
            );
        }
        // Attribution registers (and so reserves) every array; vary
        // what was reserved before and the order of registration.
        // The legacy reference, which reserves nothing, stands for
        // the fourth setup.
        let attribute = |reserved: &[(u64, u64)], order: &[&(String, u64, u64)]| {
            let mut c = ShardedCache::new(cfg);
            for &(start, bytes) in reserved {
                c.reserve_region(start, bytes);
            }
            for (array, start, bytes) in order {
                c.register_region(array.as_str(), *start, *bytes);
            }
            layout.trace(&p, &mut c).expect("execution");
            (c.stats(), c.per_array(), c.unattributed())
        };
        let in_order: Vec<_> = regions.iter().collect();
        let in_reverse: Vec<_> = regions.iter().rev().collect();
        for (setup, reserved, order) in [
            ("per-array", &[][..], &in_order),
            ("spanning", &[span][..], &in_order),
            ("reversed", &[][..], &in_reverse),
        ] {
            let (stats, arrays, rest) = attribute(reserved, order);
            assert_eq!(stats, reference.stats, "{cfg}: {setup} observed stats");
            assert_eq!(arrays, reference.per_array, "{cfg}: {setup} per_array");
            assert_eq!(rest, reference.unattributed, "{cfg}: {setup} unattributed");
        }
    }
}

#[test]
fn reset_stats_keeps_cold_history_clear_forgets() {
    // i860 geometry: 32 B lines, 128 sets, 2-way. Addresses 0, 4096 and
    // 8192 all map to set 0, so two of them evict the first.
    let evicters = [4096u64, 8192];

    let mut c = ShardedCache::new(CacheConfig::i860());
    c.access(0, false); // cold miss
    c.reset_stats();
    c.access(0, false); // contents survive reset_stats: a hit
    assert_eq!(c.stats().hits, 1, "reset_stats must keep cache contents");
    for a in evicters {
        c.access(a, false); // each a cold miss of its own line
    }
    let cold_before = c.stats().cold_misses;
    assert!(!c.access(0, false), "line 0 must have been evicted");
    assert_eq!(
        c.stats().cold_misses,
        cold_before,
        "reset_stats must keep cold-line history: the re-touch of line 0 \
         is a capacity miss, not a cold one"
    );

    let mut d = ShardedCache::new(CacheConfig::i860());
    d.access(0, false);
    d.clear();
    d.access(0, false); // clear forgets everything: cold again
    assert_eq!(d.stats().accesses, 1, "clear must zero the stats");
    assert_eq!(
        d.stats().cold_misses,
        1,
        "clear must forget cold-line history"
    );
}

#[test]
fn table_output_byte_identical_for_any_jobs() {
    let _env = ENV_LOCK.lock().unwrap();
    // The worker count is a pure throughput knob: rendered table
    // artifacts must be byte-identical for any `CMT_JOBS`.
    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        std::env::set_var("CMT_JOBS", jobs);
        let (text, _) = cmt_bench::tables::table4(Some(24));
        outputs.push((jobs, text));
    }
    std::env::remove_var("CMT_JOBS");
    let (j0, base) = &outputs[0];
    for (j, text) in &outputs[1..] {
        assert_eq!(
            text, base,
            "table4 differs between CMT_JOBS={j0} and CMT_JOBS={j}"
        );
    }
}
