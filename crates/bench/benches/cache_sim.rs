//! Throughput of the cache-simulation engine against its oracle, per
//! stream and geometry:
//!
//! * `legacy_scalar` — the seed `Vec<Vec<u64>>` + `HashSet` simulator
//!   ([`LegacyCache`]), one call per access: the baseline the engine is
//!   measured against;
//! * `sharded` — the engine ([`ShardedCache`]) fed 4 K-entry packed
//!   buffers via `access_batch`, the shape the interpreter produces:
//!   MRU-ordered move-to-front way groups and an adaptive SIMD
//!   run-collapse front end.
//!
//! The two are timed **interleaved** (A, B, A, B … taking each side's
//! minimum) because their ratio is the headline number and consecutive
//! one-sided runs pick up scheduler drift on small hosts.
//!
//! Plus an end-to-end corpus comparison: Table 4 over the full suite,
//! sequential (`CMT_JOBS=1`) vs parallel (restored `CMT_JOBS`),
//! asserting byte-identical output.
//! All cases run an **equivalence check first** — identical `CacheStats`
//! from the oracle and the engine — and the process exits non-zero on
//! mismatch, so CI can gate on correctness without gating on timing.
//!
//! Environment:
//!
//! * `CMT_BENCH_QUICK=1` — smaller streams and fewer iterations (CI);
//! * `CMT_BENCH_JSON=PATH` — where to write the JSON baseline
//!   (default `BENCH_cache_sim.json` in the working directory);
//! * `CMT_BENCH_GATE=PATH` — compare this run's geomean speedup over
//!   the oracle against a committed baseline JSON and exit non-zero when
//!   it falls below `CMT_BENCH_GATE_FRAC` (default 0.7) of it.
//!
//! Reproduce the committed baseline with:
//!
//! ```text
//! cargo bench -p cmt-bench --bench cache_sim
//! ```

use cmt_bench::timing::human_ns;
use cmt_cache::{pack_access, CacheConfig, LegacyCache, ShardedCache};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("CMT_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Streams: a unit-stride sweep, a 4 KB stride that piles onto few
/// sets, uniform random lines, and a column walk whose misses rotate
/// over three arrays — what a stencil or matrix loop does to its
/// operands.
const KINDS: [&str; 4] = ["sequential", "strided_4k", "lcg_random", "rotating_3"];

/// Bytes in each of `rotating_3`'s arrays.
const ROTATING_ARRAY: u64 = 1 << 22;

/// Where `rotating_3`'s array `k` starts: one after another with a
/// 2 KB guard gap, as `cmt_interp::Layout` places a program's arrays.
fn rotating_base(k: u64) -> u64 {
    k * (ROTATING_ARRAY + 2048)
}

/// The byte ranges `(start, len)` a stream's addresses fall in — the
/// arenas the engine reserves for dense cold-line tracking, one per
/// array, as the bench runner does for a real program.
fn stream_regions(kind: &str) -> Vec<(u64, u64)> {
    match kind {
        "sequential" => vec![(0, 1 << 22)],
        "strided_4k" => vec![(0, 1 << 26)],
        "lcg_random" => vec![(0, 1 << 24)],
        "rotating_3" => (0..3).map(|k| (rotating_base(k), ROTATING_ARRAY)).collect(),
        _ => unreachable!("unknown stream kind"),
    }
}

/// One packed synthetic access stream.
fn stream(kind: &str, accesses: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(accesses as usize);
    let mut x = 0x243F6A8885A308D3u64;
    for k in 0..accesses {
        let addr = match kind {
            "sequential" => k * 8 % (1 << 22),
            "strided_4k" => k * 4096 % (1 << 26),
            "lcg_random" => {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x % (1 << 24)
            }
            // A 520-byte stride crosses a line on every access, in the
            // three arrays in turn.
            "rotating_3" => rotating_base(k % 3) + k / 3 * 520 % ROTATING_ARRAY,
            _ => unreachable!("unknown stream kind"),
        };
        out.push(pack_access(addr, k % 4 == 0));
    }
    out
}

fn reserve(c: &mut ShardedCache, kind: &str) {
    for (start, len) in stream_regions(kind) {
        c.reserve_region(start, len);
    }
}

/// Feeds `trace` to the oracle and to the engine; returns their stats
/// for the equivalence gate. The engine gets the stream's arrays
/// reserved (the oracle has no such notion), so the gate also proves
/// reservation never changes the counts.
fn run_both_engines(cfg: CacheConfig, kind: &str, trace: &[u64]) -> [cmt_cache::CacheStats; 2] {
    let mut legacy = LegacyCache::new(cfg);
    let mut engine = ShardedCache::new(cfg);
    reserve(&mut engine, kind);
    for &p in trace {
        let (a, w) = cmt_cache::unpack_access(p);
        legacy.access(a, w);
    }
    for chunk in trace.chunks(4096) {
        engine.access_batch(chunk);
    }
    [legacy.stats(), engine.stats()]
}

/// Times two closures interleaved (A, B, A, B, …), returning each
/// side's minimum total nanoseconds. Consecutive one-sided runs soak up
/// host-scheduler and frequency drift asymmetrically; interleaving
/// hits both sides with the same conditions each round.
fn bench_interleaved(iters: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::MAX, f64::MAX);
    for _ in 0..iters {
        let t = Instant::now();
        a();
        best_a = best_a.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        b();
        best_b = best_b.min(t.elapsed().as_nanos() as f64);
    }
    (best_a, best_b)
}

struct Case {
    name: String,
    legacy_ns: f64,
    sharded_ns: f64,
}

fn main() {
    let quick = quick();
    let accesses: u64 = if quick { 200_000 } else { 1_000_000 };
    let iters: u32 = if quick { 3 } else { 10 };
    println!(
        "cache_sim ({accesses} accesses per iteration{})",
        if quick { ", quick mode" } else { "" }
    );

    // ---- Equivalence gate: run before any timing, fail hard. --------
    let mut mismatches = 0;
    for kind in KINDS {
        let trace = stream(kind, accesses.min(300_000));
        for cfg in [
            CacheConfig::rs6000(),
            CacheConfig::i860(),
            CacheConfig::decstation(),
        ] {
            let [l, e] = run_both_engines(cfg, kind, &trace);
            if l != e {
                eprintln!("EQUIVALENCE MISMATCH {kind}/{cfg}: legacy={l:?} engine={e:?}");
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        eprintln!("{mismatches} engine equivalence mismatches — failing");
        std::process::exit(1);
    }
    println!("engine equivalence: OK (legacy == engine on all streams/geometries)");

    // ---- Hot-loop timing: oracle vs engine per stream/config. --------
    let mut cases = Vec::new();
    for (label, cfg) in [
        ("rs6000", CacheConfig::rs6000()),
        ("i860", CacheConfig::i860()),
        ("decstation", CacheConfig::decstation()),
    ] {
        for kind in KINDS {
            let trace = stream(kind, accesses);
            let name = format!("{kind}/{label}");
            let (legacy_ns, sharded_ns) = bench_interleaved(
                iters.max(8),
                || {
                    let mut c = LegacyCache::new(cfg);
                    for &p in &trace {
                        let (a, w) = cmt_cache::unpack_access(p);
                        c.access(a, w);
                    }
                    black_box(c.stats());
                },
                || {
                    let mut c = ShardedCache::new(cfg);
                    reserve(&mut c, kind);
                    for chunk in trace.chunks(4096) {
                        c.access_batch(chunk);
                    }
                    black_box(c.stats());
                },
            );
            let per = |ns: f64| ns / accesses as f64;
            println!(
                "{name}: {} legacy, {} sharded per access ({:.2}x)",
                human_ns(per(legacy_ns)),
                human_ns(per(sharded_ns)),
                legacy_ns / sharded_ns
            );
            cases.push(Case {
                name,
                legacy_ns: per(legacy_ns),
                sharded_ns: per(sharded_ns),
            });
        }
    }
    let logs: f64 = cases
        .iter()
        .map(|c| (c.legacy_ns / c.sharded_ns).ln())
        .sum();
    let sharded_vs_legacy = (logs / cases.len() as f64).exp();
    println!("hot-loop geomean speedup (engine vs legacy scalar): {sharded_vs_legacy:.2}x");

    // ---- End-to-end corpus: sequential vs parallel Table 4. ---------
    let corpus_n = if quick { 48 } else { 96 };
    let saved_jobs = std::env::var("CMT_JOBS").ok();
    std::env::set_var("CMT_JOBS", "1");
    let t0 = Instant::now();
    let (seq_text, _) = cmt_bench::tables::table4(Some(corpus_n));
    let sequential_s = t0.elapsed().as_secs_f64();
    // Restore the caller's CMT_JOBS (CI pins it to 2) for the parallel leg.
    match &saved_jobs {
        Some(v) => std::env::set_var("CMT_JOBS", v),
        None => std::env::remove_var("CMT_JOBS"),
    }
    let jobs = cmt_bench::cmt_jobs();
    let t1 = Instant::now();
    let (par_text, _) = cmt_bench::tables::table4(Some(corpus_n));
    let parallel_s = t1.elapsed().as_secs_f64();
    if seq_text != par_text {
        eprintln!("DETERMINISM MISMATCH: table4 output differs between CMT_JOBS=1 and {jobs}");
        std::process::exit(1);
    }
    println!(
        "corpus (table4 @ N={corpus_n}): {sequential_s:.2}s sequential, {parallel_s:.2}s on \
         {jobs} jobs ({:.2}x), outputs byte-identical",
        sequential_s / parallel_s.max(1e-9)
    );

    // ---- JSON baseline. ---------------------------------------------
    // Cargo runs benches with the package as cwd; anchor the default at
    // the workspace root so the committed baseline has one home.
    let path = std::env::var("CMT_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache_sim.json").into()
    });
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"cache_sim\",");
    let _ = writeln!(j, "  \"accesses_per_iteration\": {accesses},");
    let _ = writeln!(j, "  \"quick\": {quick},");
    let _ = writeln!(j, "  \"ns_per_access\": {{");
    for (k, c) in cases.iter().enumerate() {
        let comma = if k + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    \"{}\": {{\"legacy_scalar\": {:.3}, \"sharded\": {:.3}, \
             \"speedup_sharded_vs_legacy\": {:.2}}}{comma}",
            c.name,
            c.legacy_ns,
            c.sharded_ns,
            c.legacy_ns / c.sharded_ns
        );
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(
        j,
        "  \"sharded_vs_legacy_geomean\": {sharded_vs_legacy:.2},"
    );
    let _ = writeln!(
        j,
        "  \"corpus_table4\": {{\"n\": {corpus_n}, \"sequential_seconds\": {sequential_s:.3}, \
         \"parallel_seconds\": {parallel_s:.3}, \"jobs\": {jobs}, \"speedup\": {:.2}, \
         \"byte_identical_output\": true}}",
        sequential_s / parallel_s.max(1e-9)
    );
    let _ = writeln!(j, "}}");
    match std::fs::write(&path, &j) {
        Ok(()) => println!("baseline written: {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    // ---- Regression gate vs a committed baseline. -------------------
    // Gates on a *ratio* (the geomean speedup), not absolute
    // nanoseconds, so quick-mode CI runs compare meaningfully against a
    // full-mode committed baseline on different hardware.
    if let Ok(gate_path) = std::env::var("CMT_BENCH_GATE") {
        let frac: f64 = std::env::var("CMT_BENCH_GATE_FRAC")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.7);
        let baseline = std::fs::read_to_string(&gate_path)
            .unwrap_or_else(|e| panic!("CMT_BENCH_GATE: cannot read {gate_path}: {e}"));
        let key = "sharded_vs_legacy_geomean";
        let Some(committed) = json_number(&baseline, key) else {
            eprintln!("gate: baseline {gate_path} has no \"{key}\"");
            std::process::exit(1);
        };
        let floor = committed * frac;
        if sharded_vs_legacy < floor {
            eprintln!(
                "PERF REGRESSION {key}: measured {sharded_vs_legacy:.2}x < {floor:.2}x \
                 (= {frac} x committed {committed:.2}x)"
            );
            std::process::exit(1);
        }
        println!(
            "gate: {key} {sharded_vs_legacy:.2}x >= {floor:.2}x ({frac} x committed \
             {committed:.2}x) — OK"
        );
    }
}

/// Extracts `"key": <number>` from a flat JSON document — enough to read
/// the handful of geomean fields this bench itself writes, without a
/// JSON dependency.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
