//! `ShardedCache::access_run` against the run's expansion.
//!
//! Three caches see the same history: one is fed each loop run whole,
//! one is fed the run's expansion through `access_batch`, and the
//! `LegacyCache` oracle is fed the expansion one access at a time. Their
//! statistics must agree after the runs, and again after the same
//! random tail trace, which can only happen if the runs left the same
//! lines resident in the same LRU order.

use cmt_cache::{
    unpack_access, CacheConfig, CacheStats, LegacyCache, LoopRun, ShardedCache, Stream,
};
use cmt_obs::SplitMix64;

/// Where the generated streams live: far enough up that no stream of
/// at most 500 iterations reaches below zero.
const BASE: u64 = 1 << 32;

fn geometries() -> [CacheConfig; 3] {
    [
        CacheConfig::rs6000(),
        CacheConfig::i860(),
        CacheConfig::decstation(),
    ]
}

fn expansion(run: LoopRun<'_>) -> Vec<u64> {
    let mut all = Vec::new();
    run.expand(4096, |b| all.extend_from_slice(b));
    all
}

/// A cache fed runs, a cache fed their expansion and the oracle.
struct Three {
    runs: ShardedCache,
    expanded: ShardedCache,
    legacy: LegacyCache,
}

impl Three {
    fn new(cfg: CacheConfig) -> Three {
        let runs = ShardedCache::new(cfg);
        assert!(runs.takes_runs());
        Three {
            runs,
            expanded: ShardedCache::new(cfg),
            legacy: LegacyCache::new(cfg),
        }
    }

    fn run(&mut self, run: LoopRun<'_>) {
        self.runs.access_run(run);
        let all = expansion(run);
        self.expanded.access_batch(&all);
        for &p in &all {
            let (a, w) = unpack_access(p);
            self.legacy.access(a, w);
        }
    }

    fn trace(&mut self, trace: &[u64]) {
        self.runs.access_batch(trace);
        self.expanded.access_batch(trace);
        for &p in trace {
            let (a, w) = unpack_access(p);
            self.legacy.access(a, w);
        }
    }

    /// Asserts the three agree; returns the statistics.
    fn agree(&mut self, label: &str) -> CacheStats {
        let want = self.legacy.stats();
        assert_eq!(self.expanded.stats(), want, "{label}: expansion");
        assert_eq!(self.runs.stats(), want, "{label}: run");
        assert_eq!(
            self.runs.resident_lines(),
            self.legacy.resident_lines(),
            "{label}: resident lines"
        );
        want
    }
}

/// A byte stride of one of the kinds a loop produces: zero, under a
/// line, whole lines, arbitrary, or the distance that maps to the same
/// set; negative half the time.
fn stride(rng: &mut SplitMix64, cfg: CacheConfig) -> i64 {
    let line = cfg.line() as i64;
    let s = match rng.gen_range_usize(0, 5) {
        0 => 0,
        1 => 8 * rng.gen_range_i64(1, (line / 8 - 1).max(1)),
        2 => line * rng.gen_range_i64(1, 3),
        3 => rng.gen_range_i64(1, 600),
        4 => (cfg.size() / u64::from(cfg.assoc())) as i64,
        _ => 8,
    };
    if rng.gen_bool(0.5) {
        -s
    } else {
        s
    }
}

fn random_run(rng: &mut SplitMix64, cfg: CacheConfig) -> (Vec<Stream>, u64) {
    let m = rng.gen_range_usize(1, 6);
    let set_span = cfg.size() / u64::from(cfg.assoc());
    let mut streams: Vec<Stream> = Vec::with_capacity(m);
    for _ in 0..m {
        let start = match streams.len() {
            // Near another stream: the same line, or the same set.
            n if n > 0 && rng.gen_bool(0.5) => {
                let other = streams[rng.gen_range_usize(0, n - 1)].start;
                other + rng.gen_range_i64(0, 3) as u64 * set_span + rng.gen_range_i64(0, 16) as u64
            }
            _ => BASE + 8 * rng.gen_range_i64(0, 4 * cfg.size() as i64 / 8) as u64,
        };
        streams.push(Stream {
            start,
            stride: stride(rng, cfg),
            write: rng.gen_bool(0.4),
        });
    }
    (streams, rng.gen_range_i64(1, 500) as u64)
}

fn random_trace(rng: &mut SplitMix64, cfg: CacheConfig, len: usize) -> Vec<u64> {
    (0..len)
        .map(|_| {
            let addr = BASE + 8 * rng.gen_range_i64(0, 4 * cfg.size() as i64 / 8) as u64;
            cmt_cache::pack_access(addr, rng.gen_bool(0.3))
        })
        .collect()
}

#[test]
fn random_runs_match_their_expansion_and_the_oracle() {
    for cfg in geometries() {
        let mut rng = SplitMix64::seed_from_u64(cfg.size() ^ u64::from(cfg.assoc()));
        for case in 0..300 {
            let mut three = Three::new(cfg);
            let len = rng.gen_range_usize(0, 300);
            let prefix = random_trace(&mut rng, cfg, len);
            three.trace(&prefix);
            for _ in 0..rng.gen_range_usize(1, 3) {
                let (streams, iters) = random_run(&mut rng, cfg);
                three.run(LoopRun {
                    streams: &streams,
                    iters,
                });
                three.agree(&format!("{cfg} case {case}: {streams:?} x{iters}"));
            }
            let tail = random_trace(&mut rng, cfg, 300);
            three.trace(&tail);
            three.agree(&format!("{cfg} case {case}: tail"));
        }
    }
}

fn stream(start: u64, stride: i64, write: bool) -> Stream {
    Stream {
        start,
        stride,
        write,
    }
}

#[test]
fn two_streams_in_one_set_of_a_direct_mapped_cache_evict_each_other() {
    let cfg = CacheConfig::decstation();
    let mut three = Three::new(cfg);
    let streams = [stream(BASE, 8, false), stream(BASE + cfg.size(), 8, true)];
    three.run(LoopRun {
        streams: &streams,
        iters: 64,
    });
    let s = three.agree("ping-pong");
    assert_eq!(s.hits, 0, "every access evicts the other stream's line");
}

#[test]
fn a_run_that_ends_mid_line_leaves_the_line_resident() {
    for cfg in geometries() {
        let mut three = Three::new(cfg);
        // One line and the first word of the next.
        let streams = [stream(BASE, 8, false)];
        three.run(LoopRun {
            streams: &streams,
            iters: cfg.line() / 8 + 1,
        });
        assert_eq!(three.agree("mid-line").misses, 2, "{cfg}");
        three.trace(&[cmt_cache::pack_access(BASE + cfg.line() + 8, false)]);
        assert_eq!(three.agree("the next word").misses, 2, "{cfg}");
    }
}

#[test]
fn a_one_iteration_run_and_two_streams_on_one_line() {
    for cfg in geometries() {
        let mut three = Three::new(cfg);
        let one = [stream(BASE, 8, false), stream(BASE + 8, -8, true)];
        three.run(LoopRun {
            streams: &one,
            iters: 1,
        });
        three.agree("one iteration");
        // A(I) loaded and stored, and A(I+1) loaded: one line, or two.
        let same = [
            stream(BASE, 8, false),
            stream(BASE + 8, 8, false),
            stream(BASE, 8, true),
        ];
        three.run(LoopRun {
            streams: &same,
            iters: 200,
        });
        let s = three.agree("same line");
        assert_eq!(s.cold_misses, s.misses, "{cfg}: nothing is evicted");
    }
}

#[test]
fn observed_caches_take_the_expansion() {
    let cfg = CacheConfig::i860();
    let mut rng = SplitMix64::seed_from_u64(7);
    let observed = || {
        let mut c = ShardedCache::new(cfg).with_interval(97);
        c.register_region("A", BASE, 4 * cfg.size());
        c
    };
    let (mut r, mut e) = (observed(), observed());
    assert!(!r.takes_runs());
    for _ in 0..50 {
        let (streams, iters) = random_run(&mut rng, cfg);
        let run = LoopRun {
            streams: &streams,
            iters,
        };
        r.access_run(run);
        e.access_batch(&expansion(run));
    }
    r.flush_window();
    e.flush_window();
    assert_eq!(r.stats(), e.stats());
    assert_eq!(r.per_array(), e.per_array());
    assert_eq!(r.snapshots(), e.snapshots());
}
