//! End-to-end and per-layer benchmark of the locality optimizer.
//!
//! Five workloads, each run in its own process by the `cmt-benchmark`
//! binary (see `README.md` for why each exists and what it should move):
//!
//! * `paper_tables` — Table 4 and Figure 2 through `cmt_bench`'s
//!   simulation entry points: interpretation plus cache simulation;
//! * `profile_sampled` — the paper kernels through sampled profiling:
//!   full interpretation, 1/16 of accesses simulated;
//! * `compile_corpus` — the static optimizer path over the verify corpus:
//!   parse, canonical key, supervised pipeline, analytic fold, printing;
//! * `serve_hot` — the compile server under a closed-loop client that
//!   asks only for programs it has answered before (memo reads);
//! * `serve_cold` — the same server and client asking only for programs
//!   it has not seen (compute and memo publication).
//!
//! Every workload repeats whole passes over its units of work (items or
//! requests) in a seeded order. A unit's time is its fastest repetition
//! over the measured passes: other tenants of the machine can only add
//! time, and they do so in phases that outlast a run. Every output is
//! checked against the committed `expected/` files.

mod compile_corpus;
mod layers;
mod paper_tables;
mod profile_sampled;
mod serve;
mod trace;

use layers::{ServeCounts, TracedRun};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Ledger, Recorder};

/// The workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "paper_tables",
    "profile_sampled",
    "compile_corpus",
    "serve_hot",
    "serve_cold",
];

/// How one workload is run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seeds item order, the server schedule and the probe sample.
    pub seed: u64,
    /// Measurement time; passes stop once another would exceed it.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Run a small, fixed subset of each workload's items once (tests).
    pub smoke: bool,
}

impl Config {
    /// Passes the run makes at least: five untraced ones, or two
    /// untraced and two traced ones. No pass is a mere warm-up: the
    /// fastest repetition of a unit already leaves out the first pass's
    /// cold caches and lazy set-up.
    fn min_passes(&self) -> usize {
        match (self.smoke, self.trace) {
            (true, false) => 1,
            (true, true) => 2,
            (false, false) => 5,
            (false, true) => 4,
        }
    }

    /// Whether pass `pass` records spans: a traced run alternates
    /// untraced and traced passes.
    fn traced_pass(&self, pass: usize) -> bool {
        self.trace && pass % 2 == 1
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Units of work whose output was checked.
    pub attempted: u64,
    /// Units whose output was wrong or missing.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// One line per item or program, from the last pass: what the oracle
    /// compares.
    pub outputs: Vec<String>,
    /// Chrome trace JSON of a traced run.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// `workload metric value unit` lines.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{} {} {} {}", self.workload, m.name, m.value, m.unit))
            .collect();
        out.push(format!(
            "{} failed {} of {}",
            self.workload, self.failed, self.attempted
        ));
        out
    }

    /// The one-line JSON result.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Runs one workload in this process.
///
/// # Errors
///
/// Fails on an unknown workload or when the workload cannot run at all
/// (a wrong output is a failed unit, not an error).
pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        "paper_tables" => paper_tables::run(cfg),
        "profile_sampled" => profile_sampled::run(cfg),
        "compile_corpus" => compile_corpus::run(cfg),
        "serve_hot" => serve::run(cfg, true),
        "serve_cold" => serve::run(cfg, false),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Before each pass a batch workload repeats its set-up at least
/// [`SETUP_REPS_PER_PASS`] times and for at least [`SETUP_SECONDS_PER_PASS`];
/// `setup_s` is the median of all repetitions. Batch set-up takes
/// microseconds to milliseconds, so it is repeated throughout the run
/// rather than timed once in its first, noisiest milliseconds.
const SETUP_REPS_PER_PASS: usize = 3;
const SETUP_SECONDS_PER_PASS: f64 = 0.01;

/// Where runs write traces and the server its artifacts.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The committed expected outputs of a workload.
pub fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.txt"))
}

/// The expected output line of every item or program of a workload.
pub struct Oracle(HashMap<String, String>);

impl Oracle {
    /// The committed expected outputs of `workload`; a missing file
    /// fails every output.
    pub fn committed(workload: &str) -> Oracle {
        Oracle::new(&std::fs::read_to_string(expected_path(workload)).unwrap_or_default())
    }

    /// Reads expected lines, one per item, keyed by their first word.
    pub fn new(text: &str) -> Oracle {
        Oracle(
            text.lines()
                .filter(|l| !l.is_empty())
                .map(|l| (item_name(l).to_string(), l.to_string()))
                .collect(),
        )
    }

    /// Whether an output line is exactly its item's expected line.
    pub fn accepts(&self, line: &str) -> bool {
        self.0.get(item_name(line)).is_some_and(|e| e == line)
    }
}

fn item_name(line: &str) -> &str {
    line.split(' ').next().unwrap_or_default()
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// SplitMix64, kept here so the inputs a seed makes cannot change with
/// the program under test.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `k` of `items`, chosen by `seed`, in their original order.
pub(crate) fn sample<T: Clone>(items: &[T], k: usize, seed: u64) -> Vec<T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    Rng::new(seed ^ 0x9B0B_E5A5).shuffle(&mut idx);
    idx.truncate(k);
    idx.sort_unstable();
    idx.into_iter().map(|i| items[i].clone()).collect()
}

/// Median of `values` (0 when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest of `values` (infinite when empty).
pub(crate) fn least(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Each unit's fastest time over its repetitions, ns.
pub(crate) fn fastest(samples: &[Vec<f64>]) -> Vec<u64> {
    samples.iter().map(|s| least(s) as u64).collect()
}

/// `CacheStats` as the expected files write them.
pub(crate) fn stats_text(s: &cmt_cache::CacheStats) -> String {
    format!("{} {} {} {}", s.accesses, s.hits, s.misses, s.cold_misses)
}

/// Whether the run makes another pass: until the minimum is reached,
/// then while one more pass of the average length so far fits.
fn another_pass(cfg: &Config, passes: usize, started: Instant) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    passes < cfg.min_passes() || elapsed + elapsed / passes as f64 <= cfg.seconds
}

/// What the timed phase of any workload produced.
pub(crate) struct Measured {
    attempted: u64,
    failed: u64,
    outputs: Vec<String>,
    setup_s: f64,
    items_per_s: f64,
    /// Each unit's fastest untraced time, ns.
    unit_ns: Vec<u64>,
    /// Recorders of the traced passes.
    recs: Vec<Recorder>,
    traced_passes: usize,
    /// Summed wall time of the traced passes, ns.
    traced_wall_ns: u64,
    /// Traced pass time over untraced pass time, minus one.
    overhead: f64,
    /// The timed path's server counters (server workloads only).
    serve: Option<ServeCounts>,
}

/// Turns a timed phase into the run's outcome: end-to-end metrics, or,
/// for a traced run, the layer probe over `probe_programs` at size
/// `probe_n` and the per-layer metrics.
pub(crate) fn finish(
    workload: &'static str,
    cfg: &Config,
    m: Measured,
    probe_programs: &[cmt_ir::program::Program],
    probe_n: i64,
) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        workload,
        attempted: m.attempted,
        failed: m.failed,
        metrics: Vec::new(),
        outputs: m.outputs,
        trace_json: None,
    };
    if !cfg.trace {
        let ms = |q: f64| layers::percentile(&m.unit_ns, q) / 1e6;
        outcome.metrics = vec![
            Metric {
                name: "setup_s",
                value: m.setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb()?,
                unit: "MB",
            },
            Metric {
                name: "items_per_s",
                value: m.items_per_s,
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_ms",
                value: ms(0.5),
                unit: "ms",
            },
            Metric {
                name: "latency_p90_ms",
                value: ms(0.9),
                unit: "ms",
            },
        ];
        return Ok(outcome);
    }
    let epoch = Instant::now();
    let mut probe_rec = Recorder::new(epoch, 0);
    let probe = layers::probe(
        &mut probe_rec,
        &sample(probe_programs, layers::PROBE_PROGRAMS, cfg.seed),
        probe_n,
        &out_dir(),
    )?;
    let mut recs = m.recs;
    recs.push(probe_rec);
    let ledger = Ledger::new(&recs);
    let traced = TracedRun {
        ledger: &ledger,
        passes: m.traced_passes as f64,
        wall_ns: m.traced_wall_ns,
        overhead: m.overhead,
        serve: m.serve,
        probe,
    };
    outcome.metrics = traced.metrics();
    outcome.trace_json = Some(trace::chrome_json(&recs));
    Ok(outcome)
}

/// Per-item timings of a batch workload's passes.
pub(crate) struct Batch {
    names: Vec<String>,
    oracle: Oracle,
}

impl Batch {
    /// A batch over items `names`, checked against the committed
    /// expected outputs of `workload`.
    pub(crate) fn new(workload: &str, names: Vec<String>) -> Batch {
        Batch {
            names,
            oracle: Oracle::committed(workload),
        }
    }

    /// Runs whole passes over the items, in a new seeded order each
    /// pass, until the configured time is spent. Before each pass,
    /// `setup` builds the items again, for `setup_s`. `unit` runs item
    /// `i` (recording spans when its recorder is enabled); `line` renders
    /// its output, untimed, for the oracle.
    pub(crate) fn run<S, T>(
        &self,
        cfg: &Config,
        mut setup: impl FnMut() -> S,
        mut unit: impl FnMut(usize, &mut Recorder) -> T,
        line: impl Fn(&str, &T) -> String,
    ) -> Measured {
        let n = self.names.len();
        let mut rng = Rng::new(cfg.seed);
        let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut traced: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut setups = Vec::new();
        let mut outputs = vec![String::new(); n];
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut rec = Recorder::new(Instant::now(), 1);
        let mut quiet = Recorder::disabled();
        let (mut passes, mut traced_passes, mut traced_wall_ns) = (0, 0, 0u64);
        let started = Instant::now();
        while another_pass(cfg, passes, started) {
            let (reps, setup_start) = (setups.len(), Instant::now());
            while setups.len() < reps + SETUP_REPS_PER_PASS
                || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS_PER_PASS
            {
                let t = Instant::now();
                black_box(setup());
                setups.push(t.elapsed().as_secs_f64());
            }
            let is_traced = cfg.traced_pass(passes);
            let r = if is_traced { &mut rec } else { &mut quiet };
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let pass_start = Instant::now();
            for i in order {
                r.set_item(i as u64);
                let root = r.open("item");
                let t = Instant::now();
                let out = unit(i, r);
                let ns = t.elapsed().as_nanos() as u64;
                r.close(root, None, &[]);
                let text = line(&self.names[i], &out);
                attempted += 1;
                if !self.oracle.accepts(&text) {
                    failed += 1;
                }
                if is_traced {
                    traced[i].push(ns as f64);
                } else {
                    untraced[i].push(ns as f64);
                }
                outputs[i] = text;
            }
            if is_traced {
                traced_passes += 1;
                traced_wall_ns += pass_start.elapsed().as_nanos() as u64;
            }
            passes += 1;
        }
        // A pass made of every item's fastest repetition.
        let pass_ns = |samples: &[Vec<f64>]| samples.iter().map(|s| least(s)).sum::<f64>();
        let untraced_ns = pass_ns(&untraced);
        Measured {
            attempted,
            failed,
            outputs,
            setup_s: median(&setups),
            items_per_s: n as f64 / (untraced_ns / 1e9),
            unit_ns: fastest(&untraced),
            recs: vec![rec],
            traced_passes,
            traced_wall_ns,
            overhead: pass_ns(&traced) / untraced_ns - 1.0,
            serve: None,
        }
    }
}
